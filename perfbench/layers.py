"""Which program functions the traced run wraps, and the per-layer
metrics derived from the spans.

Each entry names the span, every (module, attribute) site through
which callers reach the function, and an optional hook that turns
arguments or results into counters.  Sites matter: `verify` is imported
by name into cli, dp, lp and oracle, and `lp.lp_feasible` and
`simplex.solve_eq` are looked up as module globals by their callers.
"""

import importlib
import os

from chdiv import tucker


def _verify_hook(tr, args, kwargs, result, exc):
    inst, sol = args[0], args[1]
    tr.count("core.verify.agent_segments", inst.n * (len(sol.cuts) + 1))


def _dp_hook(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("dp.states_visited", result.states_visited)
        tr.count("dp.infeasible", int(result.solution is None))


def _lp_feasible_hook(tr, args, kwargs, result, exc):
    tr.count("lp.lp_feasible.hits", int(result is not None))


def _compile_tucker_hook(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("tucker.agents_sum", result.instance.n)
        tr.count("tucker.domain_right_sum",
                 float(result.instance.domain_right))


def _forward_place_hook(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("tucker.cuts_sum", len(result.cuts))


def _decode_hook(tr, args, kwargs, result, exc):
    if exc is None:
        tr.count("tucker.decoded")
    elif isinstance(exc, tucker.DecodeFailure):
        tr.count("tucker.decode_negative")


def _compile_fixp_hook(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("fixp.agents_sum", result.instance.n)


def _file_bytes_hook(tr, args, kwargs, result, exc):
    path = args[1] if len(args) > 1 else args[0]
    if exc is None and path is not None and os.path.exists(path):
        tr.count("core.json.bytes", os.path.getsize(path))


VERIFY_SITES = ["chdiv.core", "chdiv.cli", "chdiv.dp", "chdiv.lp",
                "chdiv.oracle"]

# (span name, [(module, attribute), ...], hook)
FUNCTIONS = [
    ("cli.main", [("chdiv.cli", "main")], None),
    ("core.verify", [(m, "verify") for m in VERIFY_SITES], _verify_hook),
    ("greedy.solve_half", [("chdiv.greedy", "solve_half")], None),
    ("dp.dp_solve", [("chdiv.dp", "dp_solve")], _dp_hook),
    ("oracle.brute_force", [("chdiv.oracle", "brute_force")], None),
    ("lp.solve_with_budget", [("chdiv.lp", "solve_with_budget")], None),
    ("lp.lp_feasible", [("chdiv.lp", "lp_feasible")], _lp_feasible_hook),
    ("lp.refine_exact", [("chdiv.lp", "refine_exact")], None),
    ("simplex.solve_eq", [("chdiv.simplex", "solve_eq")], None),
    ("tucker.compile_tucker", [("chdiv.tucker", "compile_tucker")],
     _compile_tucker_hook),
    ("tucker.forward_place", [("chdiv.tucker", "forward_place")],
     _forward_place_hook),
    ("tucker.balance_report", [("chdiv.tucker", "balance_report")], None),
    ("tucker.decode_solution", [("chdiv.tucker", "decode_solution")],
     _decode_hook),
    ("fixp.compile_fixp", [("chdiv.fixp", "compile_fixp")],
     _compile_fixp_hook),
    ("fixp.forward_place_kdiv", [("chdiv.fixp", "forward_place_kdiv")],
     None),
    ("fixp.decode_fixed_point", [("chdiv.fixp", "decode_fixed_point")],
     None),
]

# JSON parse/emit, one span name for the whole group
JSON_FUNCTIONS = [
    ([("chdiv.core", f), ("chdiv.cli", f)], None)
    for f in ("instance_to_obj", "instance_from_obj", "solution_to_obj",
              "solution_from_obj")
] + [
    ([("chdiv.core", f)], None)
    for f in ("dump_instance", "load_instance", "dump_solution",
              "load_solution")
] + [
    ([("chdiv.cli", "_load_json")], _file_bytes_hook),
    ([("chdiv.cli", "_write_json")], _file_bytes_hook),
]


def install(tracer):
    def sites(pairs):
        return [(importlib.import_module(m), a) for m, a in pairs]
    for name, pairs, hook in FUNCTIONS:
        tracer.install(name, sites(pairs), hook)
    for pairs, hook in JSON_FUNCTIONS:
        tracer.install("core.json", sites(pairs), hook)


def metrics(tracer):
    """Per-layer metric values from the recorded spans and counters."""
    by_name = tracer.by_name()
    c = tracer.counters
    out = {}
    for name in [f[0] for f in FUNCTIONS] + ["core.json"]:
        calls, busy = by_name.get(name, (0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".busy_s"] = busy
        out[name + ".errors"] = tracer.errors[name]

    def per_call(total, span):
        calls = out[span + ".calls"]
        return total / calls if calls else 0

    out["cli.self_s"] = per_call(out["cli.main.busy_s"], "cli.main")
    out["core.verify.agent_segments"] = c["core.verify.agent_segments"]
    out["core.json.bytes"] = c["core.json.bytes"]
    out["dp.states_visited"] = c["dp.states_visited"]
    out["dp.infeasible_share"] = per_call(c["dp.infeasible"], "dp.dp_solve")
    out["lp.lp_feasible.hit_share"] = per_call(c["lp.lp_feasible.hits"],
                                               "lp.lp_feasible")
    out["tucker.agents"] = per_call(c["tucker.agents_sum"],
                                    "tucker.compile_tucker")
    out["tucker.domain_right"] = per_call(c["tucker.domain_right_sum"],
                                          "tucker.compile_tucker")
    out["tucker.cuts"] = per_call(c["tucker.cuts_sum"],
                                  "tucker.forward_place")
    out["tucker.decoded"] = c["tucker.decoded"]
    out["tucker.decode_negative"] = c["tucker.decode_negative"]
    out["fixp.agents"] = per_call(c["fixp.agents_sum"], "fixp.compile_fixp")
    return out
