"""Command-line front end.

Exit codes: 0 success, 2 mathematically negative result (no solution /
not satisfied), 1 bad input, parse error or a search over its work cap
(every ValueError and OSError, reported by main).
"""

import argparse
import json
import os
import random
import re
import sys
import time
from fractions import Fraction

from . import dp, gen, greedy, lp, oracle, tucker, fixp
from .core import (rat, rat_str, instance_to_obj, instance_from_obj,
                   solution_to_obj, solution_from_obj, verify,
                   disjoint_copies)

# `gen` size caps (lo, hi) per option, far above any desk-scale use.
# They bound what the random kinds and copies write; the agents that
# copies makes, (c + 1) n, are capped by "n" too.
GEN_CAPS = {"n": (0, 10_000), "d": (1, 64), "grid": (1, 10 ** 6),
            "c": (0, 1_000)}
# the Tucker dimension N of compile-tucker and decode-tucker (the demo
# labeling compiles to 465 agents at N = 1 and 37,380 at N = 4)
TUCKER_N = (1, 4)
# a cap on gates x p = 4N^2, the labeling circuit's gate groups: each
# gate is compiled once per simulator, in at most 14 agents.  It admits
# every N = 2 truth table as a shared-minterm DNF (6 NOT + 320 AND +
# 252 OR gates, 578 x 16 = 9,248) and bounds the circuit's part of the
# instance at about 140,000 agents
TUCKER_GATE_GROUPS = 10_000


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a '-' then a digit is a value, so a negative rational such as
        # "--eps -1/3" reaches its type check; argparse's own pattern
        # admits only forms like -1 and -0.5
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        sys.exit(1)


def _eps(text):
    """The argparse type of --eps: a rational >= 0."""
    try:
        value = rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("eps must be >= 0, got %r" % text)
    return value


def _int_in(text, lo, hi, what):
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not lo <= value <= hi:
        raise argparse.ArgumentTypeError(
            "%s must be an integer in %d..%d, got %r" % (what, lo, hi, text))
    return value


def _jobs(text):
    """A worker count for --jobs or CONSENSUS_CUT_JOBS: 1..os.cpu_count()."""
    return _int_in(text, 1, os.cpu_count() or 1,
                   "jobs (--jobs or CONSENSUS_CUT_JOBS)")


def _gen_cap(name):
    """The argparse type of `gen --<name>`: an integer within GEN_CAPS."""
    lo, hi = GEN_CAPS[name]
    return lambda text: _int_in(text, lo, hi, "gen --" + name)


def _tucker_n(n):
    """n if it lies in TUCKER_N, else a ValueError (exit 1)."""
    lo, hi = TUCKER_N
    if not lo <= n <= hi:
        raise ValueError("tucker dimension --n must be in %d..%d, got %d"
                         % (lo, hi, n))
    return n


def _load_json(path):
    with open(path) as fp:
        return json.load(fp)


def _write_json(obj, path):
    # compact, through the C encoder (json.dump and indent= take the
    # pure-Python one); _load_json and core.load_* read any layout
    if path is None:
        return
    with open(path, "w") as fp:
        fp.write(json.dumps(obj, separators=(",", ":"), sort_keys=True))
        fp.write("\n")


def _emit(report, args):
    if args.json:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        for k in sorted(report):
            print("%s: %s" % (k, report[k]))


def _budget(inst, sol):
    """The cut count against the instance's budget; `satisfied` and the
    exit code read only the balance."""
    return {"cuts_used": len(sol.cuts),
            "within_budget": len(sol.cuts) <= inst.cut_budget}


def _report_solution(inst, sol, eps, t0):
    rep = verify(inst, sol, eps)
    return {
        **_budget(inst, sol),
        "cuts": [rat_str(c) for c in sol.cuts],
        "labels": list(sol.labels),
        "max_discrepancy": rat_str(rep.max_discrepancy),
        "satisfied": rep.satisfied,
        "runtime_s": round(time.perf_counter() - t0, 3),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args):
    t0 = time.perf_counter()
    inst = instance_from_obj(_load_json(args.infile))
    extra = {}
    if args.algo == "greedy":
        sol = greedy.solve_half(inst)
        eps = args.eps if args.eps is not None else Fraction(1, 2)
    elif args.algo == "dp":
        res = dp.dp_solve(inst, args.eps, m=args.grid)
        if not res.feasible:
            _emit({"feasible": False, "states_visited": res.states_visited,
                   "m": res.m, "d": res.d}, args)
            return 2
        sol, eps, extra = res.solution, args.eps, {"d": res.d}
    else:
        sol = lp.solve_with_budget(inst, args.ell)
        if sol is None:
            _emit({"feasible": False}, args)
            return 2
        eps = args.eps if args.eps is not None else Fraction(0)
    report = {**_report_solution(inst, sol, eps, t0), **extra}
    _write_json(solution_to_obj(sol), args.out)
    if args.csv:
        print("cuts,max_discrepancy,runtime_s")
        print("%d,%s,%s" % (len(sol.cuts), report["max_discrepancy"],
                            report["runtime_s"]))
    else:
        _emit(report, args)
    return 0 if report["satisfied"] else 2


def cmd_verify(args):
    inst = instance_from_obj(_load_json(args.infile))
    sol = solution_from_obj(_load_json(args.solution))
    rep = verify(inst, sol, args.eps)
    if args.csv:
        print("agent,discrepancy")
        for i, d in enumerate(rep.per_agent_discrepancy):
            print("%d,%s" % (i, rat_str(d)))
    else:
        _emit({**_budget(inst, sol), "satisfied": rep.satisfied,
               "max_discrepancy": rat_str(rep.max_discrepancy),
               "per_agent": [rat_str(d) for d in rep.per_agent_discrepancy]},
              args)
    return 0 if rep.satisfied else 2


def cmd_refine(args):
    inst = instance_from_obj(_load_json(args.infile))
    sol = solution_from_obj(_load_json(args.solution))
    refined, z = lp.refine_exact(inst, sol)
    _write_json(solution_to_obj(refined), args.out)
    _emit({"z_star": rat_str(z), "exact": z == 0,
           "cuts": [rat_str(c) for c in refined.cuts]}, args)
    return 0 if z == 0 else 2


def _check_gate_groups(gates, n):
    """A ValueError (exit 1) if gates x p, p = 4 n^2, exceeds
    TUCKER_GATE_GROUPS."""
    p = 4 * n * n
    if gates * p > TUCKER_GATE_GROUPS:
        raise ValueError("labeling circuit too large: %d gates x p = %d "
                         "is %d gate groups, over the cap of %d"
                         % (gates, p, gates * p, TUCKER_GATE_GROUPS))


def _load_labeling(args):
    n = _tucker_n(args.n)
    if args.circuit is not None:
        with open(args.circuit) as fp:
            circ = tucker.BoolCircuit.parse(fp.read())
        _check_gate_groups(len(circ.gates), n)
        return tucker.TuckerLabeling(n, circ)
    return tucker.demo_labeling(n)


def cmd_compile_tucker(args):
    lab = _load_labeling(args)
    compiled = tucker.compile_tucker(lab, args.eps)
    _write_json(instance_to_obj(compiled.instance), args.out)
    _emit({"agents": compiled.instance.n,
           "domain_right": rat_str(compiled.instance.domain_right),
           "eps": rat_str(compiled.params.eps),
           "simulators": compiled.layout.p,
           "region_length": compiled.layout.q,
           "mul_chain_length": compiled.params.kmul,
           "two_block_uniform":
               tucker.audit_two_block_uniform(compiled.instance)}, args)
    return 0


def cmd_decode_tucker(args):
    lab = _load_labeling(args)
    compiled = tucker.compile_tucker(lab, args.eps)
    sol = solution_from_obj(_load_json(args.solution))
    try:
        u, w = tucker.decode_solution(compiled, sol)
    except tucker.DecodeFailure as e:
        _emit({"decoded": False, "reason": str(e)}, args)
        return 2
    _emit({"decoded": True, "u": list(u), "w": list(w),
           "label_u": lab.evaluate(u), "label_w": lab.evaluate(w)}, args)
    return 0


def cmd_compile_fixp(args):
    with open(args.circuit) as fp:
        circ = fixp.TruncCircuit.parse(fp.read())
    compiled = fixp.compile_fixp(circ)
    _write_json(instance_to_obj(compiled.instance), args.out)
    _emit({"agents": compiled.instance.n,
           "domain_right": rat_str(compiled.instance.domain_right)}, args)
    return 0


def cmd_decode_fixp(args):
    with open(args.circuit) as fp:
        circ = fixp.TruncCircuit.parse(fp.read())
    sol = solution_from_obj(_load_json(args.solution))
    try:
        x = fixp.decode_fixed_point(sol)
    except fixp.KDivDecodeFailure as e:
        _emit({"decoded": False, "reason": str(e)}, args)
        return 2
    fx = fixp.eval_trunc(circ, x)
    fixed = fx == tuple(x)
    _emit({"decoded": True, "x": [rat_str(v) for v in x],
           "F_x": [rat_str(v) for v in fx],
           "fixed_point": fixed}, args)
    return 0 if fixed else 2


def cmd_oracle(args):
    t0 = time.perf_counter()
    inst = instance_from_obj(_load_json(args.infile))
    cfg = oracle.GridSearchConfig(args.grid, args.max_cuts)
    sol = oracle.brute_force(inst, args.eps, cfg, jobs=args.jobs)
    if sol is None:
        _emit({"feasible": False}, args)
        return 2
    _write_json(solution_to_obj(sol), args.out)
    _emit(_report_solution(inst, sol, args.eps, t0), args)
    return 0


def cmd_gen(args):
    rng = random.Random(args.seed)
    if args.kind == "random-single-block":
        inst = gen.random_single_block_instance(rng, args.n, args.grid)
    elif args.kind == "random-dblock":
        inst = gen.random_dblock_instance(rng, args.n, args.d, args.grid)
    elif args.kind == "copies":
        if args.infile is None:
            raise ValueError("--kind copies requires --in")
        base = instance_from_obj(_load_json(args.infile))
        n, cap = (args.c + 1) * base.n, GEN_CAPS["n"][1]
        if n > cap:
            raise ValueError("--c %d: %d copies of %d agents are %d "
                             "agents, over the cap of %d"
                             % (args.c, args.c + 1, base.n, n, cap))
        inst = disjoint_copies(base, args.c)
    _write_json(instance_to_obj(inst), args.out)
    _emit({"agents": inst.n, "k": inst.k,
           "domain_right": rat_str(inst.domain_right)}, args)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = _Parser(prog="chdiv",
                description="exact consensus division toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *shared):
        """--json and --jobs, plus the shared options named in shared:
        any of "in", "eps", "out" and "csv"."""
        sp.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
        # default None: main reads CONSENSUS_CUT_JOBS on every call
        sp.add_argument("--jobs", type=_jobs, default=None)
        if "in" in shared:
            sp.add_argument("--in", dest="infile", required=True)
        if "eps" in shared:
            sp.add_argument("--eps", type=_eps, default=None)
        if "out" in shared:
            sp.add_argument("--out", help="output file (JSON)")
        if "csv" in shared:
            sp.add_argument("--csv", action="store_true",
                            help="plot-ready CSV on stdout")

    sp = sub.add_parser("solve", help="run a solver on an instance")
    common(sp, "in", "eps", "out", "csv")
    sp.add_argument("--algo", choices=["greedy", "dp", "lp"],
                    default="greedy")
    sp.add_argument("--ell", type=int, default=1)
    sp.add_argument("--grid", type=int, default=None,
                    help="dp cut grid resolution override")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check a solution")
    common(sp, "in", "eps", "csv")
    sp.add_argument("--solution", required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("refine", help="exact refinement of an "
                        "approximate solution")
    common(sp, "in", "out")
    sp.add_argument("--solution", required=True)
    sp.set_defaults(func=cmd_refine)

    sp = sub.add_parser("compile-tucker",
                        help="labeling circuit to halving instance")
    common(sp, "eps", "out")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--circuit", help="labeling circuit file "
                    "(defaults to the built-in demo labeling)")
    sp.set_defaults(func=cmd_compile_tucker)

    sp = sub.add_parser("decode-tucker",
                        help="solution back to a labeling solution pair")
    common(sp, "eps")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--circuit")
    sp.add_argument("--solution", required=True)
    sp.set_defaults(func=cmd_decode_tucker)

    sp = sub.add_parser("compile-fixp",
                        help="fixed-point circuit to 1/3-division "
                        "instance")
    common(sp, "out")
    sp.add_argument("--circuit", required=True)
    sp.set_defaults(func=cmd_compile_fixp)

    sp = sub.add_parser("decode-fixp",
                        help="exact solution back to a fixed point")
    common(sp)
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--solution", required=True)
    sp.set_defaults(func=cmd_decode_fixp)

    sp = sub.add_parser("oracle", help="brute-force grid search")
    common(sp, "in", "eps", "out")
    sp.add_argument("--grid", type=int, required=True)
    sp.add_argument("--max-cuts", type=int, required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("gen", help="instance generators")
    common(sp, "out")
    sp.add_argument("--kind", required=True,
                    choices=["random-single-block", "random-dblock",
                             "copies"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=_gen_cap("n"), default=2)
    sp.add_argument("--d", type=_gen_cap("d"), default=2)
    sp.add_argument("--c", type=_gen_cap("c"), default=1)
    sp.add_argument("--grid", type=_gen_cap("grid"), default=64,
                    help="endpoint grid denominator")
    sp.add_argument("--in", dest="infile", help="base instance for "
                    "kind=copies")
    sp.set_defaults(func=cmd_gen)
    return p


_parser = None


def main(argv=None):
    # the tree is built on the first call, not at import, and reused:
    # parse_args makes a fresh Namespace per call and keeps no state
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.jobs is None:
        try:
            args.jobs = _jobs(os.environ.get("CONSENSUS_CUT_JOBS", "1"))
        except argparse.ArgumentTypeError as e:
            _parser.error(str(e))
    if args.command == "verify" and args.eps is None:
        print("verify requires --eps", file=sys.stderr)
        return 1
    if args.command == "solve" and args.algo == "dp" and args.eps is None:
        print("solve --algo dp requires --eps", file=sys.stderr)
        return 1
    if args.command == "oracle" and args.eps is None:
        print("oracle requires --eps", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print("%s: %s" % (args.command, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
