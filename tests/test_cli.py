import argparse
import ast
import inspect
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from chdiv.cli import (main, _jobs, _gen_cap, _tucker_n, _check_gate_groups,
                       GEN_CAPS, TUCKER_N, TUCKER_GATE_GROUPS)
from chdiv.core import (instance_from_obj, instance_to_obj, load_instance,
                        load_solution, solution_from_obj, solution_to_obj,
                        verify)
import chdiv
from chdiv import cli, fixp, oracle, tucker
from conftest import format_circuit, random_dnf_labeling


F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_instance(tmp_path, capsys, name="inst.json", seed="1", n="3"):
    path = tmp_path / name
    code, _, _ = run(capsys, "gen", "--kind", "random-single-block",
                     "--n", n, "--seed", seed, "--out", str(path))
    assert code == 0
    return path


def test_gen_is_deterministic(tmp_path, capsys):
    p1 = gen_instance(tmp_path, capsys, "a.json", seed="7")
    p2 = gen_instance(tmp_path, capsys, "b.json", seed="7")
    p3 = gen_instance(tmp_path, capsys, "c.json", seed="8")
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != p3.read_bytes()


def test_solve_greedy_and_verify_round_trip(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    solp = tmp_path / "sol.json"
    code, out, _ = run(capsys, "solve", "--algo", "greedy", "--in",
                       str(inst), "--out", str(solp), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["satisfied"] is True
    code, _, _ = run(capsys, "verify", "--in", str(inst), "--solution",
                     str(solp), "--eps", "1/2")
    assert code == 0
    # an unreachable tolerance flips the exit code
    code, _, _ = run(capsys, "verify", "--in", str(inst), "--solution",
                     str(solp), "--eps", "1/100000000")
    assert code == 2


def test_solve_dp_requires_eps(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    code, _, err = run(capsys, "solve", "--algo", "dp", "--in", str(inst))
    assert code == 1
    assert "eps" in err


def test_solve_dp_and_csv_output(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, seed="3", n="2")
    code, out, _ = run(capsys, "solve", "--algo", "dp", "--eps", "1/4",
                       "--in", str(inst), "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cuts,max_discrepancy,runtime_s"
    assert len(lines) == 2


def test_solve_dp_infeasible_grid(tmp_path, capsys):
    inst = tmp_path / "disjoint.json"
    inst.write_text(json.dumps({
        "k": 2, "domain_right": "1/1", "cut_budget": 2,
        "agents": [
            {"blocks": [{"left": "0/1", "right": "1/2", "height": "2/1"}]},
            {"blocks": [{"left": "1/2", "right": "1/1", "height": "2/1"}]},
        ]}))
    code, out, _ = run(capsys, "solve", "--algo", "dp", "--eps",
                       "1/1000000", "--in", str(inst), "--grid", "2",
                       "--json")
    assert code == 2
    report = json.loads(out)
    assert report["feasible"] is False and report["d"] == 1


def test_solve_dp_on_a_longer_domain(tmp_path, capsys):
    # one block on [1, 2] of the domain [0, 2]
    inst = tmp_path / "long.json"
    inst.write_text(json.dumps({
        "k": 2, "domain_right": "2/1", "cut_budget": 1,
        "agents": [
            {"blocks": [{"left": "1/1", "right": "2/1", "height": "1/1"}]},
        ]}))
    solp = tmp_path / "sol.json"
    code, out, _ = run(capsys, "solve", "--algo", "dp", "--eps", "1/4",
                       "--in", str(inst), "--out", str(solp), "--json")
    report = json.loads(out)
    assert code == 0 and report["satisfied"] is True and report["d"] == 1
    sol = solution_from_obj(json.loads(solp.read_text()))
    parsed = instance_from_obj(json.loads(inst.read_text()))
    assert len(sol.cuts) <= parsed.cut_budget
    assert verify(parsed, sol, F(1, 4)).satisfied


def test_solve_dp_rejects_a_grid_below_one(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    for grid in ("0", "-3"):
        code, out, err = run(capsys, "solve", "--algo", "dp", "--eps",
                             "1/4", "--in", str(inst), "--grid", grid)
        assert code == 1 and "grid" in err and out == ""


def test_solve_lp_exact(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    solp = tmp_path / "sol.json"
    code, out, _ = run(capsys, "solve", "--algo", "lp", "--in", str(inst),
                       "--out", str(solp), "--json")
    assert code == 0
    assert json.loads(out)["max_discrepancy"] == "0/1"


def test_refine_recovers_exactness(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    solp = tmp_path / "sol.json"
    run(capsys, "solve", "--algo", "lp", "--in", str(inst), "--out",
        str(solp))
    sol = solution_from_obj(json.loads(solp.read_text()))
    jittered = solution_to_obj(sol.__class__(
        [c + F(1, 10 ** 7) for c in sol.cuts], sol.labels))
    (tmp_path / "approx.json").write_text(json.dumps(jittered))
    outp = tmp_path / "refined.json"
    code, out, _ = run(capsys, "refine", "--in", str(inst), "--solution",
                       str(tmp_path / "approx.json"), "--out", str(outp),
                       "--json")
    assert code == 0
    assert json.loads(out)["z_star"] == "0/1"
    refined = solution_from_obj(json.loads(outp.read_text()))
    instance = instance_from_obj(json.loads(inst.read_text()))
    assert verify(instance, refined, 0).satisfied


def test_oracle_subcommand(tmp_path, capsys, monkeypatch):
    # --jobs is capped at os.cpu_count(): pin the count so the parallel
    # path runs, and the cap holds, on a host of any size
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    inst = gen_instance(tmp_path, capsys, seed="5", n="2")
    code, _, _ = run(capsys, "oracle", "--in", str(inst), "--eps", "1/2",
                     "--grid", "8", "--max-cuts", "2", "--jobs", "2")
    assert code == 0
    with pytest.raises(SystemExit) as e:
        run(capsys, "oracle", "--in", str(inst), "--eps", "1/2",
            "--grid", "8", "--max-cuts", "2", "--jobs", "3")
    assert e.value.code == 1
    # eps 0 on a coarse foreign grid is typically impossible
    code, _, _ = run(capsys, "oracle", "--in", str(inst), "--eps", "0",
                     "--grid", "3", "--max-cuts", "1")
    assert code == 2


def test_oracle_runtime_covers_the_search(tmp_path, capsys, monkeypatch):
    inst = gen_instance(tmp_path, capsys, seed="5", n="2")
    search = oracle.brute_force

    def slow_search(*args, **kwargs):
        time.sleep(0.05)
        return search(*args, **kwargs)
    monkeypatch.setattr(oracle, "brute_force", slow_search)
    code, out, _ = run(capsys, "oracle", "--in", str(inst), "--eps", "1/2",
                       "--grid", "8", "--max-cuts", "2", "--json")
    assert code == 0
    assert json.loads(out)["runtime_s"] >= 0.05


def test_gen_copies(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n="2")
    outp = tmp_path / "copies.json"
    code, out, _ = run(capsys, "gen", "--kind", "copies", "--in", str(inst),
                       "--c", "2", "--out", str(outp), "--json")
    assert code == 0
    assert json.loads(out)["agents"] == 6


def test_gen_copies_without_in_is_exit_1(capsys):
    code, out, err = run(capsys, "gen", "--kind", "copies")
    assert code == 1 and out == ""
    assert "--in" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["oracle", "--eps", "1/2", "--grid", "8", "--max-cuts", "-1"],
     "max_cuts must be >= 0"),
    (["oracle", "--eps", "-1", "--grid", "8", "--max-cuts", "1"],
     "eps must be >= 0"),
    (["solve", "--algo", "greedy", "--eps", "-1"], "eps must be >= 0"),
    (["verify", "--eps=-1/3", "--solution", "SOL"], "eps must be >= 0"),
    (["verify", "--eps", "-1/3", "--solution", "SOL"], "eps must be >= 0"),
])
def test_negative_budget_or_eps_is_exit_1(tmp_path, capsys, argv, message):
    # an unsupported input is exit 1, never a negative answer (exit 2)
    inst = gen_instance(tmp_path, capsys, n="2")
    solp = tmp_path / "sol.json"
    assert run(capsys, "solve", "--in", str(inst), "--out", str(solp))[0] == 0
    argv = [str(solp) if a == "SOL" else a for a in argv]
    try:
        code, out, err = run(capsys, *argv, "--in", str(inst))
    except SystemExit as e:
        code, err = e.code, capsys.readouterr().err
    assert code == 1
    assert message in err and "Traceback" not in err


def test_solve_and_verify_report_the_cut_budget(tmp_path, capsys):
    # the lp midpoint solution of three disjoint copies is exact with
    # 2n - 1 = 29 cuts against a budget of 17: satisfied (exit 0) and
    # reported over budget
    base = gen_instance(tmp_path, capsys, seed="1", n="5")
    inst, solp = tmp_path / "copies.json", tmp_path / "sol.json"
    assert run(capsys, "gen", "--kind", "copies", "--in", str(base),
               "--c", "2", "--out", str(inst))[0] == 0
    code, out, _ = run(capsys, "solve", "--algo", "lp", "--in", str(inst),
                       "--out", str(solp), "--json")
    solved = json.loads(out)
    code2, out, _ = run(capsys, "verify", "--in", str(inst), "--solution",
                        str(solp), "--eps", "0", "--json")
    checked = json.loads(out)
    assert code == code2 == 0
    for report in (solved, checked):
        assert report["satisfied"] is True
        assert report["cuts_used"] == 29 and report["within_budget"] is False
    code, out, _ = run(capsys, "solve", "--in", str(base), "--json")
    report = json.loads(out)
    assert code == 0 and report["within_budget"] is True
    assert report["cuts_used"] == len(report["cuts"]) <= 5


def test_bad_input_exit_codes(tmp_path, capsys):
    code, _, _ = run(capsys, "verify", "--in", str(tmp_path / "nope.json"),
                     "--solution", str(tmp_path / "nope.json"), "--eps", "0")
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "solve", "--in", str(bad))
    assert code == 1
    with pytest.raises(SystemExit) as e:
        run(capsys, "solve", "--in", str(bad), "--eps", "not-a-number")
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        run(capsys, "frobnicate")
    assert e.value.code == 1


def _malformed(obj, path, value):
    """A copy of obj with the field at path (keys and indices) set to
    value, or removed when value is _MISSING."""
    root = node = json.loads(json.dumps(obj))
    *head, last = path
    for key in head:
        node = node[key]
    if value is _MISSING:
        del node[last]
    else:
        node[last] = value
    return root


_MISSING = object()
_HEIGHT = ("agents", 0, "blocks", 0, "height")
_LEFT = ("agents", 0, "blocks", 0, "left")


@pytest.mark.parametrize("command, path, value, field", [
    ("solve", _HEIGHT, "1/0", "agents[0].blocks[0].height: '1/0' is not "
     "a rational"),
    ("solve", _LEFT, 0.5, "agents[0].blocks[0].left: 0.5 is not a rational"),
    ("solve", ("agents",), 5, "agents: 5 is not a list"),
    ("solve", (), None, "top level: a list is not an object"),
    ("solve", ("k",), 2.5, "k: 2.5 is not an integer"),
    ("solve", ("cut_budget",), 2.9, "cut_budget: 2.9 is not an integer"),
    ("solve", ("cut_budget",), True, "cut_budget: True is not an integer"),
    ("solve", ("agents",), _MISSING, "agents: missing"),
    ("verify", ("cuts", 0), 0.5, "cuts[0]: 0.5 is not a rational"),
    ("verify", ("cuts", 0), "1/0", "cuts[0]: '1/0' is not a rational"),
    ("verify", ("cuts",), 5, "cuts: 5 is not a list"),
    ("verify", (), None, "top level: a list is not an object"),
    ("verify", ("cuts",), _MISSING, "cuts: missing"),
], ids=["height-1/0", "float-endpoint", "agents-int", "instance-array",
        "float-k", "float-budget", "bool-budget", "no-agents", "float-cut",
        "cut-1/0", "cuts-int", "solution-array", "no-cuts"])
def test_a_malformed_json_field_is_exit_1(tmp_path, capsys, command, path,
                                          value, field):
    # solve reads the malformed instance, verify the malformed solution;
    # the message names the field, and no exception escapes main
    inst = gen_instance(tmp_path, capsys, n="2")
    solp = tmp_path / "sol.json"
    assert run(capsys, "solve", "--in", str(inst), "--out", str(solp))[0] == 0
    good = inst if command == "solve" else solp
    obj = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([obj] if path == ()
                              else _malformed(obj, path, value)))
    if command == "solve":
        code, out, err = run(capsys, "solve", "--in", str(bad))
        what = "instance"
    else:
        code, out, err = run(capsys, "verify", "--in", str(inst),
                             "--solution", str(bad), "--eps", "1/2")
        what = "solution"
    assert code == 1 and out == ""
    assert err.startswith("%s: malformed %s: %s" % (command, what, field))
    assert "Traceback" not in err


def test_only_main_returns_1():
    # every refusal is an exception that main turns into exit 1; no
    # subcommand has a handler of its own
    tree = ast.parse(inspect.getsource(cli))
    returns_1 = sorted(
        f.name for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name != "main"
        for r in ast.walk(f)
        if isinstance(r, ast.Return) and isinstance(r.value, ast.Constant)
        and r.value.value == 1)
    assert returns_1 == []


def test_jobs_type_accepts_one_to_cpu_count():
    cap = os.cpu_count() or 1
    assert _jobs("1") == 1
    assert _jobs(str(cap)) == cap
    for bad in ("0", "-3", str(cap + 1), "abc", "1.5", "", "1" * 5000):
        with pytest.raises(argparse.ArgumentTypeError):
            _jobs(bad)


def test_tucker_dimension_bound():
    assert TUCKER_N == (1, 4)
    for n in range(1, 5):
        assert _tucker_n(n) == n
    for bad in (0, -1, 5, 10_000):
        with pytest.raises(ValueError, match="1..4"):
            _tucker_n(bad)


@pytest.mark.parametrize("argv", [
    ("compile-tucker", "--n", "0"),
    ("compile-tucker", "--n", "-1"),
    ("decode-tucker", "--n", "0", "--solution", "missing.json"),
])
def test_tucker_dimension_out_of_bound_is_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "must be in 1..4" in err and "Traceback" not in err


def test_tucker_gate_group_bound():
    assert TUCKER_GATE_GROUPS == 10_000
    # gates x p with p = 4 N^2, so the cap admits 2,500 gates at N = 1,
    # 625 at N = 2 and 156 at N = 4
    for gates, n in ((2_500, 1), (625, 2), (156, 4), (0, 4)):
        _check_gate_groups(gates, n)
    for gates, n in ((2_501, 1), (626, 2), (157, 4)):
        with pytest.raises(ValueError, match="over the cap of 10000"):
            _check_gate_groups(gates, n)


@pytest.mark.parametrize("command", ["compile-tucker", "decode-tucker"])
def test_tucker_circuit_over_the_gate_cap_is_exit_1(tmp_path, capsys,
                                                    monkeypatch, command):
    # the demo labeling at N = 1, its NOT followed by 1,250 double
    # negations: an antipodally anti-symmetric labeling of 2,501 gates,
    # refused before anything compiles or reads the solution file
    lines = ["INPUT 0", "INPUT 1", "INPUT 2"]
    lines += ["NOT %d -> %d" % (w, w + 1 if w else 3)
              for w in [0] + list(range(3, 2_503))]
    circ = tmp_path / "long.txt"
    circ.write_text("\n".join(lines + ["OUTPUT 2503", "OUTPUT 2503"]))
    lab = tucker.TuckerLabeling(1, tucker.BoolCircuit.parse(
        circ.read_text()))
    assert len(lab.circuit.gates) == 2_501
    assert lab.check_antisymmetric() is None

    def no_compile(*args):
        raise AssertionError("compiled an over-cap circuit")

    monkeypatch.setattr(tucker, "compile_tucker", no_compile)
    argv = [command, "--n", "1", "--circuit", str(circ)]
    if command == "decode-tucker":
        argv += ["--solution", str(tmp_path / "missing.json")]
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert "2501 gates x p = 4 is 10004 gate groups" in err
    assert "over the cap of 10000" in err


def test_bad_jobs_is_exit_1(tmp_path, capsys, monkeypatch):
    # each bad value is rejected while the arguments are parsed, before
    # any subcommand (and so any pool) starts
    argv = ["verify", "--in", str(tmp_path / "nope.json"), "--solution",
            str(tmp_path / "nope.json"), "--eps", "0"]
    monkeypatch.setenv("CONSENSUS_CUT_JOBS", "abc")
    with pytest.raises(SystemExit) as e:
        run(capsys, *argv)
    assert e.value.code == 1
    assert "CONSENSUS_CUT_JOBS" in capsys.readouterr().err
    # an explicit --jobs overrides the environment
    code, _, err = run(capsys, *argv, "--jobs", "1")
    assert code == 1 and "No such file" in err and "--jobs" not in err
    monkeypatch.delenv("CONSENSUS_CUT_JOBS")
    with pytest.raises(SystemExit) as e:
        run(capsys, *argv, "--jobs", "-3")
    assert e.value.code == 1


def test_jobs_env_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    # a parser built with the environment's value as its --jobs default
    # would keep the first call's value for every later call
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setenv("CONSENSUS_CUT_JOBS", "1")
    inst = gen_instance(tmp_path, capsys, n="2")
    seen = []
    monkeypatch.setattr(oracle, "brute_force",
                        lambda inst, eps, cfg, jobs: seen.append(jobs))
    argv = ["oracle", "--in", str(inst), "--eps", "1/2", "--grid", "4",
            "--max-cuts", "1"]
    for jobs in ("1", "2"):
        monkeypatch.setenv("CONSENSUS_CUT_JOBS", jobs)
        assert run(capsys, *argv)[0] == 2
    assert run(capsys, *argv, "--jobs", "1")[0] == 2
    monkeypatch.delenv("CONSENSUS_CUT_JOBS")
    assert run(capsys, *argv)[0] == 2
    assert seen == [1, 2, 1, 1]


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    inst = gen_instance(tmp_path, capsys)
    solp = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--in", str(inst), "--out", str(solp))
    assert code == 0
    with pytest.raises(SystemExit) as e:
        run(capsys, "verify", "--in", str(inst), "--solution", str(solp),
            "--eps", "not-a-number")
    assert e.value.code == 1
    # the cached parser still works after argparse exited
    code, _, _ = run(capsys, "verify", "--in", str(inst), "--solution",
                     str(solp), "--eps", "1/2")
    assert code == 0
    assert len(built) == 1


def test_no_option_leaks_between_calls(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "solve", "--in", str(inst), "--json")
    assert code == 0 and json.loads(out)["satisfied"] is True
    code, out, _ = run(capsys, "solve", "--in", str(inst))
    assert code == 0
    assert "satisfied: True" in out.splitlines()
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_out_files_are_compact_sorted_json(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n="4")
    solp = tmp_path / "sol.json"
    assert run(capsys, "solve", "--in", str(inst), "--out", str(solp))[0] == 0
    for path, load, to_obj in ((inst, load_instance, instance_to_obj),
                               (solp, load_solution, solution_to_obj)):
        text = path.read_text()
        obj = json.loads(text)
        assert text == json.dumps(obj, separators=(",", ":"),
                                  sort_keys=True) + "\n"
        with open(path) as fp:
            assert to_obj(load(fp)) == obj


def test_gen_caps_admit_desk_sizes_and_reject_the_rest():
    # the largest values the tests and the benchmark pass, by option
    used = {"n": 50, "d": 3, "grid": 64, "c": 24}
    for name, (lo, hi) in GEN_CAPS.items():
        parse = _gen_cap(name)
        assert hi >= 10 * used[name]
        assert parse(str(lo)) == lo and parse(str(hi)) == hi
        assert parse(str(used[name])) == used[name]
        for bad in (str(lo - 1), str(hi + 1), "1" * 5000, "abc", "2.0", ""):
            with pytest.raises(argparse.ArgumentTypeError) as e:
                parse(bad)
            assert "--" + name in str(e.value)


def test_gen_over_a_cap_is_exit_1(tmp_path, capsys):
    # argparse rejects the value before any generator runs
    for name in GEN_CAPS:
        with pytest.raises(SystemExit) as e:
            run(capsys, "gen", "--kind", "random-single-block",
                "--" + name, str(GEN_CAPS[name][1] + 1))
        assert e.value.code == 1
        assert "gen --" + name in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "tucker-demo", "--n", "1"),
    ("gen", "--kind", "random-single-block", "--eps", "1/2"),
])
def test_gen_has_no_tucker_kind_and_no_eps(capsys, argv):
    # the demo instance comes from compile-tucker --n N [--eps E] --out F
    with pytest.raises(SystemExit) as e:
        run(capsys, *argv)
    assert e.value.code == 1


def test_seed_is_a_gen_option_only(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    with pytest.raises(SystemExit) as e:
        run(capsys, "solve", "--in", str(inst), "--seed", "1")
    assert e.value.code == 1


def test_huge_exponent_is_exit_1(tmp_path, capsys):
    # 1e5000 is just over the exponent cap and cheap to build, so a
    # missing cap shows as a wrong exit code rather than a huge int
    inst = gen_instance(tmp_path, capsys)
    with pytest.raises(SystemExit) as e:
        run(capsys, "verify", "--in", str(inst), "--solution", str(inst),
            "--eps", "1e5000")
    assert e.value.code == 1
    assert "not a rational" in capsys.readouterr().err
    obj = json.loads(inst.read_text())
    obj["agents"][0]["blocks"][0]["height"] = "1e-5000"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", "--in", str(bad), "--solution",
                       str(bad), "--eps", "0")
    assert code == 1 and "exceeds" in err


def _cap_address_space():
    # 256 MiB: refusing these inputs takes about 20 MB of address space,
    # and building 10^12 grid points would take about 10^14 bytes
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 28, 2 ** 28))


@pytest.mark.parametrize("argv", [
    ("oracle", "--eps", "1/4", "--grid", "1000000000000", "--max-cuts", "1"),
    ("solve", "--algo", "dp", "--eps", "1/4", "--grid", "1000000000000"),
    ("solve", "--algo", "dp", "--eps", "1/1000000000000"),
], ids=["oracle-grid", "dp-grid", "dp-eps"])
def test_a_grid_over_the_cap_is_exit_1(tmp_path, capsys, argv):
    # the grid is refused before any point is built; the child process
    # runs with a capped address space, so a missing cap shows as a
    # MemoryError rather than as a host out of memory
    inst = gen_instance(tmp_path, capsys)
    proc = _child([*argv, "--in", str(inst)])
    assert proc.returncode == 1 and proc.stdout == ""
    m = re.search(r"grid resolution m = (\d+) exceeds 100000", proc.stderr)
    assert m and int(m.group(1)) >= 10 ** 12, proc.stderr
    assert "Traceback" not in proc.stderr


def _child(argv, timeout=60):
    """Run `python -m chdiv argv` with the address-space cap."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chdiv.__file__)))
    return subprocess.run([sys.executable, "-m", "chdiv", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=_cap_address_space, timeout=timeout)


@pytest.mark.parametrize("seed, n, argv, message", [
    # every state of dp's search tries every later point of a 10^5 grid
    ("1", "3", ("--algo", "dp", "--eps", "1/4", "--grid", "100000"),
     "dp search too large: over 100000 candidate cuts"),
    # C(16, 10) cell sets of 10 cuts in the 16 breakpoint cells, one LP
    # each
    ("3", "12", ("--algo", "lp", "--ell", "14"),
     "8008 cell sets of 10 cuts in 16 cells, over the cap of 5000"),
], ids=["dp", "lp"])
def test_a_search_over_its_work_cap_is_exit_1(tmp_path, capsys, seed, n,
                                              argv, message):
    # without the caps both ran past a 15 s timeout
    inst = gen_instance(tmp_path, capsys, seed=seed, n=n)
    proc = _child(["solve", *argv, "--in", str(inst)])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "solve: %s\n" % message


def test_copies_over_the_agent_cap_is_exit_1(tmp_path, capsys):
    # gen caps the agents copies makes, (c + 1) n, at GEN_CAPS["n"]
    base = gen_instance(tmp_path, capsys, n="10")
    code, out, _ = run(capsys, "gen", "--kind", "copies", "--in", str(base),
                       "--c", "999", "--json")
    assert code == 0 and json.loads(out)["agents"] == 10_000
    code, out, err = run(capsys, "gen", "--kind", "copies", "--in",
                         str(base), "--c", "1000")
    assert code == 1 and out == ""
    assert ("1001 copies of 10 agents are 10010 agents, over the cap of "
            "10000") in err


@pytest.mark.parametrize("module", ["chdiv", "chdiv.cli"])
def test_python_m_runs_without_warnings(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(chdiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "always", "-m", module,
                           "--help"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0
    assert "usage: chdiv" in proc.stdout
    assert "Warning" not in proc.stderr


def test_verify_requires_eps(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    code, _, err = run(capsys, "verify", "--in", str(inst), "--solution",
                       str(inst))
    assert code == 1 and "eps" in err


def test_fixp_compile_and_decode(tmp_path, capsys):
    circ_text = "IN x1\nIN x2\nCONST 1/3 -> a\nCONST -1/2 -> b\nOUT a\nOUT b\n"
    circp = tmp_path / "circ.txt"
    circp.write_text(circ_text)
    instp = tmp_path / "inst.json"
    code, out, _ = run(capsys, "compile-fixp", "--circuit", str(circp),
                       "--out", str(instp), "--json")
    assert code == 0
    compiled = fixp.compile_fixp(fixp.TruncCircuit.parse(circ_text))
    assert json.loads(out)["agents"] == compiled.instance.n
    sol = fixp.forward_place_kdiv(compiled, (F(1, 3), F(-1, 2)))
    solp = tmp_path / "sol.json"
    solp.write_text(json.dumps(solution_to_obj(sol)))
    code, out, _ = run(capsys, "decode-fixp", "--circuit", str(circp),
                       "--solution", str(solp), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["fixed_point"] is True
    assert report["x"] == ["1/3", "-1/2"]


def test_tucker_compile_and_decode(tmp_path, capsys):
    eps = "1/16384"
    instp = tmp_path / "inst.json"
    code, out, _ = run(capsys, "compile-tucker", "--n", "1", "--eps", eps,
                       "--out", str(instp), "--json")
    assert code == 0
    meta = json.loads(out)
    assert meta["simulators"] == 4 and meta["eps"] == eps
    assert meta["two_block_uniform"] is True
    compiled = tucker.compile_tucker(tucker.demo_labeling(1), F(eps))
    assert meta["agents"] == compiled.instance.n
    # the paper's two-block-uniform shape is checked on every compile:
    # the demo labeling at N = 2 and a random DNF labeling at N = 1
    circp = tmp_path / "dnf.txt"
    circp.write_text(format_circuit(
        random_dnf_labeling(random.Random(0), 1).circuit))
    for argv in (["--n", "2"], ["--n", "1", "--circuit", str(circp)]):
        code, out, _ = run(capsys, "compile-tucker", *argv, "--json")
        assert code == 0
        assert json.loads(out)["two_block_uniform"] is True
    sol = tucker.forward_place(compiled, [F(-1, 32)])
    solp = tmp_path / "sol.json"
    solp.write_text(json.dumps(solution_to_obj(sol)))
    code, out, _ = run(capsys, "decode-tucker", "--n", "1", "--eps", eps,
                       "--solution", str(solp), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["decoded"] is True
    assert report["label_u"] == -report["label_w"]
    # a point far from the labeling boundary cannot decode
    far = tucker.forward_place(compiled, [F(-1)])
    solp.write_text(json.dumps(solution_to_obj(far)))
    code, out, _ = run(capsys, "decode-tucker", "--n", "1", "--eps", eps,
                       "--solution", str(solp), "--json")
    assert code == 2
    assert json.loads(out)["decoded"] is False


# --- every option is read, and only the read options exist -----------------


def _subcommands():
    """(name, cmd function, option dests) for every subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        yield (name, sp.get_default("func"),
               [a.dest for a in sp._actions if a.dest != "help"])


def _args_read(func):
    """The names func reads as args.<name>, directly or through the cli
    functions it hands args to."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id == "args"
                      for a in node.args)):
            helper = getattr(cli, node.func.id, None)
            if helper is not None and helper is not func:
                names |= _args_read(helper)
    return names


def test_every_option_is_read_by_its_command():
    # --json (read by _emit) and --jobs (read by main) are on every
    # subcommand
    for name, func, dests in _subcommands():
        unread = set(dests) - _args_read(func) - {"json", "jobs"}
        assert not unread, (name, sorted(unread))


@pytest.mark.parametrize("command,dropped,needed", [
    ("verify", ["--out", "x.json"], ["--eps", "1/2"]),
    ("refine", ["--eps", "0"], []),
    ("oracle", ["--csv"], ["--eps", "1/2", "--grid", "8", "--max-cuts", "2"]),
])
def test_a_dropped_option_is_exit_1(tmp_path, capsys, command, dropped,
                                    needed):
    inst = gen_instance(tmp_path, capsys, n="2")
    solp = tmp_path / "sol.json"
    assert run(capsys, "solve", "--in", str(inst), "--out", str(solp))[0] == 0
    if command != "oracle":
        needed = needed + ["--solution", str(solp)]
    with pytest.raises(SystemExit) as e:
        run(capsys, command, "--in", str(inst), *needed, *dropped)
    assert e.value.code == 1
    assert ("unrecognized arguments: " + " ".join(dropped)
            in capsys.readouterr().err)


# --- Tucker defaults and input checks ----------------------------------------


def test_tucker_commands_default_to_the_largest_eps(tmp_path, capsys):
    code, out, err = run(capsys, "compile-tucker", "--n", "1", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["eps"] == "1/16384"
    compiled = tucker.compile_tucker(tucker.demo_labeling(1))
    assert compiled.params.eps == F(1, 2 ** 14)
    assert json.loads(out)["agents"] == compiled.instance.n
    solp = tmp_path / "sol.json"
    solp.write_text(json.dumps(solution_to_obj(
        tucker.forward_place(compiled, [F(-1, 32)]))))
    code, out, err = run(capsys, "decode-tucker", "--n", "1",
                         "--solution", str(solp), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["decoded"] is True


def test_compile_tucker_rejects_a_labeling_that_is_not_antisymmetric(
        tmp_path, capsys):
    # a constant label +1: lambda(8) = lambda(1)
    circ = tmp_path / "const.txt"
    circ.write_text("INPUT 0\nINPUT 1\nINPUT 2\nNOT 0 -> 3\nOR 0 3 -> 4\n"
                    "OUTPUT 4\nOUTPUT 4\n")
    code, out, err = run(capsys, "compile-tucker", "--n", "1", "--circuit",
                         str(circ), "--eps", "1/65536")
    assert code == 1 and out == ""
    assert "not antipodally anti-symmetric" in err and "(1,)" in err


# --- exit 0 only when the answer is true --------------------------------------


def test_decode_fixp_of_a_point_that_is_not_fixed_is_exit_2(tmp_path, capsys):
    text = "IN x1\nIN x2\nMUL 1/2 x1 -> a\nMUL 1/2 x2 -> b\nOUT a\nOUT b\n"
    circp = tmp_path / "circ.txt"
    circp.write_text(text)
    instp = tmp_path / "inst.json"
    assert run(capsys, "compile-fixp", "--circuit", str(circp),
               "--out", str(instp))[0] == 0
    compiled = fixp.compile_fixp(fixp.TruncCircuit.parse(text))
    solp = tmp_path / "sol.json"
    solp.write_text(json.dumps(solution_to_obj(
        fixp.forward_place_kdiv(compiled, (F(1, 3), F(1, 5))))))
    code, _, _ = run(capsys, "verify", "--in", str(instp), "--solution",
                     str(solp), "--eps", "0")
    assert code == 2
    code, out, _ = run(capsys, "decode-fixp", "--circuit", str(circp),
                       "--solution", str(solp), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["decoded"] is True and report["fixed_point"] is False
    assert report["x"] == ["1/3", "1/5"]


def test_solve_that_misses_its_eps_is_exit_2(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, seed="3", n="6")
    solp = tmp_path / "sol.json"
    code, out, _ = run(capsys, "solve", "--algo", "greedy", "--eps", "1/100",
                       "--in", str(inst), "--out", str(solp), "--json")
    assert code == 2
    assert json.loads(out)["satisfied"] is False
    # the solution is still written, and it meets greedy's own bound
    code, _, _ = run(capsys, "verify", "--in", str(inst), "--solution",
                     str(solp), "--eps", "1/2")
    assert code == 0
