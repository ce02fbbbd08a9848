import json
import time
from fractions import Fraction

import pytest

from chdiv.cli import main
from chdiv.core import (instance_from_obj, solution_from_obj,
                        solution_to_obj, verify)
from chdiv import fixp, oracle, tucker


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
    assert json.loads(out)["feasible"] is False


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
    assert code == 0 and json.loads(out)["satisfied"] is True
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


def test_oracle_subcommand(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, seed="5", n="2")
    code, _, _ = run(capsys, "oracle", "--in", str(inst), "--eps", "1/2",
                     "--grid", "8", "--max-cuts", "2", "--jobs", "2")
    assert code == 0
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
    layp = tmp_path / "layout.json"
    code, out, _ = run(capsys, "compile-tucker", "--n", "1", "--eps", eps,
                       "--out", str(instp), "--layout", str(layp), "--json")
    assert code == 0
    meta = json.loads(out)
    assert meta["simulators"] == 4
    layout = json.loads(layp.read_text())
    assert layout["N"] == 1 and layout["eps"] == eps
    compiled = tucker.compile_tucker(tucker.demo_labeling(1), F(eps))
    assert meta["agents"] == compiled.instance.n
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
