"""End-to-end acceptance checks for the whole toolbox.

Each test freezes one headline guarantee: greedy exactness and its step
invariants, grid-DP completeness against the brute-force oracle,
discretization transfer, the exact LP solvers, gate-agent error bounds,
both reduction pipelines end to end, exact refinement, and label-swap
equivariance over everything the other tests produced.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from chdiv.core import (Instance, Valuation, Block, Solution, PLUS, MINUS,
                        balance, verify, truncate)
from chdiv import dp, greedy, lp, oracle, tucker, fixp
from conftest import (random_single_block_instance, random_dblock_instance,
                      check_greedy_invariants, encoded_value_in_domain,
                      enumerate_gate_cuts, gate_rig, swap_labels)


F = Fraction

# (instance, k=2 solution) pairs accumulated by the tests below and
# swept by the final equivariance test
CORPUS = []


# --- 1: greedy exactness at scale -------------------------------------------


def test_greedy_500_instances_within_budget_and_time():
    rng = random.Random(2024)
    instances = [random_single_block_instance(rng, rng.randrange(1, 51))
                 for _ in range(500)]
    t0 = time.monotonic()
    solutions = [greedy.solve_half(inst) for inst in instances]
    elapsed = time.monotonic() - t0
    for i, (inst, sol) in enumerate(zip(instances, solutions)):
        assert len(sol.cuts) <= inst.n
        for v in inst.agents:
            assert abs(balance(v, sol)) <= F(1, 2)
        if i % 25 == 0:
            CORPUS.append((inst, sol))
    assert elapsed < 10, "greedy took %.1fs on 500 instances" % elapsed


# --- 2: greedy step invariants ----------------------------------------------


def test_greedy_invariants_on_100_instances():
    rng = random.Random(77)
    for _ in range(100):
        inst = random_single_block_instance(rng, rng.randrange(1, 11))
        check_greedy_invariants(inst)


# --- 3: DP completeness against the oracle ----------------------------------


def test_dp_matches_oracle_on_the_full_two_agent_grid():
    pts = [F(i, 11) for i in range(12)]
    blocks = [Valuation([Block(a, b, 1 / (b - a))])
              for a, b in itertools.combinations(pts, 2)]
    t0 = time.monotonic()
    checked = 0
    for ai in range(len(blocks)):
        for bi in range(ai, len(blocks)):
            inst = Instance([blocks[ai], blocks[bi]], k=2)
            for eps in (F(1, 4), F(1, 2)):
                res = dp.dp_solve(inst, eps)
                cfg = oracle.GridSearchConfig(res.m, inst.cut_budget)
                ref = oracle.brute_force(inst, eps, cfg)
                assert res.feasible == (ref is not None), (ai, bi, eps)
                if res.feasible:
                    assert verify(inst, res.solution, eps).satisfied
                checked += 1
    assert checked == 2211 * 2
    elapsed = time.monotonic() - t0
    CORPUS.append((Instance([blocks[0], blocks[-1]], k=2),
                   dp.dp_solve(Instance([blocks[0], blocks[-1]], k=2),
                               F(1, 2)).solution))
    assert elapsed < 60, "grid sweep took %.1fs" % elapsed


# --- 4: discretization transfer ---------------------------------------------


def test_rounded_solutions_transfer_to_the_original():
    rng = random.Random(404)
    eps_prime = F(1, 16)
    for _ in range(50):
        inst = random_single_block_instance(rng, rng.randrange(1, 6))
        rounded = dp.round_instance(inst, eps_prime)
        sol = lp.midpoint_solution(rounded)
        assert verify(rounded, sol, 0).satisfied
        assert verify(inst, sol, eps_prime).satisfied
        CORPUS.append((inst, sol))


# --- 5: one cut per breakpoint cell is always exact --------------------------


def test_midpoint_solution_exact_on_every_generated_instance():
    rng = random.Random(505)
    for _ in range(60):
        single = rng.random() < 0.7
        if single:
            inst = random_single_block_instance(rng, rng.randrange(1, 8))
        else:
            inst = random_dblock_instance(rng, rng.randrange(1, 5), d=3)
        sol = lp.midpoint_solution(inst)
        assert verify(inst, sol, 0).satisfied
        if single:
            assert len(sol.cuts) <= 2 * inst.n - 1
        CORPUS.append((inst, sol))


# --- 6: budget-2 LP search is complete ---------------------------------------


def _exact_solution_with_two_cuts_exists(inst):
    """Reference search: place at most two cuts, each confined to the
    breakpoint cell of its seed position, with either starting label,
    and ask the exact refinement LP whether perfect balance is
    reachable."""
    grid = lp.breakpoints(inst)
    m = len(grid) - 1
    for t in range(0, 3):
        for cells in itertools.combinations_with_replacement(range(m), t):
            mids = [(grid[j] + grid[j + 1]) / 2 for j in cells]
            for start in (PLUS, MINUS):
                labels = [start if i % 2 == 0 else
                          (MINUS if start == PLUS else PLUS)
                          for i in range(t + 1)]
                approx = Solution(mids, labels)
                _, z = lp.refine_exact(inst, approx)
                if z == 0:
                    return True
    return False


def test_budget_two_search_agrees_with_cellwise_reference():
    pts = [F(i, 5) for i in range(6)]
    blocks = [Valuation([Block(a, b, 1 / (b - a))])
              for a, b in itertools.combinations(pts, 2)]
    agree = 0
    for ai in range(len(blocks)):
        for bi in range(ai, len(blocks)):
            inst = Instance([blocks[ai], blocks[bi]], k=2)
            sol = lp.solve_with_budget(inst, 2)
            ref = _exact_solution_with_two_cuts_exists(inst)
            assert (sol is not None) == ref, (ai, bi)
            if sol is not None:
                assert len(sol.cuts) <= 2
                assert verify(inst, sol, 0).satisfied
            agree += 1
    assert agree == 120


# --- 7: gate-agent error bounds ----------------------------------------------


EPS = F(1, 2 ** 16)
GRID33 = [F(i, 16) - 1 for i in range(33)]
STEP = F(1, 2 ** 17)


def _certified_outputs(comp, sol, agent_index, reader_left, eps_tol):
    """Sweep the one cut in the agent's output block over a fine grid
    through its placed position; return the encoded output value at
    every sweep position that keeps the agent within eps_tol."""
    _, (left, right, _) = comp.gates[agent_index]
    inside = [i for i, c in enumerate(sol.cuts) if left < c < right]
    assert len(inside) == 1
    t_star = sol.cuts[inside[0]]
    fixed = [c for i, c in enumerate(sol.cuts) if i != inside[0]]
    a = min(32, int((t_star - left) / STEP))
    b = min(32, int((right - t_star) / STEP))
    hits = enumerate_gate_cuts(
        comp.instance, agent_index, fixed, sol.labels,
        (t_star - a * STEP, t_star + b * STEP), eps_tol, a + b)
    assert hits, "no satisfying cut position near the placed one"
    return [encoded_value_in_domain(s, reader_left,
                                    comp.instance.domain_right)
            for _, s in hits]


def _gate_agent_for_output(comp, wire):
    for i, (_, (left, right, _)) in enumerate(comp.gates):
        if left <= wire and wire + 1 <= right:
            return i
    raise AssertionError("no gate writes wire %s" % wire)


def test_negation_gate_error_bound():
    w, comp = gate_rig(EPS, lambda asm: asm.neg(0), 1, 0)
    idx = _gate_agent_for_output(comp, w)
    for x in GRID33:
        sol = tucker.forward_place(comp, [x])
        for vo in _certified_outputs(comp, sol, idx, w, EPS):
            assert abs(vo + x) <= 4 * EPS, (x, vo)


def test_addition_gate_error_bound():
    w, comp = gate_rig(EPS, lambda asm: asm.add(0, 1), 2, 0)
    idx = _gate_agent_for_output(comp, w)
    for x1 in GRID33:
        for x2 in GRID33:
            sol = tucker.forward_place(comp, [x1, x2])
            want = truncate(x1 + x2)
            for vo in _certified_outputs(comp, sol, idx, w, EPS):
                assert abs(vo - want) <= 16 * EPS, (x1, x2, vo)


def test_boolean_gates_perfect_bits():
    def build(asm):
        return {"not": asm.not_(0),
                "and": asm.and_(0, 1, 3),
                "or": asm.or_(0, 1, 3)}
    outs, comp = gate_rig(EPS, build, 2, 2)
    expected = {"not": lambda b1, b2: -b1,
                "and": lambda b1, b2: min(b1, b2),
                "or": lambda b1, b2: max(b1, b2)}
    for b1, b2 in itertools.product((1, -1), repeat=2):
        sol = tucker.forward_place(comp, [b1, b2])
        for name, wire in outs.items():
            idx = _gate_agent_for_output(comp, wire)
            vals = _certified_outputs(comp, sol, idx, wire, 0)
            assert vals == [expected[name](b1, b2)], (name, b1, b2, vals)


# --- 8: the two-axis reduction pipeline ---------------------------------------


@pytest.fixture(scope="module")
def tucker_pipeline():
    lab = tucker.demo_labeling(2)
    t0 = time.monotonic()
    comp = tucker.compile_tucker(lab, EPS)
    _, sol = tucker.find_solution(comp)
    gates_exact, worst, feedback = tucker.balance_report(comp, sol)
    u, w = tucker.decode_solution(comp, sol)
    elapsed = time.monotonic() - t0
    return {"comp": comp, "sol": sol, "gates_exact": gates_exact,
            "worst": worst, "feedback": feedback, "u": u, "w": w,
            "elapsed": elapsed}


def test_tucker_pipeline_structure_and_decode(tucker_pipeline):
    pl = tucker_pipeline
    comp, sol = pl["comp"], pl["sol"]
    assert tucker.audit_two_block_uniform(comp.instance)
    assert len(sol.cuts) <= comp.instance.cut_budget
    assert pl["gates_exact"], pl["worst"]
    lab = comp.labeling
    assert lab.evaluate(pl["u"]) == -lab.evaluate(pl["w"])
    assert max(abs(a - b) for a, b in zip(pl["u"], pl["w"])) <= 1
    assert pl["elapsed"] < 300, "pipeline took %.0fs" % pl["elapsed"]


def test_tucker_pipeline_feedback_tolerance(tucker_pipeline):
    # An eps-solution balances the N feedback agents too.  forward_place
    # alone promises only exact gate agents: at the probe (-1/32, 0) the
    # displaced first coordinate z1 = -1/32 + j/256 of simulator 8 lands
    # on 0 in B, so 7 outputs of +(1 - 2 eps) face 8 of -(1 - 2 eps) and
    # the axis-1 census is -(1 - 2 eps).  The fixture therefore takes
    # the point from find_solution; each census is checked both as
    # balance_report gives it and by core.balance.
    pl = tucker_pipeline
    comp, sol = pl["comp"], pl["sol"]
    p = comp.params.p
    bound = p * comp.params.eps
    n_gates = len(comp.gates)
    feedback_agents = comp.instance.agents[n_gates:]
    assert len(pl["feedback"]) == len(feedback_agents) == comp.layout.N
    for i, (fb, agent) in enumerate(zip(pl["feedback"], feedback_agents)):
        census = balance(agent, sol, comp.instance.domain_right) * p
        assert fb == census, (i + 1, fb, census)
        assert abs(census) <= bound, "axis %d feedback census %s > %s" % (
            i + 1, census, bound)


def test_tucker_pipeline_solution_verifies(tucker_pipeline):
    # the find_solution point is an eps-solution of the whole compiled
    # instance, gate and feedback agents alike, within its cut budget
    comp, sol = tucker_pipeline["comp"], tucker_pipeline["sol"]
    assert len(sol.cuts) <= comp.instance.cut_budget
    rep = verify(comp.instance, sol, comp.params.eps)
    assert rep.satisfied, rep.max_discrepancy


# --- 9: the fixed-point reduction pipeline -----------------------------------


def test_fixp_pipeline_constant_circuit():
    circ = fixp.TruncCircuit.parse(
        "IN x1\nIN x2\nCONST 1/3 -> a\nCONST -1/2 -> b\nOUT a\nOUT b\n")
    comp = fixp.compile_fixp(circ)
    fp = (F(1, 3), F(-1, 2))
    sol = fixp.forward_place_kdiv(comp, fp)
    assert verify(comp.instance, sol, 0).satisfied
    assert fixp.decode_fixed_point(sol) == fp
    assert fixp.eval_trunc(circ, fp) == fp


def test_fixp_pipeline_contraction():
    circ = fixp.TruncCircuit.parse(
        "IN x1\nIN x2\nMUL 1/2 x1 -> a\nMUL 1/2 x2 -> b\nOUT a\nOUT b\n")
    comp = fixp.compile_fixp(circ)
    fp = (F(0), F(0))
    sol = fixp.forward_place_kdiv(comp, fp)
    assert verify(comp.instance, sol, 0).satisfied
    assert fixp.decode_fixed_point(sol) == fp
    assert fixp.eval_trunc(circ, fp) == fp


# --- 10: exact refinement recovers perturbed solutions ------------------------


def _trisection_solution(inst):
    """Exact three-label solution: every breakpoint cell is split into
    equal thirds labeled A, B, C, with a boundary cut between cells."""
    grid = lp.breakpoints(inst)
    cuts, labels = [], ["A"]
    for j in range(len(grid) - 1):
        a, b = grid[j], grid[j + 1]
        w = b - a
        cuts += [a + w / 3, a + 2 * w / 3]
        labels += ["B", "C"]
        if j < len(grid) - 2:
            cuts.append(b)
            labels.append("A")
    return Solution(cuts, labels)


def test_refinement_recovers_exactness_after_perturbation():
    rng = random.Random(1010)
    for trial in range(20):
        k = 2 if trial % 2 == 0 else 3
        if rng.random() < 0.5:
            base = random_single_block_instance(rng, rng.randrange(1, 4))
        else:
            base = random_dblock_instance(rng, rng.randrange(1, 3), d=2)
        inst = Instance(base.agents, k=k, domain_right=1)
        if k == 2:
            sol = lp.midpoint_solution(inst)
        else:
            sol = _trisection_solution(inst)
        assert verify(inst, sol, 0).satisfied
        jitter = [c + F(rng.randrange(-10 ** 6, 10 ** 6 + 1), 10 ** 12)
                  for c in sol.cuts]
        jitter = [min(max(c, F(0)), F(1)) for c in jitter]
        approx = Solution(sorted(jitter), sol.labels)
        refined, z = lp.refine_exact(inst, approx)
        assert z == 0, (trial, k, z)
        assert verify(inst, refined, 0).satisfied


# --- 11: label-swap equivariance over the corpus ------------------------------


def test_label_swap_negates_everything_in_the_corpus():
    assert len(CORPUS) >= 100
    for inst, sol in CORPUS:
        swapped = swap_labels(sol)
        for v in inst.agents:
            assert balance(v, swapped, inst.domain_right) == \
                -balance(v, sol, inst.domain_right)
        if inst.domain_right >= 1:
            for left in (0, (inst.domain_right - 1) / 2,
                         inst.domain_right - 1):
                assert encoded_value_in_domain(
                    swapped, left, inst.domain_right) == \
                    -encoded_value_in_domain(sol, left, inst.domain_right)
        rep = verify(inst, sol, 0)
        rsw = verify(inst, swapped, 0)
        assert rep.per_agent_discrepancy == rsw.per_agent_discrepancy
