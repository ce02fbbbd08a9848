import bisect
import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chdiv.circuit import GateBuilder
from chdiv.core import (Valuation, Block, Solution, PLUS, MINUS,
                        verify, encoded_value, truncate, balance)
from chdiv import tucker
from chdiv.tucker import (BoolCircuit, TuckerLabeling,
                          decode_label, point_bits, demo_labeling,
                          complementary_start, ReductionParams, dist_to_B,
                          cell_of, Assembler,
                          compile_tucker, forward_place,
                          balance_report, audit_two_block_uniform,
                          decode_solution, DecodeFailure,
                          find_solution, NoSolutionFound)
from conftest import (MUTATIONS, encoded_value_in_domain,
                      forward_place_mirrored, forward_place_reference,
                      gate_rig, mutate, random_dnf_labeling)


F = Fraction
EPS = F(1, 2 ** 16)


# --- circuits and labelings -------------------------------------------------


def test_point_bits_round_trip():
    # cell r - 1 in binary, most significant bit first, -1 for 0
    assert [point_bits(r) for r in range(1, 9)] == list(
        itertools.product((-1, 1), repeat=3))


def test_demo_labeling_semantics_and_antisymmetry():
    lab = demo_labeling(2)
    for x in itertools.product(range(1, 9), repeat=2):
        assert lab.evaluate(x) == (1 if x[0] <= 4 else -1)
    assert lab.check_antisymmetric() is None


def test_decode_label_signed_axis_encoding():
    # interleaved bits (y1a, y1b, y2a, y2b, ...); the matching y^b bit
    # names the axis, the shared y^a sign gives the label's sign
    assert decode_label([1, 1]) == 1
    assert decode_label([1, -1, 1, 1]) == 2
    assert decode_label([-1, -1, -1, 1]) == -1
    with pytest.raises(ValueError):
        decode_label([1, 1, -1, 1])      # mixed y^a bits
    with pytest.raises(ValueError):
        decode_label([1, 1, 1, 1])       # ambiguous axis


def test_cell_classification():
    assert cell_of(F(3, 5)) == 7
    assert cell_of(F(-1)) == 1
    assert cell_of(F(1)) == 8
    assert cell_of(F(0)) == 5
    assert dist_to_B(F(1, 2)) == 0
    assert dist_to_B(F(7, 8)) == F(1, 8)


def test_reduction_parameters():
    params = ReductionParams(2, EPS)
    assert params.p == 16
    assert params.alpha == F(1, 256)
    assert params.g == 16 * EPS
    assert params.kmul == 4096
    with pytest.raises(ValueError):
        ReductionParams(2, F(1, 2 ** 13))    # too coarse
    with pytest.raises(ValueError):
        ReductionParams(2, 0)
    # the default is the largest allowed eps, 1/(2^14 N^2)
    assert ReductionParams(2).eps == EPS
    assert ReductionParams(1).eps == F(1, 2 ** 14)


def test_compile_rejects_a_labeling_that_is_not_antisymmetric():
    b = GateBuilder(itertools.count().__next__)
    ins = [b.new_wire() for _ in range(3)]
    one = b.gate("OR", ins[0], b.gate("NOT", ins[0]))   # the label +1
    lab = TuckerLabeling(1, BoolCircuit(ins, b.gates, [one, one]))
    assert lab.check_antisymmetric() == (1,)
    with pytest.raises(ValueError, match=r"anti-symmetric.*\(1,\)"):
        compile_tucker(lab, EPS)


# --- gate agents ------------------------------------------------------------


def clamp(v, d):
    return max(-(1 - d), min(1 - d, v))


def test_arithmetic_gates_forward_exact():
    def build(asm):
        return {"c34": asm.const(F(-3, 4), 1),
                "neg": asm.neg(0),
                "add": asm.add(0, asm.const(F(-3, 4), 1)),
                "pos": asm.const(F(1, 2), 1),
                "copy": asm.neg(asm.neg(0)),
                "mul3": asm.mul_int(0, 3),
                "mul5": asm.mul_int(0, 5),
                "mul4096": asm.mul_int(0, 4096)}
    outs, comp = gate_rig(EPS, build, 1, 1)
    inst = comp.instance
    for xv in [F(0), F(1, 3), F(-1, 2), F(7, 8), F(1), F(-1)]:
        sol = forward_place(comp, [xv])
        assert verify(inst, sol, 0).satisfied
        val = lambda w: encoded_value_in_domain(sol, w, inst.domain_right)
        assert val(0) == xv
        assert val(1) == 1
        assert val(outs["neg"]) == -clamp(xv, 2 * EPS)
        assert abs(val(outs["c34"]) + F(3, 4)) <= 4 * EPS
        assert abs(val(outs["add"]) - truncate(xv - F(3, 4))) <= 16 * EPS
        assert abs(val(outs["pos"]) - F(1, 2)) <= 8 * EPS
        assert abs(val(outs["copy"]) - xv) <= 8 * EPS
        # mul_int's bound: (k - 1) 16 eps, and 16 eps once
        # k (|x| - 16 eps) >= 1 forces saturation
        for k in (3, 5, 4096):
            bound = 16 * EPS if k * (abs(xv) - 16 * EPS) >= 1 \
                else (k - 1) * 16 * EPS
            got = val(outs["mul%d" % k])
            assert abs(got - truncate(k * xv)) <= bound, (k, xv, got)
        # swapped constant sign mirrors the whole run
        sw = forward_place_mirrored(comp, [xv])
        assert verify(inst, sw, 0).satisfied
        assert encoded_value_in_domain(sw, 0, inst.domain_right) == xv
        assert encoded_value_in_domain(sw, 1, inst.domain_right) == -1


def test_boolean_gates_exact_on_perfect_bits():
    def build(asm):
        return {"not": asm.not_(0),
                "and": asm.and_(0, 1, 3),
                "or": asm.or_(0, 1, 3)}
    outs, comp = gate_rig(EPS, build, 2, 2)
    inst = comp.instance
    for b1, b2 in itertools.product((1, -1), repeat=2):
        sol = forward_place(comp, [b1, b2])
        assert verify(inst, sol, 0).satisfied
        val = lambda w: encoded_value_in_domain(sol, w, inst.domain_right)
        assert val(outs["not"]) == -b1
        assert val(outs["and"]) == min(b1, b2)
        assert val(outs["or"]) == max(b1, b2)


@pytest.mark.parametrize("gate, agents", [("not_", 4), ("and_", 13),
                                           ("or_", 14)])
def test_boolean_gate_costs(gate, agents):
    # AND and OR are one threshold gadget; OR's constant +1/2 is the
    # negation of AND's -1/2, one agent more
    args = (0,) if gate == "not_" else (0, 1, 3)
    _, comp = gate_rig(EPS, lambda asm: getattr(asm, gate)(*args), 2, 2)
    assert len(comp.gates) == agents


def test_volume_gate_rejects_bad_delta():
    asm = Assembler(EPS, origin=1)
    with pytest.raises(ValueError):
        asm.volume(EPS, 0)        # below 2 eps
    with pytest.raises(ValueError):
        asm.volume(2, 0)          # above 1


# --- compiled pipeline at one axis ------------------------------------------


@pytest.fixture(scope="module")
def compiled_1d():
    return compile_tucker(demo_labeling(1), F(1, 2 ** 14))


def test_compile_structure_1d(compiled_1d):
    comp = compiled_1d
    lay = comp.layout
    assert lay.N == 1 and lay.p == 4
    assert comp.instance.domain_right == lay.feedback_start + lay.N * lay.p
    assert comp.instance.cut_budget == comp.instance.n
    assert audit_two_block_uniform(comp.instance)
    # the agents after the gate agents are the N feedback agents, one
    # uniform block of height 1/p over F_i; balance_report, decode and
    # perfbench's tucker-reduce audit split the agents there
    fs, p = lay.feedback_start, lay.p
    assert comp.instance.agents[len(comp.gates):] == tuple(
        Valuation([Block(fs + i * p, fs + (i + 1) * p, F(1, p))])
        for i in range(lay.N))


@pytest.fixture(scope="module")
def compiled_2d():
    return compile_tucker(demo_labeling(2), EPS)


@pytest.mark.parametrize("fixture,x", [
    ("compiled_1d", (F(-1, 32),)), ("compiled_1d", (F(-1),)),
    ("compiled_2d", (F(-1, 32), F(0))), ("compiled_2d", (F(3, 8), F(-5, 16)))])
def test_gate_agents_are_their_two_block_records(request, fixture, x):
    # every gate agent is its record [input block, output block]: two
    # blocks of one height, the input left of the output, and the output
    # blocks in strictly increasing domain order; forward_place puts
    # exactly one cut strictly inside each output block and the N
    # coordinate cuts besides
    comp = request.getfixturevalue(fixture)
    prev_right = comp.layout.N + comp.layout.p
    for gate, agent in zip(comp.gates, comp.instance.agents):
        (a, b, h), (l, r, h_out) = gate
        assert h == h_out and a < b <= l < r
        assert prev_right <= l
        prev_right = r
        assert agent == Valuation([Block(*k) for k in gate])
    for place in (forward_place, forward_place_mirrored):
        cuts = place(comp, x).cuts
        assert len(cuts) == comp.layout.N + len(comp.gates)
        for _, (l, r, _) in comp.gates:
            inside = bisect.bisect_left(cuts, r) - bisect.bisect_right(cuts, l)
            assert inside == 1, (l, r, inside)


def test_simulator_of_reads_regions_and_feedback_cells(compiled_1d):
    lay = compiled_1d.layout
    N, p, q, fstart = lay.N, lay.p, lay.q, lay.feedback_start
    assert fstart == N + p + p * q
    for j in range(1, p + 1):
        left = N + p + (j - 1) * q
        assert lay.simulator_of(left) == lay.simulator_of(left + q - 1) == j
        for i in range(N):
            assert lay.simulator_of(fstart + i * p + j - 1) == j
    for pos in (0, N, N + p - 1, lay.domain_right):
        assert lay.simulator_of(pos) is None


def test_forward_place_gate_exact_1d(compiled_1d):
    comp = compiled_1d
    sol = forward_place(comp, [F(-1, 32)])
    assert len(sol.cuts) <= comp.instance.cut_budget
    ok, worst, feedback = balance_report(comp, sol)
    assert ok and worst == 0
    assert len(feedback) == 1
    assert encoded_value(sol, 0) == F(-1, 32)
    assert encoded_value(sol, 1) == 1


def test_decode_1d(compiled_1d):
    comp = compiled_1d
    sol = forward_place(comp, [F(-1, 32)])
    u, w = decode_solution(comp, sol)
    lab = comp.labeling
    assert lab.evaluate(u) == -lab.evaluate(w)
    assert max(abs(a - b) for a, b in zip(u, w)) <= 1


@settings(max_examples=150, deadline=None)
@given(MUTATIONS)
def test_property_decode_of_a_mutated_placement(compiled_1d, ops):
    # the decoder either refuses or returns a complementary pair of
    # adjacent cells
    comp = compiled_1d
    sol = mutate(forward_place(comp, [F(-40, 1024)]), (PLUS, MINUS),
                 comp.instance.domain_right, ops)
    try:
        u, w = decode_solution(comp, sol)
    except DecodeFailure:
        return
    lab = comp.labeling
    assert lab.evaluate(u) == -lab.evaluate(w)
    assert max(abs(a - b) for a, b in zip(u, w)) <= 1


def test_decode_corruption_of_feedback_cells(compiled_1d):
    # two extra cuts inside feedback cell F_1(j) corrupt simulator j,
    # exactly as two inside its constant cell do; free cuts on
    # feedback-cell boundaries corrupt none
    comp = compiled_1d
    lay = comp.layout
    _, sol = find_solution(comp)

    def outcome(extra):
        cuts = sorted(sol.cuts + tuple(extra))
        first = sol.labels[0]
        other = MINUS if first == PLUS else PLUS
        try:
            return decode_solution(comp, Solution(
                cuts, [first if i % 2 == 0 else other
                       for i in range(len(cuts) + 1)]))
        except DecodeFailure:
            return None

    fstart = lay.feedback_start
    boundaries = [fstart + j for j in range(lay.p)]
    assert outcome(boundaries) == outcome([]) is not None
    inside = [F(1, 8), F(1, 4)]
    results = []
    for j in range(1, lay.p + 1):
        got = outcome([fstart + j - 1 + d for d in inside])
        assert got == outcome([lay.N + j - 1 + d for d in inside]), j
        results.append(got)
    assert None in results


def test_balance_without_a_domain_does_not_clip(compiled_1d):
    # the feedback agent lives far right of 1 on the compiled domain
    inst = compiled_1d.instance
    sol = forward_place(compiled_1d, [F(-1, 32)])
    feedback = inst.agents[-1]
    assert balance(feedback, sol) == F(-8191, 32768)
    assert balance(feedback, sol, inst.domain_right) == F(-8191, 32768)


def test_balance_report_compares_no_fractions(compiled_1d, monkeypatch):
    # the kernel places every block among the cuts by bisecting the
    # solution's integer cut keys; bisecting the Fraction cuts instead
    # took about 20 comparisons per block
    comp = compiled_1d
    sol = forward_place(comp, [F(-1, 32)])
    counts = collections.Counter()
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def counted(a, b, _cmp=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _cmp(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    dr = comp.instance.domain_right
    for v in comp.instance.agents:
        balance(v, sol, dr)
    assert not counts
    ok, worst, feedback = balance_report(comp, sol)
    blocks = sum(len(v.blocks) for v in comp.instance.agents)
    monkeypatch.undo()
    assert ok and worst == 0 and len(feedback) == 1
    # every gate balances exactly here, so the only comparison left is
    # the final worst == 0
    assert blocks > 900 and sum(counts.values()) <= 1, counts


# every Fraction operator: arithmetic, negation, abs and comparisons
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                "__rfloordiv__", "__mod__", "__neg__", "__abs__", "__eq__",
                "__lt__", "__le__", "__gt__", "__ge__")


@pytest.mark.parametrize("fixture", ["compiled_1d", "compiled_2d"])
def test_forward_place_does_no_fraction_arithmetic(request, fixture,
                                                   monkeypatch):
    # the placement runs on ints in units of 1/T; what is left is the
    # |x_i| <= 1 check and the mirrored placement's negation, a few operations
    # per coordinate whatever the gate count (the Fraction rule made
    # tens of thousands at N = 1)
    comp = request.getfixturevalue(fixture)
    N = comp.layout.N
    counts = collections.Counter()
    for name in FRACTION_OPS:
        def counted(*args, _op=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _op(*args)
        monkeypatch.setattr(Fraction, name, counted)
    for place in (forward_place, forward_place_mirrored):
        place(comp, [F(-1, 32)] * N)
    monkeypatch.undo()
    assert len(comp.gates) > 400
    assert sum(counts.values()) <= 2 * 3 * N, counts


@functools.cache
def demo_compile(N, eps):
    return compile_tucker(demo_labeling(N), eps)


# eps with odd factors in the denominator, all allowed at N = 1; N = 2
# reuses one compile at the last
PLACEMENT_EPS = (F(1, 2 ** 14), F(1, 2 ** 16), F(1, 3 * 2 ** 15),
                 F(1, 35 * 2 ** 16))
# x_i over large coprime denominators, and exactly -1, 0 and 1; at
# 2^20 the coordinate cut's half needs T's factor 2 beyond every
# gate-record denominator
COORDS = st.one_of(
    st.sampled_from([F(-1), F(0), F(1)]),
    st.sampled_from([3, 7, 2 ** 20, 10 ** 6 + 3, 10 ** 9 + 7,
                     2 ** 61 - 1]).flatmap(
        lambda d: st.integers(-d, d).map(lambda k: F(k, d))))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_integer_placement_matches_the_fraction_rule(data):
    # one draw in four at N = 2, where one reference placement costs
    # about 0.2 s
    N = data.draw(st.sampled_from((1, 1, 1, 2)))
    eps = data.draw(st.sampled_from(PLACEMENT_EPS)) if N == 1 \
        else PLACEMENT_EPS[-1]
    comp = demo_compile(N, eps)
    x = [data.draw(COORDS) for _ in range(N)]
    const_sign = data.draw(st.sampled_from((1, -1)))
    place = forward_place if const_sign == 1 else forward_place_mirrored
    assert place(comp, x) == forward_place_reference(comp, x, const_sign)


def test_find_solution_1d(compiled_1d):
    comp = compiled_1d
    inst = comp.instance
    p, eps = comp.params.p, comp.params.eps
    # the start next to the complementary pair (4,)/(5,) is -1/32, with
    # census -(1 - 2 eps); the next candidate, -1/32 - g, balances the
    # feedback agent
    assert complementary_start(comp.labeling) == (F(-1, 32),)
    x, sol = find_solution(comp)
    assert x == (F(-1, 32) - comp.params.g,)
    ok, worst, feedback = balance_report(comp, sol)
    assert ok and worst == 0
    census = balance(inst.agents[-1], sol, inst.domain_right) * p
    assert feedback == [census]
    assert abs(census) <= p * eps
    u, w = decode_solution(comp, sol)
    assert comp.labeling.evaluate(u) == -comp.labeling.evaluate(w)


def test_find_solution_reports_exhaustion(compiled_1d, monkeypatch):
    # from the start -1 with radius 2, on [-1, -1 + 2g], every simulator
    # reads cell 1 and outputs +(1 - 2 eps): census 4 (1 - 2 eps) =
    # 8191/2048 at every candidate
    monkeypatch.setattr(tucker, "complementary_start", lambda lab: (F(-1),))
    monkeypatch.setattr(tucker, "RADIUS", 2)
    with pytest.raises(NoSolutionFound) as info:
        find_solution(compiled_1d)
    e = info.value
    assert e.scanned == 3                  # -1, -1 + g, -1 + 2g
    assert e.best_point == [F(-1)]
    assert e.best_census == [F(8191, 2048)]
    assert "3 points scanned" in str(e)


@pytest.mark.parametrize("N, seed", [pytest.param(1, s, id=str(s))
                                     for s in range(30)]
                         + [pytest.param(2, 0, id="N2-0")])
def test_random_dnf_labeling_end_to_end(N, seed):
    # compile, solve, verify and decode a random labeling of [8]^N that
    # pays for its OR gates; find_solution starts next to its first
    # complementary pair, at N = 2 seed 0 the pair (1, 1)/(1, 2), and
    # finds a point within one lattice step g of that start
    lab = random_dnf_labeling(random.Random(seed), N)
    assert lab.check_antisymmetric() is None
    comp = compile_tucker(lab)
    assert audit_two_block_uniform(comp.instance)
    start = complementary_start(lab)
    if (N, seed) == (2, 0):
        assert start == (F(-7, 8), F(-25, 32))
    x, sol = find_solution(comp)
    assert max(abs(a - b) for a, b in zip(x, start)) <= comp.params.g
    assert len(sol.cuts) <= comp.instance.cut_budget
    assert verify(comp.instance, sol, comp.params.eps).satisfied
    a, b = decode_solution(comp, sol)
    assert lab.evaluate(a) == -lab.evaluate(b)
    assert max(abs(ai - bi) for ai, bi in zip(a, b)) <= 1


def test_decode_failure_far_from_the_boundary(compiled_1d):
    comp = compiled_1d
    sol = forward_place(comp, [F(-1)])
    with pytest.raises(DecodeFailure):
        decode_solution(comp, sol)
    # at x = -1 and x = +1 the coordinate cut sits on the cell's edge,
    # and the gates still balance exactly
    for xv in (F(-1), F(1)):
        ok, worst, _ = balance_report(comp, forward_place(comp, [xv]))
        assert ok and worst == 0, (xv, worst)


def test_decode_sees_sub_ulp_cuts_in_constant_cells(compiled_1d):
    # two extra cuts 2^-70 and 2^-69 past the left edge of every
    # constant cell flip a sliver of length 2^-70, so each cell reads
    # +-(1 - 2^-69): every simulator is corrupted and nothing decodes.
    # A decoder that rounded cut positions to floats would read each
    # cell as exactly +-1 and decode ((4,), (5,)).
    comp = compiled_1d
    N, p = comp.layout.N, comp.layout.p
    _, sol = find_solution(comp)
    assert decode_solution(comp, sol)
    extra = [N + j + d for j in range(p)
             for d in (F(1, 2 ** 70), F(1, 2 ** 69))]
    cuts = sorted(sol.cuts + tuple(extra))
    first = sol.labels[0]
    other = MINUS if first == PLUS else PLUS
    tampered = Solution(cuts, [first if i % 2 == 0 else other
                               for i in range(len(cuts) + 1)])
    for j in range(p):
        assert abs(encoded_value(tampered, N + j)) == 1 - F(1, 2 ** 69)
    with pytest.raises(DecodeFailure):
        decode_solution(comp, tampered)
