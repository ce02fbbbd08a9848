import itertools
from fractions import Fraction

import pytest

from chdiv.core import (Instance, Valuation, Block, Solution, PLUS, MINUS,
                        verify, encoded_value, truncate, balance)
from chdiv.tucker import (BoolCircuit, CircuitBuilder, TuckerLabeling,
                          decode_label, point_bits, bits_to_coord,
                          demo_labeling, snake_embed, snake_preimage,
                          ReductionParams, dist_to_B, cell_of,
                          Assembler, Layout, CompiledCH,
                          compile_tucker, simulate_phases, forward_place,
                          balance_report, audit_two_block_uniform,
                          decode_solution, DecodeFailure,
                          find_solution, NoSolutionFound)


F = Fraction
EPS = F(1, 2 ** 16)


# --- circuits and labelings -------------------------------------------------


def test_point_bits_round_trip():
    for r in range(1, 9):
        bits = point_bits(r)
        assert all(b in (1, -1) for b in bits)
        assert bits_to_coord(bits) == r


def test_circuit_parse_format_round_trip():
    lab = demo_labeling(2)
    text = lab.circuit.format()
    again = BoolCircuit.parse(text)
    assert again.format() == text
    assert "INPUT" in text and "OUTPUT" in text


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


def test_snake_embedding_matches_preimage():
    # a side-7 labeling that only reads the top bit of the first axis
    b = CircuitBuilder()
    ins = b.reserve(6)
    t = b.NOT(ins[0])
    nt = b.NOT(t)
    lab7 = TuckerLabeling(2, BoolCircuit(ins, b.gates, [t, t, t, nt]),
                          side=7)
    for x in itertools.product(range(1, 8), repeat=2):
        assert lab7.evaluate(x) == (1 if x[0] <= 4 else -1)
    lab8 = snake_embed(lab7)
    assert lab8.side == 8
    for x in itertools.product(range(1, 9), repeat=2):
        assert lab8.evaluate(x) == lab7.evaluate(snake_preimage(x))


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


# --- gate agents ------------------------------------------------------------


def _mini_rig(builder, n_wires):
    """Assemble gates over n_wires input wires; wires N..n_wires-1 carry
    the +1 reference constant."""
    asm = Assembler(EPS, origin=n_wires)
    outs = builder(asm)
    agents = [Valuation([Block(l, r, h) for l, r, h in bl])
              for bl in asm.blocks]
    inst = Instance(agents, k=2, domain_right=asm.cursor)
    return outs, asm, inst


def _compiled(asm, inst, n_coords, n_consts):
    layout = Layout(n_coords, n_consts,
                    asm.cursor - (n_coords + n_consts), asm.cursor,
                    asm.cursor)
    return CompiledCH(inst, layout, None, None, asm.gates, asm.forced,
                      asm.roles)


def clamp(v, d):
    return max(-(1 - d), min(1 - d, v))


def test_arithmetic_gates_forward_exact():
    def build(asm):
        return {"c34": asm.const(F(-3, 4), 1),
                "neg": asm.neg(0),
                "add": asm.add(0, asm.const(F(-3, 4), 1)),
                "pos": asm.const(F(1, 2), 1),
                "copy": asm.copy(0),
                "mul3": asm.mul_int(0, 3),
                "mul5": asm.mul_int(0, 5),
                "mul4096": asm.mul_int(0, 4096)}
    outs, asm, inst = _mini_rig(build, 2)
    comp = _compiled(asm, inst, 1, 1)
    for xv in [F(0), F(1, 3), F(-1, 2), F(7, 8), F(1), F(-1)]:
        sol = forward_place(comp, [xv])
        assert verify(inst, sol, 0).satisfied
        val = lambda w: encoded_value(sol, w, inst.domain_right)
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
        sw = forward_place(comp, [xv], const_sign=-1)
        assert verify(inst, sw, 0).satisfied
        assert encoded_value(sw, 0, inst.domain_right) == xv
        assert encoded_value(sw, 1, inst.domain_right) == -1


def test_boolean_gates_exact_on_perfect_bits():
    def build(asm):
        return {"not": asm.not_(0),
                "and": asm.and_(0, 1, 3),
                "or": asm.or_(0, 1, 3)}
    outs, asm, inst = _mini_rig(build, 4)
    comp = _compiled(asm, inst, 2, 2)
    for b1, b2 in itertools.product((1, -1), repeat=2):
        sol = forward_place(comp, [b1, b2])
        assert verify(inst, sol, 0).satisfied
        val = lambda w: encoded_value(sol, w, inst.domain_right)
        assert val(outs["not"]) == -b1
        assert val(outs["and"]) == min(b1, b2)
        assert val(outs["or"]) == max(b1, b2)


def test_volume_gate_rejects_bad_delta():
    asm = Assembler(EPS, origin=1)
    with pytest.raises(ValueError):
        asm.volume(EPS, 0)        # below 2 eps
    with pytest.raises(ValueError):
        asm.volume(2, 0)          # above 1


# --- phase semantics --------------------------------------------------------


def test_simulate_phases_demo():
    lab = demo_labeling(2)
    params = ReductionParams(2, EPS)
    x = (F(-1, 32), F(0))
    for j in range(1, params.p + 1):
        res = simulate_phases(lab, x, j, 1, params)
        z1 = x[0] + j * params.alpha
        if j == 8:
            # displaced first coordinate lands exactly on a cell border
            assert res.failed
            assert res.outputs == [F(0), F(0)]
        else:
            assert not res.failed
            assert res.outputs[0] == (1 if z1 < 0 else -1)
            assert res.outputs[1] == 0
        # a flipped constant negates the run on the negated point
        neg = simulate_phases(lab, x, j, -1, params)
        ref = simulate_phases(lab, [-v for v in x], j, 1, params)
        assert neg.failed == ref.failed
        assert neg.outputs == [-v for v in ref.outputs]


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
    assert comp.roles[-1] == "feedback"


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


def test_balance_without_a_domain_does_not_clip(compiled_1d):
    # the feedback agent lives far right of 1 on the compiled domain
    inst = compiled_1d.instance
    sol = forward_place(compiled_1d, [F(-1, 32)])
    feedback = inst.agents[-1]
    assert balance(feedback, sol) == F(-8191, 32768)
    assert balance(feedback, sol, inst.domain_right) == F(-8191, 32768)


def test_find_solution_1d(compiled_1d):
    comp = compiled_1d
    inst = comp.instance
    p, eps = comp.params.p, comp.params.eps
    # the start has census -(1 - 2 eps); the next candidate, -1/32 - g,
    # balances the feedback agent
    x, sol = find_solution(comp, (F(-1, 32),), radius=4)
    assert x == (F(-1, 32) - comp.params.g,)
    ok, worst, feedback = balance_report(comp, sol)
    assert ok and worst == 0
    census = balance(inst.agents[-1], sol, inst.domain_right) * p
    assert feedback == [census]
    assert abs(census) <= p * eps
    u, w = decode_solution(comp, sol)
    assert comp.labeling.evaluate(u) == -comp.labeling.evaluate(w)


def test_find_solution_reports_exhaustion(compiled_1d):
    # on [-1, -1 + 2g] every simulator reads cell 1 and outputs
    # +(1 - 2 eps): census 4 (1 - 2 eps) = 8191/2048 at every candidate
    with pytest.raises(NoSolutionFound) as info:
        find_solution(compiled_1d, (F(-1),), radius=2)
    e = info.value
    assert e.scanned == 3                  # -1, -1 + g, -1 + 2g
    assert e.best_point == [F(-1)]
    assert e.best_census == [F(8191, 2048)]
    assert "3 points scanned" in str(e)


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
    _, sol = find_solution(comp, (F(-1, 32),), radius=4)
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
