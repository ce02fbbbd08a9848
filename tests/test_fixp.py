from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chdiv.core import verify
from chdiv.fixp import (TruncCircuit, LinFixpCircuit, eval_trunc,
                        eval_linfixp, to_truncated, compile_fixp,
                        forward_place_kdiv, decode_fixed_point,
                        encoding_status, KDivDecodeFailure, ANCHORS,
                        ANCH_H, WELL_CUT_1, WELL_CUT_2, OUT1, IN1, IN2,
                        x_set)
from conftest import LIN_TEXT, MUTATIONS, mutate


F = Fraction


IDENT = TruncCircuit.parse("IN x1\nIN x2\nOUT x1\nOUT x2\n")
CONSTS = TruncCircuit.parse(
    "IN x1\nIN x2\nCONST 1/3 -> a\nCONST -1/2 -> b\nOUT a\nOUT b\n")
HALVE = TruncCircuit.parse(
    "IN x1\nIN x2\nMUL 1/2 x1 -> a\nMUL 1/2 x2 -> b\nOUT a\nOUT b\n")
# every agent shape: ADD of a duplicated wire, MUL by a positive, a
# negative and a zero factor, CONST 1 and -1
MIXED = TruncCircuit.parse(
    "IN x1\nIN x2\nADD x1 x1 -> d\nMUL 3/5 d -> p\nMUL -1/3 x2 -> m\n"
    "MUL 0 p -> z\nCONST 1 -> c\nCONST -1 -> e\nADD m z -> s\n"
    "ADD c e -> t\nOUT s\nOUT t\n")


# --- circuit evaluation -----------------------------------------------------


def test_eval_trunc_basics():
    assert eval_trunc(IDENT, (F(1, 3), F(-1, 4))) == (F(1, 3), F(-1, 4))
    assert eval_trunc(CONSTS, (1, 1)) == (F(1, 3), F(-1, 2))
    addc = TruncCircuit.parse(
        "IN x1\nIN x2\nADD x1 x2 -> s\nOUT s\nOUT x2\n")
    assert eval_trunc(addc, (1, F(1, 2))) == (1, F(1, 2))   # sum saturates
    assert eval_trunc(addc, (F(-3, 4), F(-3, 4))) == (-1, F(-3, 4))


# --- compile / forward / decode ---------------------------------------------


FIXED_POINTS = [
    (CONSTS, (F(1, 3), F(-1, 2))),
    (HALVE, (F(0), F(0))),
    (IDENT, (F(2, 7), F(-3, 5))),
    (MIXED, (F(0), F(0))),
]


@pytest.mark.parametrize("circ,fp", FIXED_POINTS)
def test_fixed_points_verify_and_decode(circ, fp):
    comp = compile_fixp(circ)
    inst = comp.instance
    assert inst.k == 3
    sol = forward_place_kdiv(comp, fp)
    assert len(sol.cuts) == 2 * inst.n <= inst.cut_budget
    rep = verify(inst, sol, 0)
    assert rep.satisfied, rep.max_discrepancy
    assert decode_fixed_point(sol) == fp
    assert eval_trunc(circ, fp) == fp
    for idx in range(inst.n):
        st = encoding_status(sol, 10 * idx)
        assert st.well_cut and st.valid


def test_every_agent_is_anchors_x_of_o_and_inputs_placed_before():
    # the shape compile_fixp builds and the order forward_place_kdiv
    # relies on: In1/In2 are placed first, then each agent's output
    # interval in turn, and only constants read Out1 before its writer
    comp = compile_fixp(MIXED)
    agents, outs = comp.instance.agents, comp.outs
    assert sorted(outs) == list(range(len(agents)))
    placed = {IN1, IN2}
    for v, idx in zip(agents, outs):
        assert v.mass == 1
        o = 10 * idx
        own = [b for b in v.blocks if o <= b.left < o + 9]
        anchors = [(b.left, b.right) for b in own if b.height == ANCH_H]
        assert anchors == [(o + a, o + b) for a, b in ANCHORS]
        xo = [b for b in own if b.height != ANCH_H]
        assert [(b.left, b.right) for b in xo] == x_set(o)
        assert len({b.height for b in xo}) == 1
        for b in v.blocks:
            if b in own:
                continue
            il = 10 * (b.left // 10)
            assert b.right <= il + 9
            if il // 10 not in placed:
                assert il == 10 * OUT1
                assert all(b.right <= il + lo or b.left >= il + hi
                           for lo, hi in (WELL_CUT_1, WELL_CUT_2))
        placed.add(idx)


def test_non_fixed_point_leaves_an_agent_unbalanced():
    comp = compile_fixp(CONSTS)
    sol = forward_place_kdiv(comp, (F(0), F(0)))
    rep = verify(comp.instance, sol, 0)
    assert not rep.satisfied
    assert rep.max_discrepancy > 0


def test_saturating_addition_balances_exactly():
    sat = TruncCircuit.parse(
        "IN x1\nIN x2\nADD x1 x2 -> s\nMUL -1 s -> t\nADD t x2 -> u\n"
        "OUT x1\nOUT x2\n")
    comp = compile_fixp(sat)
    fp = (F(3, 4), F(3, 4))
    sol = forward_place_kdiv(comp, fp)
    assert verify(comp.instance, sol, 0).satisfied
    assert decode_fixed_point(sol) == fp


def test_duplicated_wire_addition():
    dup = TruncCircuit.parse("IN x1\nIN x2\nADD x1 x1 -> d\nOUT d\nOUT x2\n")
    comp = compile_fixp(dup)
    fp = (F(0), F(1, 9))
    sol = forward_place_kdiv(comp, fp)
    assert verify(comp.instance, sol, 0).satisfied
    assert decode_fixed_point(sol) == fp


def test_encoding_status_flags_bad_cut_patterns():
    comp = compile_fixp(IDENT)
    fp = (F(0), F(0))
    sol = forward_place_kdiv(comp, fp)
    st = encoding_status(sol, 0)
    assert st.valid and st.value == 0
    # shifting the window misaligns every cut
    st = encoding_status(sol, F(9, 2))
    assert not st.valid


def test_decode_rejects_structurally_broken_solutions():
    comp = compile_fixp(IDENT)
    sol = forward_place_kdiv(comp, (F(0), F(0)))
    broken = sol.__class__(sol.cuts[2:], sol.labels[2:])
    with pytest.raises((KDivDecodeFailure, ValueError)):
        decode_fixed_point(broken)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIXED_POINTS), MUTATIONS)
def test_property_decode_of_a_mutated_witness(circ_fp, ops):
    # the decoder either refuses or reads a point of [-1, 1]^2, and a
    # mutated witness that is still exact decodes to a fixed point
    circ, fp = circ_fp
    comp = compile_fixp(circ)
    sol = mutate(forward_place_kdiv(comp, fp), "ABC",
                 comp.instance.domain_right, ops)
    try:
        x = decode_fixed_point(sol)
    except KDivDecodeFailure:
        return
    assert all(-1 <= v <= 1 for v in x)
    if verify(comp.instance, sol, 0).satisfied:
        assert eval_trunc(circ, x) == x


# --- reduction from the add/mul/max form ------------------------------------


def test_to_truncated_agrees_on_the_unit_square():
    lin = LinFixpCircuit.parse(LIN_TEXT)
    tr = to_truncated(lin)
    for x in [(F(0), F(0)), (F(1), F(1)), (F(1, 3), F(2, 3)),
              (F(1, 2), F(1, 2))]:
        assert eval_trunc(tr, x) == eval_linfixp(lin, x)
    fp = (F(1, 2), F(3, 4))
    assert eval_linfixp(lin, fp) == fp
    assert eval_trunc(tr, fp) == fp


def test_to_truncated_handles_large_multipliers():
    lin = LinFixpCircuit.parse(
        "IN x1\nIN x2\nMUL 3 x1 -> a\nMUL 1/2 x2 -> b\nOUT a\nOUT b\n")
    tr = to_truncated(lin)
    fp = (F(0), F(0))
    assert eval_linfixp(lin, fp) == fp
    assert eval_trunc(tr, fp) == fp
    # on points where the original stays inside [0,1] the two agree
    for x in [(F(0), F(1)), (F(1, 4), F(1, 2)), (F(1, 3), F(0))]:
        assert eval_trunc(tr, x) == eval_linfixp(lin, x)


@st.composite
def linear_circuits(draw):
    """Random ADD/MUL/CONST/MAX circuits on the plane."""
    factor = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(2),
                              F(-3), F(5, 4)])
    wires, gates = ["x1", "x2"], []
    for g in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["ADD", "MUL", "CONST", "MAX"]))
        wire = st.sampled_from(wires)
        if op == "CONST":
            args = (draw(factor),)
        elif op == "MUL":
            args = (draw(factor), draw(wire))
        else:
            args = (draw(wire), draw(wire))
        gates.append((op, args, "g%d" % g))
        wires.append("g%d" % g)
    outs = [draw(st.sampled_from(wires)) for _ in range(2)]
    return LinFixpCircuit(["x1", "x2"], gates, outs)


LATTICE = [(F(i, 4), F(j, 4)) for i in range(5) for j in range(5)]


# x1 doubled five times and halved back: 32 x1 leaves [-M, M] for any
# scale M < 32, which the random circuits seldom reach
DOUBLINGS = LinFixpCircuit.parse(
    "IN x1\nIN x2\nADD x1 x1 -> a\nADD a a -> b\nADD b b -> c\n"
    "ADD c c -> d\nADD d d -> e\nMUL 1/32 e -> f\nOUT f\nOUT x2\n")


@settings(max_examples=72, deadline=None)
@given(linear_circuits())
@example(DOUBLINGS)
def test_property_to_truncated_is_the_clamped_circuit(lin):
    # on [0,1]^2 the rewrite computes the source clamped into [0, 1]
    tr = to_truncated(lin)
    for x in LATTICE:
        assert eval_trunc(tr, x) == tuple(
            min(max(v, 0), 1) for v in eval_linfixp(lin, x))


def test_linear_fixp_chain_end_to_end():
    # add/mul/max circuit -> truncated circuit -> 1/3-division instance
    # -> forward witness at the fixed point -> decode
    tr = to_truncated(LinFixpCircuit.parse(LIN_TEXT))
    assert len(tr.gates) == 65
    comp = compile_fixp(tr)
    assert comp.instance.n == 114
    fp = (F(1, 2), F(3, 4))
    sol = forward_place_kdiv(comp, fp)
    assert verify(comp.instance, sol, 0).satisfied
    assert len(sol.cuts) == comp.instance.cut_budget == 228
    assert decode_fixed_point(sol) == fp
