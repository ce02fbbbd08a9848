from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chdiv.core import verify
from chdiv.fixp import (TruncCircuit, LinFixpCircuit, eval_trunc,
                        eval_linfixp, to_truncated, compile_fixp,
                        forward_place_kdiv, decode_fixed_point,
                        encoding_status, KDivLayout, KDivDecodeFailure,
                        make_kdiv_gate)
from conftest import MUTATIONS, mutate


F = Fraction


IDENT = TruncCircuit.parse("IN x1\nIN x2\nOUT x1\nOUT x2\n")
CONSTS = TruncCircuit.parse(
    "IN x1\nIN x2\nCONST 1/3 -> a\nCONST -1/2 -> b\nOUT a\nOUT b\n")
HALVE = TruncCircuit.parse(
    "IN x1\nIN x2\nMUL 1/2 x1 -> a\nMUL 1/2 x2 -> b\nOUT a\nOUT b\n")


# --- circuit evaluation -----------------------------------------------------


def test_eval_trunc_basics():
    assert eval_trunc(IDENT, (F(1, 3), F(-1, 4))) == (F(1, 3), F(-1, 4))
    assert eval_trunc(CONSTS, (1, 1)) == (F(1, 3), F(-1, 2))
    addc = TruncCircuit.parse(
        "IN x1\nIN x2\nADD x1 x2 -> s\nOUT s\nOUT x2\n")
    assert eval_trunc(addc, (1, F(1, 2))) == (1, F(1, 2))   # sum saturates
    assert eval_trunc(addc, (F(-3, 4), F(-3, 4))) == (-1, F(-3, 4))


def test_gate_valuations_have_unit_mass():
    layout = KDivLayout()
    for _ in range(3):
        layout.alloc()
    for kind, ins, zeta in [("mul_T", (0,), F(-1)), ("mul_T", (0,), F(-1, 3)),
                            ("add_T", (0, 1), None), ("const_T", (0,), F(2, 5)),
                            ("projection1", (0,), None),
                            ("projection2", (1,), None)]:
        g = make_kdiv_gate(kind, layout, 2, ins, zeta=zeta)
        assert g.valuation(layout).mass == 1, kind


# --- compile / forward / decode ---------------------------------------------


FIXED_POINTS = [
    (CONSTS, (F(1, 3), F(-1, 2))),
    (HALVE, (F(0), F(0))),
    (IDENT, (F(2, 7), F(-3, 5))),
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
    for idx in range(comp.layout.count):
        st = encoding_status(sol, comp.layout.left(idx))
        assert st.well_cut and st.valid


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
    st = encoding_status(sol, comp.layout.left(0))
    assert st.valid and st.value == 0
    # shifting the window misaligns every cut
    st = encoding_status(sol, comp.layout.left(0) + F(9, 2))
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
    lin = LinFixpCircuit.parse(
        "IN x1\nIN x2\nMUL 1/2 x1 -> a\nCONST 1/4 -> c\nADD a c -> s\n"
        "MAX s x2 -> m\nOUT s\nOUT m\n")
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
