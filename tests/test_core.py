import ast
import json
import io
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chdiv.core import (Block, Valuation, Instance, Solution, PLUS, MINUS,
                        balance, verify, label_masses, encoded_value, truncate,
                        rescale_to_unit, disjoint_copies, rat, rat_str,
                        instance_to_obj, instance_from_obj, solution_to_obj,
                        solution_from_obj, dump_instance, load_instance,
                        dump_solution, load_solution)
from conftest import random_single_block_instance, alternating_solution


F = Fraction


def unit(v):
    return Instance([v], k=2)


# --- basic types -----------------------------------------------------------


def test_rat_coercion_and_canonical_string():
    assert rat("3/6") == F(1, 2)
    assert rat(2) == F(2)
    assert rat(F(1, 3)) == F(1, 3)
    assert rat_str(F(4, 6)) == "2/3"
    assert rat_str(F(-1, 2)) == "-1/2"
    assert rat_str(3) == "3/1"
    with pytest.raises(TypeError):
        rat(0.5)


def test_truncate_clamps_to_unit_interval():
    assert truncate(F(3, 2)) == 1
    assert truncate(F(-3, 10)) == F(-3, 10)
    assert truncate(-2) == -1


def test_block_rejects_degenerate_and_negative():
    with pytest.raises(ValueError):
        Block(F(1, 2), F(1, 2), 1)
    with pytest.raises(ValueError):
        Block(F(1, 2), F(1, 4), 1)
    with pytest.raises(ValueError):
        Block(0, 1, -1)


def test_valuation_rejects_overlap_and_wrong_mass():
    with pytest.raises(ValueError):
        Valuation([Block(0, F(1, 2), 1), Block(F(1, 4), 1, 1)])
    with pytest.raises(ValueError):
        Valuation([Block(0, 1, 2)])
    # touching endpoints are fine
    v = Valuation([Block(0, F(1, 2), 1), Block(F(1, 2), 1, 1)])
    assert v.mass == 1


def test_valuation_normalized_and_queries():
    v = Valuation.normalized([Block(0, F(1, 4), 1), Block(F(3, 4), 1, 1)])
    assert v.mass == 1
    assert v.mass_between(0, F(1, 4)) == F(1, 2)
    assert v.mass_between(F(1, 4), F(3, 4)) == 0
    assert v.density_at(F(7, 8)) == 2
    assert v.density_at(F(1, 2)) == 0
    assert v.density_at(F(3, 4)) == 2 and v.density_at(1) == 0
    assert v.cdf(-1) == 0 and v.cdf(0) == 0
    assert v.cdf(F(1, 8)) == F(1, 4)
    assert v.cdf(F(1, 2)) == F(1, 2) and v.cdf(F(7, 8)) == F(3, 4)
    assert v.cdf(1) == 1 and v.cdf(5) == 1
    w = v.translate(1)
    assert w.support_left == 1 and w.support_right == 2


def test_solution_structural_checks():
    with pytest.raises(ValueError):
        Solution([F(1, 2), F(1, 4)], [PLUS, MINUS, PLUS])
    with pytest.raises(ValueError):
        Solution([F(1, 2)], [PLUS])
    s = Solution([F(1, 4), F(1, 4)], [PLUS, MINUS, PLUS])
    assert len(s.cuts) == 2    # coincident cuts allowed


def test_instance_validation():
    v = Valuation([Block(0, 1, 1)])
    assert Instance([v], k=3).cut_budget == 2
    assert Instance([v, v], k=2).cut_budget == 2
    with pytest.raises(ValueError):
        Instance([v], k=1)
    with pytest.raises(ValueError):
        Instance([v.translate(1)], k=2, domain_right=1)


# --- balance / verify / encoded_value --------------------------------------


def test_balance_uniform_agent():
    v = Valuation([Block(0, 1, 1)])
    assert balance(v, Solution([F(1, 2)], [PLUS, MINUS])) == 0
    assert balance(v, Solution([F(3, 10)], [PLUS, MINUS])) == F(-2, 5)


def test_balance_centered_block():
    v = Valuation([Block(F(1, 4), F(3, 4), 2)])
    assert balance(v, Solution([F(1, 2)], [PLUS, MINUS])) == 0


def test_balance_rejects_k3_labels():
    v = Valuation([Block(0, 1, 1)])
    with pytest.raises(ValueError):
        balance(v, Solution([F(1, 2)], ["A", "B"]))


def test_verify_two_labels():
    inst = unit(Valuation([Block(0, 1, 1)]))
    rep = verify(inst, Solution([F(1, 2)], [PLUS, MINUS]), 0)
    assert rep.satisfied and rep.max_discrepancy == 0


def test_verify_three_labels():
    inst = Instance([Valuation([Block(0, 1, 1)])], k=3)
    rep = verify(inst, Solution([F(1, 3), F(2, 3)], ["A", "B", "C"]), 0)
    assert rep.satisfied
    assert rep.masses[0] == {"A": F(1, 3), "B": F(1, 3), "C": F(1, 3)}


def test_verify_two_agents_disjoint_blocks():
    inst = Instance([Valuation([Block(0, F(1, 2), 2)]),
                     Valuation([Block(F(1, 2), 1, 2)])], k=2)
    s = Solution([F(1, 4), F(3, 4)], [PLUS, MINUS, PLUS])
    rep = verify(inst, s, 0)
    assert rep.satisfied
    assert all(d == 0 for d in rep.per_agent_discrepancy)


def test_verify_rejects_bad_labels_and_cuts():
    inst = unit(Valuation([Block(0, 1, 1)]))
    with pytest.raises(ValueError):
        verify(inst, Solution([F(1, 2)], ["A", "B"]), 0)
    with pytest.raises(ValueError):
        verify(inst, Solution([F(3, 2)], [PLUS, MINUS]), 0)


def test_encoded_value_basic():
    assert encoded_value(Solution([], [PLUS]), 0) == 1
    assert encoded_value(Solution([F(1, 2)], [PLUS, MINUS]), 0) == 0
    assert encoded_value(Solution([F(1, 4)], [MINUS, PLUS]), 0) == F(1, 2)


def test_encoded_value_domain_check():
    with pytest.raises(ValueError):
        encoded_value(Solution([], [PLUS]), F(1, 2), 1)


def test_rescale_to_unit():
    inst = Instance([Valuation([Block(0, 2, F(1, 2))])], domain_right=2)
    out = rescale_to_unit(inst)
    assert out.domain_right == 1
    assert out.agents[0].blocks == (Block(0, 1, 1),)
    inst = Instance([Valuation([Block(1, 2, 1)])], domain_right=4)
    out = rescale_to_unit(inst)
    assert out.agents[0].blocks == (Block(F(1, 4), F(1, 2), 4),)
    inst = Instance([Valuation([Block(0, 1, 1)])], domain_right=1)
    assert rescale_to_unit(inst) == inst


def test_disjoint_copies():
    v = Valuation([Block(0, 1, 1)])
    inst = Instance([v], k=2)
    assert disjoint_copies(inst, 0) is inst
    two = disjoint_copies(inst, 1)
    assert two.n == 2 and two.cut_budget == 3 and two.domain_right == 2
    assert two.agents[1].support_left == 1
    # solving each copy with its own cut satisfies the combined instance
    s = Solution([F(1, 2), F(3, 2)], [PLUS, MINUS, PLUS])
    assert verify(two, s, 0).satisfied


def test_disjoint_copies_supports_are_disjoint():
    rng = random.Random(7)
    inst = random_single_block_instance(rng, 3)
    out = disjoint_copies(inst, 2)
    assert out.n == 9
    spans = sorted((v.support_left, v.support_right) for v in out.agents)
    for c in range(3):
        lo = min(l for l, _ in spans[3 * c:3 * c + 3])
        hi = max(r for _, r in spans[3 * c:3 * c + 3])
        assert c <= lo and hi <= c + 1


# --- serialization ---------------------------------------------------------


def test_instance_json_round_trip():
    rng = random.Random(11)
    inst = random_single_block_instance(rng, 4)
    obj = instance_to_obj(inst)
    assert obj["k"] == 2 and obj["cut_budget"] == 4
    assert all("/" in b["left"] for a in obj["agents"] for b in a["blocks"])
    assert instance_from_obj(json.loads(json.dumps(obj))) == inst
    buf = io.StringIO()
    dump_instance(inst, buf)
    buf.seek(0)
    assert load_instance(buf) == inst


def test_solution_json_round_trip():
    s = Solution([F(1, 3), F(2, 3)], ["A", "B", "C"])
    obj = solution_to_obj(s)
    assert obj == {"cuts": ["1/3", "2/3"], "labels": ["A", "B", "C"]}
    assert solution_from_obj(obj) == s
    buf = io.StringIO()
    dump_solution(s, buf)
    buf.seek(0)
    assert load_solution(buf) == s


# --- properties ------------------------------------------------------------


small_frac = st.fractions(min_value=0, max_value=1, max_denominator=24)
heights = st.fractions(min_value=F(1, 8), max_value=6, max_denominator=12)


@st.composite
def valuations(draw, max_blocks=3):
    nb = draw(st.integers(1, max_blocks))
    pts = sorted(draw(st.lists(small_frac, min_size=2 * nb,
                               max_size=2 * nb, unique=True)))
    blocks = [Block(pts[2 * t], pts[2 * t + 1], draw(heights))
              for t in range(nb)]
    return Valuation.normalized(blocks)


@st.composite
def binary_solutions(draw):
    cuts = sorted(draw(st.lists(small_frac, max_size=4)))
    start = draw(st.sampled_from([PLUS, MINUS]))
    labels = [start]
    for _ in cuts:
        flip = draw(st.booleans())
        prev = labels[-1]
        labels.append((MINUS if prev == PLUS else PLUS) if flip else prev)
    return Solution(cuts, labels)


@settings(max_examples=120, deadline=None)
@given(valuations(), binary_solutions())
def test_property_mass_conservation(v, s):
    rep = verify(unit(v), s, 0)
    assert sum(rep.masses[0].values()) == 1


@settings(max_examples=120, deadline=None)
@given(valuations(), binary_solutions())
def test_property_label_swap_negates_balance_and_encoding(v, s):
    sw = s.swap_labels()
    assert balance(v, sw) == -balance(v, s)
    assert encoded_value(sw, 0) == -encoded_value(s, 0)


@settings(max_examples=80, deadline=None)
@given(valuations(), binary_solutions(),
       st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_property_verify_monotone_in_eps(v, s, eps):
    inst = unit(v)
    if verify(inst, s, eps).satisfied:
        assert verify(inst, s, 2 * eps).satisfied
        assert verify(inst, s, 1).satisfied


@settings(max_examples=80, deadline=None)
@given(valuations(), binary_solutions())
def test_property_rescale_preserves_reports(v, s):
    # stretch the same data onto [0, 3], then map it back to [0, 1]
    big = Instance([Valuation([Block(3 * b.left, 3 * b.right, b.height / 3)
                               for b in v.blocks])], domain_right=3)
    sbig = Solution([3 * c for c in s.cuts], s.labels)
    back = rescale_to_unit(big)
    r1 = verify(big, sbig, 0)
    r2 = verify(back, s, 0)
    assert r1.per_agent_discrepancy == r2.per_agent_discrepancy


@settings(max_examples=80, deadline=None)
@given(valuations(), binary_solutions())
def test_property_merging_equal_neighbors_is_invisible(v, s):
    m = s.merged()
    assert len(m.cuts) <= len(s.cuts)
    rep1 = verify(unit(v), s, 0)
    rep2 = verify(unit(v), m, 0)
    assert rep1.masses == rep2.masses
    if any(a == b for a, b in zip(s.labels, s.labels[1:])):
        assert len(m.cuts) < len(s.cuts)


# --- the measure kernel against a naive per-segment, per-block sum --------


def naive_label_masses(v, cuts, labels, label_set, lo, hi):
    """Overlap of every labelled segment with every block, clipped to
    [lo, hi]; the first and last segments reach lo and hi."""
    m = {lab: F(0) for lab in label_set}
    edges = [lo] + list(cuts) + [hi]
    for i, lab in enumerate(labels):
        a, b = max(edges[i], lo), min(edges[i + 1], hi)
        for blk in v.blocks:
            x, y = max(a, blk.left), min(b, blk.right)
            if y > x:
                m[lab] += blk.height * (y - x)
    return m


@st.composite
def kernel_cases(draw):
    """Valuations on [0, 2] built from runs of touching blocks, with cut
    sequences that repeat, land on block endpoints or fall outside the
    support, and arbitrary labels from a k-label alphabet."""
    k = draw(st.sampled_from([2, 3]))
    agents = []
    for _ in range(draw(st.integers(1, 3))):
        pts = sorted(draw(st.lists(
            st.fractions(min_value=F(1, 4), max_value=F(7, 4),
                         max_denominator=12),
            min_size=2, max_size=6, unique=True)))
        spans = [(l, r) for l, r in zip(pts, pts[1:]) if draw(st.booleans())]
        spans = spans or [(pts[0], pts[1])]
        agents.append(Valuation.normalized(
            [Block(l, r, draw(heights)) for l, r in spans]))
    inst = Instance(agents, k=k, domain_right=2)
    endpoints = sorted({e for v in agents for b in v.blocks
                        for e in (b.left, b.right)})
    anywhere = st.fractions(min_value=0, max_value=2, max_denominator=16)
    cuts = sorted(draw(st.lists(st.one_of(st.sampled_from(endpoints),
                                          anywhere), max_size=8)))
    labels = draw(st.lists(st.sampled_from(inst.labels()),
                           min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    lo, hi = draw(anywhere), draw(anywhere)
    return inst, Solution(cuts, labels), lo, hi


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_property_kernel_matches_naive_overlap_sum(case):
    inst, s, lo, hi = case
    labs = inst.labels()
    whole = [naive_label_masses(v, s.cuts, s.labels, labs, -1, 3)
             for v in inst.agents]
    for v, ref in zip(inst.agents, whole):
        assert label_masses(v, s.cuts, s.labels, labs) == ref
        assert label_masses(v, s.cuts, s.labels, labs, lo, hi) == \
            naive_label_masses(v, s.cuts, s.labels, labs, lo, hi)
        for x in s.cuts + (lo, hi):
            assert v.cdf(x) == naive_label_masses(
                v, (), ["A"], ["A"], -1, x)["A"]
        if inst.k == 2:
            assert balance(v, s, 2) == ref[PLUS] - ref[MINUS]
    rep = verify(inst, s, 0)
    assert rep.masses == whole
    assert rep.per_agent_discrepancy == [max(m.values()) - min(m.values())
                                         for m in whole]


def test_package_has_no_floating_point():
    """Everything in the package is an exact rational: no source file
    under src/chdiv names float or holds a float literal."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "chdiv"
    files = sorted(src.glob("*.py"))
    assert files
    hits = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id == "float") or (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, float)):
                hits.append("%s:%d" % (path.name, node.lineno))
    assert not hits, hits
