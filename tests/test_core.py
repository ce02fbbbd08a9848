import ast
import json
import io
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chdiv.core import (Block, Valuation, Instance, Solution, PLUS, MINUS,
                        balance, verify, label_masses, encoded_value, truncate,
                        disjoint_copies, rat, rat_str,
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


def test_rat_refuses_an_exponent_over_the_cap():
    # just over the cap, so each string is cheap to build even if the
    # cap were missing; far larger ones are refused the same way
    for text in ["1e4301", "1E+4301", "-2.5e-4301", "1e4_301", " 1e5000 ",
                 "1e000000000000000004301"]:
        with pytest.raises(ValueError, match="exceeds"):
            rat(text)
    assert rat("1e4300") == 10 ** 4300
    assert rat("1e-04300") == F(1, 10 ** 4300)
    assert rat("25e-1") == F(5, 2)


digit_runs = st.text(alphabet="0123456789_\u0663\u06f5", max_size=5)
signs = st.sampled_from(["", "-", "+", "+-"])
spaces = st.sampled_from(["", "", "", "", " ", "\t\n", "\u2003", "\x1c"])


@st.composite
def rational_strings(draw):
    """Integer, p/q and decimal forms with whitespace, signs, leading
    zeros, underscores, non-ASCII digits, zero denominators and (small)
    exponents, well-formed or not."""
    text = draw(spaces) + draw(signs) + draw(digit_runs)
    form = draw(st.sampled_from(["int", "ratio", "decimal"]))
    if form == "ratio":
        text += draw(spaces) + "/" + draw(spaces) + draw(signs)
        text += draw(st.sampled_from(["0", "00", "1", "7"])
                     | digit_runs)
    elif form == "decimal":
        if draw(st.booleans()):
            text += "." + draw(digit_runs)
        if draw(st.booleans()):
            text += draw(st.sampled_from("eE")) + draw(signs)
            text += draw(st.text(alphabet="0123456789_", max_size=3))
    return text + draw(spaces)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


@settings(max_examples=600, deadline=None)
@given(rational_strings()
       | st.text(alphabet="0123456789-+/._ \u0663", max_size=10))
@example("1/-2")
@example("1/+2")
@example("+1/2")
@example(" 1/2")
@example("1 /2")
@example("1/0")
@example("-0/07")
@example("\u0663/4")
@example("1_0/3")
@example("-")
def test_property_rat_parses_strings_like_fraction(text):
    got, ref = _outcome(rat, text), _outcome(Fraction, text)
    assert type(got) is type(ref) and got == ref


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
    # overlapping with total mass exactly 1, given in either order
    for pair in ([Block(0, F(1, 2), 1), Block(F(1, 4), F(3, 4), 1)],
                 [Block(F(1, 4), F(3, 4), 1), Block(0, F(1, 2), 1)]):
        with pytest.raises(ValueError, match="overlapping"):
            Valuation(pair)
    # touching endpoints are fine, and blocks are kept sorted
    v = Valuation([Block(0, F(1, 2), 1), Block(F(1, 2), 1, 1)])
    assert v.mass == 1
    w = Valuation([Block(F(1, 2), 1, 1), Block(0, F(1, 2), 1)])
    assert w == v and w.cdf(F(1, 4)) == F(1, 4)


def test_valuation_normalized_and_queries():
    v = Valuation([Block(0, F(1, 4), 2), Block(F(3, 4), 1, 2)])
    assert v.mass == 1
    assert v.mass_between(0, F(1, 4)) == F(1, 2)
    assert v.mass_between(F(1, 4), F(3, 4)) == 0
    assert v.cdf(-1) == 0 and v.cdf(0) == 0
    assert v.cdf(F(1, 8)) == F(1, 4)
    assert v.cdf(F(1, 2)) == F(1, 2) and v.cdf(F(7, 8)) == F(3, 4)
    assert v.cdf(1) == 1 and v.cdf(5) == 1
    w = v.translate(1)
    assert w.blocks[0].left == 1 and w.blocks[-1].right == 2


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


def test_disjoint_copies():
    v = Valuation([Block(0, 1, 1)])
    inst = Instance([v], k=2)
    assert disjoint_copies(inst, 0) is inst
    two = disjoint_copies(inst, 1)
    assert two.n == 2 and two.cut_budget == 3 and two.domain_right == 2
    assert two.agents[1].blocks[0].left == 1
    # solving each copy with its own cut satisfies the combined instance
    s = Solution([F(1, 2), F(3, 2)], [PLUS, MINUS, PLUS])
    assert verify(two, s, 0).satisfied


def test_disjoint_copies_supports_are_disjoint():
    rng = random.Random(7)
    inst = random_single_block_instance(rng, 3)
    out = disjoint_copies(inst, 2)
    assert out.n == 9
    spans = sorted((v.blocks[0].left, v.blocks[-1].right)
                   for v in out.agents)
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
    assert "\n" not in buf.getvalue().rstrip("\n")   # compact
    buf.seek(0)
    assert load_instance(buf) == inst
    # files written indented load the same
    assert load_instance(io.StringIO(json.dumps(obj, indent=1))) == inst


def test_solution_json_round_trip():
    s = Solution([F(1, 3), F(2, 3)], ["A", "B", "C"])
    obj = solution_to_obj(s)
    assert obj == {"cuts": ["1/3", "2/3"], "labels": ["A", "B", "C"]}
    assert solution_from_obj(obj) == s
    buf = io.StringIO()
    dump_solution(s, buf)
    buf.seek(0)
    assert load_solution(buf) == s
    assert load_solution(io.StringIO(json.dumps(obj, indent=1))) == s


# --- properties ------------------------------------------------------------


small_frac = st.fractions(min_value=0, max_value=1, max_denominator=24)
heights = st.fractions(min_value=F(1, 8), max_value=6, max_denominator=12)


def _mass_one(spans, weights):
    """A valuation on the spans, block heights proportional to weights."""
    total = sum(w * (r - l) for (l, r), w in zip(spans, weights))
    return Valuation([Block(l, r, w / total)
                      for (l, r), w in zip(spans, weights)])


@st.composite
def valuations(draw, max_blocks=3):
    nb = draw(st.integers(1, max_blocks))
    pts = sorted(draw(st.lists(small_frac, min_size=2 * nb,
                               max_size=2 * nb, unique=True)))
    spans = [(pts[2 * t], pts[2 * t + 1]) for t in range(nb)]
    return _mass_one(spans, [draw(heights) for _ in spans])


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
    # the same data stretched onto [0, 3] gives the same report
    big = Instance([Valuation([Block(3 * b.left, 3 * b.right, b.height / 3)
                               for b in v.blocks])], domain_right=3)
    sbig = Solution([3 * c for c in s.cuts], s.labels)
    r1 = verify(big, sbig, 0)
    r2 = verify(unit(v), s, 0)
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


# cuts over large, pairwise-coprime denominators, so the cut frame's
# scale is their product, and block endpoints over other primes, which
# lie off that frame
COPRIME = [2 ** 61 - 1, 10 ** 9 + 7, 998244353, 1000003]
coprime_cuts = st.sampled_from(COPRIME).flatmap(
    lambda q: st.integers(0, 2 * q).map(lambda n: F(n, q)))
off_frame = st.sampled_from([1009, 7919, 104729]).flatmap(
    lambda q: st.integers(q // 4, 7 * q // 4).map(lambda n: F(n, q)))


@st.composite
def kernel_cases(draw):
    """Valuations on [0, 2] built from runs of touching blocks, with cut
    sequences that repeat, land on block endpoints, fall outside the
    support or sit over large coprime denominators, block endpoints off
    the cuts' integer frame, and arbitrary labels from a k-label
    alphabet."""
    k = draw(st.sampled_from([2, 3]))
    agents = []
    for _ in range(draw(st.integers(1, 3))):
        pts = sorted(draw(st.lists(
            st.fractions(min_value=F(1, 4), max_value=F(7, 4),
                         max_denominator=12) | off_frame,
            min_size=2, max_size=6, unique=True)))
        spans = [(l, r) for l, r in zip(pts, pts[1:]) if draw(st.booleans())]
        spans = spans or [(pts[0], pts[1])]
        agents.append(_mass_one(spans, [draw(heights) for _ in spans]))
    inst = Instance(agents, k=k, domain_right=2)
    endpoints = sorted({e for v in agents for b in v.blocks
                        for e in (b.left, b.right)})
    anywhere = st.fractions(min_value=0, max_value=2, max_denominator=16)
    cuts = sorted(draw(st.lists(st.one_of(st.sampled_from(endpoints),
                                          anywhere, coprime_cuts),
                                max_size=8)))
    labels = draw(st.lists(st.sampled_from(inst.labels()),
                           min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    lo, hi = draw(anywhere | coprime_cuts), draw(anywhere | coprime_cuts)
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


def test_kernel_at_the_edges_of_the_integer_frames():
    # cuts and clip bounds one step of a large prime's frame away from a
    # block endpoint, next to touching blocks: the floor and ceil
    # placements must count exactly the cuts on each side
    v = Valuation([Block(F(1, 3), F(1, 2), F(15, 14)),
                   Block(F(1, 2), F(5, 6), F(15, 28)),
                   Block(1, F(7, 5), F(45, 28))])
    ends = sorted({e for b in v.blocks for e in (b.left, b.right)})
    labs = [PLUS, MINUS]
    for q in COPRIME + [7]:
        near = sorted({F(f(e * q), q) for e in ends
                       for f in (math.floor, math.ceil)})
        for c in near:
            for cuts in ([c], [c, c + F(1, q)], [c - F(1, q), c]):
                labels = [PLUS, MINUS, PLUS][:len(cuts) + 1]
                assert label_masses(v, cuts, labels, labs) == \
                    naive_label_masses(v, cuts, labels, labs, -1, 3)
            for lo, hi in ((c, 3), (-1, c), (c, c + F(1, q)), (c, 1)):
                assert label_masses(v, near, labels_for(near), labs,
                                    lo, hi) == naive_label_masses(
                    v, near, labels_for(near), labs, lo, hi)


def labels_for(cuts):
    return [PLUS if i % 2 == 0 else MINUS for i in range(len(cuts) + 1)]


def package_nodes():
    """(file name, node) for every AST node of every src/chdiv/*.py."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "chdiv"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_package_has_no_floating_point():
    """Everything in the package is an exact rational: no source file
    under src/chdiv names float or holds a float literal."""
    hits = []
    for name, node in package_nodes():
        if (isinstance(node, ast.Name) and node.id == "float") or (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)):
            hits.append("%s:%d" % (name, node.lineno))
    assert not hits, hits


def test_only_the_circuit_module_defines_parse():
    """One circuit grammar: no module but circuit.py defines a parse
    method or function."""
    hits = ["%s:%d" % (name, node.lineno) for name, node in package_nodes()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "parse" and name != "circuit.py"]
    assert not hits, hits
