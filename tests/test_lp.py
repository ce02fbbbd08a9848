import ast
import inspect
import itertools
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chdiv.core import Instance, Valuation, Block, Solution, PLUS, MINUS, verify
from chdiv.lp import (breakpoints, midpoint_solution, lp_feasible,
                      solve_with_budget, refine_exact, _containing_cell)
from chdiv import simplex
from chdiv.simplex import (LinearProgram, OPTIMAL, INFEASIBLE, UNBOUNDED,
                           solve_eq)
from conftest import random_single_block_instance, random_dblock_instance


F = Fraction


def two_agent(b1, b2):
    return Instance([Valuation([Block(*b1)]), Valuation([Block(*b2)])], k=2)


# --- simplex ---------------------------------------------------------------


def test_simplex_minimizes_with_bounds():
    lp = LinearProgram([2], [10])
    lp.obj = [1]
    status, x, z = lp.solve()
    assert status == OPTIMAL and x[0] == 2 and z == 2


def test_simplex_equality_system():
    # x + y = 1, x - y = 1/3  ->  x = 2/3, y = 1/3
    lp = LinearProgram([0, 0], [None, None])
    lp.add([1, 1], "=", 1)
    lp.add([1, -1], "=", F(1, 3))
    status, x, _ = lp.solve()
    assert status == OPTIMAL
    assert x[0] == F(2, 3) and x[1] == F(1, 3)


def test_simplex_detects_infeasibility():
    # x >= 2 written as -x <= -2
    lp = LinearProgram([0], [1])
    lp.add([-1], "<=", -2)
    status, _, _ = lp.solve()
    assert status == INFEASIBLE


def test_simplex_detects_unboundedness():
    lp = LinearProgram([0], [None])
    lp.obj = [-1]
    status, _, _ = lp.solve()
    assert status == UNBOUNDED


def test_linear_program_rejects_other_senses_and_row_lengths():
    lp = LinearProgram([0, 0], [1, None])
    with pytest.raises(ValueError):
        lp.add([1, 1], ">=", 1)
    with pytest.raises(ValueError):
        lp.add([1], "<=", 1)
    assert lp.rows == []


def _traced(monkeypatch):
    """Record each phase's row count and the sign of each pivot entry."""
    log = []
    pivot, run = simplex._pivot, simplex._run

    def traced_pivot(T, basis, row, col):
        log.append(("pivot", T[row][col]))
        pivot(T, basis, row, col)

    def traced_run(T, basis, ncols):
        log.append(("phase", len(basis)))
        return run(T, basis, ncols)
    monkeypatch.setattr(simplex, "_pivot", traced_pivot)
    monkeypatch.setattr(simplex, "_run", traced_run)
    return log


def test_simplex_drops_a_redundant_row(monkeypatch):
    # the second row is twice the first: its artificial stays basic at 0
    # with zeros in every original column, so phase 2 has one row
    log = _traced(monkeypatch)
    status, x, obj = solve_eq([1, 2], [[1, 1], [2, 2]], [1, 2])
    assert (status, x, obj) == (OPTIMAL, [1, 0], 1)
    assert [v for k, v in log if k == "phase"] == [2, 1]


def test_simplex_drive_out_pivot_on_a_negative_entry(monkeypatch):
    # -x1 = 0 keeps its artificial basic at 0 after phase 1; driving it
    # out pivots on the entry -1
    log = _traced(monkeypatch)
    status, x, obj = solve_eq([1, 1], [[-1, 0], [-1, 1]], [0, 1])
    assert (status, x, obj) == (OPTIMAL, [0, 1], 1)
    assert [v for k, v in log if k == "phase"] == [2, 2]
    assert any(k == "pivot" and v < 0 for k, v in log)


def test_simplex_unbounded_in_phase_two(monkeypatch):
    # x1 - x2 = 1 is feasible, and x2 grows without bound along it
    log = _traced(monkeypatch)
    assert solve_eq([0, -1], [[1, -1]], [1]) == (UNBOUNDED, None, None)
    assert [v for k, v in log if k == "phase"] == [1, 1]


def test_simplex_kernel_has_no_fraction_arithmetic():
    """The pivot and the iteration loop run on ints only."""
    for fn in (simplex._pivot, simplex._run):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        assert "Fraction" not in names, fn.__name__


def _unique_solution(M, rhs, k):
    """The solution of M y = rhs (k unknowns) by Gauss-Jordan elimination,
    or None when M's columns are dependent or the system is inconsistent."""
    rows = [[F(v) for v in r] + [F(w)] for r, w in zip(M, rhs)]
    for col in range(k):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i, r in enumerate(rows):
            if i != col and r[col]:
                rows[i] = [a - r[col] * p for a, p in zip(r, rows[col])]
    if any(r[-1] for r in rows[k:]):
        return None
    return [rows[i][-1] for i in range(k)]


def _basic_feasible_solutions(A, b, n):
    """Every basic feasible solution of A x = b, x >= 0, by trying each
    column subset as a basis."""
    out = []
    for size in range(min(len(A), n) + 1):
        for cols in itertools.combinations(range(n), size):
            y = _unique_solution([[r[j] for j in cols] for r in A], b, size)
            if y is not None and all(v >= 0 for v in y):
                x = [F(0)] * n
                for j, v in zip(cols, y):
                    x[j] = v
                out.append(x)
    return out


def _dot(c, x):
    return sum(F(a) * b for a, b in zip(c, x))


@st.composite
def tiny_lps(draw):
    """min c.x, A x = b, x >= 0 with m <= 4, n <= 5 and small rationals;
    rows may repeat or scale an earlier row, right-hand sides may be 0."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    q = st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=3))
    A = [[draw(q) for _ in range(n)] for _ in range(m)]
    b = [draw(q) for _ in range(m)]
    for i in range(m):
        how = draw(st.sampled_from(["own", "copy", "scaled", "zero rhs"]))
        if how in ("copy", "scaled") and i > 0:
            j = draw(st.integers(0, i - 1))
            s = F(1) if how == "copy" else draw(q.filter(bool))
            A[i], b[i] = [s * v for v in A[j]], s * b[j]
        elif how == "zero rhs":
            b[i] = F(0)
    return [draw(q) for _ in range(n)], A, b


@settings(max_examples=300, deadline=None)
@given(tiny_lps())
def test_property_simplex_matches_vertex_enumeration(lp_):
    c, A, b = lp_
    n = len(c)
    status, x, obj = solve_eq(c, A, b)
    vertices = _basic_feasible_solutions(A, b, n)
    if not vertices:
        assert status == INFEASIBLE
        return
    # unbounded iff a direction d >= 0 with A d = 0 lowers c.x; scaled to
    # sum(d) = 1 the directions form a polytope whose vertices suffice
    rays = _basic_feasible_solutions(A + [[1] * n], [0] * len(A) + [1], n)
    if any(_dot(c, d) < 0 for d in rays):
        assert status == UNBOUNDED
        return
    assert status == OPTIMAL
    assert all(v >= 0 for v in x)
    assert all(_dot(r, x) == w for r, w in zip(A, b))
    assert obj == _dot(c, x) == min(_dot(c, v) for v in vertices)


# --- breakpoints and midpoints ----------------------------------------------


def test_breakpoints_examples():
    assert breakpoints(two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))) \
        == [0, F(1, 2), 1]
    assert breakpoints(two_agent((F(1, 4), F(3, 4), 2), (F(1, 2), 1, 2))) \
        == [F(1, 4), F(1, 2), F(3, 4), 1]
    assert breakpoints(Instance([Valuation([Block(0, 1, 1)])])) == [0, 1]


def test_midpoint_solution_examples():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    assert midpoint_solution(inst).cuts == (F(1, 2),)
    inst = two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))
    sol = midpoint_solution(inst)
    assert sol.cuts == (F(1, 4), F(3, 4))
    assert sol.labels == (PLUS, MINUS, PLUS)


def test_midpoint_solution_is_exact_and_small():
    rng = random.Random(31)
    for _ in range(20):
        inst = random_single_block_instance(rng, rng.randrange(1, 7))
        sol = midpoint_solution(inst)
        assert verify(inst, sol, 0).satisfied
        assert len(sol.cuts) <= 2 * inst.n - 1


def test_lp_feasible_full_subset_and_unique_cut():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    grid = breakpoints(inst)
    pos = lp_feasible(inst, grid, [0])
    assert pos == [F(1, 2)]


def test_lp_feasible_every_cell_has_the_midpoint_witness():
    inst = two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))
    grid = breakpoints(inst)
    pos = lp_feasible(inst, grid, [0, 1])
    assert pos is not None
    sol = Solution(sorted(pos), [PLUS, MINUS, PLUS])
    assert verify(inst, sol, 0).satisfied


def test_lp_feasible_reports_infeasibility():
    # one cut in the left cell can never halve the right-cell agent
    inst = two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))
    grid = breakpoints(inst)
    assert lp_feasible(inst, grid, [0]) is None


def test_solve_with_budget_ell1_always_succeeds():
    rng = random.Random(37)
    for _ in range(10):
        inst = random_dblock_instance(rng, rng.randrange(1, 4), d=2)
        sol = solve_with_budget(inst, 1)
        assert sol is not None
        assert verify(inst, sol, 0).satisfied


def test_solve_with_budget_tight_budget():
    v = Valuation([Block(0, 1, 1)])
    inst = Instance([v, v])
    sol = solve_with_budget(inst, 3)      # budget 1
    assert sol is not None and sol.cuts == (F(1, 2),)


def test_solve_with_budget_certifies_impossibility():
    inst = two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))
    assert solve_with_budget(inst, 3) is None     # budget 1


def test_containing_cell_on_and_off_the_grid():
    grid = [0, F(1, 2), 1]
    assert [_containing_cell(grid, x)
            for x in (0, F(1, 4), F(1, 2), F(3, 4), 1)] == [0, 0, 1, 1, 1]
    for x in (F(-1, 10), F(11, 10)):
        with pytest.raises(ValueError):
            _containing_cell(grid, x)


def test_refine_recovers_midpoint():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    approx = Solution([F(501, 1000)], [PLUS, MINUS])
    refined, z = refine_exact(inst, approx)
    assert z == 0 and refined.cuts == (F(1, 2),)


def test_refine_keeps_exact_solutions_exact():
    inst = two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))
    exact = midpoint_solution(inst)
    refined, z = refine_exact(inst, exact)
    assert z == 0
    assert verify(inst, refined, 0).satisfied


def test_refine_three_labels():
    inst = Instance([Valuation([Block(0, 1, 1)])], k=3)
    approx = Solution([F(333, 1000), F(667, 1000)], ["A", "B", "C"])
    refined, z = refine_exact(inst, approx)
    assert z == 0
    assert refined.cuts == (F(1, 3), F(2, 3))


def test_refine_never_worsens_the_discrepancy():
    rng = random.Random(41)
    for _ in range(10):
        inst = random_single_block_instance(rng, rng.randrange(1, 4))
        sol = midpoint_solution(inst)
        jitter = [c + F(rng.randrange(-100, 101), 10 ** 7)
                  for c in sol.cuts]
        approx = Solution(sorted(jitter), sol.labels)
        before = verify(inst, approx, 1).max_discrepancy
        refined, z = refine_exact(inst, approx)
        assert z <= before
        assert verify(inst, refined, z).satisfied
