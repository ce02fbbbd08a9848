"""Exact consensus-halving via rational linear programming.

Three layers: the one-cut-per-cell midpoint construction, feasibility of
a prescribed cut/cell subset (2n - ell cuts), and refinement of an
approximate solution to an exact one with frozen combinatorics.
"""

from bisect import bisect_right
from fractions import Fraction
import itertools
from math import comb

# verify is not called here; it stays importable as chdiv.lp.verify,
# one of the sites perfbench/layers.py wraps
from .core import (Solution, PLUS, MINUS, alternating_labels, verify,
                   WorkLimitExceeded)
from .simplex import LinearProgram, OPTIMAL

# the most cell sets solve_with_budget tries, one LP each
MAX_CELL_SETS = 5000


def breakpoints(inst):
    """Sorted union of block endpoints; density is constant between
    consecutive points and zero outside [first, last]."""
    pts = set()
    for v in inst.agents:
        for b in v.blocks:
            pts.add(b.left)
            pts.add(b.right)
    return sorted(pts)


def midpoint_solution(inst):
    """One cut in the middle of every breakpoint cell, alternating
    labels: every agent's mass in every cell is split exactly in half,
    so the solution is exact (discrepancy 0) with m cuts."""
    pts = breakpoints(inst)
    cuts = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    return Solution(cuts, alternating_labels(len(cuts) + 1))


def lp_feasible(inst, grid, cells):
    """Exact feasibility of placing cut t in cell [grid[j], grid[j + 1]]
    for the t-th of the ascending cell indices `cells`, labels
    alternating from "+", so that every agent is perfectly halved.
    Returns the list of cut positions, or None."""
    lp = LinearProgram([grid[j] for j in cells], [grid[j + 1] for j in cells])
    labels = alternating_labels(len(cells) + 1)
    for v in inst.agents:
        forms = _label_forms(v, grid, cells, labels, (PLUS, MINUS))
        diff = [p - q for p, q in zip(forms[PLUS], forms[MINUS])]
        lp.add(diff[:-1], "=", -diff[-1])
    status, x, _ = lp.solve()
    return x if status == OPTIMAL else None


def solve_with_budget(inst, ell):
    """Exact consensus-halving with at most 2n - ell cuts, or None if no
    such solution exists.  Enumerates cell subsets lexicographically;
    more than MAX_CELL_SETS of them is a WorkLimitExceeded, raised
    before the first LP."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    grid = breakpoints(inst)
    m = len(grid) - 1
    budget = 2 * inst.n - ell
    if budget < 0:
        return None
    if m <= budget:
        return midpoint_solution(inst)
    count = comb(m, budget)
    if count > MAX_CELL_SETS:
        raise WorkLimitExceeded("%d cell sets of %d cuts in %d cells, over "
                                "the cap of %d" % (count, budget, m,
                                                   MAX_CELL_SETS))
    for cells in itertools.combinations(range(m), budget):
        pos = lp_feasible(inst, grid, cells)
        if pos is not None:
            # ascending cells keep the positions sorted
            return Solution(pos, alternating_labels(budget + 1))
    return None


def refine_exact(inst, approx):
    """Turn an approximate solution into an exact one by re-optimizing
    the cut positions with frozen labels and frozen breakpoint cells:
    minimize z = max pairwise label discrepancy subject to each cut
    staying inside the cell of the grid it currently occupies and the
    cut order being preserved.  Returns (solution, z_star); z_star = 0
    means the result is exact."""
    grid = sorted({Fraction(0), *breakpoints(inst), inst.domain_right})
    labs = inst.labels()
    T = len(approx.cuts)
    cells = [_containing_cell(grid, x) for x in approx.cuts]
    # variables: cuts 0..T-1, z = T
    lp = LinearProgram([grid[j] for j in cells] + [0],
                       [grid[j + 1] for j in cells] + [None])
    lp.obj[T] = 1
    for t in range(T - 1):
        order = [0] * (T + 1)
        order[t], order[t + 1] = 1, -1
        lp.add(order, "<=", 0)
    for v in inst.agents:
        forms = _label_forms(v, grid, cells, approx.labels, labs)
        for l1, l2 in itertools.combinations(labs, 2):
            diff = [p - q for p, q in zip(forms[l1], forms[l2])]
            lp.add(diff[:-1] + [-1], "<=", -diff[-1])
            lp.add([-c for c in diff[:-1]] + [-1], "<=", diff[-1])
    status, x, z = lp.solve()
    if status != OPTIMAL:
        raise ValueError("refinement LP unsolvable: %s" % status)
    refined = Solution(sorted(x[:T]), approx.labels)
    return refined, z


def _label_forms(v, grid, cells, labels, label_set):
    """Mass of v on each label as an affine form in the cut variables:
    one coefficient per cut, then the constant.  Cut t stays in grid
    cell cells[t], whose points include every breakpoint of v, so
    there mu((-inf, x]) = mu((-inf, a]) + dens * (x - a) for the cell's
    left end a; segment s runs from cut s - 1 to cut s (unbounded at
    the two ends) and carries labels[s]."""
    T = len(cells)
    forms = {lab: [0] * (T + 1) for lab in label_set}
    forms[labels[-1]][T] += v.mass
    for t, j in enumerate(cells):
        a, b = grid[j], grid[j + 1]
        dens = (v.cdf(b) - v.cdf(a)) / (b - a)
        const = v.cdf(a) - dens * a
        for lab, sign in ((labels[t], 1), (labels[t + 1], -1)):
            forms[lab][t] += sign * dens
            forms[lab][T] += sign * const
    return forms


def _containing_cell(grid, x):
    """The j whose cell [grid[j], grid[j + 1]] holds x; a grid point
    is in the cell on its right, the last one in the last cell."""
    if not grid[0] <= x <= grid[-1]:
        raise ValueError("cut %s outside grid" % x)
    return min(bisect_right(grid, x), len(grid) - 1) - 1
