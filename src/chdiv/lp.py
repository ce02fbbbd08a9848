"""Exact consensus-halving via rational linear programming.

Three layers: the one-cut-per-cell midpoint construction, feasibility of
a prescribed cut/cell subset (2n - ell cuts), and refinement of an
approximate solution to an exact one with frozen combinatorics.
"""

from fractions import Fraction
import itertools

from .core import Instance, Solution, PLUS, MINUS, verify, rat
from .simplex import LinearProgram, OPTIMAL


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
    labels = [PLUS if i % 2 == 0 else MINUS for i in range(len(cuts) + 1)]
    return Solution(cuts, labels)


class SlotAssignment:
    """A subset S of breakpoint cells, one cut each, with alternating
    orientation and leftmost label "+"."""

    def __init__(self, grid, cells):
        self.grid = list(grid)            # breakpoints a_1..a_{m+1}
        self.cells = sorted(cells)        # indices into [0, m)
        m = len(self.grid) - 1
        if any(j < 0 or j >= m for j in self.cells):
            raise ValueError("cell index out of range")


def lp_feasible(inst, slots):
    """Exact feasibility of placing one cut x_j in each chosen cell so
    that every agent is perfectly halved.  Returns the list of cut
    positions, or None."""
    grid = slots.grid
    cells = slots.cells
    lp = LinearProgram(len(cells))
    for t, j in enumerate(cells):
        lp.set_bounds(t, grid[j], grid[j + 1])
    labels = [PLUS if t % 2 == 0 else MINUS for t in range(len(cells) + 1)]
    for v in inst.agents:
        forms = _label_forms(v, grid, cells, labels, (PLUS, MINUS))
        diff = forms[PLUS].minus(forms[MINUS])
        lp.add(diff.coeffs, "=", -diff.const)
    status, x, _ = lp.solve()
    if status != OPTIMAL:
        return None
    return x


def _solution_from_cells(slots, positions):
    labels = [PLUS if i % 2 == 0 else MINUS
              for i in range(len(positions) + 1)]
    return Solution(sorted(positions), labels)


def solve_with_budget(inst, ell):
    """Exact consensus-halving with at most 2n - ell cuts, or None if no
    such solution exists.  Enumerates cell subsets lexicographically."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    grid = breakpoints(inst)
    m = len(grid) - 1
    budget = 2 * inst.n - ell
    if budget < 0:
        return None
    if m <= budget:
        return midpoint_solution(inst)
    for cells in itertools.combinations(range(m), budget):
        slots = SlotAssignment(grid, cells)
        pos = lp_feasible(inst, slots)
        if pos is not None:
            return _solution_from_cells(slots, pos)
    return None


def refine_exact(inst, approx):
    """Turn an approximate solution into an exact one by re-optimizing
    the cut positions with frozen labels and frozen breakpoint cells:
    minimize z = max pairwise label discrepancy subject to each cut
    staying inside the cell of the grid it currently occupies and the
    cut order being preserved.  Returns (solution, z_star); z_star = 0
    means the result is exact."""
    grid = [Fraction(0)] + breakpoints(inst) + [inst.domain_right]
    grid = sorted(set(grid))
    labs = inst.labels()
    T = len(approx.cuts)
    # variables: cuts 0..T-1, z = T
    lp = LinearProgram(T + 1)
    lp.set_objective({T: 1})
    lp.set_bounds(T, 0, None)
    cell_of = []
    for t, x in enumerate(approx.cuts):
        j = _containing_cell(grid, x)
        cell_of.append(j)
        lp.set_bounds(t, grid[j], grid[j + 1])
    for t in range(T - 1):
        lp.add({t: 1, t + 1: -1}, "<=", 0)
    for v in inst.agents:
        forms = _label_forms(v, grid, cell_of, approx.labels, labs)
        for l1, l2 in itertools.combinations(labs, 2):
            diff = forms[l1].minus(forms[l2])
            coeffs = dict(diff.coeffs)
            coeffs[T] = Fraction(-1)
            lp.add(coeffs, "<=", -diff.const)
            coeffs = {k: -cv for k, cv in diff.coeffs.items()}
            coeffs[T] = Fraction(-1)
            lp.add(coeffs, "<=", diff.const)
    status, x, z = lp.solve()
    if status != OPTIMAL:
        raise ValueError("refinement LP unsolvable: %s" % status)
    refined = Solution(sorted(x[:T]), approx.labels)
    return refined, z


class _AffineForm:
    def __init__(self):
        self.coeffs = {}
        self.const = Fraction(0)

    def add_cdf(self, v, grid, j, var, sign):
        """Add sign * mu((-inf, x_var]) where x_var lies in cell j:
        mu((-inf, x]) = mu((-inf, a_j]) + dens_j * (x - a_j)."""
        a, b = grid[j], grid[j + 1]
        dens = (v.cdf(b) - v.cdf(a)) / (b - a)
        self.const += sign * (v.cdf(a) - dens * a)
        self.coeffs[var] = self.coeffs.get(var, Fraction(0)) + sign * dens

    def minus(self, other):
        out = _AffineForm()
        out.const = self.const - other.const
        out.coeffs = dict(self.coeffs)
        for k, cv in other.coeffs.items():
            out.coeffs[k] = out.coeffs.get(k, Fraction(0)) - cv
        return out


def _label_forms(v, grid, cells, labels, label_set):
    """Mass of v on each label as an affine form in the cut variables.
    Cut t is variable t and stays in grid cell cells[t], whose points
    include every breakpoint of v; segment s runs from cut s - 1 to cut
    s (unbounded at the two ends) and carries labels[s]."""
    forms = {lab: _AffineForm() for lab in label_set}
    forms[labels[-1]].const += v.mass
    for t, j in enumerate(cells):
        forms[labels[t]].add_cdf(v, grid, j, t, +1)
        forms[labels[t + 1]].add_cdf(v, grid, j, t, -1)
    return forms


def _containing_cell(grid, x):
    for j in range(len(grid) - 1):
        if grid[j] <= x <= grid[j + 1]:
            if x < grid[j + 1] or j == len(grid) - 2:
                return j
    raise ValueError("cut %s outside grid" % x)
