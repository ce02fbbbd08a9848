"""Dense two-phase simplex over exact rationals, pivoting on integers.

Bland's rule throughout, so no cycling and no tolerances.  Sizes here
are tiny (tens of rows), a tableau is plenty.

Rows are scaled to Python ints once; a pivot makes row i p*row_i -
f*row_r over its gcd (Edmonds' integer-preserving elimination).  Every
row, the reduced-cost row kept last included, stays a positive
multiple of its row in the rational tableau, whose basic entries are
1.  The signs of the reduced costs and the order of the ratios rhs/a,
so Bland's path and the final basis, are the rational tableau's, and
a basic variable is rhs / (its row's basic entry).
"""

from fractions import Fraction
from math import gcd, lcm


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _reduced(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _scaled(values, d):
    """d * v for rationals v whose denominators divide d."""
    return [v.numerator * (d // v.denominator) for v in values]


def _cost_row(T, basis, cost):
    """Reduced costs of cost (one per column) at basis, then -objective
    in the rhs place: the cost row with each basic column priced out."""
    z = _scaled(list(cost) + [0], lcm(*(v.denominator for v in cost)))
    for r, bi in zip(T, basis):
        if z[bi]:
            z = _reduced([r[bi] * a - z[bi] * v for a, v in zip(z, r)])
    return z


def _pivot(T, basis, row, col):
    if T[row][col] < 0:
        T[row] = [-v for v in T[row]]
    r = T[row]
    p = r[col]
    for i, t in enumerate(T):
        f = t[col]
        if i != row and f:
            T[i] = _reduced([p * a - f * v for a, v in zip(t, r)])
    basis[row] = col


def _run(T, basis, ncols):
    """Minimize from a feasible basis; T holds the rows (A|b) and last
    the reduced-cost row over the first ncols columns.  Returns status;
    T/basis updated in place."""
    while True:
        enter = next((j for j in range(ncols) if T[-1][j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        for i in range(len(basis)):
            a = T[i][enter]
            if a > 0:
                # d > 0 iff rhs_i / a < rhs_leave / a_leave
                d = 1 if leave is None else \
                    T[leave][-1] * a - T[i][-1] * T[leave][enter]
                if d > 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(T, basis, leave, enter)


def solve_eq(c, A, b):
    """min c.x subject to A x = b, x >= 0, for c, A, b of ints and
    Fractions.  Returns (status, x, objective)."""
    m = len(A)
    n = len(c)
    T = []
    for i in range(m):
        d = lcm(*(v.denominator for v in A[i]), b[i].denominator)
        row = _scaled(list(A[i]) + [b[i]], -d if b[i] < 0 else d)
        row[n:n] = [0] * m
        row[n + i] = d
        T.append(_reduced(row))
    basis = [n + i for i in range(m)]
    T.append(_cost_row(T, basis, [0] * n + [1] * m))
    status = _run(T, basis, n + m)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    T.pop()
    # phase 1's optimum is above 0 iff an artificial stays at a positive level
    if any(T[i][-1] for i in range(m) if basis[i] >= n):
        return INFEASIBLE, None, None
    # drive artificials out of the basis where possible
    for i in [i for i in range(m) if basis[i] >= n]:
        j = next((j for j in range(n) if T[i][j]), None)
        if j is not None:
            _pivot(T, basis, i, j)
    # drop rows still basic in an artificial (redundant constraints)
    keep = [i for i in range(m) if basis[i] < n]
    T = [T[i][:n] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    T.append(_cost_row(T, basis, c))
    status = _run(T, basis, n)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for r, bi in zip(T, basis):
        x[bi] = Fraction(r[-1], r[bi])
    obj = sum(ci * xi for ci, xi in zip(c, x))
    return OPTIMAL, x, obj


class LinearProgram:
    """min c.x with rows  a.x <= b / a.x = b  and bounds lb <= x <= ub
    (lb/ub may be None for free sides).  Converted to standard form by
    splitting free directions and adding slacks."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.obj = [Fraction(0)] * nvars
        self.rows = []   # (coeffs dict, sense, rhs) with sense in {"<=", "=", ">="}
        self.lb = [None] * nvars
        self.ub = [None] * nvars

    def set_objective(self, coeffs):
        for j, v in coeffs.items():
            self.obj[j] = Fraction(v)

    def add(self, coeffs, sense, rhs):
        self.rows.append(({j: Fraction(v) for j, v in coeffs.items()},
                          sense, Fraction(rhs)))

    def set_bounds(self, j, lb=None, ub=None):
        self.lb[j] = None if lb is None else Fraction(lb)
        self.ub[j] = None if ub is None else Fraction(ub)

    def solve(self):
        """Returns (status, x, objective) with x in original variables."""
        # variable mapping: x_j = lb_j + p_j        (lb finite)
        #                   x_j = ub_j - q_j        (only ub finite)
        #                   x_j = p_j - q_j         (both free)
        rows = list(self.rows)
        cols = []   # one or two standard-form columns per variable
        shift = [Fraction(0)] * self.nvars
        colmap = []
        for j in range(self.nvars):
            if self.lb[j] is not None:
                shift[j] = self.lb[j]
                colmap.append([(len(cols), 1)])
                cols.append(j)
                if self.ub[j] is not None:
                    rows.append(({j: Fraction(1)}, "<=", self.ub[j]))
            elif self.ub[j] is not None:
                shift[j] = self.ub[j]
                colmap.append([(len(cols), -1)])
                cols.append(j)
            else:
                colmap.append([(len(cols), 1), (len(cols) + 1, -1)])
                cols.append(j)
                cols.append(j)
        n0 = len(cols)
        # build equality system with slacks
        A, b = [], []
        nslack = sum(1 for r in rows if r[1] != "=")
        si = 0
        for coeffs, sense, rhs in rows:
            row = [Fraction(0)] * (n0 + nslack)
            rr = rhs
            for j, v in coeffs.items():
                rr -= v * shift[j]
                for col, sgn in colmap[j]:
                    row[col] += sgn * v
            if sense == "<=":
                row[n0 + si] = Fraction(1)
                si += 1
            elif sense == ">=":
                row[n0 + si] = Fraction(-1)
                si += 1
            A.append(row)
            b.append(rr)
        c = [Fraction(0)] * (n0 + nslack)
        for j in range(self.nvars):
            for col, sgn in colmap[j]:
                c[col] += sgn * self.obj[j]
        status, xs, _ = solve_eq(c, A, b)
        if status != OPTIMAL:
            return status, None, None
        x = list(shift)
        for j in range(self.nvars):
            for col, sgn in colmap[j]:
                x[j] += sgn * xs[col]
        obj = sum(self.obj[j] * x[j] for j in range(self.nvars))
        return OPTIMAL, x, obj
