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
    """min obj.x subject to rows a.x <= b or a.x = b and lb <= x <= ub,
    each lb finite and each ub finite or None; rows and obj (0 until
    set) are dense lists of ints and Fractions, one per variable.

    Standard form: x = lb + p with p >= 0.  Columns are the p, then one
    slack per <= row; rows are the caller's, then p_j <= ub_j - lb_j
    for each finite ub in variable order."""

    def __init__(self, lb, ub):
        self.lb, self.ub = list(lb), list(ub)
        self.obj = [0] * len(self.lb)
        self.rows = []      # (coeffs, sense, rhs)

    def add(self, coeffs, sense, rhs):
        if sense not in ("<=", "="):
            raise ValueError("sense must be '<=' or '=', not %r" % (sense,))
        if len(coeffs) != len(self.lb):
            raise ValueError("%d coefficients for %d variables"
                             % (len(coeffs), len(self.lb)))
        self.rows.append((list(coeffs), sense, rhs))

    def solve(self):
        """Returns (status, x, objective)."""
        n = len(self.lb)
        rows = [(a, s, rhs - sum(v * l for v, l in zip(a, self.lb)))
                for a, s, rhs in self.rows]
        rows += [([0] * j + [1] + [0] * (n - j - 1), "<=", u - l)
                 for j, (l, u) in enumerate(zip(self.lb, self.ub))
                 if u is not None]
        nslack = sum(s == "<=" for _, s, _ in rows)
        A, col = [], n
        for a, s, _ in rows:
            A.append(a + [0] * nslack)     # ints: no Fraction per entry
            if s == "<=":
                A[-1][col] = 1
                col += 1
        status, p, _ = solve_eq(self.obj + [0] * nslack, A,
                                [rhs for _, _, rhs in rows])
        if status != OPTIMAL:
            return status, None, None
        x = [l + pj for l, pj in zip(self.lb, p)]
        return OPTIMAL, x, sum(c * xj for c, xj in zip(self.obj, x))
