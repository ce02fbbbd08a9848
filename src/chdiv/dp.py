"""Grid dynamic programming for single-block consensus-halving.

Cuts are restricted to the grid Q_m = {0, 1/m, ..., (m-1)/m}; segment
labels alternate so that the final segment is "+" (the (-1)^t sign in
the recursion).  The state is (leftover balance targets for the agents
whose block covers the last cut, last cut position, cuts remaining);
balance targets are snapped to the signed grid after every update to
keep the table finite.
"""

from fractions import Fraction

from .core import (Instance, Valuation, Block, Solution, PLUS, MINUS, rat,
                   verify)


class InstanceStats:
    """d = max number of agents with positive density at one point,
    M = max density."""

    def __init__(self, inst):
        events = []
        M = Fraction(0)
        for v in inst.agents:
            for b in v.blocks:
                if b.height > 0:
                    events.append((b.left, 1))
                    events.append((b.right, -1))
                    M = max(M, b.height)
        # close before open at the same coordinate: touching blocks of
        # different agents never double-count
        events.sort(key=lambda e: (e[0], e[1]))
        d = cur = 0
        for _, delta in events:
            cur += delta
            d = max(d, cur)
        self.d = d
        self.M = M


def round_instance(inst, eps_prime):
    """Move every block endpoint to the nearest grid point of Q_m with
    m = M/eps_prime (ties toward the smaller point) and renormalize the
    height.  Any eps-solution of the result is an (eps + eps_prime)-
    solution of the input."""
    eps_prime = rat(eps_prime)
    stats = InstanceStats(inst)
    m = _ceil_frac(stats.M / eps_prime)
    agents = []
    for v in inst.agents:
        if len(v.blocks) != 1:
            raise ValueError("rounding needs single-block agents")
        b = v.blocks[0]
        left = _snap_tie_down(b.left, m)
        right = _snap_tie_down(b.right, m)
        if right <= left:
            raise ValueError("block [%s, %s] collapses on the %d-grid"
                             % (b.left, b.right, m))
        agents.append(Valuation([Block(left, right,
                                       1 / (right - left))]))
    return Instance(agents, k=2, cut_budget=inst.cut_budget,
                    domain_right=inst.domain_right)


def _ceil_frac(x):
    return -((-x.numerator) // x.denominator)


def _snap_tie_down(x, m):
    """Nearest multiple of 1/m; exact midpoints go to the smaller."""
    lo = (x * m).numerator // (x * m).denominator
    below = Fraction(lo, m)
    above = Fraction(lo + 1, m)
    if x - below <= above - x:
        return below
    return above


class DPResult:
    def __init__(self, solution, states_visited, m, d, M):
        self.solution = solution          # None when infeasible at grid
        self.states_visited = states_visited
        self.m = m
        self.d = d
        self.M = M

    @property
    def feasible(self):
        return self.solution is not None


def dp_solve(inst, eps, m=None, snap=True):
    """Search for an eps-solution with cuts on Q_m and alternating
    labels.  m defaults to ceil(2M/eps).  Returns a DPResult; a None
    solution means no grid-restricted solution with at most cut_budget
    cuts exists."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    blocks = []
    for v in inst.agents:
        if len(v.blocks) != 1:
            raise ValueError("dp solver needs single-block agents")
        blocks.append(v.blocks[0])
    stats = InstanceStats(inst)
    if m is None:
        m = _ceil_frac(2 * stats.M / eps)
    n = inst.n
    d = stats.d
    a = [b.left for b in blocks]
    bb = [b.right for b in blocks]
    h = [b.height for b in blocks]
    grid = [Fraction(l, m) for l in range(m)]

    def active(z):
        return tuple(i for i in range(n) if a[i] <= z < bb[i])

    def dormant_after(z):
        return tuple(i for i in range(n) if a[i] > z)

    def mass(i, lo, hi):
        lo = max(lo, a[i])
        hi = min(hi, bb[i])
        return h[i] * (hi - lo) if hi > lo else Fraction(0)

    visited = [0]
    budget = min(inst.cut_budget, m - 1)

    def search(use_snap):
        def snap_q(q):
            if not use_snap:
                return q
            s = _snap_tie_down(q, m)
            return max(Fraction(-1), min(Fraction(1), s))

        memo = {}

        def rec(q, zi, t):
            key = (q, zi, t)
            if key in memo:
                return memo[key]
            visited[0] += 1
            z = grid[zi]
            act = active(z)
            if t == 0:
                ok = all(abs(mass(i, z, bb[i]) - q[j]) <= eps
                         for j, i in enumerate(act))
                ok = ok and not dormant_after(z)
                res = (ok, ())
                memo[key] = res
                return res
            sign = 1 if t % 2 == 0 else -1   # label of [z, r] (+ is last)
            for ri in range(zi + 1, m):
                r = grid[ri]
                skip = False
                for j, i in enumerate(act):
                    if not (a[i] <= r < bb[i]):      # i leaves scope at r
                        if abs(sign * mass(i, z, r) - q[j]) > eps:
                            skip = True
                            break
                if skip:
                    continue
                for i in dormant_after(z):
                    if a[i] > z and bb[i] <= r:  # swallowed whole: hopeless
                        skip = True
                        break
                if skip:
                    continue
                nact = active(r)
                nq = []
                for i in nact:
                    if i in act:
                        l = act.index(i)
                        nq.append(snap_q(q[l] - sign * mass(i, z, r)))
                    else:
                        nq.append(snap_q(-sign * mass(i, z, r)))
                sub_ok, sub_cuts = rec(tuple(nq), ri, t - 1)
                if sub_ok:
                    res = (True, (r,) + sub_cuts)
                    memo[key] = res
                    return res
            res = (False, ())
            memo[key] = res
            return res

        for t in range(0, budget + 1):
            q0 = tuple(Fraction(0) for _ in active(Fraction(0)))
            ok, cuts = rec(q0, 0, t)
            if ok:
                labels = [PLUS if (t - k) % 2 == 0 else MINUS
                          for k in range(t + 1)]
                if labels[0] == MINUS:
                    labels = [PLUS if l == MINUS else MINUS for l in labels]
                return Solution(cuts, labels)
        return None

    # The snapped table is a fast path only: snapping the leftover
    # balances can both over- and under-accept by the accumulated snap
    # error, so a snapped witness is re-checked exactly and a snapped
    # miss is retried with exact balances.
    if snap:
        sol = search(True)
        if sol is not None and verify(inst, sol, eps).satisfied:
            return DPResult(sol, visited[0], m, d, stats.M)
    sol = search(False)
    return DPResult(sol, visited[0], m, d, stats.M)
