"""Grid dynamic programming for single-block consensus-halving.

Cuts are restricted to the grid Q_m = {0, L/m, ..., (m-1)L/m} on the
domain [0, L]; segment labels alternate so that the final segment is
"+" (the (-1)^t sign in the recursion).  The state is (leftover balance
targets for the agents whose block covers the last cut, last cut
position, cuts remaining).  Every target is a signed sum of agent
masses of grid segments, so the table is finite without rounding, and
the search is exact: it finds a grid solution with at most cut_budget
cuts iff one exists.
"""

from fractions import Fraction
import math

# verify is not called here; it stays importable as chdiv.dp.verify,
# one of the sites perfbench/layers.py wraps
from .core import (Instance, Valuation, Block, Solution, PLUS, MINUS, rat,
                   grid_points, verify)


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
    m = math.ceil(stats.M / eps_prime)
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


def _snap_tie_down(x, m):
    """Nearest multiple of 1/m; exact midpoints go to the smaller."""
    lo = math.floor(x * m)
    below = Fraction(lo, m)
    above = Fraction(lo + 1, m)
    if x - below <= above - x:
        return below
    return above


class DPResult:
    def __init__(self, solution, states_visited, m, d, M):
        self.solution = solution          # None when infeasible at grid
        # table entries of the one exact search; `chdiv solve --algo dp
        # --json` reports it when the answer is infeasible
        self.states_visited = states_visited
        self.m = m
        self.d = d
        self.M = M

    @property
    def feasible(self):
        return self.solution is not None


def dp_solve(inst, eps, m=None):
    """Search for an eps-solution with cuts on Q_m and alternating
    labels.  m defaults to ceil(2 M L / eps), L = domain_right; an m
    below 1 is a ValueError.  Returns a DPResult; a None solution means
    no grid-restricted solution with at most cut_budget cuts exists."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    blocks = []
    for v in inst.agents:
        if len(v.blocks) != 1:
            raise ValueError("dp solver needs single-block agents")
        blocks.append(v.blocks[0])
    stats = InstanceStats(inst)
    if m is None:        # M = 0 only without agents; one point then
        m = max(1, math.ceil(2 * stats.M * inst.domain_right / eps))
    grid = grid_points(inst, m)[:m]
    n = inst.n
    a = [b.left for b in blocks]
    bb = [b.right for b in blocks]
    h = [b.height for b in blocks]

    def active(z):
        return tuple(i for i in range(n) if a[i] <= z < bb[i])

    def dormant_after(z):
        return tuple(i for i in range(n) if a[i] > z)

    def mass(i, lo, hi):
        lo = max(lo, a[i])
        hi = min(hi, bb[i])
        return h[i] * (hi - lo) if hi > lo else Fraction(0)

    budget = min(inst.cut_budget, m - 1)
    memo = {}

    def rec(q, zi, t):
        key = (q, zi, t)
        if key in memo:
            return memo[key]
        z = grid[zi]
        act = active(z)
        if t == 0:
            # the last segment [z, L] is "+" and holds every dormant
            # agent whole
            ok = all(abs(mass(i, z, bb[i]) - q[j]) <= eps
                     for j, i in enumerate(act))
            ok = ok and all(mass(i, z, bb[i]) <= eps
                            for i in dormant_after(z))
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
                # swallowed whole by [z, r]: its balance is +-1
                if bb[i] <= r and mass(i, z, r) > eps:
                    skip = True
                    break
            if skip:
                continue
            nact = active(r)
            nq = []
            for i in nact:
                if i in act:
                    l = act.index(i)
                    nq.append(q[l] - sign * mass(i, z, r))
                else:
                    nq.append(-sign * mass(i, z, r))
            sub_ok, sub_cuts = rec(tuple(nq), ri, t - 1)
            if sub_ok:
                res = (True, (r,) + sub_cuts)
                memo[key] = res
                return res
        res = (False, ())
        memo[key] = res
        return res

    sol = None
    for t in range(0, budget + 1):
        q0 = tuple(Fraction(0) for _ in active(Fraction(0)))
        ok, cuts = rec(q0, 0, t)
        if ok:
            labels = [PLUS if (t - k) % 2 == 0 else MINUS
                      for k in range(t + 1)]
            if labels[0] == MINUS:
                labels = [PLUS if l == MINUS else MINUS for l in labels]
            sol = Solution(cuts, labels)
            break
    return DPResult(sol, len(memo), m, stats.d, stats.M)
