"""Brute-force reference search.  Slow but obviously correct; used as
ground truth by the test suite."""

from fractions import Fraction
import itertools
from math import comb, lcm

from .core import (Instance, Solution, BalanceReport, check_solution,
                   grid_points, label_masses, verify, PLUS, MINUS, rat)


WORK_LIMIT = 10 ** 8


class WorkLimitExceeded(Exception):
    pass


class GridSearchConfig:
    def __init__(self, m, max_cuts, label_mode="alternating"):
        # label_mode: "alternating" (k=2) or "explicit" (all k^men labelings)
        if m < 1:
            raise ValueError("grid resolution must be >= 1")
        self.m = int(m)
        self.max_cuts = int(max_cuts)
        self.label_mode = label_mode


def _estimate_work(points, t, labelings):
    return comb(len(points), t) * labelings


def brute_force(inst, eps, cfg, jobs=1):
    """Exhaust sorted cut tuples on the grid (and labelings); return any
    verifying solution, or None.

    For k = 2 only alternating labelings are tried: merging equal
    adjacent labels never increases the cut count, so if any solution
    with <= t cuts exists on the grid, an alternating one with <= t
    cuts does too.  jobs > 1 partitions the k=2 search by first-cut
    position across processes.
    """
    eps = rat(eps)
    points = grid_points(inst, cfg.m)
    labs = inst.labels()
    if inst.k == 2 and cfg.label_mode == "alternating":
        if jobs > 1:
            return _brute_force_parallel(inst, eps, cfg, points, jobs)
        return _brute_force_alternating(inst, eps, cfg, points)
    for t in range(0, cfg.max_cuts + 1):
        n_labelings = inst.k ** (t + 1)
        if _estimate_work(points, t, n_labelings) > WORK_LIMIT:
            raise WorkLimitExceeded("grid search too large at t=%d" % t)
        for cuts in itertools.combinations(points, t):
            for labels in itertools.product(labs, repeat=t + 1):
                s = Solution(cuts, labels)
                if verify(inst, s, eps).satisfied:
                    return s
    return None


def _brute_force_alternating(inst, eps, cfg, points):
    """k = 2 exhaustive search.  Flipping every label negates every
    balance, so only the start-with-"+" labeling needs checking.  Agent
    masses are prefix sums at grid points scaled to a common integer
    denominator, which keeps the inner loop in machine integers."""
    icdf, eps_i = _int_cdfs(inst, eps, points)
    P = len(points)
    for t in range(0, cfg.max_cuts + 1):
        if _estimate_work(points, t, 1) > WORK_LIMIT:
            raise WorkLimitExceeded("grid search too large at t=%d" % t)
        for idxs in itertools.combinations(range(P), t):
            ok = True
            for c in icdf:
                b = 0
                sign = 1
                prev = 0
                for j in idxs:
                    v = c[j]
                    b += sign * (v - prev)
                    prev = v
                    sign = -sign
                b += sign * (c[-1] - prev)
                if b > eps_i or -b > eps_i:
                    ok = False
                    break
            if ok:
                labels = [PLUS if s % 2 == 0 else MINUS
                          for s in range(t + 1)]
                return Solution([points[j] for j in idxs], labels)
    return None


def _int_cdfs(inst, eps, points):
    cdfs = [[v.cdf(x) for x in points] for v in inst.agents]
    D = lcm(eps.denominator,
            *[f.denominator for c in cdfs for f in c])
    return [[int(f * D) for f in c] for c in cdfs], int(eps * D)


def _alternating_ok(icdf, eps_i, idxs):
    for c in icdf:
        b = 0
        sign = 1
        prev = 0
        for j in idxs:
            v = c[j]
            b += sign * (v - prev)
            prev = v
            sign = -sign
        b += sign * (c[-1] - prev)
        if b > eps_i or -b > eps_i:
            return False
    return True


def _scan_partition(task):
    """One worker: all t-cut tuples whose first cut is at index first."""
    icdf, eps_i, P, t, first = task
    if t == 0:
        return () if _alternating_ok(icdf, eps_i, ()) else None
    for rest in itertools.combinations(range(first + 1, P), t - 1):
        idxs = (first,) + rest
        if _alternating_ok(icdf, eps_i, idxs):
            return idxs
    return None


def _brute_force_parallel(inst, eps, cfg, points, jobs):
    from concurrent.futures import ProcessPoolExecutor
    icdf, eps_i = _int_cdfs(inst, eps, points)
    P = len(points)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for t in range(0, cfg.max_cuts + 1):
            if _estimate_work(points, t, 1) > WORK_LIMIT:
                raise WorkLimitExceeded("grid search too large at t=%d" % t)
            firsts = [0] if t == 0 else list(range(P))
            tasks = [(icdf, eps_i, P, t, f) for f in firsts]
            for idxs in pool.map(_scan_partition, tasks):
                if idxs is not None:
                    labels = [PLUS if s % 2 == 0 else MINUS
                              for s in range(t + 1)]
                    return Solution([points[j] for j in idxs], labels)
    return None


def enumerate_gate_cuts(inst, agent_index, fixed_cuts, labels,
                        free_interval, eps, m):
    """All grid positions in free_interval for one extra cut such that
    agent agent_index is eps-satisfied, holding the other cuts fixed.
    Only that agent's label masses are computed at each position.

    fixed_cuts must avoid the open free_interval; labels is the full
    segment labeling with the free cut present (len(fixed_cuts) + 2
    entries), which stays fixed while the free cut sweeps the interval.
    Returns a list of (position, Solution) pairs.
    """
    eps = rat(eps)
    v = inst.agents[agent_index]
    lo, hi = rat(free_interval[0]), rat(free_interval[1])
    step = (hi - lo) / m
    out = []
    for i in range(m + 1):
        x = lo + i * step
        s = Solution(sorted(list(fixed_cuts) + [x]), labels)
        check_solution(inst, s)
        masses = label_masses(v, s.frame, s.labels, inst.labels())
        if BalanceReport([masses], eps).satisfied:
            out.append((x, s))
    return out
