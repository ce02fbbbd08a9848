"""Brute-force reference search.  Slow but obviously correct; used as
ground truth by the test suite."""

from functools import partial
import itertools
from math import comb, lcm

from .core import (Solution, alternating_labels, grid_points, verify, rat,
                   WORK_LIMIT, WorkLimitExceeded)


class GridSearchConfig:
    def __init__(self, m, max_cuts):
        if m < 1:
            raise ValueError("grid resolution must be >= 1")
        if max_cuts < 0:
            raise ValueError("max_cuts must be >= 0")
        self.m = int(m)
        self.max_cuts = int(max_cuts)


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
    if inst.k == 2:
        return _brute_force_alternating(inst, eps, cfg, points, jobs)
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


def _brute_force_alternating(inst, eps, cfg, points, jobs):
    """k = 2 exhaustive search.  Flipping every label negates every
    balance, so only the start-with-"+" labeling needs checking.  Agent
    masses are prefix sums at grid points scaled to a common integer
    denominator, which keeps the inner loop in machine integers.

    The t-cut tuples are scanned by first cut in lexicographic order,
    through map for jobs = 1 and through a process pool, whose workers
    receive the table once, for jobs > 1; either way the first hit in
    that order is returned."""
    table = _int_cdfs(inst, eps, points) + (len(points),)
    pool = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_set_table,
                                   initargs=(table,))
    try:
        for t in range(0, cfg.max_cuts + 1):
            if _estimate_work(points, t, 1) > WORK_LIMIT:
                raise WorkLimitExceeded("grid search too large at t=%d" % t)
            firsts = range(len(points)) if t else (0,)
            if pool is None:
                hits = map(partial(_scan_first, table, t), firsts)
            else:
                hits = pool.map(partial(_scan_first, None, t), firsts,
                                chunksize=max(1, len(firsts) // (8 * jobs)))
            for idxs in hits:
                if idxs is not None:
                    return Solution([points[j] for j in idxs],
                                    alternating_labels(t + 1))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return None


def _int_cdfs(inst, eps, points):
    cdfs = [[v.cdf(x) for x in points] for v in inst.agents]
    D = lcm(eps.denominator,
            *[f.denominator for c in cdfs for f in c])
    return [[int(f * D) for f in c] for c in cdfs], int(eps * D)


_TABLE = None       # a pool worker's (icdf, eps_i, P), set once


def _set_table(table):
    global _TABLE
    _TABLE = table


def _scan_first(table, t, first):
    """The first t-cut index tuple starting at first, in lexicographic
    order, whose alternating labeling balances every agent to within
    eps_i; None if there is none.  table is (icdf, eps_i, P), or None
    in a pool worker.  At t = 0 there is no cut and first is ignored."""
    icdf, eps_i, P = table or _TABLE
    lead = (first,)[:t]
    # the balance and sign after the first cut, per agent
    starts = [(c, c[first] if t else 0) for c in icdf]
    sign0 = -1 if t else 1
    rests = (itertools.combinations(range(first + 1, P), t - 1) if t > 1
             else [()])
    for rest in rests:
        for c, b in starts:
            prev = b
            sign = sign0
            for j in rest:
                v = c[j]
                b += sign * (v - prev)
                prev = v
                sign = -sign
            b += sign * (c[-1] - prev)
            if b > eps_i or -b > eps_i:
                break
        else:
            return lead + rest
    return None
