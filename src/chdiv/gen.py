"""Seeded random instance generators, shared by `chdiv gen` and the tests.

Each draws from the caller's random.Random in a fixed order, so one
seed always gives the same instance.
"""

from fractions import Fraction

from .core import Instance, Valuation, Block


def random_single_block_instance(rng, n, M=64):
    """n single-block agents with endpoints on the 1/M grid."""
    agents = []
    for _ in range(n):
        a = rng.randrange(0, M)
        b = rng.randrange(a + 1, M + 1)
        left, right = Fraction(a, M), Fraction(b, M)
        agents.append(Valuation([Block(left, right, 1 / (right - left))]))
    return Instance(agents, k=2)


def random_dblock_instance(rng, n, d=3, M=64):
    """n agents with 1 to d equal-height blocks each, endpoints on the
    1/M grid.  The 2j endpoints are distinct grid points, so no block is
    empty."""
    agents = []
    for _ in range(n):
        j = rng.randrange(1, d + 1)
        pts = sorted(rng.sample(range(M + 1), 2 * j))
        ends = [Fraction(p, M) for p in pts]
        blocks = list(zip(ends[0::2], ends[1::2]))
        h = 1 / sum(r - l for l, r in blocks)
        agents.append(Valuation([Block(l, r, h) for l, r in blocks]))
    return Instance(agents, k=2)
