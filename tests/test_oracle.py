import random
from fractions import Fraction

import pytest

from chdiv.core import (Instance, Valuation, Block, Solution, PLUS, MINUS,
                        verify, encoded_value)
from chdiv.oracle import (GridSearchConfig, brute_force, WorkLimitExceeded,
                          enumerate_gate_cuts)
from conftest import random_single_block_instance


F = Fraction


def test_finds_the_midpoint():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    sol = brute_force(inst, 0, GridSearchConfig(2, 1))
    assert sol is not None and sol.cuts == (F(1, 2),)


def test_reports_infeasibility_on_coarse_grid():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    assert brute_force(inst, F(1, 8), GridSearchConfig(3, 1)) is None


def test_three_label_search():
    inst = Instance([Valuation([Block(0, 1, 1)])], k=3)
    cfg = GridSearchConfig(3, 2)
    sol = brute_force(inst, 0, cfg)
    assert sol is not None
    assert verify(inst, sol, 0).satisfied
    assert sorted(sol.cuts) == [F(1, 3), F(2, 3)]


def test_solutions_always_verify():
    rng = random.Random(29)
    for _ in range(10):
        inst = random_single_block_instance(rng, rng.randrange(1, 4), M=8)
        eps = F(1, 4)
        sol = brute_force(inst, eps, GridSearchConfig(8, inst.cut_budget))
        if sol is not None:
            assert verify(inst, sol, eps).satisfied
            assert len(sol.cuts) <= inst.cut_budget


def test_parallel_matches_sequential():
    rng = random.Random(43)
    for _ in range(4):
        inst = random_single_block_instance(rng, 2, M=8)
        eps = F(1, 4)
        cfg = GridSearchConfig(8, 2)
        seq = brute_force(inst, eps, cfg)
        par = brute_force(inst, eps, cfg, jobs=2)
        if seq is None:
            assert par is None
        else:
            assert par is not None
            assert verify(inst, par, eps).satisfied


def test_jobs_return_the_same_first_solution():
    # the scan order is lexicographic for every jobs value, so the
    # parallel path finds the very tuple the sequential one does
    halves = Instance([Valuation([Block(0, F(1, 2), 2)]),
                       Valuation([Block(F(1, 2), 1, 2)])])
    for m, t in ((200, 1), (200, 2)):
        cfg = GridSearchConfig(m, t)
        seq = brute_force(halves, F(1, 100), cfg)
        par = brute_force(halves, F(1, 100), cfg, jobs=2)
        assert (seq is None) == (par is None) == (t < 2)
        if seq is not None:
            assert (par.cuts, par.labels) == (seq.cuts, seq.labels)


def test_work_limit_guard():
    # two disjoint blocks need two cuts, and two cuts on a 10^5 grid
    # exceed the work budget before the t = 2 sweep starts
    inst = Instance([Valuation([Block(0, F(1, 2), 2)]),
                     Valuation([Block(F(1, 2), 1, 2)])])
    with pytest.raises(WorkLimitExceeded):
        brute_force(inst, F(1, 100), GridSearchConfig(100000, 2))


def test_gate_cut_sweep_single_agent():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    hits = enumerate_gate_cuts(inst, 0, [], [PLUS, MINUS], (0, 1), 0, 4)
    assert [x for x, _ in hits] == [F(1, 2)]
    hits = enumerate_gate_cuts(inst, 0, [], [PLUS, MINUS], (0, 1),
                               F(1, 4), 8)
    assert [x for x, _ in hits] == [F(3, 8), F(1, 2), F(5, 8)]
    for x, s in hits:
        assert abs(encoded_value(s, 0)) <= F(1, 4)


def test_gate_cut_sweep_with_fixed_cuts():
    # agent supported on the right half; the free cut sweeps the left
    inst = Instance([Valuation([Block(F(1, 2), 1, 2)])])
    hits = enumerate_gate_cuts(inst, 0, [F(3, 4)], [PLUS, MINUS, PLUS],
                               (0, F(1, 2)), 0, 4)
    # agent is split in half by the fixed cut no matter where the free
    # cut lands, but the free cut flips which half is which
    assert [x for x, _ in hits] == [F(i, 8) for i in range(5)]
