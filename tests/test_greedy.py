import random
from fractions import Fraction

import pytest

from chdiv.core import Instance, Valuation, Block, balance, verify
from chdiv.greedy import solve_half
from conftest import random_single_block_instance, check_greedy_invariants


F = Fraction


def test_single_uniform_agent_cut_and_reservation():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    trace = []
    sol = solve_half(inst, trace=trace)
    assert sol.cuts == (F(1, 2),)
    assert trace[0]["rrs"] == [(F(1, 4), F(3, 4))]
    assert balance(inst.agents[0], sol) == 0


def test_second_identical_agent_needs_no_cut():
    v = Valuation([Block(0, 1, 1)])
    inst = Instance([v, v])
    sol = solve_half(inst)
    assert len(sol.cuts) == 1
    assert balance(v, sol) == 0


def test_disjoint_blocks_get_their_midpoints():
    inst = Instance([Valuation([Block(0, F(1, 2), 2)]),
                     Valuation([Block(F(1, 2), 1, 2)])])
    sol = solve_half(inst)
    assert sorted(sol.cuts) == [F(1, 4), F(3, 4)]
    rep = verify(inst, sol, 0)
    assert rep.satisfied


def test_processing_order_is_by_height():
    # the taller (narrower) agent is processed first and gets the
    # midpoint of its own block
    inst = Instance([Valuation([Block(0, 1, 1)]),
                     Valuation([Block(F(1, 4), F(1, 2), 4)])])
    trace = []
    solve_half(inst, trace=trace)
    assert trace[0]["agent"] == 1
    assert trace[0]["cuts"] == [F(3, 8)]


def test_rejects_k3_instances():
    inst = Instance([Valuation([Block(0, 1, 1)])], k=3)
    with pytest.raises(ValueError):
        solve_half(inst)


def test_rejects_multi_block_agents():
    inst = Instance([Valuation([Block(0, F(1, 4), 2),
                                Block(F(3, 4), 1, 2)])])
    with pytest.raises(ValueError):
        solve_half(inst)


def test_invariants_on_seeded_instances():
    rng = random.Random(3)
    for _ in range(25):
        inst = random_single_block_instance(rng, rng.randrange(1, 9))
        check_greedy_invariants(inst)


def test_half_guarantee_is_exactly_met_somewhere():
    # a single agent is perfectly balanced; adversarial overlaps are not
    rng = random.Random(9)
    worst = F(0)
    for _ in range(40):
        inst = random_single_block_instance(rng, rng.randrange(2, 7))
        sol = solve_half(inst)
        rep = verify(inst, sol, F(1, 2))
        assert rep.satisfied
        worst = max(worst, rep.max_discrepancy)
    assert worst <= F(1, 2)
