import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chdiv.core import (Instance, Valuation, Block, Solution, PLUS, MINUS,
                        label_masses, verify)
from chdiv.dp import InstanceStats, round_instance, dp_solve
from chdiv.oracle import GridSearchConfig, brute_force
from chdiv.lp import midpoint_solution
from conftest import random_single_block_instance


F = Fraction


def two_agent(b1, b2):
    return Instance([Valuation([Block(*b1)]), Valuation([Block(*b2)])], k=2)


def test_instance_stats_touching_blocks_do_not_stack():
    inst = two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))
    s = InstanceStats(inst)
    assert s.d == 1 and s.M == 2


def test_instance_stats_overlap():
    inst = two_agent((0, 1, 1), (0, F(1, 2), 2))
    s = InstanceStats(inst)
    assert s.d == 2 and s.M == 2


def test_partial_balance():
    # signed mass of [z, 1] under alternating labels starting at z
    def partial(v, cuts, z, first):
        other = MINUS if first == PLUS else PLUS
        labels = [first, other] * (len(cuts) // 2 + 1)
        m = label_masses(v, cuts, labels, (PLUS, MINUS), lo=z)
        return m[PLUS] - m[MINUS]
    v = Valuation([Block(0, 1, 1)])
    assert partial(v, [F(1, 2)], 0, PLUS) == 0
    assert partial(v, [], F(1, 2), PLUS) == F(1, 2)
    w = Valuation([Block(F(1, 2), 1, 2)])
    assert partial(w, [F(3, 4)], F(1, 2), MINUS) == 0


def test_round_instance_snaps_and_renormalizes():
    inst = Instance([Valuation([Block(F(26, 100), F(74, 100), F(25, 12))])])
    out = round_instance(inst, F(5, 24))     # grid resolution 10
    assert out.agents[0].blocks == (Block(F(3, 10), F(7, 10), F(5, 2)),)


def test_round_instance_identity_on_grid():
    inst = Instance([Valuation([Block(F(1, 4), F(3, 4), 2)])])
    out = round_instance(inst, F(1, 4))      # grid resolution 8
    assert out.agents[0] == inst.agents[0]


def test_round_instance_rejects_collapsing_block():
    inst = Instance([Valuation([Block(F(1, 10), F(2, 10), 10)])])
    with pytest.raises(ValueError):
        round_instance(inst, 5)              # grid resolution 2


def test_rounded_solution_transfers_to_original():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_single_block_instance(rng, 2, M=50)
        eps_prime = F(1, 8)
        rounded = round_instance(inst, eps_prime)
        sol = midpoint_solution(rounded)     # exact on the rounding
        assert verify(rounded, sol, 0).satisfied
        assert verify(inst, sol, eps_prime).satisfied


def test_dp_solve_disjoint_blocks():
    inst = two_agent((0, F(1, 2), 2), (F(1, 2), 1, 2))
    res = dp_solve(inst, F(1, 4))
    assert res.feasible and len(res.solution.cuts) <= 2
    assert verify(inst, res.solution, F(1, 4)).satisfied
    # the known exact witness lies on the same grid
    exact = Solution([F(1, 4), F(3, 4)], [PLUS, MINUS, PLUS])
    assert all(c * res.m % 1 == 0 for c in exact.cuts)
    assert verify(inst, exact, 0).satisfied


def test_dp_solve_overlapping_agents():
    inst = two_agent((0, 1, 1), (0, F(1, 2), 2))
    res = dp_solve(inst, F(1, 4))
    assert res.feasible
    assert verify(inst, res.solution, F(1, 4)).satisfied
    assert res.d == 2 and res.M == 2


def test_dp_solve_single_agent_midpoint():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    res = dp_solve(inst, F(1, 100), m=2)
    assert res.feasible
    assert res.solution.cuts == (F(1, 2),)


def test_dp_solve_rejects_bad_inputs():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    with pytest.raises(ValueError):
        dp_solve(inst, 0)
    multi = Instance([Valuation([Block(0, F(1, 4), 2),
                                 Block(F(3, 4), 1, 2)])])
    with pytest.raises(ValueError):
        dp_solve(multi, F(1, 4))


def test_dp_labels_alternate_and_verify():
    rng = random.Random(17)
    found = 0
    for _ in range(15):
        inst = random_single_block_instance(rng, rng.randrange(1, 4), M=12)
        eps = F(1, 4)
        res = dp_solve(inst, eps)
        if not res.feasible:
            continue
        found += 1
        sol = res.solution
        assert verify(inst, sol, eps).satisfied
        for a, b in zip(sol.labels, sol.labels[1:]):
            assert a != b
    assert found >= 10


def test_dp_matches_oracle_on_small_grids():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m = rng.choice([4, 6, 8])
        inst = random_single_block_instance(rng, n, M=m)
        eps = rng.choice([F(1, 8), F(1, 4), F(1, 2)])
        res = dp_solve(inst, eps, m=m)
        sol = brute_force(inst, eps, GridSearchConfig(m, inst.cut_budget))
        assert res.feasible == (sol is not None), (inst, eps, m)
        if res.feasible:
            assert verify(inst, res.solution, eps).satisfied


def test_dp_infeasible_at_coarse_grid():
    # two disjoint narrow blocks cannot both be split by cuts on {0, 1/2}
    inst = two_agent((0, F(1, 4), 4), (F(3, 4), 1, 4))
    res = dp_solve(inst, F(1, 8), m=2)
    assert not res.feasible
    assert res.solution is None


def test_dp_rejects_a_grid_below_one():
    inst = Instance([Valuation([Block(0, 1, 1)])])
    for m in (0, -3):
        with pytest.raises(ValueError):
            dp_solve(inst, F(1, 4), m=m)


def test_dp_instance_without_agents_needs_no_cut():
    res = dp_solve(Instance([]), F(1, 4))
    assert res.feasible and res.solution.cuts == () and res.m == 1


def test_dp_uses_the_whole_domain():
    # one block on [1, 2] of the domain [0, 2]: the cut 3/2 is exact
    inst = Instance([Valuation([Block(1, 2, 1)])], domain_right=2)
    res = dp_solve(inst, F(1, 4))
    assert res.m == 16                       # ceil(2 M L / eps)
    assert len(res.solution.cuts) == 1
    assert verify(inst, res.solution, F(1, 4)).satisfied
    # the grid {0, 1/2, 1, 3/2} holds the exact cut
    assert dp_solve(inst, F(1, 100), m=4).solution.cuts == (F(3, 2),)


def test_dp_knows_every_balance_is_within_one():
    # eps >= 1 accepts any partition, even with no cut for an agent
    # whose block starts right of 0
    inst = Instance([Valuation([Block(F(1, 2), 1, 2)])], cut_budget=0)
    res = dp_solve(inst, 1)
    assert res.feasible and res.solution.cuts == ()
    assert brute_force(inst, 1, GridSearchConfig(res.m, 0)) is not None


@st.composite
def lattice_instances(draw):
    """1-3 single-block agents with endpoints on the L/G lattice of a
    domain [0, L] with rational L."""
    L = draw(st.fractions(min_value=F(1, 4), max_value=4,
                          max_denominator=6))
    G = draw(st.integers(1, 6))
    agents = []
    for _ in range(draw(st.integers(1, 3))):
        l = draw(st.integers(0, G - 1))
        r = draw(st.integers(l + 1, G))
        agents.append(Valuation([Block(l * L / G, r * L / G,
                                       G / ((r - l) * L))]))
    return agents, L


@settings(max_examples=300, deadline=None)
@given(lattice_instances(), st.sampled_from([F(1, 8), F(1, 4), F(1, 2), 1]),
       st.integers(0, 3), st.integers(1, 12))
def test_property_dp_matches_oracle_on_any_domain(case, eps, budget, m):
    agents, L = case
    inst = Instance(agents, cut_budget=min(budget, len(agents)),
                    domain_right=L)
    res = dp_solve(inst, eps, m=m)
    ref = brute_force(inst, eps, GridSearchConfig(res.m, inst.cut_budget))
    assert res.feasible == (ref is not None)
    if res.feasible:
        sol = res.solution
        assert verify(inst, sol, eps).satisfied
        assert len(sol.cuts) <= inst.cut_budget
        assert all((c * m / L).denominator == 1 for c in sol.cuts)


@settings(max_examples=150, deadline=None)
@given(lattice_instances(), st.sampled_from([F(1, 4), F(1, 2)]))
def test_property_dp_feasible_at_the_default_grid(case, eps):
    agents, L = case
    inst = Instance(agents, domain_right=L)     # budget n
    assert verify(inst, midpoint_solution(inst), 0).satisfied
    res = dp_solve(inst, eps)
    assert res.feasible
    assert verify(inst, res.solution, eps).satisfied
    assert len(res.solution.cuts) <= inst.n
