"""Greedy 1/2-consensus-halving for single-block agents.

One cut per agent at most.  Labels alternate along the domain starting
with "+".  A reserved region (RR) is an interval no later cut may enter;
RRs are kept as maximal disjoint intervals (touching regions merge).

The working criterion for "agent i is 1/2-satisfied" is matched reserved
mass: the agent's value inside RRs that is paired off between the two
labels (twice the smaller label mass, summed per RR piece of the block).
Once matched mass reaches 1/2 the agent stays 1/2-satisfied forever:
later cuts avoid RRs, so they flip reserved pieces only wholesale,
preserving each piece's pairing, and the unreserved value they can swing
is at most the 1/2 that is left.  Expanding an odd-parity RR and
reserving symmetrically around a fresh cut both add perfectly matched
mass, which is what drives the loop.
"""

from fractions import Fraction

from .core import (Solution, PLUS, MINUS, CutFrame, alternating_labels,
                   label_masses)


HALF = Fraction(1, 2)


def _merge(intervals):
    """Union of closed intervals as maximal disjoint pieces."""
    out = []
    for l, r in sorted(intervals):
        if out and l <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], r))
        else:
            out.append((l, r))
    return out


class GreedyState:
    def __init__(self):
        self.cuts = []        # sorted Fractions
        self.rrs = []         # disjoint sorted (left, right) tuples

    def add_cut(self, y):
        assert y not in self.cuts, "coincident cut"
        self.cuts.append(y)
        self.cuts.sort()

    def reserve(self, l, r):
        self.rrs = _merge(self.rrs + [(l, r)])

    def solution(self):
        return Solution(self.cuts, alternating_labels(len(self.cuts) + 1))

    def parity_odd(self, l, r):
        """Odd iff the labels flanking the RR's extreme cuts differ,
        i.e. an odd number of cuts meets [l, r]."""
        return sum(1 for c in self.cuts if l <= c <= r) % 2 == 1

    def matched_mass(self, v):
        """Value of v inside RRs that is paired off between the labels."""
        labels = alternating_labels(len(self.cuts) + 1)
        frame = CutFrame(self.cuts)
        total = Fraction(0)
        for l, r in self.rrs:
            m = label_masses(v, frame, labels, (PLUS, MINUS), l, r)
            total += 2 * min(m[PLUS], m[MINUS])
        return total

    def gaps_in(self, a, b):
        """Sorted maximal subintervals of [a, b] not covered by RRs."""
        out = []
        x = a
        for l, r in self.rrs:
            if r <= a or l >= b:
                continue
            if l > x:
                out.append((x, min(l, b)))
            x = max(x, r)
        if x < b:
            out.append((x, b))
        return out

    def snapshot(self):
        return {"cuts": list(self.cuts), "rrs": list(self.rrs)}


def _block_of(v):
    if len(v.blocks) != 1:
        raise ValueError("greedy solver needs single-block agents")
    return v.blocks[0]


def _free_space(state, l, r, a, b):
    """(left, right) room for symmetric expansion of RR [l, r] inside
    [a, b], limited by the other RRs."""
    left_room = l - a
    right_room = b - r
    for ol, orr in state.rrs:
        if (ol, orr) == (l, r):
            continue
        if orr <= l:
            left_room = min(left_room, l - orr)
        if ol >= r:
            right_room = min(right_room, ol - r)
    return left_room, right_room


def expand_odd_rrs(state, v):
    """Step 1: symmetric expansion of the internal odd-parity RRs of this
    agent's block.  Expanding an odd RR freezes equal lengths carrying
    opposite labels on its two flanks, adding perfectly matched mass for
    the agent.  The loop runs until the agent is 1/2-satisfied (matched
    reserved mass 1/2) or no expandable odd RR remains; an RR stops for
    good once it reaches another RR (merging with it) or an endpoint of
    the block.  Returns True if the agent needs no cut."""
    blk = _block_of(v)
    a, b, h = blk.left, blk.right, blk.height
    while True:
        matched = state.matched_mass(v)
        if matched >= HALF:
            return True
        picked = None
        for (l, r) in state.rrs:
            if l < a or r > b:
                continue  # boundary RR, never expanded
            if not state.parity_odd(l, r):
                continue
            left_room, right_room = _free_space(state, l, r, a, b)
            if left_room > 0 and right_room > 0:
                picked = (l, r, left_room, right_room)
                break
        if picked is None:
            return False
        l, r, left_room, right_room = picked
        want = (HALF - matched) / (2 * h)
        x = min(want, left_room, right_room)
        state.rrs.remove((l, r))
        state.reserve(l - x, r + x)


def place_and_reserve(state, v):
    """Steps 2 and 3: cut at the midpoint of the glued uncovered part of
    the block, then reserve equal uncovered lengths around the cut until
    the agent's matched reserved mass is 1/2.  The cut splits the glued
    gap lengths in half and flips the labels right of it, so the two arms
    of the new RR carry opposite labels."""
    blk = _block_of(v)
    a, b, h = blk.left, blk.right, blk.height
    gaps = state.gaps_in(a, b)
    total = sum(r - l for l, r in gaps)
    assert total > 0
    y = _from_glued(gaps, total / 2)
    state.add_cut(y)
    matched = state.matched_mass(v)
    x = (HALF - matched) / (2 * h)
    if x > 0:
        assert x <= total / 2, "boundary reserved regions too lopsided"
        y1 = _from_glued(gaps, total / 2 - x)
        y2 = _from_glued(gaps, total / 2 + x)
        state.reserve(y1, y2)


def _from_glued(gaps, t):
    """Map a coordinate t along the glued gaps back to the domain."""
    for l, r in gaps:
        if t <= r - l:
            return l + t
        t -= r - l
    raise AssertionError("glued coordinate out of range")


def solve_half(inst, trace=None):
    """1/2-consensus-halving with at most one cut per agent.

    Agents are processed in non-increasing block height (ties by index).
    If trace is a list, a per-step snapshot {agent, cuts, rrs} is
    appended after each step.
    """
    if inst.k != 2:
        raise ValueError("greedy solver is a 2-label algorithm")
    order = sorted(range(inst.n),
                   key=lambda i: (-inst.agents[i].blocks[0].height
                                  if len(inst.agents[i].blocks) == 1 else 0,
                                  i))
    state = GreedyState()
    for i in order:
        v = inst.agents[i]
        done = expand_odd_rrs(state, v)
        if not done:
            place_and_reserve(state, v)
        if trace is not None:
            snap = state.snapshot()
            snap["agent"] = i
            trace.append(snap)
    return state.solution()

