"""Shared generators and invariant checkers for the test suite."""

import bisect
import functools
import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from chdiv.circuit import GateBuilder
from chdiv.core import (Instance, Valuation, Block, Solution, BalanceReport,
                        PLUS, MINUS, alternating_labels, balance,
                        check_solution, encoded_value, label_masses, rat,
                        rat_str, verify)
from chdiv.gen import random_single_block_instance, random_dblock_instance
from chdiv import greedy, tucker


HALF = Fraction(1, 2)

# a linear-FIXP circuit (add, mul, max) with the fixed point (1/2, 3/4)
LIN_TEXT = ("IN x1\nIN x2\nMUL 1/2 x1 -> a\nCONST 1/4 -> c\nADD a c -> s\n"
            "MAX s x2 -> m\nOUT s\nOUT m\n")


def alternating_solution(cuts):
    return Solution(cuts, alternating_labels(len(cuts) + 1))


def swap_labels(sol):
    """The k = 2 sign flip of sol."""
    table = {PLUS: MINUS, MINUS: PLUS}
    return Solution(sol.cuts, [table[l] for l in sol.labels])


def merged(sol):
    """sol without the cuts between equal-labeled segments (and
    zero-length duplicates)."""
    cuts, labels = [], [sol.labels[0]]
    for c, lab in zip(sol.cuts, sol.labels[1:]):
        if lab == labels[-1]:
            continue
        cuts.append(c)
        labels.append(lab)
    return Solution(cuts, labels)


def encoded_value_in_domain(sol, left, domain_right):
    """core.encoded_value of the unit interval [left, left + 1], which
    must lie in [0, domain_right]."""
    left = rat(left)
    if left < 0 or left + 1 > rat(domain_right):
        raise ValueError("interval outside domain")
    return encoded_value(sol, left)


def format_circuit(circ):
    """circ as the text that type(circ).parse reads back."""
    lines = ["%s %s" % (circ.IN, w) for w in circ.inputs]
    for op, args, out in circ.gates:
        n_rat = circ.OPS[op][0]
        lines.append(" ".join([op] + [rat_str(r) for r in args[:n_rat]]
                              + [str(w) for w in args[n_rat:]]
                              + ["->", str(out)]))
    lines += ["%s %s" % (circ.OUT, w) for w in circ.outputs]
    return "\n".join(lines) + "\n"


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


def gate_rig(eps, builder, n_coords, n_consts):
    """Tucker gate agents assembled by builder(asm) after n_coords
    coordinate cells and n_consts constant cells (each reading +1), as
    a CompiledCH that forward_place accepts: (builder's result,
    compiled)."""
    origin = n_coords + n_consts
    asm = tucker.Assembler(eps, origin=origin)
    outs = builder(asm)
    agents = [Valuation([Block(l, r, h) for l, r, h in gate])
              for gate in asm.gates]
    inst = Instance(agents, k=2, domain_right=asm.cursor)
    layout = tucker.Layout(n_coords, n_consts, asm.cursor - origin,
                           asm.cursor, asm.cursor)
    return outs, tucker.CompiledCH(inst, layout, None, None, asm.gates)


def forward_place_mirrored(compiled, x):
    """The mirrored Tucker witness: the forward placement of -x with its
    labels swapped, so every constant cell reads -1 and x is still
    encoded."""
    return swap_labels(tucker.forward_place(compiled, [-v for v in x]))


def forward_place_reference(compiled, x, const_sign=1):
    """tucker.forward_place's rule in Fraction arithmetic, the reference
    that the integer placement (const_sign = 1) and the mirrored one
    (const_sign = -1) are compared against: each gate's cut is
    t = (l + r - L s) / 2, with s the input block's signed length under
    the cuts placed so far, summed cell by cell."""
    x = [Fraction(v) * const_sign for v in x]
    N = compiled.layout.N
    start = 1 if N % 2 == 0 else -1
    wires, cuts = {}, []
    for i, v in enumerate(x):
        lab0 = start * (1 if i % 2 == 0 else -1)
        cuts.append(i + (1 + v * lab0) / 2)
        wires[i] = (lab0, cuts[-1])
    for j in range(compiled.layout.p):
        wires[N + j] = (1, None)
    L = 1
    for (a, b, _), (l, r, _) in compiled.gates:
        s = 0
        for u in range(math.floor(a), math.ceil(b)):
            lab0, cut = wires[u]
            lo, hi = max(a, u), min(b, u + 1)
            c = hi if cut is None else min(max(cut, lo), hi)
            s += lab0 * ((c - lo) - (hi - c))
        cuts.append(Fraction(l + r - L * s, 2))
        for u in range(l, r):
            wires[u] = (L, cuts[-1])
        L = -L
    first = PLUS if start * const_sign == 1 else MINUS
    return Solution(cuts, alternating_labels(len(cuts) + 1, first))


def random_dnf_labeling(rng, N):
    """A random labeling of [8]^N by +-1..+-N, antipodally anti-symmetric
    on the boundary (lambda(9 - x) = -lambda(x) there; interior labels
    are free), built as a shared-minterm DNF: one NOT per input bit, one
    AND chain per point over its 3N literals, and one OR chain per
    output bit over the minterms of the points where that bit is +1."""
    labels = {}
    for x in itertools.product(range(1, 9), repeat=N):
        if x not in labels:
            labels[x] = rng.choice([1, -1]) * rng.randint(1, N)
            if 1 in x or 8 in x:
                labels[tuple(9 - r for r in x)] = -labels[x]
    b = GateBuilder(itertools.count().__next__)
    ins = [b.new_wire() for _ in range(3 * N)]
    nots = [b.gate("NOT", w) for w in ins]
    terms = [[] for _ in range(2 * N)]
    for x, lab in sorted(labels.items()):
        bits = [v for r in x for v in tucker.point_bits(r)]
        lits = [w if v > 0 else nw for w, nw, v in zip(ins, nots, bits)]
        term = functools.reduce(lambda a, c: b.gate("AND", a, c), lits)
        # y_i^a is the label's sign, and y_i^b too on axis |lab| only
        sign = 1 if lab > 0 else -1
        ys = [y for i in range(1, N + 1)
              for y in (sign, sign if i == abs(lab) else -sign)]
        for k, y in enumerate(ys):
            if y > 0:
                terms[k].append(term)
    outs = [functools.reduce(lambda a, c: b.gate("OR", a, c), t)
            for t in terms]
    return tucker.TuckerLabeling(N, tucker.BoolCircuit(ins, b.gates, outs))


def check_greedy_invariants(inst):
    """Run the greedy solver and assert its step invariants:
    - every previously processed agent stays 1/2-satisfied after each
      later step;
    - right after an agent's own step, every reserved region contained
      in its block has value at most 1/2 for it, and every reserved
      region straddling a block endpoint has label imbalance at most
      1/4 for it;
    - every reserved region carries equal lengths of the two labels;
    - no cut ever lands strictly inside a pre-existing reserved region;
    - at most one cut per agent overall.
    Returns the solution."""
    trace = []
    sol = greedy.solve_half(inst, trace=trace)
    assert len(sol.cuts) <= inst.n
    rep = verify(inst, sol, HALF)
    assert rep.satisfied, rep.max_discrepancy
    length = Valuation([Block(0, inst.domain_right,
                              Fraction(1, inst.domain_right))])
    processed = []
    prev_cuts, prev_rrs = set(), []
    for snap in trace:
        i = snap["agent"]
        processed.append(i)
        cuts = snap["cuts"]
        rrs = snap["rrs"]
        cur = alternating_solution(cuts)
        for a in processed:
            b = balance(inst.agents[a], cur, inst.domain_right)
            assert abs(b) <= HALF, (a, b)
        v = inst.agents[i]
        blk = v.blocks[0]
        for l, r in rrs:
            # equal label lengths inside every reserved region
            m = label_masses(length, cuts, cur.labels, (PLUS, MINUS), l, r)
            assert m[PLUS] == m[MINUS], (l, r, m)
            if blk.left <= l and r <= blk.right:
                assert v.mass_between(l, r) <= HALF, (i, l, r)
            elif r > blk.left and l < blk.right:
                m = label_masses(v, cuts, cur.labels, (PLUS, MINUS), l, r)
                assert abs(m[PLUS] - m[MINUS]) <= Fraction(1, 4), (i, l, r, m)
        for c in set(cuts) - prev_cuts:
            for l, r in prev_rrs:
                assert not (l < c < r), (c, l, r)
        prev_cuts, prev_rrs = set(cuts), list(rrs)
    return sol


# decode fuzzing: 1 to 3 mutations (kind, i, t, perm) of a solution; i
# picks a cut, t in [0, 1] a position, perm a permutation of the labels
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["drop", "add", "shift", "permute"]),
              st.integers(0, 10 ** 6),
              st.fractions(0, 1, max_denominator=64),
              st.integers(0, 10 ** 6)),
    min_size=1, max_size=3)


def mutate(sol, alphabet, domain_right, ops):
    """sol with each op applied: drop a cut, add a cut at t *
    domain_right with the label alphabet[perm], shift a cut to t of the
    way between its neighbours, or permute the labels within the
    alphabet."""
    cuts, labels = list(sol.cuts), list(sol.labels)
    perms = list(itertools.permutations(alphabet))
    for kind, i, t, perm in ops:
        if kind == "drop" and cuts:
            i %= len(cuts)
            del cuts[i], labels[i + 1]
        elif kind == "add":
            y = t * domain_right
            j = bisect.bisect(cuts, y)
            cuts.insert(j, y)
            labels.insert(j + 1, alphabet[perm % len(alphabet)])
        elif kind == "shift" and cuts:
            i %= len(cuts)
            lo = cuts[i - 1] if i else Fraction(0)
            hi = cuts[i + 1] if i + 1 < len(cuts) else domain_right
            cuts[i] = lo + t * (hi - lo)
        elif kind == "permute":
            table = dict(zip(alphabet, perms[perm % len(perms)]))
            labels = [table[l] for l in labels]
    return Solution(cuts, labels)
