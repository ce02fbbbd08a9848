"""Compiler from two-dimensional truncated-linear fixed-point circuits
to exact consensus-1/3-division instances, with a forward witness
builder and a fixed-point decoder.

Every agent owns one length-9 output interval O with anchor density
3/10 in O[1,2] u O[4,5] u O[7,8]; in an exact solution each O holds
exactly two cuts (well-cut), and the quantity
v(I) = (mu(X(I)_A) - mu(X(I)_B)) / 2 over
X(I) = I[0,1] u I[2,4] u I[5,7] u I[8,9] carries a value in [-1,1]
between intervals.
"""

import itertools
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .circuit import Circuit, GateBuilder
from .core import (Instance, Valuation, Block, Solution, label_masses,
                   truncate, rat, KLABELS)


A, B, C = KLABELS[:3]

ANCHORS = [(1, 2), (4, 5), (7, 8)]
X_PIECES = [(0, 1), (2, 4), (5, 7), (8, 9)]
ANCH_H = Fraction(3, 10)
WELL_CUT_1 = (Fraction(7, 4), Fraction(17, 4))
WELL_CUT_2 = (Fraction(19, 4), Fraction(29, 4))


# ---------------------------------------------------------------------------
# circuits


class _PlaneCircuit(Circuit):
    """A circuit from the plane to the plane: two inputs, two outputs."""

    OPS = {"ADD": (0, 2), "MUL": (1, 1), "CONST": (1, 0)}

    def __init__(self, inputs, gates, outputs):
        super().__init__(inputs, gates, outputs)
        if len(self.inputs) != 2 or len(self.outputs) != 2:
            raise ValueError("circuit must have two inputs and two outputs")


class TruncCircuit(_PlaneCircuit):
    """Straight-line circuit over truncated addition, truncated
    multiplication by a rational and constants in [-1,1], mapping
    [-1,1]^2 to [-1,1]^2: gates ("ADD", (a, b), out),
    ("MUL", (zeta, a), out) and ("CONST", (zeta,), out)."""

    def __init__(self, inputs, gates, outputs):
        super().__init__(inputs, gates, outputs)
        for op, args, out in self.gates:
            if op == "CONST" and not -1 <= args[0] <= 1:
                raise ValueError("constant %s outside [-1, 1]" % args[0])


def eval_trunc(circuit, x):
    """Exact evaluation of the circuit at x in [-1,1]^2."""
    return tuple(circuit.run([truncate(v) for v in x],
                             {"ADD": lambda a, b: truncate(a + b),
                              "MUL": lambda z, a: truncate(z * a),
                              "CONST": lambda z: z}))


class LinFixpCircuit(_PlaneCircuit):
    """Circuit over plain addition, multiplication by a rational, and
    binary max, with rational constants, on [0,1]^2.  Same gates as
    TruncCircuit plus ("MAX", (a, b), out)."""

    OPS = dict(_PlaneCircuit.OPS, MAX=(0, 2))


def eval_linfixp(circuit, x):
    return tuple(circuit.run([rat(v) for v in x],
                             {"ADD": operator.add, "MAX": max,
                              "MUL": operator.mul, "CONST": lambda z: z}))


def to_truncated(circuit):
    """Rewrite an add/mul/max circuit on [0,1]^2 into an equivalent
    truncated add/mul circuit on [-1,1]^2: clamp every output into
    [0,1], scale all values by 1/M so nothing ever leaves [-1,1]
    (undone at the outputs), and expand max gates through the
    truncated-max identities.  Fixed points of the result are exactly
    the fixed points of the input on [0,1]^2.  The result is a run of
    the source: the input scalings, the source's gates (CONST z as
    z/M, MAX expanded), the clamps, and the multiplications by M."""
    # |values| <= c^(n+1) =: M over the n gates of the source and of
    # the six-gate clamps, so divide constants and inputs by M and
    # multiply the outputs back
    c = max([Fraction(2)] + [abs(args[0]) for op, args, _ in circuit.gates
                             if op in ("MUL", "CONST")])
    M = c ** (len(circuit.gates) + 6 * len(circuit.outputs) + 1)
    names = ("_t%d" % i for i in itertools.count())
    b = GateBuilder(lambda: next(w for w in names
                                 if w not in circuit.inputs))

    def const(z):
        return b.gate("CONST", z / M)

    def max_(x, y):
        # over [-1,1] arguments:
        #   max{x, y} = (x/2 + max{y/2 - x/2, 0}) * 2
        #   max{z, 0} = (z +_T (-1)) +_T 1
        hx = b.gate("MUL", Fraction(1, 2), x)
        d = b.gate("ADD", b.gate("MUL", Fraction(1, 2), y),
                   b.gate("MUL", Fraction(-1, 2), x))
        z = b.gate("ADD", b.gate("ADD", d, b.gate("CONST", Fraction(-1))),
                   b.gate("CONST", Fraction(1)))
        return b.gate("MUL", Fraction(2), b.gate("ADD", hx, z))

    ins = [b.gate("MUL", 1 / M, w) for w in circuit.inputs]
    outs = circuit.run(ins, dict(b.copying(("ADD", "MUL")),
                                 CONST=const, MAX=max_))
    clamped = []
    for w in outs:
        # clamp into [0, 1]: max{-max{-1, -w}, 0}
        nw = b.gate("MUL", Fraction(-1), w)
        neg = b.gate("MUL", Fraction(-1), max_(const(Fraction(-1)), nw))
        clamped.append(max_(neg, const(Fraction(0))))
    outs = [b.gate("MUL", M, w) for w in clamped]
    return TruncCircuit(circuit.inputs, b.gates, outs)


# ---------------------------------------------------------------------------
# compilation

# the six reserved intervals; interval i is [10i, 10i + 9]
OUT1, OUT2, TEMP1, TEMP2, IN1, IN2 = range(6)
# height of X(O) in the constant and projection agents
H_FIXED = Fraction(1, 120)


def x_set(left):
    left = rat(left)
    return [(left + a, left + b) for a, b in X_PIECES]


class CompiledKDiv:
    def __init__(self, instance, outs):
        self.instance = instance
        self.outs = outs            # output interval of each agent


def compile_fixp(circuit):
    """Full instance: the circuit's gates over fresh intervals, the two
    outputs copied into Out1/Out2 via negation pairs, projection agents
    Out -> Temp and negations Temp -> In closing the loop.  k = 3, one
    output interval per agent, cut budget 2n.

    Intervals are numbered left to right: the reserved OUT1, OUT2,
    TEMP1, TEMP2, IN1, IN2, then one fresh interval per further agent
    in placement order.  The agent with output interval o = outs[i]
    owns O = [10o, 10o + 9] and is three anchor blocks of height 3/10
    in O, X(O) at one height h, and input blocks in the intervals it
    reads:
    - MUL zeta: X(input) at |zeta| h, h = 1/(60 (|zeta| + 1)), and no
      input block when zeta = 0; O carries -|zeta| times the input,
      and zeta > 0 adds a negation (MUL -1);
    - ADD: X of both inputs at h = 1/180; O carries the negated
      truncated sum, and a negation follows;
    - CONST and the projections Out1 -> Temp1, Out2 -> Temp2: fixed
      blocks of Out1 or Out2, and h = 1/120.
    Each agent reads only intervals placed before it by
    forward_place_kdiv, or (constants) Out1 off its well-cut
    windows."""
    outs, agents = [], []
    fresh = itertools.count(6)

    def agent(out, in_blocks, h_out):
        o = 10 * out
        outs.append(out)
        agents.append(Valuation(
            [Block(o + a, o + b, ANCH_H) for a, b in ANCHORS]
            + [Block(a, b, h_out) for a, b in x_set(o)]
            + [Block(*blk) for blk in in_blocks]))
        return out

    def reads(i, h):
        return [(a, b, h) for a, b in x_set(10 * i)]

    def mul(z, i, out=None):
        z = abs(z)
        h = Fraction(1, 60 * (z + 1))
        return agent(next(fresh) if out is None else out,
                     reads(i, z * h) if z else [], h)

    def neg(i, out=None):
        return mul(-1, i, out)

    def add(a, b):
        if a == b:                  # duplicate the wire to keep the
            b = neg(neg(b))         # three intervals disjoint
        h = Fraction(1, 180)
        return neg(agent(next(fresh), reads(a, h) + reads(b, h), h))

    def times(z, a):
        t = mul(z, a)
        return t if z <= 0 else neg(t)

    def const(z):
        return agent(next(fresh),
                     [(0, Fraction(1, 2), (1 - z / 2) / 30),
                      (Fraction(17, 4), Fraction(19, 4), (1 + z / 2) / 30),
                      (Fraction(17, 2), 9, Fraction(1, 30))], H_FIXED)

    wires = circuit.run((IN1, IN2), {"ADD": add, "MUL": times,
                                     "CONST": const})
    # route the two circuit outputs into Out1/Out2 (negation pairs keep
    # the value and avoid block overlap when an output is a constant or
    # an input wire)
    for w, out in zip(wires, (OUT1, OUT2)):
        neg(neg(w), out)
    # feedback: Out -> Temp (projection) -> In (negation)
    agent(TEMP1, [(Fraction(17, 2), 9, Fraction(1, 30)), (2, 4, H_FIXED),
                  (0, Fraction(1, 2), Fraction(1, 60)),
                  (Fraction(17, 4), Fraction(19, 4), Fraction(1, 60))],
          H_FIXED)
    neg(TEMP1, IN1)
    agent(TEMP2, [(10, Fraction(21, 2), Fraction(1, 30)), (15, 17, H_FIXED),
                  (Fraction(57, 4), Fraction(59, 4), Fraction(1, 60)),
                  (Fraction(37, 2), 19, Fraction(1, 60))], H_FIXED)
    neg(TEMP2, IN2)
    if next(fresh) != len(agents):
        raise AssertionError("interval/agent count mismatch")
    inst = Instance(agents, k=3, domain_right=10 * len(agents) - 1)
    return CompiledKDiv(inst, outs)


# ---------------------------------------------------------------------------
# encoding status


class EncodingStatus:
    def __init__(self, well_cut, valid, value):
        self.well_cut = well_cut
        self.valid = valid
        self.value = value

    def __repr__(self):
        return "EncodingStatus(well_cut=%s, valid=%s, value=%s)" % (
            self.well_cut, self.valid, self.value)


def encoding_status(sol, left):
    """Well-cut / valid flags and the encoded value of the length-9
    interval starting at left.  Valid means well-cut, its three
    segments carrying three different labels, and C's share of X(I)
    exactly 1/3; the value of a valid encoding lies in [-1, 1]."""
    left = rat(left)
    i = bisect_right(sol.cuts, left)
    inside = sol.cuts[i:bisect_left(sol.cuts, left + 9)]
    well = (len(inside) == 2
            and left + WELL_CUT_1[0] <= inside[0] <= left + WELL_CUT_1[1]
            and left + WELL_CUT_2[0] <= inside[1] <= left + WELL_CUT_2[1])
    # X(I) has length 6: at height 1/6 it is a probability measure, on
    # which a valid encoding gives C exactly 1/3 and v(I) = 3 (A - B)
    xv = Valuation([Block(a, b, Fraction(1, 6)) for a, b in x_set(left)])
    masses = label_masses(xv, sol.frame, sol.labels, (A, B, C))
    valid = (well and len(set(sol.labels[i:i + 3])) == 3
             and masses[C] == Fraction(1, 3))
    value = 3 * (masses[A] - masses[B]) if valid else None
    return EncodingStatus(well, valid, value)


# ---------------------------------------------------------------------------
# forward placement


def _canonical_pattern(prev_last):
    """Label order of the next interval given the label flowing in from
    the left: A -> (A,B,C), B -> (B,A,C), C -> (C,A,B)."""
    return {A: (A, B, C), B: (B, A, C), C: (C, A, B)}[prev_last]


def _encode_cuts(pattern, v):
    """Canonical in-interval cut offsets (t1, t2) making the interval a
    valid encoding of v under the given label order."""
    v = rat(v)
    if not -1 <= v <= 1:
        raise ValueError("value outside [-1, 1]")
    p, q, r = pattern
    if r == C:
        sigma = 1 if p == A else -1
        return (3 + sigma * v, Fraction(6))
    if p == C:
        sigma = 1 if q == A else -1
        return (Fraction(3), 6 + sigma * v)
    sigma = 1 if p == A else -1
    return (3 + sigma * v, 6 + sigma * v)


def _invert_cdf(v, target, lo, hi):
    """The t in [lo, hi] with v.cdf(t) = target.  v must have positive
    density on all of [lo, hi] (true for anchor + X coverage), so t is
    unique."""
    if not v.cdf(lo) <= target <= v.cdf(hi):
        raise ValueError("balance target %s unreachable in [%s, %s]"
                         % (target, lo, hi))
    for blk in v.blocks:
        if blk.right > lo and v.cdf(blk.right) >= target:
            a = max(blk.left, lo)
            return a + (target - v.cdf(a)) / blk.height
    return hi


def forward_place_kdiv(compiled, x):
    """Deterministic witness: encode x in In1/In2, then walk the agents
    in placement order giving each output interval the two cuts that
    hand every label exactly 1/3 of the agent's mass.  An agent's input
    intervals are the ones its blocks meet outside its own.  The
    negation agents that write In1/In2 get no new cuts (those are the
    input cuts); their residual imbalance is zero exactly when x is a
    fixed point."""
    n = len(compiled.outs)
    patterns = []
    # the leftmost segment is labeled A, so Out1 reads A, B, C
    prev = A
    for i in range(n):
        pat = _canonical_pattern(prev)
        patterns.append(pat)
        prev = pat[2]
    cuts_of = [None] * n
    for xi, idx in zip(x, (IN1, IN2)):
        t1, t2 = _encode_cuts(patterns[idx], xi)
        cuts_of[idx] = (10 * idx + t1, 10 * idx + t2)

    third = Fraction(1, 3)
    for v, idx in zip(compiled.instance.agents, compiled.outs):
        if cuts_of[idx] is not None:
            continue            # In1/In2 writers: cuts already present
        acc = dict.fromkeys((A, B, C), Fraction(0))
        for iv in {blk.left // 10 for blk in v.blocks} - {idx}:
            il = Fraction(10 * iv)
            cuts = cuts_of[iv]
            if cuts is None:
                # constant gates read Out1 before the circuit output
                # lands there; off the well-cut windows the labels do
                # not depend on the cut positions, so placeholder cuts
                # give the right masses
                if (v.mass_between(il + WELL_CUT_1[0], il + WELL_CUT_1[1])
                        or v.mass_between(il + WELL_CUT_2[0],
                                          il + WELL_CUT_2[1])):
                    raise AssertionError("input interval %d read before "
                                         "placement" % iv)
                cuts = (il + 3, il + 6)
            lm = label_masses(v, cuts, patterns[iv], (A, B, C), il, il + 9)
            for lab in acc:
                acc[lab] += lm[lab]
        o = Fraction(10 * idx)
        p, q, r = patterns[idx]
        # v's own mass in [o, o + 9] is the anchors plus X(O); r's share
        # is the mass right of t2
        t1 = _invert_cdf(v, v.cdf(o) + third - acc[p], o, o + 9)
        t2 = _invert_cdf(v, v.cdf(o + 9) - (third - acc[r]), o, o + 9)
        if not (o + WELL_CUT_1[0] <= t1 <= o + WELL_CUT_1[1]
                and o + WELL_CUT_2[0] <= t2 <= o + WELL_CUT_2[1]):
            raise AssertionError("interval %d cuts outside well-cut "
                                 "windows: %s %s" % (idx, t1 - o, t2 - o))
        cuts_of[idx] = (t1, t2)
    cuts = []
    labels = [patterns[0][0]]
    for i in range(n):
        t1, t2 = cuts_of[i]
        cuts += [t1, t2]
        labels += [patterns[i][1], patterns[i][2]]
    return Solution(cuts, labels)


# ---------------------------------------------------------------------------
# decoding


class KDivDecodeFailure(Exception):
    pass


def _rename_for_out1(sol):
    """Permute labels so Out1 = [0,9] reads A, B, C left to right."""
    inside = [t for t in sol.cuts if 0 < t < 9]
    if len(inside) != 2:
        raise KDivDecodeFailure("Out1 is not well-cut")
    # the first two cuts of the solution are Out1's, so its three
    # segments carry the first three labels
    seen = list(sol.labels[:3])
    if len(set(seen)) != 3:
        raise KDivDecodeFailure("Out1 does not show three labels")
    table = dict(zip(seen, (A, B, C)))
    return Solution(sol.cuts, [table[l] for l in sol.labels])


def decode_fixed_point(sol):
    """Read the fixed point (v(In1), v(In2)) from an exact solution; In1
    and In2 sit at the same place in every compiled circuit."""
    sol = _rename_for_out1(sol)
    vals = []
    for idx in (IN1, IN2):
        st = encoding_status(sol, 10 * idx)
        if not st.valid:
            raise KDivDecodeFailure("input interval %d is not a valid "
                                    "encoding" % idx)
        vals.append(st.value)
    return tuple(vals)
