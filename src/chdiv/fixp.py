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

import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .circuit import Circuit
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


class _WireGen:
    def __init__(self, taken):
        self.taken = set(taken)
        self.count = 0

    def fresh(self):
        while True:
            w = "_t%d" % self.count
            self.count += 1
            if w not in self.taken:
                self.taken.add(w)
                return w


def to_truncated(circuit):
    """Rewrite an add/mul/max circuit on [0,1]^2 into an equivalent
    truncated add/mul circuit on [-1,1]^2: clamp every output into
    [0,1], scale all values by 1/M so nothing ever leaves [-1,1]
    (undone at the outputs), then expand max gates through the
    truncated-max identities.  Fixed points of the result are exactly
    the fixed points of the input on [0,1]^2."""
    gen = _WireGen(circuit.inputs + [out for _, _, out in circuit.gates])
    gates = list(circuit.gates)
    # clamp outputs into [0, 1]: max{-max{-1, -x}, 0}
    outs = []
    for w in circuit.outputs:
        nw = gen.fresh()
        gates.append(("MUL", (Fraction(-1), w), nw))
        m1 = gen.fresh()
        cm1 = gen.fresh()
        gates.append(("CONST", (Fraction(-1),), cm1))
        gates.append(("MAX", (cm1, nw), m1))
        neg = gen.fresh()
        gates.append(("MUL", (Fraction(-1), m1), neg))
        zero = gen.fresh()
        gates.append(("CONST", (Fraction(0),), zero))
        clamped = gen.fresh()
        gates.append(("MAX", (neg, zero), clamped))
        outs.append(clamped)
    # scale: |values| <= c^(n+1) =: M, so divide constants and inputs
    # by M and multiply the outputs back
    c = max([Fraction(2)] + [abs(args[0]) for op, args, _ in gates
                             if op in ("MUL", "CONST")])
    M = c ** (len(gates) + 1)
    scaled = []
    in_map = {}
    for w in circuit.inputs:
        nw = gen.fresh()
        in_map[w] = nw
        scaled.append(("MUL", (1 / M, w), nw))
    for op, args, out in gates:
        if op == "CONST":
            args = (args[0] / M,)
        elif op == "MUL":
            args = (args[0], in_map.get(args[1], args[1]))
        else:
            args = tuple(in_map.get(w, w) for w in args)
        scaled.append((op, args, out))
    final_outs = []
    for w in outs:
        nw = gen.fresh()
        scaled.append(("MUL", (M, in_map.get(w, w)), nw))
        final_outs.append(nw)
    # expand max over [-1,1] arguments:
    #   max{x, y} = (x/2 + max{y/2 - x/2, 0}) * 2
    #   max{z, 0} = (z +_T (-1)) +_T 1
    flat = []
    for op, args, out in scaled:
        if op != "MAX":
            flat.append((op, args, out))
            continue
        a, b = args
        ha = gen.fresh()
        flat.append(("MUL", (Fraction(1, 2), a), ha))
        hb = gen.fresh()
        flat.append(("MUL", (Fraction(1, 2), b), hb))
        nha = gen.fresh()
        flat.append(("MUL", (Fraction(-1, 2), a), nha))
        d = gen.fresh()
        flat.append(("ADD", (hb, nha), d))
        cm = gen.fresh()
        flat.append(("CONST", (Fraction(-1),), cm))
        z1 = gen.fresh()
        flat.append(("ADD", (d, cm), z1))
        cp = gen.fresh()
        flat.append(("CONST", (Fraction(1),), cp))
        z2 = gen.fresh()
        flat.append(("ADD", (z1, cp), z2))
        s = gen.fresh()
        flat.append(("ADD", (ha, z2), s))
        flat.append(("MUL", (Fraction(2), s), out))
    return TruncCircuit(circuit.inputs, flat, final_outs)


# ---------------------------------------------------------------------------
# layout and compilation


class KDivLayout:
    """Interval bookkeeping: length-9 intervals separated by one-unit
    gaps, the first six reserved as Out1, Out2, Temp1, Temp2, In1,
    In2."""

    OUT1, OUT2, TEMP1, TEMP2, IN1, IN2 = range(6)

    def __init__(self):
        self.count = 0

    def alloc(self):
        i = self.count
        self.count += 1
        return i

    @staticmethod
    def left(idx):
        return Fraction(10 * idx)

    @property
    def domain_right(self):
        return Fraction(10 * self.count - 1)


def x_set(left):
    left = rat(left)
    return [(left + a, left + b) for a, b in X_PIECES]


class KDivGate:
    """One agent: anchor blocks in its output interval plus input/output
    value blocks.  in_blocks/out_blocks are (left, right, height)."""

    def __init__(self, kind, out_idx, in_idxs, in_blocks, out_blocks):
        self.kind = kind
        self.out_idx = out_idx
        self.in_idxs = tuple(in_idxs)
        self.in_blocks = list(in_blocks)
        self.out_blocks = list(out_blocks)

    def valuation(self, layout):
        o = layout.left(self.out_idx)
        blocks = [Block(o + a, o + b, ANCH_H) for a, b in ANCHORS]
        for l, r, h in self.in_blocks + self.out_blocks:
            blocks.append(Block(l, r, h))
        return Valuation(blocks)


def make_kdiv_gate(kind, layout, out_idx, in_idxs, zeta=None):
    """Gate agents for the value-passing machinery.  kind is one of
    mul_T (zeta <= 0), add_T (computes the negated truncated sum),
    const_T, projection1, projection2."""
    o = layout.left(out_idx)
    out_blocks = []
    in_blocks = []
    if kind == "mul_T":
        zeta = rat(zeta)
        if zeta > 0:
            raise ValueError("mul_T gate takes zeta <= 0")
        (i,) = in_idxs
        il = layout.left(i)
        hi = abs(zeta) / (60 * (abs(zeta) + 1))
        ho = Fraction(1, 60 * (abs(zeta) + 1))
        in_blocks = [(a, b, hi) for a, b in x_set(il)] if hi > 0 else []
        out_blocks = [(a, b, ho) for a, b in x_set(o)]
    elif kind == "add_T":
        i1, i2 = in_idxs
        h = Fraction(1, 180)
        in_blocks = ([(a, b, h) for a, b in x_set(layout.left(i1))]
                     + [(a, b, h) for a, b in x_set(layout.left(i2))])
        out_blocks = [(a, b, h) for a, b in x_set(o)]
    elif kind == "const_T":
        zeta = rat(zeta)
        if not -1 <= zeta <= 1:
            raise ValueError("constant outside [-1, 1]")
        (i,) = in_idxs           # always Out1
        il = layout.left(i)
        in_blocks = [(il, il + Fraction(1, 2), (1 - zeta / 2) / 30),
                     (il + Fraction(17, 4), il + Fraction(19, 4),
                      (1 + zeta / 2) / 30),
                     (il + Fraction(17, 2), il + 9, Fraction(1, 30))]
        out_blocks = [(a, b, Fraction(1, 120)) for a, b in x_set(o)]
    elif kind == "projection1":
        (i,) = in_idxs           # Out1
        il = layout.left(i)
        in_blocks = [(il + Fraction(17, 2), il + 9, Fraction(1, 30)),
                     (il + 2, il + 4, Fraction(1, 120)),
                     (il, il + Fraction(1, 2), Fraction(1, 60)),
                     (il + Fraction(17, 4), il + Fraction(19, 4),
                      Fraction(1, 60))]
        out_blocks = [(a, b, Fraction(1, 120)) for a, b in x_set(o)]
    elif kind == "projection2":
        (i,) = in_idxs           # Out2
        il = layout.left(i)
        in_blocks = [(il, il + Fraction(1, 2), Fraction(1, 30)),
                     (il + 5, il + 7, Fraction(1, 120)),
                     (il + Fraction(17, 4), il + Fraction(19, 4),
                      Fraction(1, 60)),
                     (il + Fraction(17, 2), il + 9, Fraction(1, 60))]
        out_blocks = [(a, b, Fraction(1, 120)) for a, b in x_set(o)]
    else:
        raise ValueError("unknown gate kind %r" % (kind,))
    in_blocks = [(l, r, h) for l, r, h in in_blocks if h > 0]
    return KDivGate(kind, out_idx, in_idxs, in_blocks, out_blocks)


class CompiledKDiv:
    def __init__(self, instance, layout, gates):
        self.instance = instance
        self.layout = layout
        self.gates = gates          # KDivGate list, topological


def compile_fixp(circuit):
    """Full instance: the circuit's gates over fresh intervals, the two
    outputs copied into Out1/Out2 via negation pairs, projection agents
    Out -> Temp and negations Temp -> In closing the loop.  k = 3, one
    output interval per agent, cut budget 2n."""
    layout = KDivLayout()
    for _ in range(6):
        layout.alloc()
    gates = []      # placement order: circuit first, then projections

    def neg(src_idx, dst_idx=None):
        if dst_idx is None:
            dst_idx = layout.alloc()
        gates.append(make_kdiv_gate("mul_T", layout, dst_idx, (src_idx,),
                                    zeta=Fraction(-1)))
        return dst_idx

    # each closure places one circuit gate and returns the interval that
    # carries its value
    def add(ia, ib):
        if ia == ib:                # duplicate the wire to keep the
            ib = neg(neg(ib))       # three intervals disjoint
        t = layout.alloc()
        gates.append(make_kdiv_gate("add_T", layout, t, (ia, ib)))
        return neg(t)

    def mul(z, ia):
        t = layout.alloc()
        gates.append(make_kdiv_gate("mul_T", layout, t, (ia,), zeta=-abs(z)))
        return t if z <= 0 else neg(t)

    def const(z):
        t = layout.alloc()
        gates.append(make_kdiv_gate("const_T", layout, t,
                                    (KDivLayout.OUT1,), zeta=z))
        return t

    outs = circuit.run((KDivLayout.IN1, KDivLayout.IN2),
                       {"ADD": add, "MUL": mul, "CONST": const})
    # route the two circuit outputs into Out1/Out2 (negation pairs keep
    # the value and avoid block overlap when an output is a constant or
    # an input wire)
    for iv, dst in zip(outs, (KDivLayout.OUT1, KDivLayout.OUT2)):
        neg(neg(iv), dst)
    # feedback: Out -> Temp (projection) -> In (negation)
    gates.append(make_kdiv_gate("projection1", layout, KDivLayout.TEMP1,
                                (KDivLayout.OUT1,)))
    neg(KDivLayout.TEMP1, KDivLayout.IN1)
    gates.append(make_kdiv_gate("projection2", layout, KDivLayout.TEMP2,
                                (KDivLayout.OUT2,)))
    neg(KDivLayout.TEMP2, KDivLayout.IN2)
    if layout.count != len(gates):
        raise AssertionError("interval/agent count mismatch")
    agents = [g.valuation(layout) for g in gates]
    inst = Instance(agents, k=3, domain_right=layout.domain_right)
    return CompiledKDiv(inst, layout, gates)


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
    """Deterministic witness: encode x in In1/In2, then walk the gate
    agents in placement order giving each output interval the two cuts
    that hand every label exactly 1/3 of the agent's mass.  The
    negation agents that write In1/In2 get no new cuts (those are the
    input cuts); their residual imbalance is zero exactly when x is a
    fixed point."""
    lay = compiled.layout
    n = lay.count
    patterns = []
    # the leftmost segment is labeled A, so Out1 reads A, B, C
    prev = A
    for i in range(n):
        pat = _canonical_pattern(prev)
        patterns.append(pat)
        prev = pat[2]
    cuts_of = [None] * n
    x = [rat(v) for v in x]
    for xi, idx in zip(x, (KDivLayout.IN1, KDivLayout.IN2)):
        t1, t2 = _encode_cuts(patterns[idx], xi)
        o = lay.left(idx)
        cuts_of[idx] = (o + t1, o + t2)

    third = Fraction(1, 3)
    # agents[i] is the valuation compiled from gates[i]
    for v, g in zip(compiled.instance.agents, compiled.gates):
        idx = g.out_idx
        if cuts_of[idx] is not None:
            continue            # In1/In2 writers: cuts already present
        acc = dict.fromkeys((A, B, C), Fraction(0))
        for iv in g.in_idxs:
            il = lay.left(iv)
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
        o = lay.left(idx)
        p, q, r = patterns[idx]
        # v's own mass in [o, o + 9] is the anchors plus the output
        # blocks; r's share is the mass right of t2
        t1 = _invert_cdf(v, v.cdf(o) + third - acc[p], o, o + 9)
        t2 = _invert_cdf(v, v.cdf(o + 9) - (third - acc[r]), o, o + 9)
        if not (o + WELL_CUT_1[0] <= t1 <= o + WELL_CUT_1[1]
                and o + WELL_CUT_2[0] <= t2 <= o + WELL_CUT_2[1]):
            raise AssertionError("gate %s cuts outside well-cut windows: "
                                 "%s %s" % (g.kind, t1 - o, t2 - o))
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
    for idx in (KDivLayout.IN1, KDivLayout.IN2):
        st = encoding_status(sol, KDivLayout.left(idx))
        if not st.valid:
            raise KDivDecodeFailure("input interval %d is not a valid "
                                    "encoding" % idx)
        vals.append(st.value)
    return tuple(vals)
