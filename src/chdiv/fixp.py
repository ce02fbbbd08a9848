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

from fractions import Fraction

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


class TruncCircuit:
    """Straight-line circuit over truncated addition and truncated
    multiplication by a rational, mapping [-1,1]^2 to [-1,1]^2.
    gates: list of ("ADD", a, b, out) | ("MUL", zeta, a, out) |
    ("CONST", zeta, out)."""

    def __init__(self, inputs, gates, outputs):
        self.inputs = list(inputs)
        self.gates = list(gates)
        self.outputs = list(outputs)
        if len(self.inputs) != 2 or len(self.outputs) != 2:
            raise ValueError("circuit must have two inputs and two outputs")
        defined = set(self.inputs)
        for g in self.gates:
            if g[0] == "ADD":
                _, a, b, out = g
                args = (a, b)
            elif g[0] == "MUL":
                _, z, a, out = g
                args = (a,)
            elif g[0] == "CONST":
                _, z, out = g
                args = ()
                if not -1 <= rat(z) <= 1:
                    raise ValueError("constant %s outside [-1, 1]" % (z,))
            else:
                raise ValueError("unknown gate %r" % (g[0],))
            for w in args:
                if w not in defined:
                    raise ValueError("wire %r used before definition" % (w,))
            if out in defined:
                raise ValueError("wire %r defined twice" % (out,))
            defined.add(out)
        for w in self.outputs:
            if w not in defined:
                raise ValueError("undefined output wire %r" % (w,))

    def format(self):
        lines = ["IN %s" % w for w in self.inputs]
        for g in self.gates:
            if g[0] == "ADD":
                lines.append("ADD %s %s -> %s" % g[1:])
            elif g[0] == "MUL":
                z = rat(g[1])
                lines.append("MUL %d/%d %s -> %s"
                             % (z.numerator, z.denominator, g[2], g[3]))
            else:
                z = rat(g[1])
                lines.append("CONST %d/%d -> %s"
                             % (z.numerator, z.denominator, g[2]))
        lines += ["OUT %s" % w for w in self.outputs]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        inputs, gates, outputs = [], [], []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            p = line.split()
            try:
                if p[0] == "IN" and len(p) == 2:
                    inputs.append(p[1])
                elif p[0] == "OUT" and len(p) == 2:
                    outputs.append(p[1])
                elif p[0] == "ADD" and len(p) == 5 and p[3] == "->":
                    gates.append(("ADD", p[1], p[2], p[4]))
                elif p[0] == "MUL" and len(p) == 5 and p[3] == "->":
                    gates.append(("MUL", Fraction(p[1]), p[2], p[4]))
                elif p[0] == "CONST" and len(p) == 4 and p[2] == "->":
                    gates.append(("CONST", Fraction(p[1]), p[3]))
                else:
                    raise ValueError
            except (ValueError, ZeroDivisionError):
                raise ValueError("bad circuit line %d: %r" % (lineno, raw))
        return cls(inputs, gates, outputs)


def eval_trunc(circuit, x):
    """Exact evaluation of the circuit at x in [-1,1]^2."""
    if len(x) != 2:
        raise ValueError("expected a 2d point")
    val = {w: truncate(v) for w, v in zip(circuit.inputs, x)}
    for g in circuit.gates:
        if g[0] == "ADD":
            val[g[3]] = truncate(val[g[1]] + val[g[2]])
        elif g[0] == "MUL":
            val[g[3]] = truncate(rat(g[1]) * val[g[2]])
        else:
            val[g[2]] = rat(g[1])
    return tuple(val[w] for w in circuit.outputs)


class LinFixpCircuit:
    """Circuit over plain addition, multiplication by a rational, and
    binary max, with rational constants, on [0,1]^2.  Same gate tuples
    as TruncCircuit plus ("MAX", a, b, out)."""

    def __init__(self, inputs, gates, outputs):
        self.inputs = list(inputs)
        self.gates = list(gates)
        self.outputs = list(outputs)
        if len(self.inputs) != 2 or len(self.outputs) != 2:
            raise ValueError("circuit must have two inputs and two outputs")

    @classmethod
    def parse(cls, text):
        inputs, gates, outputs = [], [], []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            p = line.split()
            try:
                if p[0] == "IN" and len(p) == 2:
                    inputs.append(p[1])
                elif p[0] == "OUT" and len(p) == 2:
                    outputs.append(p[1])
                elif p[0] == "ADD" and len(p) == 5 and p[3] == "->":
                    gates.append(("ADD", p[1], p[2], p[4]))
                elif p[0] == "MAX" and len(p) == 5 and p[3] == "->":
                    gates.append(("MAX", p[1], p[2], p[4]))
                elif p[0] == "MUL" and len(p) == 5 and p[3] == "->":
                    gates.append(("MUL", Fraction(p[1]), p[2], p[4]))
                elif p[0] == "CONST" and len(p) == 4 and p[2] == "->":
                    gates.append(("CONST", Fraction(p[1]), p[3]))
                else:
                    raise ValueError
            except (ValueError, ZeroDivisionError):
                raise ValueError("bad circuit line %d: %r" % (lineno, raw))
        return cls(inputs, gates, outputs)


def eval_linfixp(circuit, x):
    val = dict(zip(circuit.inputs, (rat(v) for v in x)))
    for g in circuit.gates:
        if g[0] == "ADD":
            val[g[3]] = val[g[1]] + val[g[2]]
        elif g[0] == "MAX":
            val[g[3]] = max(val[g[1]], val[g[2]])
        elif g[0] == "MUL":
            val[g[3]] = rat(g[1]) * val[g[2]]
        else:
            val[g[2]] = rat(g[1])
    return tuple(val[w] for w in circuit.outputs)


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
    wires = set(circuit.inputs)
    for g in circuit.gates:
        wires.add(g[-1])
    gen = _WireGen(wires)
    gates = list(circuit.gates)
    # clamp outputs into [0, 1]: max{-max{-1, -x}, 0}
    outs = []
    for w in circuit.outputs:
        nw = gen.fresh()
        gates.append(("MUL", Fraction(-1), w, nw))
        m1 = gen.fresh()
        cm1 = gen.fresh()
        gates.append(("CONST", Fraction(-1), cm1))
        gates.append(("MAX", cm1, nw, m1))
        neg = gen.fresh()
        gates.append(("MUL", Fraction(-1), m1, neg))
        zero = gen.fresh()
        gates.append(("CONST", Fraction(0), zero))
        clamped = gen.fresh()
        gates.append(("MAX", neg, zero, clamped))
        outs.append(clamped)
    # scale: |values| <= c^(n+1) =: M, so divide constants and inputs
    # by M and multiply the outputs back
    c = Fraction(2)
    for g in gates:
        if g[0] in ("MUL", "CONST"):
            c = max(c, abs(rat(g[1])))
    M = c ** (len(gates) + 1)
    scaled = []
    in_map = {}
    for w in circuit.inputs:
        nw = gen.fresh()
        in_map[w] = nw
        scaled.append(("MUL", 1 / M, w, nw))

    def src(w):
        return in_map.get(w, w)

    for g in gates:
        if g[0] == "CONST":
            scaled.append(("CONST", rat(g[1]) / M, g[2]))
        elif g[0] == "MUL":
            scaled.append(("MUL", rat(g[1]), src(g[2]), g[3]))
        else:
            scaled.append((g[0], src(g[1]), src(g[2]), g[3]))
    final_outs = []
    for w in outs:
        nw = gen.fresh()
        scaled.append(("MUL", M, src(w), nw))
        final_outs.append(nw)
    # expand max over [-1,1] arguments:
    #   max{x, y} = (x/2 + max{y/2 - x/2, 0}) * 2
    #   max{z, 0} = (z +_T (-1)) +_T 1
    flat = []
    for g in scaled:
        if g[0] != "MAX":
            flat.append(g)
            continue
        _, a, b, out = g
        ha = gen.fresh()
        flat.append(("MUL", Fraction(1, 2), a, ha))
        hb = gen.fresh()
        flat.append(("MUL", Fraction(1, 2), b, hb))
        nha = gen.fresh()
        flat.append(("MUL", Fraction(-1, 2), a, nha))
        d = gen.fresh()
        flat.append(("ADD", hb, nha, d))
        cm = gen.fresh()
        flat.append(("CONST", Fraction(-1), cm))
        z1 = gen.fresh()
        flat.append(("ADD", d, cm, z1))
        cp = gen.fresh()
        flat.append(("CONST", Fraction(1), cp))
        z2 = gen.fresh()
        flat.append(("ADD", z1, cp, z2))
        s = gen.fresh()
        flat.append(("ADD", ha, z2, s))
        flat.append(("MUL", Fraction(2), s, out))
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
    def __init__(self, instance, layout, gates, circuit):
        self.instance = instance
        self.layout = layout
        self.gates = gates          # KDivGate list, topological
        self.circuit = circuit


def compile_fixp(circuit):
    """Full instance: the circuit's gates over fresh intervals, the two
    outputs copied into Out1/Out2 via negation pairs, projection agents
    Out -> Temp and negations Temp -> In closing the loop.  k = 3, one
    output interval per agent, cut budget 2n."""
    layout = KDivLayout()
    for _ in range(6):
        layout.alloc()
    gates = []      # placement order: circuit first, then projections
    wire_iv = {circuit.inputs[0]: KDivLayout.IN1,
               circuit.inputs[1]: KDivLayout.IN2}

    def neg(src_idx, dst_idx=None):
        if dst_idx is None:
            dst_idx = layout.alloc()
        gates.append(make_kdiv_gate("mul_T", layout, dst_idx, (src_idx,),
                                    zeta=Fraction(-1)))
        return dst_idx

    for g in circuit.gates:
        if g[0] == "ADD":
            _, a, b, out = g
            ia, ib = wire_iv[a], wire_iv[b]
            if ia == ib:            # duplicate the wire to keep the
                ib = neg(neg(ib))   # three intervals disjoint
            t = layout.alloc()
            gates.append(make_kdiv_gate("add_T", layout, t, (ia, ib)))
            wire_iv[out] = neg(t)
        elif g[0] == "MUL":
            _, z, a, out = g
            z = rat(z)
            if z <= 0:
                t = layout.alloc()
                gates.append(make_kdiv_gate("mul_T", layout, t,
                                            (wire_iv[a],), zeta=z))
                wire_iv[out] = t
            else:
                t = layout.alloc()
                gates.append(make_kdiv_gate("mul_T", layout, t,
                                            (wire_iv[a],), zeta=-z))
                wire_iv[out] = neg(t)
        else:
            _, z, out = g
            t = layout.alloc()
            gates.append(make_kdiv_gate("const_T", layout, t,
                                        (KDivLayout.OUT1,), zeta=g[1]))
            wire_iv[out] = t
    # route the two circuit outputs into Out1/Out2 (negation pairs keep
    # the value and avoid block overlap when an output is a constant or
    # an input wire)
    for w, dst in zip(circuit.outputs, (KDivLayout.OUT1, KDivLayout.OUT2)):
        neg(neg(wire_iv[w]), dst)
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
    return CompiledKDiv(inst, layout, gates, circuit)


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
    interval starting at left."""
    left = rat(left)
    inside = [t for t in sol.cuts if left < t < left + 9]
    well = (len(inside) == 2
            and left + WELL_CUT_1[0] <= inside[0] <= left + WELL_CUT_1[1]
            and left + WELL_CUT_2[0] <= inside[1] <= left + WELL_CUT_2[1])
    xv = Valuation([Block(a, b, 1) for a, b in x_set(left)],
                   require_mass_one=False)
    masses = label_masses(xv, sol.cuts, sol.labels, (A, B, C))
    valid = well and masses[C] == 2
    value = (masses[A] - masses[B]) / 2 if valid else None
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

    def label_mass(blocks, idx):
        """Per-label agent mass of blocks inside interval idx.  If the
        interval's cuts are not yet placed (constant gates read Out1
        before the circuit output lands there), the blocks must avoid
        the well-cut windows, where the labels are position-invariant;
        placeholder cuts then give the right answer."""
        o = lay.left(idx)
        if cuts_of[idx] is None:
            zones = [(o, o + WELL_CUT_1[0]),
                     (o + WELL_CUT_1[1], o + WELL_CUT_2[0]),
                     (o + WELL_CUT_2[1], o + 9)]
            for l, rr, h in blocks:
                if not any(za <= l and rr <= zb for za, zb in zones):
                    raise AssertionError("input interval %d read before "
                                         "placement" % idx)
            cuts = (o + 3, o + 6)
        else:
            cuts = cuts_of[idx]
        v = Valuation([Block(*b) for b in blocks], require_mass_one=False)
        return label_masses(v, cuts, patterns[idx], (A, B, C), o, o + 9)

    for g in compiled.gates:
        idx = g.out_idx
        if cuts_of[idx] is not None:
            continue            # In1/In2 writers: cuts already present
        third = Fraction(1, 3)
        acc = {A: Fraction(0), B: Fraction(0), C: Fraction(0)}
        blocks_by_iv = {}
        for l, r, h in g.in_blocks:
            iv = int(l // 10)
            blocks_by_iv.setdefault(iv, []).append((l, r, h))
        for iv, bl in blocks_by_iv.items():
            lm = label_mass(bl, iv)
            for lab in acc:
                acc[lab] += lm[lab]
        o = lay.left(idx)
        own = Valuation([Block(o + a, o + b, ANCH_H) for a, b in ANCHORS]
                        + [Block(*b) for b in g.out_blocks],
                        require_mass_one=False)
        p, q, r = patterns[idx]
        t1 = _invert_cdf(own, third - acc[p], o, o + 9)
        # r's share is the mass right of t2
        t2 = _invert_cdf(own, own.cdf(o + 9) - (third - acc[r]), o, o + 9)
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


def decode_fixed_point(compiled, sol):
    """Read the fixed point (v(In1), v(In2)) from an exact solution."""
    sol = _rename_for_out1(sol)
    lay = compiled.layout
    vals = []
    for idx in (KDivLayout.IN1, KDivLayout.IN2):
        st = encoding_status(sol, lay.left(idx))
        if not st.valid:
            raise KDivDecodeFailure("input interval %d is not a valid "
                                    "encoding" % idx)
        vals.append(st.value)
    return tuple(vals)
