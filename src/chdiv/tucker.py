"""Compiler from antipodally anti-symmetric grid labelings on [8]^N to
two-block-uniform consensus-halving instances, plus a forward evaluator
and a decoder that maps verified solutions back to a complementary cell
pair of the labeling.

Domain layout (lengths in units, left to right):
  [0, N]                  coordinate encoding, one unit cell per axis
  [N, N + p]              constant cells, one per simulator
  [N + p, N + p + p*q]    p simulator regions of q units each
  [.., .. + N*p]          feedback cells F_i(j)

Every gate agent has at most two uniform blocks of equal height and
forces exactly one cut into a private interval, so only N cuts are free.
"""

import itertools
import math
import operator
from fractions import Fraction
from bisect import bisect_right

from .circuit import Circuit
from .core import (Instance, Valuation, Block, Solution, PLUS, MINUS,
                   balance, encoded_value, rat, truncate)


# ---------------------------------------------------------------------------
# boolean circuits over {-1, +1} bits


class BoolCircuit(Circuit):
    """Straight-line circuit of NOT/AND/OR gates on {-1,+1} bits with
    integer wire ids."""

    OPS = {"NOT": (0, 1), "AND": (0, 2), "OR": (0, 2)}
    IN, OUT, WIRE = "INPUT", "OUTPUT", int

    def evaluate(self, bits):
        """bits: sequence of +1/-1 for the inputs.  Returns the output
        bit list.  (-1 plays the role of 0.)"""
        return self.run(bits, {"NOT": operator.neg, "AND": min, "OR": max})


class CircuitBuilder:
    """Helper for assembling BoolCircuits gate by gate."""

    def __init__(self):
        self.gates = []
        self._next = 0

    def wire(self):
        self._next += 1
        return self._next - 1

    def reserve(self, n):
        ws = list(range(self._next, self._next + n))
        self._next += n
        return ws

    def NOT(self, a):
        w = self.wire()
        self.gates.append(("NOT", (a,), w))
        return w

    def AND(self, a, b):
        w = self.wire()
        self.gates.append(("AND", (a, b), w))
        return w

    def OR(self, a, b):
        w = self.wire()
        self.gates.append(("OR", (a, b), w))
        return w

    def XOR(self, a, b):
        return self.AND(self.OR(a, b), self.NOT(self.AND(a, b)))

    def XNOR(self, a, b):
        return self.NOT(self.XOR(a, b))


def point_bits(r):
    """Three {-1,+1} bits (most significant first) of a grid coordinate
    r in 1..8; cell index r-1 in binary with -1 for 0."""
    c = r - 1
    return (+1 if c >= 4 else -1,
            +1 if (c % 4) >= 2 else -1,
            +1 if c % 2 else -1)


def bits_to_coord(bits):
    c = sum((1 << (2 - i)) for i, b in enumerate(bits) if b > 0)
    return c + 1


class TuckerLabeling:
    """A labeling of [8]^N (or [7]^N) by {+-1..+-N}, computed by a
    BoolCircuit taking 3 bits per coordinate and emitting the 2N-bit
    y^a/y^b encoding: label +i has y_i^a = y_i^b = +1 and y_l^a = +1,
    y_l^b = -1 for l != i; label -i is the global negation."""

    def __init__(self, N, circuit, side=8):
        self.N = N
        self.side = side
        self.circuit = circuit
        if len(circuit.inputs) != 3 * N:
            raise ValueError("circuit needs 3 bits per coordinate")
        if len(circuit.outputs) != 2 * N:
            raise ValueError("circuit needs 2N output bits")

    def evaluate(self, point):
        if len(point) != self.N:
            raise ValueError("point has wrong dimension")
        for r in point:
            if not 1 <= r <= self.side:
                raise ValueError("coordinate %r outside [%d]" % (r, self.side))
        bits = []
        for r in point:
            bits.extend(point_bits(r))
        return decode_label(self.circuit.evaluate(bits))

    def check_antisymmetric(self):
        """Check lambda(9-x) = -lambda(x) on every boundary point;
        returns the first point that breaks it, or None."""
        for x in _boundary_points(self.N, self.side):
            xbar = tuple(self.side + 1 - r for r in x)
            if self.evaluate(xbar) != -self.evaluate(x):
                return x
        return None


def decode_label(ybits):
    """y^a/y^b encoding -> signed label; raises on invalid encodings."""
    N = len(ybits) // 2
    ya = ybits[0::2]
    yb = ybits[1::2]
    s = ya[0]
    if any(v != s for v in ya):
        raise ValueError("invalid label encoding: mixed y^a bits")
    hits = [i for i in range(N) if yb[i] == s]
    if len(hits) != 1:
        raise ValueError("invalid label encoding: %d matching y^b bits" % len(hits))
    return s * (hits[0] + 1)


def _boundary_points(N, side):
    for x in itertools.product(range(1, side + 1), repeat=N):
        if any(r == 1 or r == side for r in x):
            yield x


def snake_embed(lab7):
    """Duplicate the central grid hyperplanes: turns a labeling on [7]^N
    into one on [8]^N via r -> r-1 if r >= 5 else r, preserving
    antipodal anti-symmetry and mapping solutions back by the same
    operator."""
    if lab7.side != 7:
        raise ValueError("expected a labeling on [7]^N")
    N = lab7.N
    b = CircuitBuilder()
    ins = b.reserve(3 * N)
    mapped = []
    for i in range(N):
        c2, c1, c0 = ins[3 * i], ins[3 * i + 1], ins[3 * i + 2]
        # chat = c - 1 if c >= 4 else c, on 3-bit cell indices
        d2 = b.AND(c2, b.OR(c1, c0))
        d1 = b.OR(b.AND(b.NOT(c2), c1), b.AND(c2, b.XNOR(c1, c0)))
        d0 = b.XOR(c2, c0)
        mapped.extend([d2, d1, d0])
    # splice in the inner circuit with shifted wire ids
    shift = b._next
    inner = lab7.circuit
    remap = {w: mapped[k] for k, w in enumerate(inner.inputs)}
    gates = list(b.gates)
    for op, args, out in inner.gates:
        new_out = out + shift
        gates.append((op, tuple(remap.get(a, a + shift) for a in args), new_out))
    outputs = [remap.get(w, w + shift) for w in inner.outputs]
    circ = BoolCircuit(ins, gates, outputs)
    return TuckerLabeling(N, circ, side=8)


def snake_preimage(point8):
    """Map a solution point of the embedded labeling back to [7]^N."""
    return tuple(r - 1 if r >= 5 else r for r in point8)


def demo_labeling(N):
    """lambda(x) = +1 if x_1 <= 4 else -1; antipodally anti-symmetric."""
    b = CircuitBuilder()
    ins = b.reserve(3 * N)
    t = b.NOT(ins[0])          # +1 iff x_1 in the lower half
    nt = b.NOT(t)
    outs = [t, t]              # y_1^a, y_1^b
    for _ in range(N - 1):
        outs += [t, nt]        # y_l^a = sign, y_l^b = opposite
    return TuckerLabeling(N, BoolCircuit(ins, b.gates, outs))


# ---------------------------------------------------------------------------
# reduction parameters


class ReductionParams:
    """The constants of the reduction for dimension N.  eps defaults to
    the largest allowed value, 1/(2^14 N^2)."""

    def __init__(self, N, eps=None):
        largest = Fraction(1, (2 ** 14) * N * N)
        eps = largest if eps is None else rat(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > largest:
            raise ValueError("eps must be <= 1/(2^14 N^2)")
        self.N = N
        self.p = 4 * N * N
        self.alpha = Fraction(1, 16 * self.p)
        self.eps = eps
        self.g = 16 * eps
        self.kmul = math.ceil(1 / self.g)
        assert 16 * self.g <= self.alpha
        assert self.p * self.alpha <= Fraction(1, 16)


B_POINTS = [Fraction(k, 4) for k in (-3, -2, -1, 0, 1, 2, 3)]


def dist_to_B(z):
    return min(abs(z - b) for b in B_POINTS)


def cell_of(z):
    """Standard length-1/4 cell of [-1,1] containing z, as 1..8."""
    z = rat(z)
    c = math.floor((z + 1) * 4)
    return max(1, min(8, c + 1))


# ---------------------------------------------------------------------------
# gate assembly


class Assembler:
    """Emits gate agents into unit slots along the domain.  Wires are
    unit intervals identified by their (integer) left endpoint.  Every
    emitted agent records one forced-cut interval and a placement rule
    used by forward_place."""

    def __init__(self, eps, origin=0):
        self.eps = rat(eps)
        self.cursor = origin
        self.blocks = []      # one list of (left, right, height) per agent
        self.roles = []
        self.gates = []       # ("vol", in_left, out_left, delta) |
                              # ("add", w1, w2, j_left)
        self.forced = []      # (left, width)
        self._hcache = {}

    def _height(self, delta):
        h = self._hcache.get(delta)
        if h is None:
            h = 1 / (2 - delta)
            self._hcache[delta] = h
        return h

    def alloc(self, width=1):
        left = self.cursor
        self.cursor += width
        return left

    def volume(self, delta, in_left, out_left=None, role="vol"):
        """One agent: a centered block of length 1-delta in the input
        wire and a full block in the output wire, equal heights.  Forces
        a cut in the output wire; v(out) = -v(in) clamped to 1-delta."""
        if not (2 * self.eps <= delta <= 1):
            raise ValueError("delta outside [2 eps, 1]")
        if out_left is None:
            out_left = self.alloc()
            self.alloc()                   # one-unit inter-gate gap
        h = self._height(delta)
        half = delta / 2
        self.blocks.append([(in_left + half, in_left + 1 - half, h),
                            (out_left, out_left + 1, h)])
        self.roles.append(role)
        self.gates.append(("vol", in_left, out_left, delta))
        self.forced.append((out_left, 1))
        return out_left

    def neg(self, in_left, out_left=None, role="neg"):
        return self.volume(2 * self.eps, in_left, out_left, role=role)

    def const(self, zeta, in_left, role="const"):
        """Constant zeta from a reference wire carrying +-1."""
        zeta = rat(zeta)
        if not -1 <= zeta <= 1:
            raise ValueError("constant outside [-1, 1]")
        if zeta <= 0:
            delta = max(1 + zeta, 2 * self.eps)
            return self.volume(delta, in_left, role=role)
        t = self.const(-zeta, in_left, role=role)
        return self.neg(t, role=role)

    def add(self, in1, in2, role="add"):
        """v(out) = truncation of v(in1) + v(in2); two negated copies
        read together plus a length-3 balancing interval."""
        ip = self.alloc(2)
        self.neg(in1, out_left=ip, role=role)
        self.neg(in2, out_left=ip + 1, role=role)
        j = self.alloc(3)
        self.alloc()                       # one-unit inter-gate gap
        fifth = Fraction(1, 5)
        self.blocks.append([(ip, ip + 2, fifth), (j, j + 3, fifth)])
        self.roles.append(role)
        self.gates.append(("add", ip, ip + 1, j))
        self.forced.append((j, 3))
        return j + 1

    def copy(self, in_left, out_left=None, role="copy"):
        t = self.neg(in_left, role=role)
        return self.neg(t, out_left=out_left, role=role)

    def mul_int(self, in_left, k, role="mul"):
        """v(out) = truncate(k * v(in)) by double-and-add: one
        add(acc, acc) per binary digit of k after the leading one, plus
        an add(acc, in) for each 1-digit, so at most 2 log2(k) add gates.
        In exact semantics every partial product m*v has the sign of v
        and saturation at +-1 is absorbing, so
        truncate(2 truncate(m v)) = truncate(2m v) and
        truncate(truncate(m v) + v) = truncate((m + 1) v): the result is
        the same truncate(k v) as a chain of k - 1 additions.

        Error.  Let every add gate be within 16 eps of the truncated sum
        of its actual inputs, and let v be within e0 of its ideal value.
        truncate(a + b) is 1-Lipschitz in a and in b, so the chain
        acc <- add(acc, v) gives k (e0 + 16 eps), while doubling gives
        e(2m) <= 2 e(m) + 16 eps and e(2m + 1) <= e(2m) + e0 + 16 eps,
        i.e. 2^j e0 + (2^j - 1) 16 eps for k = 2^j and, in general,
        k e0 + (k - 1) 16 eps: the same order as the chain.  Saturation
        resets the error: by the same recurrence |acc| >=
        m |v| - (m - 1) 16 eps with the sign of v until an add sees a
        sum of magnitude >= 1, after which each add sees such a sum
        again (provided |v| >= 16 eps).  So k (|v| - 16 eps) >= 1 implies
        |out - truncate(k v)| <= 16 eps.

        The decode argument only uses mul_int(., kmul) as bit extraction
        in simulators whose displaced coordinates are at least 8 g =
        128 eps from B, where |v| >= 8 g - e0 for the small e0 of the
        gates before it.
        The chain obeys the same lower bound and saturation condition,
        so wherever its extracted bits are within 16 eps of +-1, so are
        these, and the argument is unchanged."""
        if k < 1:
            raise ValueError("k must be >= 1")
        acc = in_left
        for digit in bin(k)[3:]:
            acc = self.add(acc, acc, role=role)
            if digit == "1":
                acc = self.add(acc, in_left, role=role)
        return acc

    def not_(self, b, role="not"):
        return self.mul_int(self.neg(b, role=role), 2, role=role)

    def and_(self, b1, b2, const_in, role="and"):
        s = self.add(b1, b2, role=role)
        mh = self.const(Fraction(-1, 2), const_in, role=role)
        s2 = self.add(s, mh, role=role)
        return self.mul_int(s2, 4, role=role)

    def or_(self, b1, b2, const_in, role="or"):
        return self.not_(self.and_(self.not_(b1, role=role),
                                   self.not_(b2, role=role),
                                   const_in, role=role), role=role)

    def emit_circuit(self, circuit, input_wires, const_in, role="circuit"):
        """Boolean circuit over the +-1 convention, one gate group per
        operation."""
        return circuit.run(input_wires, {
            "NOT": lambda b: self.not_(b, role=role),
            "AND": lambda b1, b2: self.and_(b1, b2, const_in, role=role),
            "OR": lambda b1, b2: self.or_(b1, b2, const_in, role=role)})


# ---------------------------------------------------------------------------
# full compilation


class Layout:
    def __init__(self, N, p, q, fstart, domain_right):
        self.N = N
        self.p = p
        self.q = q
        self.feedback_start = fstart
        self.domain_right = domain_right

    def simulator_of(self, pos):
        """Simulator index 1..p whose region contains pos, else None."""
        base = self.N + self.p
        if pos < base or pos >= base + self.p * self.q:
            return None
        return int((pos - base) // self.q) + 1

    def to_json_obj(self):
        return {"N": self.N, "p": self.p, "q": self.q,
                "feedback_start": self.feedback_start,
                "domain_right": self.domain_right}


class CompiledCH:
    def __init__(self, instance, layout, params, labeling, gates, forced,
                 roles):
        self.instance = instance
        self.layout = layout
        self.params = params
        self.labeling = labeling
        self.gates = gates
        self.forced = forced          # (left, width) per gate agent
        self.roles = roles


def compile_tucker(lab, eps=None):
    """Build the full instance: p = 4N^2 simulators, each reading the
    coordinates and its own constant cell, extracting 3 bits per
    coordinate, simulating the labeling circuit, and writing the per-
    axis +-1 census values into the feedback cells; one uniform
    feedback agent per axis.  eps defaults to the largest allowed
    value (see ReductionParams).  A labeling that is not antipodally
    anti-symmetric on the boundary is a ValueError naming a violating
    point: the decode guarantee rests on that symmetry."""
    N = lab.N
    if lab.side != 8:
        raise ValueError("labeling must live on [8]^N (snake_embed first)")
    bad = lab.check_antisymmetric()
    if bad is not None:
        raise ValueError("labeling is not antipodally anti-symmetric: "
                         "lambda(%s) != -lambda(%s)"
                         % (bad, tuple(9 - r for r in bad)))
    params = ReductionParams(N, eps)
    p, alpha, kmul = params.p, params.alpha, params.kmul
    asm = Assembler(params.eps, origin=N + p)
    coord = list(range(N))            # coordinate wires
    const_cells = [N + j for j in range(p)]
    pending = []                      # (i, j, wire) awaiting feedback copy
    q = None
    for j in range(1, p + 1):
        start = asm.cursor
        cj = const_cells[j - 1]
        bits = []
        for i in range(N):
            ja = asm.const(j * alpha, cj)
            xh = asm.add(coord[i], ja)
            b1 = asm.mul_int(xh, kmul)
            mh = asm.const(Fraction(-1, 2), b1)    # reference input b1
            xp = asm.add(xh, mh)
            b2 = asm.mul_int(xp, kmul)
            mq = asm.const(Fraction(-1, 4), b2)    # reference input b2
            xpp = asm.add(xp, mq)
            b3 = asm.mul_int(xpp, kmul)
            bits.extend([b1, b2, b3])
        ys = asm.emit_circuit(lab.circuit, bits, cj)
        for i in range(N):
            t = asm.add(ys[2 * i], ys[2 * i + 1])
            half = asm.neg(t)                      # first leg of the copy
            pending.append((i + 1, j, half))
        used = asm.cursor - start
        if q is None:
            q = used
        elif used != q:
            raise AssertionError("unequal simulator footprints")
    fstart = asm.cursor
    assert fstart == N + p + p * q
    for i, j, half in sorted(pending):
        dest = fstart + (i - 1) * p + (j - 1)
        asm.neg(half, out_left=dest)               # second leg of the copy
    domain_right = fstart + N * p
    agents = [Valuation([Block(l, r, h) for l, r, h in bl])
              for bl in asm.blocks]
    roles = list(asm.roles)
    hp = Fraction(1, p)
    for i in range(N):
        left = fstart + i * p
        agents.append(Valuation([Block(left, left + p, hp)]))
        roles.append("feedback")
    inst = Instance(agents, k=2, domain_right=domain_right)
    layout = Layout(N, p, q, fstart, domain_right)
    return CompiledCH(inst, layout, params, lab, asm.gates, asm.forced,
                      roles)


# ---------------------------------------------------------------------------
# reference phase semantics


class PhaseResult:
    def __init__(self, point, failed, outputs):
        self.point = point        # displaced point, truncated
        self.failed = failed      # bit extraction unreliable
        self.outputs = outputs    # per-axis values in {-1, 0, +1}


def simulate_phases(lab, x, j, const_sign, params):
    """Error-free semantics of one simulator: displace by j*alpha, read
    the cell bits, evaluate the labeling, emit the per-axis census.
    For const_sign = -1 the whole computation is the negation of the
    run on -x (gate equivariance)."""
    if const_sign not in (1, -1):
        raise ValueError("const_sign must be +-1")
    xx = [rat(v) if const_sign > 0 else -rat(v) for v in x]
    z = [truncate(v + j * params.alpha) for v in xx]
    failed = any(dist_to_B(zi) < 8 * params.g for zi in z)
    if failed:
        return PhaseResult(z, True, [Fraction(0)] * lab.N)
    point = tuple(cell_of(zi) for zi in z)
    label = lab.evaluate(point)
    outs = []
    for i in range(1, lab.N + 1):
        v = Fraction(0)
        if label == i:
            v = Fraction(1)
        elif label == -i:
            v = Fraction(-1)
        outs.append(const_sign * v)
    return PhaseResult(z, False, outs)


# ---------------------------------------------------------------------------
# forward placement


def _wire_value(lab0, cut, left):
    if cut is None:
        return Fraction(lab0)
    return lab0 * (2 * (cut - left) - 1)


def _signed_over(lab0, cut, ia, ib):
    """Signed length of [ia, ib] inside a wire with incoming label sign
    lab0 and an optional cut."""
    if cut is None:
        return lab0 * (ib - ia)
    t = min(max(cut, ia), ib)
    return lab0 * ((t - ia) - (ib - t))


def forward_place(compiled, x, const_sign=1):
    """Deterministic witness: encode x in the coordinate cells, then
    give every gate agent the unique cut in its forced interval that
    balances it exactly.  Labels alternate starting with "+".
    Requires |x_i| <= 1.  Each coordinate cell holds exactly one cut; at
    x_i = +-1 that cut sits on an edge of the cell, so the whole cell
    carries one label and reads +-1, and the gate agents are still
    exactly balanced."""
    if const_sign == -1:
        sol = forward_place(compiled, [-rat(v) for v in x], 1)
        return sol.swap_labels()
    N = compiled.layout.N
    if len(x) != N:
        raise ValueError("point has wrong dimension")
    x = [rat(v) for v in x]
    if any(abs(v) > 1 for v in x):
        raise ValueError("coordinates must lie in [-1, 1]")
    rights = sorted(l + w for l, w in compiled.forced)
    # the N coordinate cuts sit left of everything else; start with the
    # label parity that makes the constant cells read +1
    start = 1 if N % 2 == 0 else -1

    def parity_sign(pos):
        k = N + bisect_right(rights, pos)
        return start if k % 2 == 0 else -start

    wires = {}
    cuts = []     # (slot_key, position)
    for i in range(N):
        lab0 = start * (1 if i % 2 == 0 else -1)
        t = i + (1 + x[i] * lab0) / 2
        wires[i] = (lab0, t)
        cuts.append((i, t))
    for j in range(compiled.layout.p):
        wires[N + j] = (1, None)
    for g in compiled.gates:
        if g[0] == "vol":
            _, in_left, out_left, delta = g
            lab0, cut = wires[in_left]
            half = delta / 2
            s_in = _signed_over(lab0, cut, in_left + half,
                                in_left + 1 - half)
            L = parity_sign(out_left)
            t = out_left + (1 - s_in * L) / 2
            assert out_left < t < out_left + 1
            wires[out_left] = (L, t)
            cuts.append((out_left, t))
        else:
            _, w1, w2, j_left = g
            v1 = _wire_value(*wires[w1], w1)
            v2 = _wire_value(*wires[w2], w2)
            target = -(v1 + v2)
            L = parity_sign(j_left)
            t = j_left + (3 + L * target) / 2
            assert j_left < t < j_left + 3
            cuts.append((j_left, t))
            o = j_left + 1
            if t <= o:
                wires[o] = (-L, None)
            elif t >= o + 1:
                wires[o] = (L, None)
            else:
                wires[o] = (L, t)
    cuts.sort(key=lambda kv: kv[0])
    positions = [t for _, t in cuts]
    first = PLUS if start == 1 else MINUS
    labels = [first if s % 2 == 0 else (MINUS if first == PLUS else PLUS)
              for s in range(len(positions) + 1)]
    return Solution(positions, labels)


# ---------------------------------------------------------------------------
# exact balance audits: core.balance places each block among the cuts by
# two bisections into the solution's integer cut keys (sol.frame) and
# sums the cuts inside it in ints, so no Fraction is compared; a gate
# that balances exactly skips the worst-balance comparison


def balance_report(compiled, sol):
    """(gate balances all-zero?, worst gate balance, feedback balances).
    Feedback balance i is the raw census sum over F_i, i.e. p times the
    feedback agent's measure-weighted balance."""
    dr = compiled.instance.domain_right
    worst = Fraction(0)
    for v in compiled.instance.agents[:len(compiled.gates)]:
        bal = balance(v, sol, dr)
        if bal and abs(bal) > abs(worst):
            worst = bal
    return worst == 0, worst, _feedback_census(compiled, sol)


def _feedback_census(compiled, sol):
    p, dr = compiled.layout.p, compiled.instance.domain_right
    return [balance(v, sol, dr) * p     # undo the 1/p height
            for v in compiled.instance.agents[len(compiled.gates):]]


class NoSolutionFound(Exception):
    """find_solution scanned every candidate without meeting the bound."""

    def __init__(self, scanned, best_point, best_census):
        self.scanned = scanned
        self.best_point = best_point
        self.best_census = best_census
        super().__init__(
            "no candidate balances the feedback agents: %d points scanned, "
            "smallest census %s at %s"
            % (scanned, [str(c) for c in best_census],
               [str(v) for v in best_point]))


def find_solution(compiled, start, radius):
    """Scan the lattice points start + g d (g = 16 eps, d integral,
    ||d||_inf <= radius, every |x_i| <= 1) in rings of increasing
    ||d||_inf, lexicographically within a ring, and return (x, sol) for
    the first x whose forward placement also balances the feedback
    agents: every exact census |sum over F_i| <= p eps.  Gate agents are
    exactly balanced by forward_place, so sol is an eps-solution of the
    compiled instance.  Raises NoSolutionFound, naming the number of
    points scanned and the smallest census seen, when no point
    qualifies; a non-solution is never returned.

    Terminates: the candidate set has at most (2 radius + 1)^N points
    and each costs one forward_place plus N census sums.  Completeness
    is not claimed for general labelings: only forward placements at
    lattice points are tried, and a labeling whose solutions all lie
    elsewhere makes the scan raise."""
    N = compiled.layout.N
    start = [rat(v) for v in start]
    if len(start) != N:
        raise ValueError("start has wrong dimension")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    g = compiled.params.g
    bound = compiled.layout.p * compiled.params.eps
    scanned, best = 0, None
    for r in range(radius + 1):
        for d in itertools.product(range(-r, r + 1), repeat=N):
            if max(map(abs, d)) != r:
                continue
            x = [v + g * di for v, di in zip(start, d)]
            if any(abs(v) > 1 for v in x):
                continue
            sol = forward_place(compiled, x)
            census = _feedback_census(compiled, sol)
            scanned += 1
            worst = max(map(abs, census))
            if worst <= bound:
                return tuple(x), sol
            if best is None or worst < best[0]:
                best = (worst, x, census)
    if best is None:
        raise NoSolutionFound(0, start, [])
    raise NoSolutionFound(scanned, best[1], best[2])


def audit_two_block_uniform(inst):
    """Every agent has at most two blocks, all of one height."""
    for v in inst.agents:
        if len(v.blocks) > 2:
            return False
        if len({b.height for b in v.blocks}) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# decoding


class DecodeFailure(Exception):
    pass


def decode_solution(compiled, sol):
    """Map a verified solution back to two cells u, w of [8]^N with
    lambda(u) = -lambda(w) and ||u - w||_inf <= 1.

    Reads x from the coordinate cells, classifies stray cuts (a
    simulator is corrupted if a forced interval of its gets two cuts or
    its constant cell is intersected), then scans the displaced points
    T[const_j * x + j alpha] of the surviving simulators, reflecting
    the candidates of negative-constant simulators through the
    antipodal map."""
    lay = compiled.layout
    N, p, alpha = lay.N, lay.p, compiled.params.alpha
    x = [encoded_value(sol, i) for i in range(N)]
    # one exact merged pass over the sorted cuts and the sorted forced
    # intervals (disjoint: each gate's is freshly allocated) counts the
    # cuts strictly inside each interval and collects the other cuts
    intervals = sorted(compiled.forced)
    inside = [0] * len(intervals)
    free = []
    k = 0
    for t in sol.cuts:
        while k < len(intervals) and sum(intervals[k]) <= t:
            k += 1
        if k < len(intervals) and intervals[k][0] < t:
            inside[k] += 1
        else:
            free.append(t)
    corrupted = set()
    for (left, _), c in zip(intervals, inside):
        if c >= 2:
            j = lay.simulator_of(left)
            if j is None:
                j = _feedback_simulator(lay, left)
            if j is not None:
                corrupted.add(j)
    const_sign = {}
    for j in range(1, p + 1):
        v = encoded_value(sol, N + j - 1)
        if v == 1:
            const_sign[j] = 1
        elif v == -1:
            const_sign[j] = -1
        else:
            corrupted.add(j)
    # free cuts inside a simulator region corrupt it as well
    for t in free:
        j = lay.simulator_of(t) if t > N else None
        if j is not None:
            corrupted.add(j)
    g8 = 8 * compiled.params.g
    candidates = []    # (cell point, label)
    for j in range(1, p + 1):
        if j in corrupted or j not in const_sign:
            continue
        s = const_sign[j]
        z = [truncate(s * xi + j * alpha) for xi in x]
        if any(dist_to_B(zi) < g8 for zi in z):
            continue
        point = tuple(cell_of(zi) for zi in z)
        if s == -1:
            point = tuple(9 - r for r in point)    # antipodal reflection
        candidates.append((point, compiled.labeling.evaluate(point)))
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            u, lu = candidates[a]
            w, lw = candidates[b]
            if lu == -lw and max(abs(ui - wi) for ui, wi in zip(u, w)) <= 1:
                return u, w
    raise DecodeFailure(
        "no complementary cell pair among %d candidates "
        "(feedback mechanism violated?)" % len(candidates))


def _feedback_simulator(lay, left):
    if left < lay.feedback_start or left >= lay.domain_right:
        return None
    return int((left - lay.feedback_start) % lay.p) + 1
