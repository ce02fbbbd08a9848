"""Compiler from antipodally anti-symmetric grid labelings on [8]^N to
two-block-uniform consensus-halving instances, plus a forward evaluator
and a decoder that maps verified solutions back to a complementary cell
pair of the labeling.

Domain layout (lengths in units, left to right):
  [0, N]                  coordinate encoding, one unit cell per axis
  [N, N + p]              constant cells, one per simulator
  [N + p, N + p + p*q]    p simulator regions of q units each
  [.., .. + N*p]          feedback cells F_i(j)

Every gate agent is two uniform blocks of equal height, an input block
and an output block (Assembler.gates), and forces exactly one cut into
its private output block, so only N cuts are free.  forward_place sets
each such cut by one rule: t = (l + r - L s) / 2 for the output block
[l, r], the label L at l and the signed length s of the input block.
"""

import itertools
import math
import operator
from fractions import Fraction

from .circuit import Circuit, GateBuilder
from .core import (Instance, Valuation, Block, Solution, PLUS, MINUS,
                   alternating_labels, balance, encoded_value, rat, truncate)


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


def point_bits(r):
    """Three {-1,+1} bits (most significant first) of a grid coordinate
    r in 1..8; cell index r-1 in binary with -1 for 0."""
    c = r - 1
    return (+1 if c >= 4 else -1,
            +1 if (c % 4) >= 2 else -1,
            +1 if c % 2 else -1)


class TuckerLabeling:
    """A labeling of [8]^N by {+-1..+-N}, computed by a BoolCircuit
    taking 3 bits per coordinate and emitting the 2N-bit y^a/y^b
    encoding: label +i has y_i^a = y_i^b = +1 and y_l^a = +1, y_l^b = -1
    for l != i; label -i is the global negation."""

    def __init__(self, N, circuit):
        self.N = N
        self.circuit = circuit
        if len(circuit.inputs) != 3 * N:
            raise ValueError("circuit needs 3 bits per coordinate")
        if len(circuit.outputs) != 2 * N:
            raise ValueError("circuit needs 2N output bits")

    def evaluate(self, point):
        if len(point) != self.N:
            raise ValueError("point has wrong dimension")
        for r in point:
            if not 1 <= r <= 8:
                raise ValueError("coordinate %r outside [8]" % (r,))
        bits = []
        for r in point:
            bits.extend(point_bits(r))
        return decode_label(self.circuit.evaluate(bits))

    def check_antisymmetric(self):
        """Check lambda(9-x) = -lambda(x) on every boundary point;
        returns the first point that breaks it, or None."""
        for x in _boundary_points(self.N):
            xbar = tuple(9 - r for r in x)
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


def _boundary_points(N):
    for x in itertools.product(range(1, 9), repeat=N):
        if any(r == 1 or r == 8 for r in x):
            yield x


def demo_labeling(N):
    """lambda(x) = +1 if x_1 <= 4 else -1; antipodally anti-symmetric."""
    b = GateBuilder(itertools.count().__next__)
    ins = [b.new_wire() for _ in range(3 * N)]
    t = b.gate("NOT", ins[0])  # +1 iff x_1 in the lower half
    nt = b.gate("NOT", t)
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
    """Emits gate agents into unit slots along the domain, left to
    right: each output block lies right of the previous agent's and of
    its own input block.  Wires are unit intervals identified by their
    (integer) left endpoint.  A gate agent is its record [input block,
    output block] of (left, right, height) triples, two uniform blocks
    of one height: the output block is the interval that holds the
    agent's one forced cut, and forward_place sets that cut from the
    input block alone."""

    def __init__(self, eps, origin=0):
        self.eps = rat(eps)
        self.cursor = origin
        self.gates = []       # [input block, output block] per agent
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

    def volume(self, delta, in_left, out_left=None):
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
        self.gates.append([(in_left + half, in_left + 1 - half, h),
                           (out_left, out_left + 1, h)])
        return out_left

    def neg(self, in_left, out_left=None):
        return self.volume(2 * self.eps, in_left, out_left)

    def const(self, zeta, in_left):
        """Constant zeta from a reference wire carrying +-1."""
        zeta = rat(zeta)
        if not -1 <= zeta <= 1:
            raise ValueError("constant outside [-1, 1]")
        if zeta <= 0:
            delta = max(1 + zeta, 2 * self.eps)
            return self.volume(delta, in_left)
        t = self.const(-zeta, in_left)
        return self.neg(t)

    def add(self, in1, in2):
        """v(out) = truncation of v(in1) + v(in2); two negated copies
        read together plus a length-3 balancing interval."""
        ip = self.alloc(2)
        self.neg(in1, out_left=ip)
        self.neg(in2, out_left=ip + 1)
        j = self.alloc(3)
        self.alloc()                       # one-unit inter-gate gap
        fifth = Fraction(1, 5)
        self.gates.append([(ip, ip + 2, fifth), (j, j + 3, fifth)])
        return j + 1

    def mul_int(self, in_left, k):
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
            acc = self.add(acc, acc)
            if digit == "1":
                acc = self.add(acc, in_left)
        return acc

    def not_(self, b):
        return self.mul_int(self.neg(b), 2)

    def and_(self, b1, b2, const_in):
        return self._threshold(b1, b2, Fraction(-1, 2), const_in)

    def or_(self, b1, b2, const_in):
        return self._threshold(b1, b2, Fraction(1, 2), const_in)

    def _threshold(self, b1, b2, zeta, const_in):
        """mul_int(truncate(b1 + b2) + zeta, 4): AND for zeta = -1/2, in
        13 agents, and OR for zeta = 1/2, in 14 (const(1/2) negates
        const(-1/2)).  On bits truncate(b1 + b2) is -1, 0 or 1, so the
        second sum is -1, -1/2 or 1/2 for AND and -1/2, 1/2 or 1 for OR,
        and multiplying by 4 saturates each to the right +-1.  Inputs
        within 16 eps of +-1 move both sums by O(eps), so mul_int reads
        |v| >= 1/2 - O(eps) > 1/4 and its output is within 16 eps of +-1.
        Every gate is odd in its inputs and the constant cell together,
        so a simulator whose constant cell reads -1 computes the negation."""
        s = self.add(b1, b2)
        s2 = self.add(s, self.const(zeta, const_in))
        return self.mul_int(s2, 4)

    def emit_circuit(self, circuit, input_wires, const_in):
        """Boolean circuit over the +-1 convention, one gate group per
        operation."""
        return circuit.run(input_wires, {
            "NOT": self.not_,
            "AND": lambda b1, b2: self.and_(b1, b2, const_in),
            "OR": lambda b1, b2: self.or_(b1, b2, const_in)})


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
        """Simulator index 1..p whose region or feedback cell F_i(j)
        contains pos, else None."""
        base = self.N + self.p
        if pos < base or pos >= self.domain_right:
            return None
        if pos < self.feedback_start:
            return int((pos - base) // self.q) + 1
        return int((pos - self.feedback_start) % self.p) + 1


class CompiledCH:
    def __init__(self, instance, layout, params, labeling, gates):
        self.instance = instance
        self.layout = layout
        self.params = params
        self.labeling = labeling
        self.gates = gates    # Assembler.gates, one per leading agent


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
            # the bits are mul_int(., kmul) of x_i + j alpha, then of
            # that - 1/2, then - 1/4 more; each constant reads the
            # previous bit's wire, the first the constant cell
            x, ref = coord[i], cj
            for zeta in (j * alpha, Fraction(-1, 2), Fraction(-1, 4)):
                x = asm.add(x, asm.const(zeta, ref))
                ref = asm.mul_int(x, kmul)
                bits.append(ref)
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
    agents = [Valuation([Block(l, r, h) for l, r, h in gate])
              for gate in asm.gates]
    hp = Fraction(1, p)
    for i in range(N):
        left = fstart + i * p
        agents.append(Valuation([Block(left, left + p, hp)]))
    inst = Instance(agents, k=2, domain_right=domain_right)
    layout = Layout(N, p, q, fstart, domain_right)
    return CompiledCH(inst, layout, params, lab, asm.gates)


# ---------------------------------------------------------------------------
# forward placement


def forward_place(compiled, x):
    """Deterministic witness: encode x in the coordinate cells, then
    give every gate agent the unique cut in its output block [l, r] that
    balances it exactly.  With s the signed length of the input block
    under the cuts placed so far and L = +-1 the label at l, that cut is
    t = (l + r - L s) / 2, where the output block's signed length
    L ((t - l) - (r - t)) is -s; the equal heights make the agent
    balanced.  Labels alternate along the domain, so L is fixed by the
    number of cuts left of l.
    Requires |x_i| <= 1.  Each coordinate cell holds exactly one cut; at
    x_i = +-1 that cut sits on an edge of the cell, so the whole cell
    carries one label and reads +-1, and the gate agents are still
    exactly balanced.  Every constant cell reads +1; the placement of
    -x with its labels swapped is the mirrored witness, in which every
    constant cell reads -1 and x is still encoded.

    The placement runs on ints in units of 1/T, with T twice the lcm of
    the denominators of every gate-record endpoint and of the x_i, and
    builds one Fraction per cut at the end.  This is exact:
    - every record endpoint and every unit boundary is an even int in
      these units, because T is twice a multiple of its denominator;
    - so each term lab0 (2c - lo - hi) of the signed length s is even,
      whatever the cut c, and so is s;
    - so t = (l + r - L s) / 2 is an int, and with S = T / 2 the
      coordinate cut i T + S + lab0 x_i S is an int too, since x_i's
      denominator divides S."""
    N = compiled.layout.N
    if len(x) != N:
        raise ValueError("point has wrong dimension")
    x = [rat(v) for v in x]
    if any(abs(v) > 1 for v in x):
        raise ValueError("coordinates must lie in [-1, 1]")
    gates = compiled.gates
    T = 2 * math.lcm(*{e.denominator for (a, b, _), (l, r, _) in gates
                       for e in (a, b, l, r)}, *[v.denominator for v in x])
    S = T // 2
    # the N coordinate cuts sit left of everything else; start with the
    # label parity that makes the constant cells read +1
    start = 1 if N % 2 == 0 else -1
    # unit cell -> (label at the left end of the interval holding it, the
    # interval's cut or None); the signed length of [lo, hi] inside that
    # interval is label * ((c - lo) - (hi - c)), c the cut clamped to it
    wires = {}
    cuts = []
    for i, v in enumerate(x):
        lab0 = start * (1 if i % 2 == 0 else -1)
        t = i * T + S + lab0 * v.numerator * (S // v.denominator)
        wires[i] = (lab0, t)
        cuts.append(t)
    for j in range(compiled.layout.p):
        wires[N + j] = (1, None)
    # the gates come in domain order, each output block right of the
    # last, with one cut each: L flips once per gate, starting from the
    # label start (-1)^N = +1 of the constant cells
    L = 1
    for (a, b, _), (l, r, _) in gates:
        a = a.numerator * (T // a.denominator)
        b = b.numerator * (T // b.denominator)
        s = 0
        for u in range(a // T, -(-b // T)):
            lab0, cut = wires[u]
            lo, hi = max(a, u * T), min(b, u * T + T)
            c = hi if cut is None else min(max(cut, lo), hi)
            s += lab0 * (2 * c - lo - hi)
        t = ((l + r) * T - L * s) // 2
        assert l * T < t < r * T
        cuts.append(t)
        for u in range(l, r):
            wires[u] = (L, t)
        L = -L
    return Solution([Fraction(t, T) for t in cuts], alternating_labels(
        len(cuts) + 1, PLUS if start == 1 else MINUS))


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


# the largest ring ||d||_inf that find_solution scans
RADIUS = 4


def complementary_start(lab):
    """The start point next to lab's first complementary adjacent pair
    (u, w), lexicographic in u and then in w - u in {-1, 0, 1}^N: on a
    coordinate where u and w differ, their shared cell boundary minus
    1/32; elsewhere the centre of u's cell (cell r is [r/4 - 5/4, r/4 -
    1]).  Tucker's lemma guarantees the pair for an antipodally
    anti-symmetric labeling, and the point lies inside (-1, 1)^N."""
    cells = list(itertools.product(range(1, 9), repeat=lab.N))
    label = {x: lab.evaluate(x) for x in cells}
    for u in cells:
        for d in itertools.product((-1, 0, 1), repeat=lab.N):
            w = tuple(a + b for a, b in zip(u, d))
            if w in label and label[w] == -label[u]:
                return tuple(Fraction(min(a, c), 4) - 1 - Fraction(1, 32)
                             if a != c else Fraction(2 * a - 1, 8) - 1
                             for a, c in zip(u, w))
    raise AssertionError("no complementary adjacent pair")


def find_solution(compiled):
    """Scan the lattice points start + g d (start =
    complementary_start(compiled.labeling), g = 16 eps, d integral,
    ||d||_inf <= RADIUS, every |x_i| <= 1) in rings of increasing
    ||d||_inf, lexicographically within a ring, and return (x, sol) for
    the first x whose forward placement also balances the feedback
    agents: every exact census |sum over F_i| <= p eps.  Gate agents are
    exactly balanced by forward_place, so sol is an eps-solution of the
    compiled instance.  Raises NoSolutionFound, naming the number of
    points scanned and the smallest census seen, when no point
    qualifies; a non-solution is never returned.

    Terminates: the candidate set has at most (2 RADIUS + 1)^N points
    and each costs one forward_place plus N census sums.  The start
    lies inside (-1, 1)^N, so ring 0 is always scanned.  Completeness
    is not claimed for general labelings: only forward placements at
    lattice points are tried, and a labeling whose solutions all lie
    elsewhere makes the scan raise."""
    N = compiled.layout.N
    start = complementary_start(compiled.labeling)
    g = compiled.params.g
    bound = compiled.layout.p * compiled.params.eps
    scanned, best = 0, None
    for r in range(RADIUS + 1):
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
    simulator is corrupted if an output block of its gets two cuts or
    its constant cell is intersected), then scans the displaced points
    T[const_j * x + j alpha] of the surviving simulators, reflecting
    the candidates of negative-constant simulators through the
    antipodal map."""
    lay = compiled.layout
    N, p, alpha = lay.N, lay.p, compiled.params.alpha
    x = [encoded_value(sol, i) for i in range(N)]
    # one exact merged pass over the sorted cuts and the output blocks
    # (disjoint and in domain order: each gate's is freshly allocated)
    # counts the cuts strictly inside each block and collects the others
    intervals = [out[:2] for _, out in compiled.gates]
    inside = [0] * len(intervals)
    free = []
    k = 0
    for t in sol.cuts:
        while k < len(intervals) and intervals[k][1] <= t:
            k += 1
        if k < len(intervals) and intervals[k][0] < t:
            inside[k] += 1
        else:
            free.append(t)
    corrupted = {lay.simulator_of(left)
                 for (left, _), c in zip(intervals, inside) if c >= 2}
    const_sign = {j: encoded_value(sol, N + j - 1) for j in range(1, p + 1)}
    corrupted.update(j for j, s in const_sign.items() if abs(s) != 1)
    # free cuts inside a simulator region corrupt it as well; one on a
    # feedback cell, or on its boundary, does not
    corrupted.update(lay.simulator_of(t) for t in free
                     if t < lay.feedback_start)
    corrupted.discard(None)
    g8 = 8 * compiled.params.g
    candidates = []    # (cell point, label)
    for j in range(1, p + 1):
        if j in corrupted:
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
