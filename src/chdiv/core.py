"""Exact-rational domain model for consensus division.

Everything is a fractions.Fraction; no floats anywhere.  An instance is a
list of piecewise-constant probability densities on [0, domain_right], a
solution is a sorted list of cut positions plus one label per segment.

The hot paths run on Python ints: a Valuation keeps its block endpoints
and heights as ints over two common denominators, a Solution keeps its
cuts as ints over one (its CutFrame), and the measure kernel bisects,
clips and sums on those ints, building a Fraction only for its result.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
import itertools
import json
from math import lcm
from operator import itemgetter
import re


PLUS = "+"
MINUS = "-"

# label alphabet for k > 2 problems (k <= 26 is far beyond desk scale)
KLABELS = [chr(ord("A") + i) for i in range(26)]


# A decimal exponent e in a rational string makes an |e|-digit int; past
# this many digits Python already refuses to parse an int string.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")

# The largest grid resolution m of grid_points, which builds m + 1
# Fractions (about 0.1 s and 11 MB at this cap); the oracle's --grid and
# dp's m, given or derived from eps, reach it.
MAX_GRID = 10 ** 5

# The work caps of the searches that can blow up; past its cap a search
# stops with WorkLimitExceeded, exit 1 in the CLI.  WORK_LIMIT bounds
# the oracle's cut tuples, a few int steps per agent each.
# DP_WORK_LIMIT bounds dp's candidate cuts, a few Fraction operations
# per agent each, 20-50 us on a 2-core host (CPython 3.11), so a search
# stops within about 5 s; the largest charge in the tests and the bench
# is under 30,000.
WORK_LIMIT = 10 ** 8
DP_WORK_LIMIT = 10 ** 5


class WorkLimitExceeded(ValueError):
    pass


def rat(x):
    """Coerce ints, strings and Fractions to Fraction.

    The forms rat_str writes, 'p/q' and integers in ASCII digits, are
    parsed with int(); any other string goes to Fraction(str), except
    that a decimal exponent above MAX_EXPONENT in size is a ValueError
    instead of a huge int."""
    if isinstance(x, str):
        p, slash, q = x.partition("/")
        if (x.isascii() and (p.isdigit() or p[:1] == "-" and p[1:].isdigit())
                and (q.isdigit() or not slash)):
            return Fraction(int(p), int(q)) if slash else Fraction(int(p))
        e = _EXPONENT.search(x)
        if e:
            digits = e.group(1).lstrip("+-").replace("_", "").lstrip("0")
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits or 0) > MAX_EXPONENT):
                raise ValueError("exponent of %.40r exceeds %d"
                                 % (x, MAX_EXPONENT))
        return Fraction(x)
    # int before Fraction: isinstance against Fraction, an ABC, is slow
    # for any other type
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError("not an exact rational: %r" % (x,))


def rat_str(x):
    """Canonical 'p/q' form (q > 0, gcd = 1; integers keep '/1')."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def truncate(z):
    """Clamp to [-1, 1]."""
    z = rat(z)
    if z > 1:
        return Fraction(1)
    if z < -1:
        return Fraction(-1)
    return z


class Block:
    """One constant-density block [left, right] with height >= 0."""

    __slots__ = ("left", "right", "height")

    def __init__(self, left, right, height):
        self.left = rat(left)
        self.right = rat(right)
        self.height = rat(height)
        l, r = self.left, self.right
        if l.numerator * r.denominator >= r.numerator * l.denominator:
            raise ValueError("empty block [%s, %s]" % (l, r))
        if self.height.numerator < 0:
            raise ValueError("negative height")

    def __eq__(self, other):
        return (isinstance(other, Block)
                and (self.left, self.right, self.height)
                == (other.left, other.right, other.height))

    def __hash__(self):
        return hash((self.left, self.right, self.height))

    def __repr__(self):
        return "Block(%s, %s, h=%s)" % (self.left, self.right, self.height)


_left = itemgetter(0)


class Valuation:
    """A probability measure with piecewise-constant density.

    Blocks are kept sorted and non-overlapping (touching endpoints are
    fine); total mass must be exactly 1.

    The blocks are also kept on an integer grid: _grid[i] is
    (left * E, right * E, height * H) for the lcm E of the endpoint
    denominators and the lcm H of the height denominators.  The order,
    overlap and mass-one checks run on those ints; the prefix-mass
    table behind cdf is built the first time cdf is called.
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        E = lcm(*[x.denominator for b in blocks for x in (b.left, b.right)])
        H = lcm(*[b.height.denominator for b in blocks])
        grid = [(b.left.numerator * (E // b.left.denominator),
                 b.right.numerator * (E // b.right.denominator),
                 b.height.numerator * (H // b.height.denominator))
                for b in blocks]
        for g0, g1 in zip(grid, grid[1:]):
            if g1[0] < g0[1]:         # unsorted or overlapping: sort, recheck
                rows = sorted(zip(grid, blocks), key=lambda gb: gb[0][:2])
                for (g0, b0), (g1, b1) in zip(rows, rows[1:]):
                    if g1[0] < g0[1]:
                        raise ValueError("overlapping blocks %r, %r"
                                         % (b0, b1))
                grid = [g for g, _ in rows]
                blocks = [b for _, b in rows]
                break
        self.blocks = tuple(blocks)
        self._grid = grid
        self._scale = (E, H)
        self._below = None
        self._mass = sum(h * (r - l) for l, r, h in self._grid)
        if self._mass != E * H:
            raise ValueError("total mass %s != 1" % (self.mass,))

    @property
    def mass(self):
        E, H = self._scale
        return Fraction(self._mass, E * H)

    def cdf(self, x):
        """mu((-inf, x]), exactly: one bisection over the block lefts."""
        grid, (E, H) = self._grid, self._scale
        if self._below is None:         # _below[i] = mass of blocks[:i] * EH
            self._below = list(itertools.accumulate(
                (h * (r - l) for l, r, h in grid), initial=0))
        n, d = x.numerator, x.denominator
        i = bisect_right(grid, n * E // d, key=_left) - 1
        if i < 0:
            return Fraction(0)
        l, r, h = grid[i]
        if n * E >= r * d:
            return Fraction(self._below[i + 1], E * H)
        return Fraction(self._below[i] * d + h * (n * E - l * d), E * H * d)

    def mass_between(self, a, b):
        """mu([a, b]), exactly."""
        a, b = rat(a), rat(b)
        if b < a:
            raise ValueError("reversed interval")
        return self.cdf(b) - self.cdf(a)

    def translate(self, dx):
        dx = rat(dx)
        return Valuation([Block(b.left + dx, b.right + dx, b.height)
                          for b in self.blocks])

    def __eq__(self, other):
        return isinstance(other, Valuation) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "Valuation(%r)" % (list(self.blocks),)


class Instance:
    def __init__(self, agents, k=2, cut_budget=None, domain_right=1):
        self.agents = tuple(agents)
        self.k = int(k)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        self.domain_right = rat(domain_right)
        if cut_budget is None:
            cut_budget = (self.k - 1) * len(self.agents)
        self.cut_budget = int(cut_budget)
        if self.cut_budget < 0:
            raise ValueError("negative cut budget")
        M = self.domain_right
        for v in self.agents:
            if (v._grid[0][0] < 0 or v._grid[-1][1] * M.denominator
                    > M.numerator * v._scale[0]):
                raise ValueError("block outside [0, %s]" % M)

    @property
    def n(self):
        return len(self.agents)

    def labels(self):
        if self.k == 2:
            return [PLUS, MINUS]
        return KLABELS[:self.k]

    def __eq__(self, other):
        return (isinstance(other, Instance)
                and self.agents == other.agents
                and (self.k, self.cut_budget, self.domain_right)
                == (other.k, other.cut_budget, other.domain_right))

    def __repr__(self):
        return "Instance(n=%d, k=%d, budget=%d, M=%s)" % (
            self.n, self.k, self.cut_budget, self.domain_right)


def alternating_labels(count, first=PLUS):
    """count k = 2 labels alternating from first: one per segment of a
    solution whose every cut flips the label."""
    other = MINUS if first == PLUS else PLUS
    return [first if i % 2 == 0 else other for i in range(count)]


class CutFrame:
    """Sorted cuts on one integer scale: scale is the lcm of their
    denominators and keys[i] = cuts[i] * scale, an int.  For any
    rational x, bisect_right(keys, floor(x * scale)) counts the cuts
    <= x and bisect_left(keys, ceil(x * scale)) the cuts < x, exactly."""

    __slots__ = ("scale", "keys")

    def __init__(self, cuts):
        self.scale = D = lcm(*[c.denominator for c in cuts])
        self.keys = [c.numerator * (D // c.denominator) for c in cuts]


class Solution:
    def __init__(self, cuts, labels):
        self.cuts = tuple(rat(c) for c in cuts)
        self.frame = CutFrame(self.cuts)
        keys = self.frame.keys
        for k0, k1 in zip(keys, keys[1:]):
            if k1 < k0:
                raise ValueError("cuts not sorted")
        self.labels = tuple(labels)
        if len(self.labels) != len(self.cuts) + 1:
            raise ValueError("need |cuts|+1 labels, got %d for %d cuts"
                             % (len(self.labels), len(self.cuts)))

    def __eq__(self, other):
        return (isinstance(other, Solution) and self.cuts == other.cuts
                and self.labels == other.labels)

    def __repr__(self):
        return "Solution(cuts=%r, labels=%r)" % (
            [str(c) for c in self.cuts], list(self.labels))


class BalanceReport:
    """Per-agent label masses and pairwise discrepancies."""

    def __init__(self, masses, eps):
        # masses: list of dict label -> Fraction, one per agent
        self.masses = masses
        self.eps = rat(eps)
        self.per_agent_discrepancy = []
        for m in masses:
            vals = list(m.values())
            disc = max((abs(a - b) for a, b in
                        itertools.combinations(vals, 2)), default=Fraction(0))
            self.per_agent_discrepancy.append(disc)
        self.max_discrepancy = max(self.per_agent_discrepancy,
                                   default=Fraction(0))
        self.satisfied = self.max_discrepancy <= self.eps

    def __repr__(self):
        return "BalanceReport(max=%s, satisfied=%s)" % (
            self.max_discrepancy, self.satisfied)


def _label_sums(v, frame, labels, label_set, lo, hi):
    """The measure kernel on ints: (sums, den) with sums[lab] / den the
    mass of v on lab's part of [lo, hi].  Every position is an int in
    units of 1/S, S the lcm of the cut scale, v's endpoint scale and the
    denominators of lo and hi, so the clipping, both bisections and the
    sums compare and add ints only."""
    D, keys = frame.scale, frame.keys
    E, H = v._scale
    S = lcm(D, E, *[x.denominator for x in (lo, hi) if x is not None])
    u, w = S // D, S // E
    sums = dict.fromkeys(label_set, 0)
    grid = v._grid
    if lo is not None:
        lo = lo.numerator * (S // lo.denominator)
        grid = grid[max(bisect_right(grid, lo // w, key=_left) - 1, 0):]
    if hi is not None:
        hi = hi.numerator * (S // hi.denominator)
    for l, r, h in grid:
        a, b = l * w, r * w
        if hi is not None and hi < b:
            if hi <= a:
                break
            b = hi
        if lo is not None and lo > a:
            if lo >= b:
                continue
            a = lo
        i = bisect_right(keys, a // u)
        j = bisect_left(keys, -(-b // u), i)
        for y, lab in zip([k * u for k in keys[i:j]] + [b], labels[i:j + 1]):
            if lab not in sums:
                raise ValueError("unknown label %r" % (lab,))
            sums[lab] += h * (y - a)
            a = y
    return sums, S * H


def label_masses(v, cuts, labels, label_set, lo=None, hi=None):
    """Exact mass of v on each label's part of [lo, hi] (unbounded
    where None), as a dict over label_set.

    cuts is a CutFrame or a sorted sequence of rationals (repeats
    allowed), and labels[i] labels the segment between cuts[i - 1] and
    cuts[i]; the first and last segments run to -inf and +inf.  Each
    block of v that meets [lo, hi] costs two bisections into the cut
    keys plus one step per cut strictly inside it, so the cuts between
    blocks are never visited.  A label outside label_set on a visited
    segment is a ValueError."""
    if not isinstance(cuts, CutFrame):
        cuts = CutFrame(cuts)
    sums, den = _label_sums(v, cuts, labels, label_set, lo, hi)
    return {lab: Fraction(x, den) for lab, x in sums.items()}


def _signed_mass(v, s, lo=None, hi=None):
    """mu(I+) - mu(I-) of v on [lo, hi] under the k=2 solution s."""
    sums, den = _label_sums(v, s.frame, s.labels, (PLUS, MINUS), lo, hi)
    return Fraction(sums[PLUS] - sums[MINUS], den)


def balance(v, s, domain_right=None):
    """mu(I+) - mu(I-) over [0, domain_right], or over all of v when
    domain_right is None; a label other than + and - on a segment that
    meets v's support is a ValueError."""
    if domain_right is None:
        return _signed_mass(v, s)
    return _signed_mass(v, s, 0, rat(domain_right))


def grid_points(inst, m):
    """The m-grid i * L / m, i = 0..m, on the domain [0, L]; an m
    outside 1..MAX_GRID is a ValueError, raised before any point is
    built."""
    if m < 1:
        raise ValueError("grid resolution must be >= 1")
    if m > MAX_GRID:
        raise ValueError("grid resolution m = %d exceeds %d" % (m, MAX_GRID))
    p, q = inst.domain_right.numerator, inst.domain_right.denominator * m
    return [Fraction(i * p, q) for i in range(m + 1)]


def check_solution(inst, s):
    """ValueError unless every label of s is one of inst's and every cut
    lies in [0, domain_right]."""
    labs = inst.labels()
    for l in s.labels:
        if l not in labs:
            raise ValueError("label %r not among %r" % (l, labs))
    if s.cuts and (s.cuts[0] < 0 or s.cuts[-1] > inst.domain_right):
        raise ValueError("cut outside domain")


def verify(inst, s, eps):
    """Exact balance report; satisfied iff every agent's max pairwise
    label discrepancy is <= eps."""
    check_solution(inst, s)
    labs = inst.labels()
    masses = [label_masses(v, s.frame, s.labels, labs) for v in inst.agents]
    return BalanceReport(masses, eps)


def encoded_value(s, left):
    """Signed Lebesgue content of the unit interval [left, left+1]:
    length labeled '+' minus length labeled '-'."""
    left = rat(left)
    return _signed_mass(Valuation([Block(left, left + 1, 1)]), s)


def disjoint_copies(inst, c):
    """c+1 translated copies of every agent on a stretched domain,
    with cut budget (c+1)*n + c.  c=0 returns the instance unchanged."""
    if c < 0:
        raise ValueError("c must be >= 0")
    if c == 0:
        return inst
    M = inst.domain_right
    agents = []
    for copy in range(c + 1):
        off = copy * M
        for v in inst.agents:
            agents.append(v.translate(off))
    return Instance(agents, k=inst.k,
                    cut_budget=(c + 1) * inst.n + c,
                    domain_right=(c + 1) * M)


# --- JSON round trip ------------------------------------------------------

def instance_to_obj(inst):
    return {
        "k": inst.k,
        "domain_right": rat_str(inst.domain_right),
        "cut_budget": inst.cut_budget,
        "agents": [
            {"blocks": [{"left": rat_str(b.left), "right": rat_str(b.right),
                         "height": rat_str(b.height)} for b in v.blocks]}
            for v in inst.agents],
    }


def _is_rational(v):
    """True for an int or a string that rat parses, False for any other
    type; a string rat refuses raises rat's error."""
    if type(v) not in (int, str):
        return False
    rat(v)
    return True


# The JSON shapes the loaders read: a dict maps each key to the shape
# of its value, a one-item list is a list of that shape, and a string
# names a leaf test in _LEAVES.
_LEAVES = {"an integer": lambda v: type(v) is int,
           "an integer or null": lambda v: type(v) is int or v is None,
           "a rational": _is_rational,
           "a string": lambda v: type(v) is str}
_INSTANCE_SHAPE = {
    "k": "an integer", "cut_budget": "an integer or null",
    "domain_right": "a rational",
    "agents": [{"blocks": [{"left": "a rational", "right": "a rational",
                            "height": "a rational"}]}]}
_SOLUTION_SHAPE = {"cuts": ["a rational"], "labels": ["a string"]}


def _misfit(value, shape, path):
    """A message naming the first field of value that does not fit
    shape, or None."""
    if isinstance(shape, dict):
        kind, fits = "an object", type(value) is dict
    elif isinstance(shape, list):
        kind, fits = "a list", type(value) is list
    else:
        try:
            kind, fits = shape, _LEAVES[shape](value)
        except (ValueError, ZeroDivisionError) as e:
            kind, fits = "%s (%s)" % (shape, e), False
    if not fits:
        got = {dict: "an object", list: "a list"}.get(type(value))
        return "%s: %s is not %s" % (path or "top level",
                                     got or "%.40r" % (value,), kind)
    if isinstance(shape, dict):
        for key, sub in shape.items():
            field = "%s.%s" % (path, key) if path else key
            if key not in value:
                return "%s: missing" % field
            bad = _misfit(value[key], sub, field)
            if bad:
                return bad
    elif isinstance(shape, list):
        for i, item in enumerate(value):
            bad = _misfit(item, shape[0], "%s[%d]" % (path, i))
            if bad:
                return bad
    return None


def _load(what, obj, shape, build):
    """build(obj), or, when it fails on a field of obj that does not
    fit shape, a ValueError naming that field.  The shape walk runs
    only after a failure."""
    try:
        return build(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        bad = _misfit(obj, shape, "")
        if bad is None:
            raise
        raise ValueError("malformed %s: %s" % (what, bad)) from e


def _build_instance(obj):
    k, budget = obj["k"], obj["cut_budget"]
    if type(k) is not int or not (type(budget) is int or budget is None):
        raise TypeError("k and cut_budget must be integers")
    agents = [Valuation([Block(b["left"], b["right"], b["height"])
                         for b in a["blocks"]])
              for a in obj["agents"]]
    return Instance(agents, k=k, cut_budget=budget,
                    domain_right=obj["domain_right"])


def instance_from_obj(obj):
    return _load("instance", obj, _INSTANCE_SHAPE, _build_instance)


def solution_to_obj(s):
    return {"cuts": [rat_str(c) for c in s.cuts], "labels": list(s.labels)}


def solution_from_obj(obj):
    return _load("solution", obj, _SOLUTION_SHAPE,
                 lambda o: Solution(o["cuts"], o["labels"]))


# dump_* write compact JSON through json.dumps, which uses the C encoder
# (json.dump streams through the pure-Python one); load_* read any layout.

def dump_instance(inst, fp):
    fp.write(json.dumps(instance_to_obj(inst), separators=(",", ":")))
    fp.write("\n")


def load_instance(fp):
    return instance_from_obj(json.load(fp))


def dump_solution(s, fp):
    fp.write(json.dumps(solution_to_obj(s), separators=(",", ":")))
    fp.write("\n")


def load_solution(fp):
    return solution_from_obj(json.load(fp))
