"""Exact-rational domain model for consensus division.

Everything is a fractions.Fraction; no floats anywhere.  An instance is a
list of piecewise-constant probability densities on [0, domain_right], a
solution is a sorted list of cut positions plus one label per segment.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
import itertools
import json


PLUS = "+"
MINUS = "-"

# label alphabet for k > 2 problems (k <= 26 is far beyond desk scale)
KLABELS = [chr(ord("A") + i) for i in range(26)]


def rat(x):
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def rat_str(x):
    """Canonical 'p/q' form (q > 0, gcd = 1; integers keep '/1')."""
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
        if not self.left < self.right:
            raise ValueError("empty block [%s, %s]" % (self.left, self.right))
        if self.height < 0:
            raise ValueError("negative height")

    @property
    def mass(self):
        return self.height * (self.right - self.left)

    def __eq__(self, other):
        return (isinstance(other, Block)
                and (self.left, self.right, self.height)
                == (other.left, other.right, other.height))

    def __hash__(self):
        return hash((self.left, self.right, self.height))

    def __repr__(self):
        return "Block(%s, %s, h=%s)" % (self.left, self.right, self.height)


class Valuation:
    """A probability measure with piecewise-constant density.

    Blocks are kept sorted and non-overlapping (touching endpoints are
    fine); total mass must be exactly 1 unless require_mass_one=False
    (used for rescaling helpers before renormalization and for sub-
    measures such as the blocks of one interval).  The mass check's
    pass also builds the prefix-mass table behind cdf.
    """

    def __init__(self, blocks, require_mass_one=True):
        blocks = sorted(blocks, key=lambda b: (b.left, b.right))
        for b0, b1 in zip(blocks, blocks[1:]):
            if b1.left < b0.right:
                raise ValueError("overlapping blocks %r, %r" % (b0, b1))
        self.blocks = tuple(blocks)
        self._lefts = [b.left for b in blocks]
        self._below = [Fraction(0)]       # _below[i] = mass of blocks[:i]
        for b in blocks:
            self._below.append(self._below[-1] + b.mass)
        self.mass = self._below[-1]
        if require_mass_one and self.mass != 1:
            raise ValueError("total mass %s != 1" % (self.mass,))

    @staticmethod
    def normalized(blocks):
        """Scale heights so the total mass is exactly 1."""
        total = sum(b.mass for b in blocks)
        if total == 0:
            raise ValueError("zero-mass valuation")
        return Valuation([Block(b.left, b.right, b.height / total)
                          for b in blocks])

    @property
    def support_left(self):
        return self.blocks[0].left

    @property
    def support_right(self):
        return self.blocks[-1].right

    def cdf(self, x):
        """mu((-inf, x]), exactly: one bisection over the block lefts."""
        i = bisect_right(self._lefts, x) - 1
        if i < 0:
            return Fraction(0)
        b = self.blocks[i]
        if x >= b.right:
            return self._below[i + 1]
        return self._below[i] + b.height * (x - b.left)

    def mass_between(self, a, b):
        """mu([a, b]), exactly."""
        a, b = rat(a), rat(b)
        if b < a:
            raise ValueError("reversed interval")
        return self.cdf(b) - self.cdf(a)

    def density_at(self, x):
        """Density at x; at a shared endpoint the right block wins."""
        x = rat(x)
        i = bisect_right(self._lefts, x) - 1
        if i >= 0 and x < self.blocks[i].right:
            return self.blocks[i].height
        return Fraction(0)

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
        for v in self.agents:
            if v.support_left < 0 or v.support_right > self.domain_right:
                raise ValueError("block outside [0, %s]" % self.domain_right)

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


class Solution:
    def __init__(self, cuts, labels):
        self.cuts = tuple(rat(c) for c in cuts)
        for c0, c1 in zip(self.cuts, self.cuts[1:]):
            if c1 < c0:
                raise ValueError("cuts not sorted")
        self.labels = tuple(labels)
        if len(self.labels) != len(self.cuts) + 1:
            raise ValueError("need |cuts|+1 labels, got %d for %d cuts"
                             % (len(self.labels), len(self.cuts)))

    def swap_labels(self):
        """k=2 sign flip."""
        table = {PLUS: MINUS, MINUS: PLUS}
        return Solution(self.cuts, [table[l] for l in self.labels])

    def merged(self):
        """Drop cuts between equal-labeled segments (and zero-length dups)."""
        cuts, labels = [], [self.labels[0]]
        for c, lab in zip(self.cuts, self.labels[1:]):
            if lab == labels[-1]:
                continue
            cuts.append(c)
            labels.append(lab)
        return Solution(cuts, labels)

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


def label_masses(v, cuts, labels, label_set, lo=None, hi=None):
    """Exact mass of v on each label's part of [lo, hi] (unbounded
    where None), as a dict over label_set.

    cuts is a sorted sequence of rationals (repeats allowed) and
    labels[i] labels the segment between cuts[i - 1] and cuts[i]; the
    first and last segments run to -inf and +inf.  Each block of v that
    meets [lo, hi] costs two bisections into the cuts plus one step per
    cut strictly inside it, so the cuts between blocks are never
    visited.  A label outside label_set on a visited segment is a
    ValueError."""
    m = dict.fromkeys(label_set, Fraction(0))
    blocks = v.blocks
    if lo is not None:
        blocks = blocks[max(bisect_right(v._lefts, lo) - 1, 0):]
    for blk in blocks:
        a, b = blk.left, blk.right
        if hi is not None and hi < b:
            if hi <= a:
                break
            b = hi
        if lo is not None and lo > a:
            if lo >= b:
                continue
            a = lo
        i = bisect_right(cuts, a)
        j = bisect_left(cuts, b, i)
        for y, lab in zip(list(cuts[i:j]) + [b], labels[i:j + 1]):
            if lab not in m:
                raise ValueError("unknown label %r" % (lab,))
            m[lab] += blk.height * (y - a)
            a = y
    return m


def balance(v, s, domain_right=1):
    """mu(I+) - mu(I-) over [0, domain_right]; a label other than + and
    - on a segment that meets v's support is a ValueError."""
    m = label_masses(v, s.cuts, s.labels, (PLUS, MINUS), 0,
                     rat(domain_right))
    return m[PLUS] - m[MINUS]


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
    masses = [label_masses(v, s.cuts, s.labels, labs) for v in inst.agents]
    return BalanceReport(masses, eps)


def encoded_value(s, left, domain_right=None):
    """Signed Lebesgue content of the unit interval [left, left+1]:
    length labeled '+' minus length labeled '-'."""
    left = rat(left)
    if domain_right is not None and (left < 0
                                     or left + 1 > rat(domain_right)):
        raise ValueError("interval outside domain")
    m = label_masses(Valuation([Block(left, left + 1, 1)]), s.cuts,
                     s.labels, (PLUS, MINUS))
    return m[PLUS] - m[MINUS]


def rescale_to_unit(inst):
    """Map [0, M] to [0, 1]: endpoints / M, heights * M."""
    M = inst.domain_right
    if M <= 0:
        raise ValueError("empty domain")
    agents = [Valuation([Block(b.left / M, b.right / M, b.height * M)
                         for b in v.blocks]) for v in inst.agents]
    return Instance(agents, k=inst.k, cut_budget=inst.cut_budget,
                    domain_right=1)


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


def instance_from_obj(obj):
    agents = [Valuation([Block(b["left"], b["right"], b["height"])
                         for b in a["blocks"]])
              for a in obj["agents"]]
    return Instance(agents, k=obj["k"], cut_budget=obj["cut_budget"],
                    domain_right=obj["domain_right"])


def solution_to_obj(s):
    return {"cuts": [rat_str(c) for c in s.cuts], "labels": list(s.labels)}


def solution_from_obj(obj):
    return Solution(obj["cuts"], obj["labels"])


def dump_instance(inst, fp):
    json.dump(instance_to_obj(inst), fp, indent=1)
    fp.write("\n")


def load_instance(fp):
    return instance_from_obj(json.load(fp))


def dump_solution(s, fp):
    json.dump(solution_to_obj(s), fp, indent=1)
    fp.write("\n")


def load_solution(fp):
    return solution_from_obj(json.load(fp))
