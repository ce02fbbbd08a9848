"""The benchmark's three workloads.

Each workload draws its op sequence from one `random.Random(seed)`, in
op order, so a seed fixes the sequence whatever the speed of the code
under test.  `ops()` yields the next op with its inputs ready (input
generation is off the clock), `run(op, clock)` is the timed part
and may call `clock.mark()` between stages.
`check(op, out)` compares the output with an independent reference and
returns a list of failure notes (empty when the op is correct).
"""

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction as F

from chdiv import cli, core, dp, fixp, lp, oracle, tucker
from chdiv.core import Block, Instance, Solution, Valuation, rat_str


class Op:
    __slots__ = ("id", "kind", "inputs")

    def __init__(self, op_id, kind, inputs):
        self.id = op_id
        self.kind = kind
        self.inputs = inputs


def single_block_agents(rng, n, lattice, min_width=1):
    """n single-block agents, endpoints on the 1/lattice grid, every
    block at least min_width lattice steps wide."""
    agents = []
    for _ in range(n):
        a = rng.randrange(0, lattice - min_width + 1)
        b = rng.randrange(a + min_width, lattice + 1)
        left, right = F(a, lattice), F(b, lattice)
        agents.append(Valuation([Block(left, right, 1 / (right - left))]))
    return agents


def dblock_agents(rng, n, d, lattice):
    """n agents with d disjoint equal-height blocks each, endpoints on
    the 1/lattice grid."""
    agents = []
    for _ in range(n):
        pts = sorted(rng.sample(range(lattice + 1), 2 * d))
        spans = [(F(pts[2 * t], lattice), F(pts[2 * t + 1], lattice))
                 for t in range(d)]
        total = sum(r - l for l, r in spans)
        agents.append(Valuation([Block(l, r, 1 / total) for l, r in spans]))
    return agents


class Workload:
    name = None

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.counters = {}

    def bump(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def ops(self):
        for op_id in itertools.count():
            yield self.make_op(op_id)

    def cleanup(self, op):
        pass


# ---------------------------------------------------------------------------
# grid-sweep: dp against the brute-force oracle


class GridSweep(Workload):
    """Single-block instances on the 1/11 lattice of the acceptance
    sweep.  One round visits every slot once.  A 1/11-wide block gives
    dp its largest grid (m = 88), and with it the search at eps = 1/4
    and full budget, or with three agents, has a cost tail so long that
    a run's throughput depends mostly on the seed.  So those slots use
    blocks at least 2/11 wide, and the three-agent full-budget search
    at eps = 1/4, which costs up to seconds even then, is left out."""

    name = "grid-sweep"
    LATTICE = 11
    # (agents, eps, cut budget, minimum block width in lattice steps)
    SLOTS = [(2, F(1, 4), 1, 1), (2, F(1, 4), 2, 2),
             (2, F(1, 2), 1, 1), (2, F(1, 2), 2, 1),
             (3, F(1, 4), 2, 2), (3, F(1, 2), 2, 2), (3, F(1, 2), 3, 2)]

    def make_op(self, op_id):
        n, eps, budget, width = self.SLOTS[op_id % len(self.SLOTS)]
        agents = single_block_agents(self.rng, n, self.LATTICE, width)
        inst = Instance(agents, k=2, cut_budget=budget)
        kind = "n%d-eps%s-budget%d" % (n, eps, budget)
        return Op(op_id, kind, (inst, eps))

    def run(self, op, clock):
        inst, eps = op.inputs
        res = dp.dp_solve(inst, eps)
        cfg = oracle.GridSearchConfig(res.m, inst.cut_budget)
        ref = oracle.brute_force(inst, eps, cfg, jobs=1)
        reports = [core.verify(inst, s, eps) if s is not None else None
                   for s in (res.solution, ref)]
        return res, ref, reports

    def check(self, op, out):
        inst, eps = op.inputs
        res, ref, reports = out
        self.bump("feasible" if ref is not None else "infeasible")
        notes = []
        if res.feasible != (ref is not None):
            notes.append("dp feasible=%s but oracle found %s"
                         % (res.feasible, ref))
        for who, sol, rep in (("dp", res.solution, reports[0]),
                              ("oracle", ref, reports[1])):
            if sol is None:
                continue
            if not rep.satisfied:
                notes.append("%s witness fails verify at eps %s" % (who, eps))
            if len(sol.cuts) > inst.cut_budget:
                notes.append("%s witness uses %d cuts, budget %d"
                             % (who, len(sol.cuts), inst.cut_budget))
        return notes


# ---------------------------------------------------------------------------
# cli-mix: the chdiv command, in process


def cli_call(*argv):
    """Run `chdiv argv --jobs 1` in process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv) + ["--jobs", "1"])
    return code, out.getvalue()


def _write(obj, path):
    with open(path, "w") as fp:
        json.dump(obj, fp)


def _read_instance(path):
    with open(path) as fp:
        return core.load_instance(fp)


def _read_solution(path):
    with open(path) as fp:
        return core.load_solution(fp)


def trisection_solution(inst):
    """Exact three-label solution: each breakpoint cell split in equal
    thirds labeled A, B, C, with a boundary cut between cells."""
    grid = lp.breakpoints(inst)
    cuts, labels = [], ["A"]
    for j in range(len(grid) - 1):
        a, b = grid[j], grid[j + 1]
        w = b - a
        cuts += [a + w / 3, a + 2 * w / 3]
        labels += ["B", "C"]
        if j < len(grid) - 2:
            cuts.append(b)
            labels.append("A")
    return Solution(cuts, labels)


def exact_with_cells_exists(inst, budget):
    """Reference for a negative lp answer with a small budget: some
    choice of at most `budget` breakpoint cells (repeats allowed), one
    cut seeded in the middle of each, and a starting label, refines to
    an exact solution."""
    grid = lp.breakpoints(inst)
    m = len(grid) - 1
    for t in range(budget + 1):
        for cells in itertools.combinations_with_replacement(range(m), t):
            mids = [(grid[j] + grid[j + 1]) / 2 for j in cells]
            for start in (core.PLUS, core.MINUS):
                other = core.MINUS if start == core.PLUS else core.PLUS
                labels = [start if i % 2 == 0 else other
                          for i in range(t + 1)]
                _, z = lp.refine_exact(inst, Solution(mids, labels))
                if z == 0:
                    return True
    return False


class CliMix(Workload):
    """A fixed-proportion round of chdiv requests.  The round puts the
    fixp triples (tightly clustered in cost) in the middle of the cost
    order, so the median op is stable across seeds.  Refine instances
    have a fixed shape (k = 2: two agents of two blocks; k = 3: one
    agent of two blocks, 8 cuts), since the LP size, and so the cost,
    grows steeply with the cut count."""

    name = "cli-mix"
    ROUND = ["greedy", "lp-ell1", "fixp", "refine-k2", "fixp", "dp", "fixp",
             "copies", "fixp", "lp-ell2", "fixp", "greedy", "refine-k3",
             "fixp", "refine-k3"]
    COPIES_BASE_N = 4
    COPIES_C = 24               # 25 copies of 4 agents: 100 agents
    FIXP_SLOPES = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(1, 4), F(-1, 4)]

    def path(self, op, name):
        return os.path.join(self.workdir, "op%d-%s" % (op.id, name))

    def make_op(self, op_id):
        kind = self.ROUND[op_id % len(self.ROUND)]
        op = Op(op_id, kind, {})
        getattr(self, "_make_" + kind.replace("-", "_"))(op)
        return op

    def _make_greedy(self, op):
        op.inputs["n"] = self.rng.randrange(1, 51)
        op.inputs["gen_seed"] = self.rng.randrange(2 ** 31)

    def _make_lp(self, op, ell, n):
        inst = Instance(single_block_agents(self.rng, n, 64), k=2,
                        cut_budget=2 * n - ell)
        _write(core.instance_to_obj(inst), self.path(op, "inst.json"))
        op.inputs.update(inst=inst, ell=ell)

    def _make_lp_ell1(self, op):
        self._make_lp(op, 1, self.rng.randrange(1, 5))

    def _make_lp_ell2(self, op):
        self._make_lp(op, 2, 2)

    def _make_refine(self, op, k, n):
        base = Instance(dblock_agents(self.rng, n, 2, 64), k=k)
        exact = (lp.midpoint_solution(base) if k == 2
                 else trisection_solution(base))
        jitter = [c + F(self.rng.randrange(-10 ** 6, 10 ** 6 + 1), 10 ** 12)
                  for c in exact.cuts]
        approx = Solution(sorted(min(max(c, F(0)), F(1)) for c in jitter),
                          exact.labels)
        # the approximate solution defines the budget it is refined within
        inst = Instance(base.agents, k=k, cut_budget=len(approx.cuts))
        _write(core.instance_to_obj(inst), self.path(op, "inst.json"))
        _write(core.solution_to_obj(approx), self.path(op, "approx.json"))
        op.inputs.update(inst=inst, approx=approx)

    def _make_refine_k2(self, op):
        self._make_refine(op, 2, 2)

    def _make_refine_k3(self, op):
        self._make_refine(op, 3, 1)

    def _make_dp(self, op):
        inst = Instance(single_block_agents(self.rng, 2, 11), k=2)
        _write(core.instance_to_obj(inst), self.path(op, "inst.json"))
        op.inputs["inst"] = inst

    def _make_copies(self, op):
        base = Instance(single_block_agents(self.rng, self.COPIES_BASE_N, 64),
                        k=2)
        _write(core.instance_to_obj(base), self.path(op, "base.json"))

    def _make_fixp(self, op):
        """out_i = trunc(z_i * x_src(i) + c_i) with c_i chosen so that
        the drawn point p is a fixed point; |p|, |z| <= 1/2 keeps every
        gate away from truncation."""
        rng = self.rng
        p = (F(rng.randrange(-8, 9), 16), F(rng.randrange(-8, 9), 16))
        lines = ["IN x1", "IN x2"]
        for i in range(2):
            z = rng.choice(self.FIXP_SLOPES)
            src = rng.randrange(2)
            c = p[i] - z * p[src]
            lines += ["MUL %s x%d -> m%d" % (rat_str(z), src + 1, i),
                      "CONST %s -> c%d" % (rat_str(c), i),
                      "ADD m%d c%d -> o%d" % (i, i, i)]
        lines += ["OUT o0", "OUT o1"]
        text = "\n".join(lines) + "\n"
        circ = fixp.TruncCircuit.parse(text)
        if fixp.eval_trunc(circ, p) != p:
            raise AssertionError("generated circuit misses its fixed point")
        compiled = fixp.compile_fixp(circ)
        if self.tracer is not None:
            self.tracer.op = "input"
        try:
            witness = fixp.forward_place_kdiv(compiled, p)
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        with open(self.path(op, "circ.txt"), "w") as fp:
            fp.write(text)
        _write(core.solution_to_obj(witness), self.path(op, "witness.json"))
        op.inputs.update(p=p, circ=circ, witness=witness)

    # -- timed part --------------------------------------------------------

    def run(self, op, clock):
        return getattr(self, "_run_" + op.kind.replace("-", "_"))(op)

    def _run_greedy(self, op):
        inst, sol = self.path(op, "inst.json"), self.path(op, "sol.json")
        return [cli_call("gen", "--kind", "random-single-block",
                         "--n", str(op.inputs["n"]),
                         "--seed", str(op.inputs["gen_seed"]),
                         "--out", inst, "--json"),
                cli_call("solve", "--algo", "greedy", "--in", inst,
                         "--out", sol, "--json"),
                cli_call("verify", "--in", inst, "--solution", sol,
                         "--eps", "1/2", "--json")]

    def _run_lp(self, op):
        return [cli_call("solve", "--algo", "lp",
                         "--ell", str(op.inputs["ell"]),
                         "--in", self.path(op, "inst.json"),
                         "--out", self.path(op, "sol.json"), "--json")]

    _run_lp_ell1 = _run_lp_ell2 = _run_lp

    def _run_refine(self, op):
        return [cli_call("refine", "--in", self.path(op, "inst.json"),
                         "--solution", self.path(op, "approx.json"),
                         "--out", self.path(op, "sol.json"), "--json")]

    _run_refine_k2 = _run_refine_k3 = _run_refine

    def _run_dp(self, op):
        return [cli_call("solve", "--algo", "dp", "--eps", "1/2",
                         "--in", self.path(op, "inst.json"),
                         "--out", self.path(op, "sol.json"), "--json")]

    def _run_copies(self, op):
        inst, sol = self.path(op, "inst.json"), self.path(op, "sol.json")
        return [cli_call("gen", "--kind", "copies",
                         "--in", self.path(op, "base.json"),
                         "--c", str(self.COPIES_C), "--out", inst, "--json"),
                cli_call("solve", "--algo", "lp", "--in", inst,
                         "--out", sol, "--json"),
                cli_call("verify", "--in", inst, "--solution", sol,
                         "--eps", "0", "--json")]

    def _run_fixp(self, op):
        circ, inst = self.path(op, "circ.txt"), self.path(op, "inst.json")
        witness = self.path(op, "witness.json")
        return [cli_call("compile-fixp", "--circuit", circ, "--out", inst,
                         "--json"),
                cli_call("verify", "--in", inst, "--solution", witness,
                         "--eps", "0", "--json"),
                cli_call("decode-fixp", "--circuit", circ,
                         "--solution", witness, "--json")]

    # -- checks ------------------------------------------------------------

    def check(self, op, out):
        try:
            reports = [json.loads(text) for _, text in out]
        except ValueError as e:
            return ["unparsable --json report: %s" % e]
        codes = [code for code, _ in out]
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(
            op, codes, reports)

    def _solution_notes(self, inst_path, sol_path, eps, max_cuts):
        """Re-read an exit-0 solution and re-verify it at its eps."""
        inst = _read_instance(inst_path)
        sol = _read_solution(sol_path)
        notes = []
        if not core.verify(inst, sol, eps).satisfied:
            notes.append("solution fails verify at eps %s" % eps)
        if len(sol.cuts) > max_cuts:
            notes.append("solution uses %d cuts, budget %d"
                         % (len(sol.cuts), max_cuts))
        return notes, inst, sol

    def _check_greedy(self, op, codes, reports):
        if codes != [0, 0, 0]:
            return ["exit codes %s, want [0, 0, 0]" % codes]
        notes, inst, _ = self._solution_notes(
            self.path(op, "inst.json"), self.path(op, "sol.json"),
            F(1, 2), op.inputs["n"])
        if inst.n != op.inputs["n"]:
            notes.append("gen made %d agents, asked %d"
                         % (inst.n, op.inputs["n"]))
        if not reports[2]["satisfied"]:
            notes.append("verify reports not satisfied")
        return notes

    def _check_lp(self, op, codes, reports):
        inst, ell = op.inputs["inst"], op.inputs["ell"]
        budget = 2 * inst.n - ell
        if codes == [0]:
            notes, _, _ = self._solution_notes(
                self.path(op, "inst.json"), self.path(op, "sol.json"),
                0, budget)
            return notes
        if codes == [2]:
            # midpoint fits the budget -> feasible; else cellwise search
            if len(lp.breakpoints(inst)) - 1 <= budget or \
                    exact_with_cells_exists(inst, budget):
                return ["lp reports infeasible, reference finds a "
                        "solution with <= %d cuts" % budget]
            return []
        return ["exit code %s" % codes]

    _check_lp_ell1 = _check_lp_ell2 = _check_lp

    def _check_refine(self, op, codes, reports):
        if codes[0] not in (0, 2):
            return ["exit code %s" % codes]
        refined = _read_solution(self.path(op, "sol.json"))
        exact = core.verify(op.inputs["inst"], refined, 0).satisfied
        notes = []
        if (codes[0] == 0) != (F(reports[0]["z_star"]) == 0):
            notes.append("exit %d with z* = %s" % (codes[0],
                                                   reports[0]["z_star"]))
        if exact != (codes[0] == 0):
            notes.append("exit %d but exact verify says %s"
                         % (codes[0], exact))
        if len(refined.cuts) != len(op.inputs["approx"].cuts):
            notes.append("refinement changed the cut count")
        self.bump("refine-exact" if codes[0] == 0 else "refine-inexact")
        return notes

    _check_refine_k2 = _check_refine_k3 = _check_refine

    def _check_dp(self, op, codes, reports):
        inst = op.inputs["inst"]
        if codes == [0]:
            notes, _, _ = self._solution_notes(
                self.path(op, "inst.json"), self.path(op, "sol.json"),
                F(1, 2), inst.cut_budget)
            return notes
        if codes == [2]:
            cfg = oracle.GridSearchConfig(reports[0]["m"], inst.cut_budget)
            if oracle.brute_force(inst, F(1, 2), cfg, jobs=1) is not None:
                return ["dp infeasible, oracle finds a solution"]
            return []
        return ["exit code %s" % codes]

    def _check_copies(self, op, codes, reports):
        if codes != [0, 0, 0]:
            return ["exit codes %s, want [0, 0, 0]" % codes]
        base = _read_instance(self.path(op, "base.json"))
        n = base.n * (self.COPIES_C + 1)
        notes, inst, sol = self._solution_notes(
            self.path(op, "inst.json"), self.path(op, "sol.json"),
            0, 2 * n - 1)
        if inst.n != n:
            notes.append("copies made %d agents, want %d" % (inst.n, n))
        if not reports[2]["satisfied"]:
            notes.append("verify reports not satisfied")
        # `solve --algo lp` promises 2n - ell cuts and ignores the
        # instance's own cut_budget; count the gap, do not hide it
        if len(sol.cuts) > inst.cut_budget:
            self.bump("lp-over-instance-budget")
        return notes

    def _check_fixp(self, op, codes, reports):
        if codes != [0, 0, 0]:
            return ["exit codes %s, want [0, 0, 0]" % codes]
        p, circ = op.inputs["p"], op.inputs["circ"]
        inst = _read_instance(self.path(op, "inst.json"))
        witness = op.inputs["witness"]
        notes = []
        if not core.verify(inst, witness, 0).satisfied:
            notes.append("witness is not exact on the compiled instance")
        if len(witness.cuts) > inst.cut_budget:
            notes.append("witness exceeds the cut budget")
        x = tuple(F(v) for v in reports[2]["x"])
        if x != p:
            notes.append("decoded %s, chose %s" % (x, p))
        if fixp.eval_trunc(circ, x) != x or not reports[2]["fixed_point"]:
            notes.append("decoded point is not a fixed point")
        return notes

    def cleanup(self, op):
        prefix = "op%d-" % op.id
        for name in os.listdir(self.workdir):
            if name.startswith(prefix):
                os.remove(os.path.join(self.workdir, name))


# ---------------------------------------------------------------------------
# tucker-reduce: one full reduction round per op


class TuckerReduce(Workload):
    """compile -> JSON round trip -> forward_place -> balance_report ->
    decode for the N = 1 demo labeling at the largest allowed eps.
    Probes x1 are multiples of 1/1024 in [-64/1024, 0]; even ops draw
    from [-56, -24]/1024, where a scan of this commit decodes, odd ops
    from the rest of the window, so every run of two or more ops holds
    both outcomes."""

    name = "tucker-reduce"
    EPS = F(1, 2 ** 14)
    DECODING = list(range(-56, -23))
    OTHER = [k for k in range(-64, 1) if not -56 <= k <= -24]
    AUDIT_SAMPLE = 6

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.labeling = tucker.demo_labeling(1)
        self.counters["audit-disagreements"] = 0

    def make_op(self, op_id):
        stratum = self.DECODING if op_id % 2 == 0 else self.OTHER
        x1 = F(self.rng.choice(stratum), 1024)
        return Op(op_id, "decoding-window" if op_id % 2 == 0 else "outside",
                  (x1, self.rng.randrange(2 ** 31)))

    def run(self, op, clock):
        x1 = op.inputs[0]
        compiled = tucker.compile_tucker(self.labeling, self.EPS)
        clock.mark()
        buf = io.StringIO()
        core.dump_instance(compiled.instance, buf)
        text = buf.getvalue()
        loaded = core.load_instance(io.StringIO(text))
        if self.tracer is not None:
            self.tracer.count("core.json.bytes", 2 * len(text))
        clock.mark()
        sol = tucker.forward_place(compiled, [x1])
        clock.mark()
        report = tucker.balance_report(compiled, sol)
        clock.mark()
        try:
            decoded = tucker.decode_solution(compiled, sol)
        except tucker.DecodeFailure as e:
            decoded = e
        return compiled, loaded, sol, report, decoded

    def check(self, op, out):
        compiled, loaded, sol, (gates_exact, worst, feedback), decoded = out
        inst = compiled.instance
        dr = inst.domain_right
        notes = []
        if loaded != inst:
            notes.append("JSON round trip changed the instance")
        if len(sol.cuts) > inst.cut_budget:
            notes.append("forward_place uses %d cuts, budget %d"
                         % (len(sol.cuts), inst.cut_budget))
        if not gates_exact:
            notes.append("forward_place leaves gate agents unbalanced")
        # cross-check the float-keyed audit with core's Fraction walk
        n_gates = len(compiled.gates)
        p = compiled.layout.p
        census = [core.balance(v, sol, dr) * p
                  for v in inst.agents[n_gates:]]
        disagree = sum(1 for a, b in zip(census, feedback) if a != b)
        sample = random.Random(op.inputs[1]).sample(range(n_gates),
                                                    self.AUDIT_SAMPLE)
        for a in sample:
            bal = core.balance(inst.agents[a], sol, dr)
            if (bal != 0) if gates_exact else (abs(bal) > abs(worst)):
                disagree += 1
        if disagree:
            notes.append("%d audit disagreements" % disagree)
            self.bump("audit-disagreements", disagree)
        if isinstance(decoded, tucker.DecodeFailure):
            self.bump("decode-negative")
            if all(c == 0 for c in census):
                notes.append("zero-census probe %s did not decode"
                             % op.inputs[0])
        else:
            self.bump("decoded")
            u, w = decoded
            lab = compiled.labeling
            if lab.evaluate(u) != -lab.evaluate(w):
                notes.append("decoded labels %s, %s not complementary"
                             % (lab.evaluate(u), lab.evaluate(w)))
            if max(abs(a - b) for a, b in zip(u, w)) > 1:
                notes.append("decoded cells %s, %s not adjacent" % (u, w))
        return notes


WORKLOADS = {w.name: w for w in (GridSweep, CliMix, TuckerReduce)}
