"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in its
own single-threaded process (perfbench/worker.py) with the checkout's
`src` on PYTHONPATH, between SETUP_PROBES set-up-only processes (half
before, half after).  setup_s is the median, over all of them, of the
time from process start to the first timed op, scaled to reference
speed by the gauge each process reports (see clock.py).  Every other
metric comes from the measuring process.  Prints one
`metric NAME VALUE UNIT` line per metric and the run record, then, as
the last line, the JSON summary whose metrics are the BENCHMARK.json
`end_to_end` list (--trace 0) or `per_layer` list (--trace 1).  Run
records and spans go to `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from clock import G_REF

SETUP_PROBES = 6
DEADLINE_S = 170            # the whole run, probes included
REPORT_UNITS = {"fail_share": "ratio", "samples": "count", "op_p90_ms": "ms",
                "wall_ops_per_s": "1/s", "wall_op_p50_ms": "ms",
                "wall_op_p90_ms": "ms", "wall_setup_s": "s",
                "machine_slowdown": "ratio"}
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")


class Child:
    """One worker process: its `ready` time from start, its gauge, its
    result, and its exit code.  It is killed at timeout, and its
    working directory is removed when it has ended."""

    def __init__(self, cmd, env, workdir, timeout):
        self.ready = self.gauge = self.result = None
        t0 = perf_counter()
        proc = subprocess.Popen(cmd + ["--workdir", workdir],
                                stdout=subprocess.PIPE, env=env, text=True)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line == "ready\n" and self.ready is None:
                    self.ready = perf_counter() - t0
                elif line.startswith("gauge "):
                    self.gauge = float(line.split()[1])
                elif line.startswith("result "):
                    self.result = json.loads(line[len("result "):])
        finally:
            timer.cancel()
            proc.stdout.close()
            self.code = proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)

    @property
    def ok(self):
        return self.code == 0 and self.ready is not None and \
            self.gauge is not None


def source_digest(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "chdiv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="stop after this many ops (smoke checks)")
    args = ap.parse_args(argv)

    start = perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chdiv", "__init__.py")):
        print("perfbench: %s holds no src/chdiv; run from the root of a "
              "chdiv checkout" % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("perfbench: unknown workload %r" % args.workload,
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    env.pop("CONSENSUS_CUT_JOBS", None)     # every CLI call passes --jobs 1
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--max-ops", str(args.max_ops),
           "--out-dir", out_dir]
    children = []

    def spawn(extra):
        workdir = os.path.join(out_dir, "tmp-%d-%d" % (os.getpid(),
                                                      len(children)))
        child = Child(cmd + extra, env, workdir,
                      DEADLINE_S - (perf_counter() - start))
        children.append(child)
        return child.ok

    # set-up probes before and after the measuring process sample the
    # machine at two moments, so one slow spell moves the median less
    if not all(spawn(["--setup-only"]) for _ in range(SETUP_PROBES // 2)):
        print("perfbench: set-up probe failed", file=sys.stderr)
        return 1
    if not spawn([]) or children[-1].result is None:
        print("perfbench: workload process failed (exit %d)"
              % children[-1].code, file=sys.stderr)
        return 1
    result = children[-1].result
    if not all(spawn(["--setup-only"])
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)):
        print("perfbench: set-up probe failed", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(c.ready * G_REF / c.gauge
                                          for c in children)
    values["wall_setup_s"] = statistics.median(c.ready for c in children)
    values["peak_rss_mb"] = result["peak_rss_mb"]
    units = dict(REPORT_UNITS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    for name in sorted(values):
        if name in units:
            print("metric %s %r %s" % (name, values[name], units[name]))

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(root), "src_sha256": source_digest(root),
        "python": "%s %s" % (platform.python_implementation(),
                             platform.python_version()),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ops_by_kind": result["kinds"],
        "p50_ms_by_kind": result["kind_p50_ms"],
        "counters": result["counters"],
        "setup_samples_s": [c.ready for c in children],
        "setup_gauges_s": [c.gauge for c in children],
        "failures": result["failures"],
    }
    with open(os.path.join(out_dir, "record-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fp:
        json.dump(dict(record, metrics=values, op_ms=result["op_ms"],
                       wall_op_ms=result["wall_op_ms"]), fp, indent=1)
    print("record " + json.dumps(record))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
