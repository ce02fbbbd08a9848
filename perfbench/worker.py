"""One workload in one single-threaded process.

Started by run.py with the checkout's `src` on PYTHONPATH.  Prints
`ready` just before the first timed op (or, with --setup-only, once
set-up is done), then `gauge SECONDS`, and after the timed phase one
`result {...}` line.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys

import layers
import workloads
from clock import Clock, gauge
from tracer import Tracer


def run_once(workload, op, clock, record):
    """Time one execution of op, then check it off the clock.
    Returns the failure notes."""
    gc.collect()
    clock.start(record)
    try:
        out = workload.run(op, clock)
        exc = None
    except Exception as e:      # any raise is a failed op, not a crash
        exc = e
    clock.stop()
    if exc is not None:
        return ["%s: %s" % (type(exc).__name__, exc)]
    try:
        return workload.check(op, out)
    except Exception as e:
        return ["check raised %s: %s" % (type(e).__name__, e)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    os.makedirs(args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed,
                                                      args.workdir, tracer)
        op_stream = workload.ops()
        op = next(op_stream)
        print("ready", flush=True)
        samples = [gauge() for _ in range(7)]
        print("gauge %r" % statistics.median(samples[2:]), flush=True)
        if args.setup_only:
            return 0
        result = timed_phase(args, workload, op_stream, op, tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    print("result " + json.dumps(result), flush=True)
    return 0


def timed_phase(args, workload, op_stream, op, tracer):
    clock = Clock(tracer)
    kinds = []                      # per run: op kind
    attempted = failed = n_ops = 0
    notes_seen = []
    while True:
        # traced ops run twice, untraced and traced, in alternating
        # order so neither side always gets the warmer heap
        records = [None] if tracer is None else [None, op.id]
        if op.id % 2:
            records.reverse()
        for record in records:
            notes = run_once(workload, op, clock, record)
            kinds.append(op.kind)
            attempted += 1
            if notes:
                failed += 1
                notes_seen.append("op %d %s: %s" % (op.id, op.kind,
                                                    "; ".join(notes)))
        workload.cleanup(op)
        n_ops += 1
        if clock.wall >= args.seconds:
            break
        if args.max_ops and n_ops >= args.max_ops:
            break
        op = next(op_stream)

    wall, ref = clock.run_times()
    plain = [i for i, r in enumerate(clock.records) if r is None]
    ref_s = [ref[i] for i in plain]
    wall_s = [wall[i] for i in plain]
    metrics = {
        "ops_per_s": len(ref_s) / sum(ref_s),
        "op_p50_ms": statistics.median(ref_s) * 1e3,
        "wall_ops_per_s": len(wall_s) / sum(wall_s),
        "wall_op_p50_ms": statistics.median(wall_s) * 1e3,
        "machine_slowdown": sum(wall_s) / sum(ref_s),
        "samples": len(ref_s),
        "fail_share": failed / attempted,
    }
    if len(ref_s) >= 100:
        metrics["op_p90_ms"] = statistics.quantiles(ref_s, n=10)[8] * 1e3
        metrics["wall_op_p90_ms"] = (statistics.quantiles(wall_s, n=10)[8]
                                     * 1e3)
    if tracer is not None:
        traced = [i for i, r in enumerate(clock.records) if r is not None]
        op_s = sum(wall[i] for i in traced)
        metrics.update(layers.metrics(tracer))
        metrics["bench.op_s"] = op_s
        metrics["bench.unattributed_share"] = (
            (op_s - tracer.attributed(clock.records[i] for i in traced))
            / op_s)
        metrics["bench.trace_overhead_share"] = (
            sum(ref[i] for i in traced) / sum(ref_s) - 1)
        tracer.write(os.path.join(args.out_dir, "spans-%s-seed%d.jsonl"
                                  % (args.workload, args.seed)))
    metrics["tucker.audit_disagreements"] = workload.counters.get(
        "audit-disagreements", 0)
    by_kind = {}
    for i in plain:
        by_kind.setdefault(kinds[i], []).append(ref[i])
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "op_ms": [t * 1e3 for t in ref_s],
            "wall_op_ms": [t * 1e3 for t in wall_s],
            "kinds": {k: len(v) for k, v in by_kind.items()},
            "kind_p50_ms": {k: statistics.median(v) * 1e3
                            for k, v in by_kind.items()},
            "counters": workload.counters,
            "failures": notes_seen[:20]}


if __name__ == "__main__":
    sys.exit(main())
