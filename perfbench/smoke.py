"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny op count, untraced and traced, from the
root of the checkout this file lives in, and asserts that each run
exits 0, prints every metric with its unit, records the run, and has
fail_share 0.  Takes about a minute and a half; most of it is the
tucker-reduce ops.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# workload -> (untraced ops, traced ops); two tucker ops cover both
# probe strata, one cli-mix round has every request kind
OPS = {"grid-sweep": (14, 7), "cli-mix": (15, 15), "tucker-reduce": (2, 1)}
REPORTED = {"ops_per_s": "1/s", "op_p50_ms": "ms", "fail_share": "ratio",
            "setup_s": "s", "peak_rss_mb": "MB", "samples": "count"}
RECORD_KEYS = {"seed", "commit", "python", "nproc", "ops_by_kind"}


def run(workload, trace, ops):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "600",
           "--trace", str(trace), "--max-ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, (workload, trace, proc.stderr)
    lines = proc.stdout.splitlines()
    metrics = {}
    record = None
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            metrics[name] = (float(value), unit)
        elif line.startswith("record "):
            record = json.loads(line[len("record "):])
    return metrics, record, json.loads(lines[-1])


def check(workload, trace, ops, spec):
    metrics, record, summary = run(workload, trace, ops)
    where = "%s trace=%d" % (workload, trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}, \
        where
    assert summary["correct"] and summary["failed"] == 0, (where, record)
    assert metrics["fail_share"] == (0.0, "ratio"), where
    for name, unit in REPORTED.items():
        assert metrics[name][1] == unit, (where, name)
    samples = metrics["samples"][0]
    assert ("op_p90_ms" in metrics) == (samples >= 100), where
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in wanted}, where
    for m in wanted:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"], where
        assert metrics[m["name"]][1] == m["unit"], (where, m["name"])
    assert RECORD_KEYS <= set(record), where
    assert sum(record["ops_by_kind"].values()) == samples, where
    return metrics, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    assert [w["name"] for w in spec["workloads"]] == list(OPS)
    for workload, (plain_ops, traced_ops) in OPS.items():
        _, record = check(workload, 0, plain_ops, spec)
        if workload == "grid-sweep":
            assert {"feasible", "infeasible"} <= set(record["counters"])
        if workload == "tucker-reduce":
            assert {"decoded", "decode-negative"} <= set(record["counters"])
        metrics, _ = check(workload, 1, traced_ops, spec)
        assert metrics["tucker.audit_disagreements"][0] == 0
        print("ok %s" % workload, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
