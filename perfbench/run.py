"""g2pair benchmark: one command, every metric with its unit.

    python3 perfbench/run.py --workload rank2-pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of one workload, ``--trace 1`` the per-layer metrics;
``--workload all`` runs both for every workload.  Metric names and units
come from BENCHMARK.json.  Human-readable lines come first; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exits 2 without a result when the g2pair sources are missing.

Times are at reference speed: each measured time is scaled by how fast
the benchmark's own reference kernel ran around it (see worker.py), and
the measured value is printed beside it.

Every worker is a fresh process (``worker.py``) and workers run one at a
time: each untraced run is one measuring worker with SETUP_PROBES
set-up-only workers before and after it, each traced run an untraced and a traced worker on
the same fixed deck plus one worker for the ROADMAP baseline matrix.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
DEADLINE_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    pass


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies_ns: list[float], requests: list[int]) -> tuple[float, float, int]:
    """Highest percentile in TAIL_PERCENTILES with at least 10 samples
    beyond it (nearest rank): (percentile, value in ms, samples beyond).

    Each sample is the median latency of its request (deck entry) over all
    its repeats in the run, so the tail ranks requests by their usual cost
    and a host stall that hits one repeat does not move it."""
    runs: dict = {}
    for k, t in zip(requests, latencies_ns):
        runs.setdefault(k, []).append(t)
    usual = {k: statistics.median(ts) for k, ts in runs.items()}
    ordered = sorted(usual[k] for k in requests)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10 or p == TAIL_PERCENTILES[-1]:
            return p, ordered[rank - 1] / 1e6, n - rank


def end_to_end(workload: str, seed: int, seconds: int, deck: list, deadline: float):
    job = {"deck": deck, "seed": seed, "groups": workloads.SETUP_GROUPS.get(workload, [])}
    probe = lambda: worker(dict(job, mode="setup"), deadline)
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    run = worker(dict(job, mode="measure", seconds=seconds, passes=None), deadline)
    probes += [run] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [p["setup_ns"] * p["setup_scale"] for p in probes]
    raw_lat, scales = run["latencies_ns"], run["scales"]
    lat = [t * s for t, s in zip(raw_lat, scales)]
    cpu = [t * s for t, s in zip(run["cpus_ns"], scales)]
    p, tail_ms, beyond = tail(lat, run["requests"])
    n = run["attempted"]
    metrics = {
        "setup_s": statistics.median(setups) / 1e9,
        "throughput_rps": n / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_req": sum(cpu) / 1e6 / n,
        "peak_rss_mb": run["rss_kb"] / 1024,
        "success_rate": 1 - run["failed"] / n,
    }
    measured = lambda v: f"measured {v:.4g}"
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers; "
                   + measured(statistics.median(p["setup_ns"] for p in probes) / 1e9),
        "throughput_rps": f"{run['passes']} passes of {len(deck)} requests; "
                          + measured(n / (sum(raw_lat) / 1e9)),
        "latency_p50_ms": measured(statistics.median(raw_lat) / 1e6)
                          + f"; reference speed {statistics.median(scales):.3f}"
                          + f" ({min(scales):.3f} to {max(scales):.3f})",
        "latency_tail_ms": f"p{p:g} of {n} samples, {beyond} beyond it, each its "
                           f"request's median over {run['passes']} passes; "
                           + measured(tail(raw_lat, run["requests"])[1]),
        "cpu_ms_per_req": measured(sum(run["cpus_ns"]) / 1e6 / n),
        "success_rate": f"error_rate {run['failed'] / n:.4f}: {run['failed']} of {n} failed",
    }
    return metrics, notes, [run]


def per_layer(workload: str, seed: int, deck: list, deadline: float):
    job = {"deck": deck, "seed": seed, "groups": workloads.SETUP_GROUPS.get(workload, []),
           "passes": workloads.TRACE_PASSES[workload], "seconds": None,
           "trace_path": os.path.join(HERE, "traces", f"{workload}-seed{seed}.jsonl")}
    plain = worker(dict(job, mode="measure"), deadline)
    traced = worker(dict(job, mode="trace"), deadline)
    base = worker(dict(job, mode="baseline"), deadline)
    metrics = dict(traced["layers"])
    metrics.update(base["metrics"])
    metrics["cli.import_ms"] = (plain["import_ns"] + traced["import_ns"]) / 2e6
    metrics["cli.stdout_bytes"] = traced["stdout_bytes"]
    busy = lambda r: sum(t * s for t, s in zip(r["latencies_ns"], r["scales"]))
    metrics["trace.overhead_frac"] = busy(traced) / busy(plain) - 1
    notes = {"trace.overhead_frac": f"{traced['attempted']} requests, spans in "
                                    f"{os.path.relpath(job['trace_path'], ROOT)}"}
    return metrics, notes, [plain, traced]


def measure(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    deck = workloads.build(workload, seed)
    wanted = spec()["per_layer" if trace else "end_to_end"]
    if trace:
        metrics, notes, runs = per_layer(workload, seed, deck, deadline)
    else:
        metrics, notes, runs = end_to_end(workload, seed, seconds, deck, deadline)
    print(f"workload {workload}, seed {seed}, trace {trace}")
    out = {}
    for m in wanted:
        value = float(metrics.get(m["name"], 0))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<46} {value:>14.6g} {m['unit']}{note}")
    unexpected = sorted({u for r in runs for u in r["unexpected"]})
    for defect in sorted({d for r in runs for d in r["known_defects"]}):
        print(f"  known defect counted as failed: {defect}")
    for u in unexpected:
        print(f"  WRONG: {u}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": runs[-1]["attempted"],
            "failed": runs[-1]["failed"], "metrics": out}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.seconds = args.seconds or spec()["run_seconds"]
    if not os.path.isfile(os.path.join(ROOT, "src", "g2pair", "__init__.py")):
        print("perfbench: no g2pair sources under src/g2pair; run from a full checkout",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/g2pair"],
                   cwd=ROOT, check=True, capture_output=True)
    try:
        if args.workload != "all":
            deadline = time.monotonic() + DEADLINE_S
            result = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
        else:
            parts = {}
            for w in workloads.WORKLOADS:
                for trace in (0, 1):
                    deadline = time.monotonic() + DEADLINE_S
                    parts[w, trace] = measure(w, args.seed, args.seconds, trace, deadline)
            result = {
                "correct": all(r["correct"] for r in parts.values()),
                "attempted": sum(r["attempted"] for r in parts.values()),
                "failed": sum(r["failed"] for r in parts.values()),
                "metrics": {f"{w}.{k}": v for (w, _), r in parts.items()
                            for k, v in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
