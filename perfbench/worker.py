"""One benchmark worker: a fresh process that imports g2pair, sets up and
runs a deck in a closed loop with one client.

Reads its job as JSON on stdin and prints its result as one JSON line on
stdout.  Modes:

- ``setup``: import and set up, report the set-up time, exit;
- ``measure``: run passes of the deck untraced, either until the time
  budget is spent or for a fixed number of passes;
- ``trace``: the same with spans around every public g2pair layer;
- ``baseline``: the ROADMAP layer x type matrix (roots, enumeration,
  ``SchubertRing(G/B)`` for G2, F4, B5).

g2pair sees only the requests; every output is checked after the timed
loop against expectations computed before the worker started.

Every time is also reported at reference speed.  The shared host's speed
drifts by tens of percent within seconds, and it moves the benchmark's
own reference kernel (``reference``) with it.  After each request, outside
its timed region, the worker times the kernel a few times.  A request's
reference-speed time is its measured time times REF_NS over the median
kernel time within REF_WINDOW_NS of the request.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BASELINE_TYPES = {"G2": 5, "F4": 3, "B5": 1}  # type -> repeats of the enumeration

# Reference kernel: the orbit of 2*rho under the Weyl group of A3, acting
# on simple-root coordinates by the simple reflections (24 points; tuples,
# integer sums and a set, like g2pair's own inner loops).
REF_GENERATORS = tuple(
    tuple(tuple((-1 if i == j else 1 if abs(i - j) == 1 else 0) if i == k else int(i == j)
                for j in range(3)) for i in range(3))
    for k in range(3))
REF_NS = 300_000  # the kernel's median time on the reference host (see README)
REF_MIN_REPS = 2  # kernel runs after every request ...
REF_SHARE = 0.1   # ... and at least this share of the request's latency
REF_WINDOW_NS = 500_000_000
SETUP_REF_REPS = 41


def reference() -> int:
    start = (3, 4, 3)
    seen, frontier = {start}, [start]
    while frontier:
        v = frontier.pop()
        for g in REF_GENERATORS:
            w = tuple(sum(a * b for a, b in zip(row, v)) for row in g)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen)


def time_reference(samples: list, reps: int, min_ns: float = 0) -> None:
    """Run the kernel at least ``reps`` times and for at least ``min_ns``,
    appending (start ns, duration ns) to ``samples``.  The collector is off:
    the kernel makes no cycles, so refcounting frees all it allocates."""
    gc.disable()
    spent = n = 0
    while n < reps or spent < min_ns:
        t = time.perf_counter_ns()
        reference()
        d = time.perf_counter_ns() - t
        samples.append((t, d))
        spent += d
        n += 1
    gc.enable()


def speed_scales(starts: list, latencies: list, samples: list) -> list:
    """REF_NS over the median kernel time within REF_WINDOW_NS of each request."""
    times = [t for t, _ in samples]
    scales = []
    for start, lat in zip(starts, latencies):
        lo = bisect.bisect_left(times, start - REF_WINDOW_NS)
        hi = bisect.bisect_right(times, start + lat + REF_WINDOW_NS)
        scales.append(REF_NS / statistics.median(d for _, d in samples[lo:hi]))
    return scales


def _ms(ns: int) -> float:
    return ns / 1e6


def baseline() -> dict:
    from g2pair import SchubertRing, WeylGroup, root_system

    def median_ms(fn, repeats):
        times = []
        for _ in range(repeats):
            t = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t)
        return _ms(statistics.median(times))

    out = {}
    for t, repeats in BASELINE_TYPES.items():
        out[f"baseline.{t}.positive_roots_ms"] = median_ms(lambda: root_system(t), 5)
        rs, built = root_system(t), []
        out[f"baseline.{t}.weyl_enumeration_ms"] = median_ms(
            lambda: built.append(WeylGroup(rs)), repeats)
        group = built.pop()
        built.clear()
        out[f"baseline.{t}.schubert_ring_ms"] = median_ms(lambda: SchubertRing(group, ()), 3)
    return out


def main() -> None:
    job = json.load(sys.stdin)
    mode, deck = job["mode"], job["deck"]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter_ns()
    from g2pair import DivisorClass, SchubertRing, WeylGroup, cli, root_system
    import_ns = time.perf_counter_ns() - t0

    if mode == "baseline":
        print(json.dumps({"metrics": baseline()}))
        return

    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    groups = {t: WeylGroup(root_system(t)) for t in job["groups"]}
    setup_ns = time.perf_counter_ns() - t0
    # The reference speed around set-up: kernel runs just after it (the
    # first few, while the interpreter warms up, are dropped by the median).
    setup_ref: list = []
    time_reference(setup_ref, SETUP_REF_REPS)
    setup_scale = REF_NS / statistics.median(d for _, d in setup_ref)
    if mode == "setup":
        print(json.dumps({"setup_ns": setup_ns, "setup_scale": setup_scale}))
        return

    def call_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()

    def call_ring(type_name, parabolic, weights):
        ring = SchubertRing(groups[type_name], parabolic)
        lam = DivisorClass(tuple(weights))
        x = ring.one()
        for _ in range(ring.dimension):
            x = ring.chevalley(lam, x)
        return 0, str(ring.integrate(x)), ""

    calls = [(call_ring, e["ring"]) if "ring" in e else (call_cli, (e["argv"],)) for e in deck]
    rng = random.Random(f"order:{job['seed']}")
    order = list(range(len(deck)))
    first: dict[int, tuple] = {}
    runs = [0] * len(deck)
    drift = [0] * len(deck)  # repeats whose output differs from the first
    starts: list[int] = []
    requests: list[int] = []  # deck index of each timed request
    latencies: list[int] = []
    cpus: list[int] = []
    ref_samples: list = []
    stdout_bytes = passes = 0
    gc.freeze()  # the benchmark's own objects stay out of every collection
    time_reference(ref_samples, REF_MIN_REPS)
    wall0 = time.perf_counter_ns()
    while True:
        rng.shuffle(order)
        for k in order:
            # Start every request from the same collector state, outside the
            # timed region: the request pays for the collections its own
            # allocations trigger, not for garbage left by the one before.
            gc.collect()
            fn, args = calls[k]
            start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
            try:
                result = tracer.run_request(fn, *args) if tracer else fn(*args)
            except Exception as exc:  # a crash is a failed request, not a failed run
                result = (None, "", f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter_ns() - start)
            cpus.append(time.process_time_ns() - cpu_start)
            starts.append(start)
            requests.append(k)
            time_reference(ref_samples, REF_MIN_REPS, REF_SHARE * latencies[-1])
            runs[k] += 1
            if k not in first:
                first[k] = result
            elif result != first[k]:
                drift[k] += 1
            if fn is call_cli:
                stdout_bytes += len(result[1])
        passes += 1
        elapsed = time.perf_counter_ns() - wall0
        if job["passes"] is not None:
            if passes >= job["passes"]:
                break
        elif elapsed + elapsed / passes / 2 >= job["seconds"] * 1e9:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    degrees_seen: dict = {}
    reasons = {k: workloads.check(deck[k], *first[k], degrees_seen) for k in first}
    for k in reasons:
        t = deck[k]["expect"].get("type")
        if reasons[k] is None and len(degrees_seen.get(t, ())) > 1:
            reasons[k] = f"the two sides of {t} disagree: {sorted(degrees_seen[t])}"
    # A wrong first output fails every run of that request; otherwise only
    # the repeats whose bytes differ from the first fail.
    failed = sum(runs[k] if reasons[k] else drift[k] for k in reasons)
    for k in reasons:
        if reasons[k] is None and drift[k]:
            reasons[k] = f"{drift[k]} repeats gave different output"
    unexpected = sorted({f"{workloads.label(deck[k])}: {r}" for k, r in reasons.items()
                         if r and "defect" not in deck[k]})
    known = sorted({deck[k]["defect"] for k, r in reasons.items() if r and "defect" in deck[k]})

    scales = speed_scales(starts, latencies, ref_samples)
    result = {
        "import_ns": import_ns, "setup_ns": setup_ns, "setup_scale": setup_scale,
        "latencies_ns": latencies, "cpus_ns": cpus, "scales": scales, "requests": requests,
        "passes": passes, "rss_kb": rss_kb,
        "attempted": len(latencies), "failed": failed,
        "unexpected": unexpected, "known_defects": known, "stdout_bytes": stdout_bytes,
    }
    if tracer:
        result["layers"] = tracer.layer_totals()
        os.makedirs(os.path.dirname(job["trace_path"]), exist_ok=True)
        tracer.write(job["trace_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
