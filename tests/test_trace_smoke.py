"""The benchmark's traced worker runs on this package.

test_trace_targets only checks that the names perfbench/tracer.py wraps
resolve; this runs perfbench/worker.py in trace mode, in a fresh
process, on a two-request deck: one certificate of the rank2-pipeline
workload and one Schubert ring of schubert-degrees.  So the wrapped
methods are called, and the ring-size hook reads ``SchubertRing.basis``.
The benchmark files are read, never changed.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_worker_runs_a_certificate_and_a_ring(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    certificate = next(
        e for e in workloads.build("rank2-pipeline", 1) if e["argv"][0] == "certificate"
    )
    ring = next(e for e in workloads.build("schubert-degrees", 1) if "ring" in e)
    job = {
        "mode": "trace",
        "deck": [certificate, ring],
        "seed": 1,
        "groups": [ring["ring"][0]],
        "passes": 1,
        "trace_path": str(tmp_path / "trace.jsonl"),
    }
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["attempted"] == 2
    assert result["failed"] == 0
    assert result["unexpected"] == []
    assert result["layers"]["schubert.ring_basis"] > 0
    assert (tmp_path / "trace.jsonl").exists()
