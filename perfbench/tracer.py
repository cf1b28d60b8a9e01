"""Spans around g2pair's public functions, installed from outside.

Each wrapped call appends one span record [name id, parent span, request,
start ns, end ns] to an in-memory list; nothing is written until the run
ends.  Functions are re-bound in every g2pair module that holds a
reference (``g2pair.cli`` imports ``degree_of_zero_locus`` and friends by
name), so no call escapes through an alias.  Classes are patched in
place, which covers every alias at once (``cli.WeylGroup`` is
``weyl.WeylGroup``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _chevalley_terms(counts: Counter, args, result) -> None:
    counts["schubert.chevalley.terms_in"] += len(args[2].coefficients())
    counts["schubert.chevalley.terms_out"] += len(result.coefficients())


# (module, owner class or None, attribute, span name, count hook)
TARGETS = (
    ("rootsys", None, "root_system", "rootsys.root_system", None),
    ("rootsys", None, "generate_root_system", "rootsys.generate_root_system",
     lambda c, a, r: c.update({"rootsys.positive_roots": len(r.positive_roots)})),
    ("weyl", "WeylGroup", "__init__", "weyl.WeylGroup",
     lambda c, a, r: c.update({"weyl.group_elements": a[0].order})),
    ("weyl", "WeylGroup", "min_coset_reps", "weyl.min_coset_reps",
     lambda c, a, r: c.update({"weyl.coset_reps": len(r)})),
    ("weyl", "WeylGroup", "reflections", "weyl.reflections", None),
    ("weyl", "WeylElement", "__mul__", "weyl.mul", None),
    ("motive", None, "poincare_polynomial", "motive.poincare_polynomial", None),
    ("grothring", None, "verify_g2_identity", "grothring.verify_g2_identity", None),
    ("grothring", None, "normal_form", "grothring.normal_form",
     lambda c, a, r: c.update({"grothring.rewrite_steps": len(r[1].steps)})),
    ("replay", None, "check_certificate", "replay.check_certificate",
     lambda c, a, r: c.update(
         {"replay.steps_checked": len(a[0].left.steps) + len(a[0].right.steps)})),
    ("schubert", "SchubertRing", "__init__", "schubert.SchubertRing",
     lambda c, a, r: c.update({"schubert.ring_basis": len(a[0].basis)})),
    ("schubert", "SchubertRing", "chevalley", "schubert.chevalley", _chevalley_terms),
    ("schubert", None, "pushforward", "schubert.pushforward", None),
    ("schubert", None, "chern_of_pushforward_bundle",
     "schubert.chern_of_pushforward_bundle", None),
    ("schubert", None, "degree_of_zero_locus", "schubert.degree_of_zero_locus", None),
    ("cli", None, "build_parser", "cli.build_parser", None),
    ("cli", None, "run", "cli.run", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.request = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, stack[-1], self.request, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; raise if an unwrapped alias is left behind."""
        modules = [m for k, m in sys.modules.items() if k == "g2pair" or k.startswith("g2pair.")]
        originals = []
        for mod_name, owner, attr, name, hook in TARGETS:
            module = sys.modules[f"g2pair.{mod_name}"]
            if owner is not None:
                cls = getattr(module, owner)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))
                continue
            original = getattr(module, attr)
            originals.append(original)
            traced = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for mod in modules:
            for key, value in vars(mod).items():
                if any(value is orig for orig in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} escaped tracing")
        self._request = self.wrap("request", lambda fn, *args: fn(*args))

    def run_request(self, fn, *args):
        """Run one benchmark request under its own root span."""
        self.request += 1
        return self._request(fn, *args)

    def layer_totals(self) -> dict[str, float]:
        """calls and self time (span minus direct children) per span name."""
        child_ns = [0] * len(self.spans)
        for nid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for k, (nid, _, _, start, end) in enumerate(self.spans):
            calls[nid] += 1
            self_ns[nid] += end - start - child_ns[k]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_ms"] = self_ns[nid] / 1e6
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        """One JSON row per span: [id, name, parent id, request, start ns, end ns]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for k, (nid, parent, req, start, end) in enumerate(self.spans):
                fh.write(json.dumps([k, nid, parent, req, start, end]) + "\n")
