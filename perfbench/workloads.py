"""Seeded request decks for the three workloads, and the output checks.

A deck is one pass of requests with a fixed composition: which verbs run
on which types, and how often, never depends on the seed, so the cost mix
and every size count repeat from seed to seed.  The seed draws the rest:
output formats, sides, parabolic subsets, evaluation points, caps and
ample weights, plus the order of every pass.  Expected outputs are
computed here from ``oracle`` before any worker starts.
"""

from __future__ import annotations

import functools
import itertools
import json
import random

import oracle

RANK2_TYPES = ("G2", "B2", "C2", "A2", "[[2,-1],[-3,2]]", "[[2,-3],[-1,2]]")
DEGENERATE = "[[2,0],[0,2]]"  # A1xA1: the pipeline must refuse it (exit 1)
# Weighted so the median falls among the 12 B4/C4 requests of a pass and
# the tail among the 6 D5 requests, not between clusters of unequal cost.
WEYL_TYPES = ("B3", "C3", "A4", "D4", "B4", "B4", "C4", "C4", "A5", "F4", "D5", "D5")
NON_FINITE = ("[[2,-3],[-3,2]]", "[[2,-2],[-2,2]]")
RING_TYPES = ("B3", "C3", "A4", "D4", "B4", "C4", "F4")

KNOWN_DEFECT = "degenerate literal accepted instead of exit 1 (ROADMAP item 3)"


@functools.cache
def _oracle(type_name: str) -> oracle.Oracle:
    return oracle.Oracle(oracle.cartan(type_name))


def _nodes(nodes) -> str:
    return ",".join(str(i) for i in nodes)


def _cli(verb: str, type_name: str, fmt: str, expect: dict, *extra: str) -> dict:
    return {"argv": [verb, type_name, *extra, "--format", fmt],
            "expect": dict(expect, verb=verb, type=type_name, format=fmt)}


def rank2_pipeline(rng: random.Random) -> list[dict]:
    fmt = lambda: rng.choice(("text", "json"))
    deck = []
    for t in RANK2_TYPES * 3:
        deck.append(_cli("certificate", t, fmt(), {}))
    for t in RANK2_TYPES:
        deck.append(_cli("verify-identity", t, fmt(), {}))
    for t in RANK2_TYPES + ("G2", "[[2,-3],[-1,2]]"):
        side = rng.choice((1, 2))
        deck.append(_cli("degree", t, fmt(), {"side": side}, "--side", str(side)))
    for t in RANK2_TYPES[:4]:
        p, q = rng.choice(((1,), (2,))), rng.choice((None, 2, 3, 5))
        extra = ["--parabolic", _nodes(p)] + (["--at", str(q)] if q else [])
        deck.append(_cli("poincare", t, fmt(), {"parabolic": p, "at": q}, *extra))
    for t in RANK2_TYPES[2:]:
        p = rng.choice(((1,), (2,)))
        deck.append(_cli("cosets", t, fmt(), {"parabolic": p}, "--parabolic", _nodes(p)))
    side = rng.choice((1, 2))
    for entry in (_cli("certificate", DEGENERATE, fmt(), {"exit": 1}),
                  _cli("degree", DEGENERATE, fmt(), {"exit": 1}, "--side", str(side))):
        entry["defect"] = KNOWN_DEFECT
        deck.append(entry)
    return deck


def weyl_scaling(rng: random.Random) -> list[dict]:
    fmt = lambda: rng.choice(("text", "json"))
    deck = []
    # cosets prints |W|/|W_P| words, so its cost follows |P| and the format:
    # one seeded node (|W^P| = |W|/2) and a fixed format per slot keep the
    # cost mix the same for every seed.
    for t, coset_fmt in zip(WEYL_TYPES, itertools.cycle(("json", "text"))):
        rank = _oracle(t).rank
        deck.append(_cli("weyl-order", t, fmt(), {}))
        p = (rng.randint(1, rank),)
        deck.append(_cli("cosets", t, coset_fmt, {"parabolic": p}, "--parabolic", _nodes(p)))
        p = tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(0, rank - 1))))
        q = rng.choice((None, 2, 3, 4, 5, 7, 8, 9))
        extra = (["--parabolic", _nodes(p)] if p else []) + (["--at", str(q)] if q else [])
        deck.append(_cli("poincare", t, fmt(), {"parabolic": p, "at": q}, *extra))
    for t in NON_FINITE:
        verb, cap = rng.choice(("weyl-order", "cosets", "poincare")), rng.choice((500, 750, 1000))
        extra = ["--cap", str(cap)] + (["--parabolic", "1"] if verb == "cosets" else [])
        deck.append(_cli(verb, t, fmt(), {"exit": 1}, *extra))
    return deck


def schubert_degrees(rng: random.Random) -> list[dict]:
    deck = []
    for t in RING_TYPES:
        o = _oracle(t)
        # Picard rank 1 or 2 on rank 3 and 4; F4 only maximal, twice each,
        # so its two 20-dimensional quotients form a tail cluster of 4 in 60.
        sizes = (1, 2) if o.rank == 3 else (3, 3) if t == "F4" else (2, 3)
        for k in sizes:
            for p in itertools.combinations(range(1, o.rank + 1), k):
                weights = [0 if i in p else rng.randint(1, 3) for i in range(1, o.rank + 1)]
                deck.append({"ring": [t, list(p), weights],
                             "expect": {"degree": o.top_degree(p, weights)}})
    return deck


WORKLOADS = {
    "rank2-pipeline": rank2_pipeline,
    "weyl-scaling": weyl_scaling,
    "schubert-degrees": schubert_degrees,
}
SETUP_GROUPS = {"schubert-degrees": RING_TYPES}
TRACE_PASSES = {"rank2-pipeline": 10, "weyl-scaling": 1, "schubert-degrees": 2}


def label(entry: dict) -> str:
    if "ring" in entry:
        t, p, w = entry["ring"]
        return f"SchubertRing({t}, P={p}) lambda={w}"
    return "g2pair " + " ".join(entry["argv"])


def build(workload: str, seed: int) -> list[dict]:
    deck = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for entry in deck:
        _fill_expectations(entry["expect"])
    return deck


def _fill_expectations(e: dict) -> None:
    if "verb" not in e or "exit" in e:
        return
    o = _oracle(e["type"])
    if e["verb"] == "weyl-order":
        e["order"] = o.order
    elif e["verb"] == "cosets":
        e["lengths"] = o.coset_lengths(e["parabolic"])
    elif e["verb"] == "poincare":
        e["pairs"] = o.poincare_pairs(e["parabolic"])
        if e["at"] is not None:
            e["value"] = sum(c * e["at"] ** k for k, c in e["pairs"])
    elif e["verb"] == "degree":
        g2 = o.g2_degrees()
        e["degree"] = g2[e["side"] - 1] if g2 else None
    elif e["verb"] == "certificate":
        e["order"] = o.order
        e["lengths"] = [o.coset_lengths((1,)), o.coset_lengths((2,))]
        e["pairs"] = [o.poincare_pairs((1,)), o.poincare_pairs((2,)), o.poincare_pairs(())]
        e["degrees"] = o.g2_degrees()


# ---------------------------------------------------------------- checks


def check(entry: dict, rc, out: str, err: str, degrees_seen: dict) -> str | None:
    """None when the output is right, else the reason it is wrong.  Degrees
    of rank-2 types without a hand-written value are collected in
    ``degrees_seen`` (type -> set of values) so both sides can be compared
    once the run is over."""
    e = entry["expect"]
    if "exit" in e:
        if rc != e["exit"] or out or not err.startswith("error: "):
            return f"expected exit {e['exit']} with an error line, got exit {rc}"
        return None
    if rc != 0 or err:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        reason = _check_output(e, out, degrees_seen)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        reason = f"unreadable output: {exc!r}"
    return reason


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


def _check_output(e: dict, out: str, degrees_seen: dict) -> str | None:
    if "degree" in e and "verb" not in e:
        return _expect(int(out) == e["degree"], f"top degree {out.strip()} != {e['degree']}")
    text = out.rstrip("\n")
    doc = json.loads(text) if e["format"] == "json" else None
    verb = e["verb"]
    if verb == "weyl-order":
        got = doc["order"] if doc else int(text)
        return _expect(got == e["order"], f"order {got} != {e['order']}")
    if verb == "cosets":
        if doc:
            reps = doc["representatives"]
            lengths = [r["length"] for r in reps]
            if any(len(r["word"]) != r["length"] or oracle.word_length(r["name"]) != r["length"]
                   for r in reps) or doc["count"] != len(reps):
                return "coset words, names, lengths or count disagree"
            if doc["parabolic"] != sorted(set(e["parabolic"])):
                return f"parabolic {doc['parabolic']} != {e['parabolic']}"
        else:
            lengths = [oracle.word_length(n) for n in text.split("\n")]
        return _expect(lengths == e["lengths"], "coset lengths differ from the cell counts")
    if verb == "poincare":
        if e["at"] is not None:
            got = doc["value"] if doc else int(text)
            if got != e["value"]:
                return f"value at {e['at']}: {got} != {e['value']}"
            if not doc:
                return None
        pairs = doc["pairs"] if doc else oracle.parse_poly(text)
        if doc and oracle.parse_poly(doc["text"]) != pairs:
            return "json text and pairs disagree"
        return _expect(pairs == e["pairs"], f"cell counts {pairs} != {e['pairs']}")
    if verb == "degree":
        got = doc["degree"] if doc else int(text)
        if e["degree"] is None:
            degrees_seen.setdefault(e["type"], set()).add(got)
            return None
        return _expect(got == e["degree"], f"degree side {e['side']}: {got} != {e['degree']}")
    if verb == "verify-identity":
        if doc:
            cert = doc["certificate"]
            return _expect(cert["final_line"] == oracle.IDENTITY_LINE
                           and cert["difference"] == oracle.IDENTITY_DIFFERENCE
                           and doc["replay"]["ok"] is True, "identity not certified")
        return _expect(text.split("\n")[-1] == oracle.IDENTITY_LINE, "identity not certified")
    if verb == "certificate":
        return _check_certificate(e, text, doc, degrees_seen)
    return f"no check for verb {verb}"


def _check_certificate(e: dict, text: str, doc, degrees_seen: dict) -> str | None:
    if doc:
        cert = doc["certificate"]
        order = doc["weyl_order"]
        lengths = [[oracle.word_length(n) for n in doc["cosets"][s]] for s in ("side1", "side2")]
        pairs = [doc["poincare"][k] for k in ("side1", "side2", "full_flag")]
        degrees = (doc["degrees"]["side1"], doc["degrees"]["side2"])
        certified = (cert["final_line"] == oracle.IDENTITY_LINE
                     and cert["difference"] == oracle.IDENTITY_DIFFERENCE
                     and doc["replay"]["ok"] is True and doc["poincare"]["equal"] is True
                     and doc["cosets"]["length_bijection_ok"] is True)
    else:
        lines = text.split("\n")
        order = int(lines[1].removeprefix("weyl group order: "))
        at = lines.index("minimal coset representatives, side 2:")
        end = next(k for k, ln in enumerate(lines) if ln.startswith("length bijection"))
        lengths = [[oracle.word_length(n.strip()) for n in lines[3:at]],
                   [oracle.word_length(n.strip()) for n in lines[at + 1:end]]]
        pairs = [oracle.parse_poly(lines[end + k + 1].partition(": ")[2]) for k in range(3)]
        deg_at = lines.index("degrees of the zero loci:")
        degrees = tuple(int(lines[deg_at + k].partition(": ")[2]) for k in (1, 2))
        verdict = "differ" if degrees[0] != degrees[1] else "agree"
        certified = (lines[deg_at - 1] == "  " + oracle.IDENTITY_LINE
                     and f"the degrees {verdict}" in lines[deg_at + 3])
    if not certified:
        return "identity not certified"
    if order != e["order"]:
        return f"order {order} != {e['order']}"
    if lengths != e["lengths"]:
        return "coset lengths differ from the cell counts"
    if pairs != e["pairs"]:
        return f"cell counts {pairs} != {e['pairs']}"
    if e["degrees"] is None:
        degrees_seen.setdefault(e["type"], set()).update(degrees)
        return None
    return _expect(degrees == tuple(e["degrees"]), f"degrees {degrees} != {e['degrees']}")
