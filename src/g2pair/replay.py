"""Independent re-execution of certificate documents.

The checker reads the JSON form of a certificate (``to_json()`` of an
IdentityCertificate, the ``certificate`` member that ``verify-identity``
and ``certificate`` print) and works on it with its own arithmetic: a
class is a plain dict {(symbol, L-power): coefficient}, and it imports
nothing of the rewriter or of the class types that built the document,
so a bug in their arithmetic cannot pass here by being repeated.

Each recorded step is checked from its own data: the difference
after - before must be exactly one application of the step's rule,
meaning it removes a single atom of the rule's symbol and adds the
rule's right side at the same L-shift and coefficient.  A certificate
passes only if both chains replay, share their starting class, and
their recorded difference matches the actual difference of the final
forms.  The document is read as written: a missing key, a wrong
container, a float, a numeric string or a bool where an int belongs, a
symbol or justification that is not a string, a term listed twice or
with coefficient 0, and a rule symbol that is empty, "1" or on its own
right side are refused, as is any tampered coefficient, rule or
intermediate class, each with ReplayError.  A ``final_line``, if any,
must be the line rendered here from the replayed difference, so a
document claiming [X] - [Y] = 0 for L*[X] - L*[Y] is refused.
"""

from __future__ import annotations

from .errors import ReplayError

PURE = "1"

Class = dict  # {(symbol, L-power): coefficient}, no zero coefficients


def _get(doc, key: str, kind: type):
    """doc[key], which must exist and be a ``kind``."""
    if not isinstance(doc, dict):
        raise ReplayError(f"expected an object holding {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise ReplayError(f"missing {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ReplayError(f"{key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _add(a: Class, b: Class, coeff: int = 1, shift: int = 0) -> Class:
    """a + coeff * L^shift * b."""
    out = dict(a)
    for (s, p), c in b.items():
        key = (s, p + shift)
        out[key] = out.get(key, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


def _render(cls: Class) -> str:
    """The text of a class as the package prints it: terms in (symbol,
    L-power) order, sign-joined, each mag*L^p*[s] without its unit factors."""
    out = ""
    for (s, p), c in sorted(cls.items()):
        parts = [str(abs(c))] if abs(c) != 1 else []
        parts += [f"L^{p}" if p > 1 else "L"] if p else []
        parts += [f"[{s}]"] if s != PURE else []
        out += ((" + " if c > 0 else " - ") if out else ("" if c > 0 else "-"))
        out += "*".join(parts) or "1"
    return out or "0"


def _final_line(difference: Class) -> str:
    """The statement a certified difference proves: L is factored out when
    every term carries it, and never divided away."""
    if difference and all(p >= 1 for _, p in difference):
        return f"L*({_render({(s, p - 1): c for (s, p), c in difference.items()})}) = 0"
    return f"{_render(difference)} = 0"


def read_class(doc) -> Class:
    """The class of a {"terms": [[symbol, L-power, coefficient], ...]} document."""
    out: Class = {}
    for term in _get(doc, "terms", list):
        if not isinstance(term, list) or len(term) != 3:
            raise ReplayError(f"a term must be a [symbol, L-power, coefficient] list: {term!r}")
        s, p, c = term
        if not isinstance(s, str) or not s:
            raise ReplayError(f"symbol must be a nonempty str, got {s!r}")
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ReplayError(f"L-power must be a nonnegative int, got {p!r}")
        if isinstance(c, bool) or not isinstance(c, int) or not c:
            raise ReplayError(f"coefficient must be a nonzero int, got {c!r}")
        if (s, p) in out:
            raise ReplayError(f"term [{s}] at L^{p} is listed twice")
        out[s, p] = c
    return out


def check_step(step: dict) -> tuple[Class, Class]:
    """Confirm after = before with one atom of the rule's symbol replaced;
    returns the classes before and after the step."""
    rule = _get(step, "rule", dict)
    lhs, rhs = _get(rule, "lhs", object), read_class(_get(rule, "rhs", dict))
    if not isinstance(lhs, str) or lhs in ("", PURE):
        raise ReplayError(f"rule symbol must be a nonempty str other than {PURE!r}, got {lhs!r}")
    if not isinstance(rule.get("justification", ""), str):
        raise ReplayError("rule justification must be a str")
    if any(s == lhs for s, _ in rhs):
        raise ReplayError(f"rule right side mentions its own symbol [{lhs}]")
    before = read_class(_get(step, "before", dict))
    after = read_class(_get(step, "after", dict))
    diff = _add(after, before, -1)
    removed = [(p, c) for (s, p), c in diff.items() if s == lhs]
    if len(removed) != 1:
        raise ReplayError(f"step must consume one [{lhs}] atom, found {len(removed)} changed")
    ((power, c),) = removed
    if before.get((lhs, power)) != -c:
        raise ReplayError(f"step coefficient {-c} does not match the class before it")
    expected = _add({}, _add(rhs, {(lhs, 0): 1}, -1), -c, power)
    if diff != expected:
        raise ReplayError(
            f"step is not an application of [{lhs}] -> {sorted(rhs.items())}: "
            f"difference {sorted(diff.items())} != expected {sorted(expected.items())}"
        )
    return before, after


def check_derivation(derivation: dict) -> Class:
    """Replay a chain document; returns its final class."""
    cur = read_class(_get(derivation, "start", dict))
    for n, step in enumerate(_get(derivation, "steps", list)):
        before, after = check_step(step)
        if before != cur:
            raise ReplayError(
                f"step {n} starts from {sorted(before.items())}, chain is at {sorted(cur.items())}"
            )
        cur = after
    return cur


def check_document(doc: dict) -> Class:
    """Replay both chains of a certificate document; returns the certified difference."""
    left, right = _get(doc, "left", dict), _get(doc, "right", dict)
    left_final, right_final = check_derivation(left), check_derivation(right)
    if read_class(left["start"]) != read_class(right["start"]):
        raise ReplayError("chains start from different classes")
    actual = _add(left_final, right_final, -1)
    recorded = read_class(_get(doc, "difference", dict))
    if actual != recorded:
        raise ReplayError(
            f"recorded difference {sorted(recorded.items())} != replayed {sorted(actual.items())}"
        )
    if "final_line" in doc:
        line, want = _get(doc, "final_line", str), _final_line(actual)
        if line != want:
            raise ReplayError(f"final line {line!r} is not the replayed {want!r}")
    return actual


def check_certificate(cert) -> Class:
    """Replay a certificate object through its JSON document."""
    return check_document(cert.to_json())
