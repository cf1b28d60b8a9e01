"""Formal classes of varieties and scissor-relation rewriting.

A MotivicClass is a finite integer combination of atoms L^k*[S], where S
is an opaque variety symbol and the reserved symbol "1" marks pure
L-polynomial terms; its linear arithmetic (sums and int multiples) is
the Combination base it shares with LPolynomial (motive.py), and its one
other operation is the shift times_L.  No product of two classes is
defined: nothing here knows the geometry of such a product.

Rewrite rules substitute a symbol by a class (scissor relations, cell
decompositions).  normal_form applies rules deterministically - rule
declaration order first, lowest L-power atom next - and records every
step, so the result travels with a Derivation.  Every object here has
one way out, to_json; the separate checker (replay.py) re-executes that
document with its own arithmetic, without trusting this module.

verify_g2_identity builds the certificate for the zero-divisor identity:
two chains rewrite the same divisor symbol [D] through the two blow-up
relations and cell decompositions; their final forms differ by
L*[X] - L*[Y], which must therefore vanish in the ring.  Nothing ever
divides by L, so the certificate asserts L*([X] - [Y]) = 0 and
deliberately cannot conclude [X] = [Y].
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import CircularRuleError, PoincareMismatchError
from .motive import Combination, LPolynomial, l_power
from .rootsys import Record, check_int

PURE = "1"

TermKey = tuple[str, int]


class MotivicClass(Combination):
    """Finitely supported map (symbol, L-power) -> integer coefficient."""

    __slots__ = ()

    def _key(self, key) -> TermKey:
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValueError(f"term key must be a (symbol, L-power) pair, got {key!r}")
        sym, power = key
        if not isinstance(sym, str) or not sym:
            raise ValueError("symbol must be a nonempty string")
        power = power if type(power) is int else check_int(power, "L-power")
        if power < 0:
            raise ValueError("L-power must be nonnegative")
        return (sym, power)

    @classmethod
    def atom(cls, symbol: str, power: int = 0, coeff: int = 1) -> "MotivicClass":
        return cls({(symbol, power): coeff})

    @classmethod
    def from_lpoly(cls, p: LPolynomial) -> "MotivicClass":
        return cls({(PURE, d): c for d, c in p.coefficients().items()})

    def symbols(self) -> set[str]:
        return {s for (s, _) in self._terms if s != PURE}

    def times_L(self, power: int) -> "MotivicClass":
        if check_int(power, "L-power") < 0:  # p + power is an exact int
            raise ValueError("L-power must be nonnegative")
        return self._with({(s, p + power): c for (s, p), c in self._terms.items()})

    def _body(self, key: TermKey, mag: int) -> str:
        s, p = key
        if s == PURE:
            return l_power(p, mag)
        if p == 0:
            return f"[{s}]" if mag == 1 else f"{mag}*[{s}]"
        return f"{l_power(p, mag)}*[{s}]"

    def __repr__(self) -> str:
        return f"MotivicClass({self._terms})"

    def to_json(self) -> dict:
        return {"terms": [[s, p, c] for (s, p), c in self._terms.items()]}


class RewriteRule(Record):
    """Substitution [lhs] -> rhs.  The lhs symbol may not reappear on the
    right, so each application eliminates it."""

    _fields = ("lhs", "rhs", "justification")

    def __new__(cls, lhs: str, rhs: MotivicClass, justification: str = "") -> RewriteRule:
        if not isinstance(lhs, str) or not lhs:
            raise ValueError("rule symbol must be a nonempty string")
        if lhs == PURE:
            raise ValueError("the pure symbol cannot head a rewrite rule")
        if not isinstance(rhs, MotivicClass):
            raise ValueError(f"rule right side must be a MotivicClass, got {type(rhs).__name__}")
        if lhs in rhs.symbols():
            raise ValueError(f"rule right side mentions its own symbol [{lhs}]")
        if not isinstance(justification, str):
            raise ValueError("rule justification must be a string")
        return tuple.__new__(cls, (lhs, rhs, justification))

    @property
    def name(self) -> str:
        return f"[{self.lhs}] -> {self.rhs}"

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs.to_json(),
            "justification": self.justification,
        }


def blowup_rule(total: str, ambient: str, center: str) -> RewriteRule:
    """Scissor relation of a blow-up with line fibers over the center:

        [total] = [ambient] + L*[center]

    obtained from [total] = [total minus exceptional] + [exceptional],
    with the complement untouched and the exceptional locus fibered in
    lines: [exceptional] = (1 + L)*[center] minus the embedded copy of
    the center leaves [ambient] + L*[center].  All three pieces are
    distinct opaque symbols.
    """
    if not all(isinstance(p, str) for p in (total, ambient, center)):
        raise ValueError("blow-up pieces must be symbols")
    if len({total, ambient, center}) != 3:
        raise ValueError("blow-up pieces must use distinct symbols")
    return RewriteRule(
        lhs=total,
        rhs=MotivicClass.atom(ambient) + MotivicClass.atom(center, power=1),
        justification=f"blow-up structure: [{total}] splits off the center with line fibers",
    )


class Step(Record):
    __slots__ = ()
    _fields = ("before", "rule", "after")

    def __new__(cls, before: MotivicClass, rule: RewriteRule, after: MotivicClass) -> Step:
        return tuple.__new__(cls, (before, rule, after))

    def to_json(self) -> dict:
        return {
            "before": self.before.to_json(),
            "rule": self.rule.to_json(),
            "after": self.after.to_json(),
        }


class Derivation(Record):
    """Chain of single-substitution steps from ``start``."""

    __slots__ = ()
    _fields = ("start", "steps")

    def __new__(cls, start: MotivicClass, steps: tuple[Step, ...]) -> Derivation:
        return tuple.__new__(cls, (start, steps))

    @property
    def final(self) -> MotivicClass:
        return self.steps[-1].after if self.steps else self.start

    def render_text(self, indent: str = "") -> str:
        lines = [f"{indent}{self.start}"]
        for step in self.steps:
            lines.append(f"{indent}  = {step.after}    via {step.rule.name}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "steps": [s.to_json() for s in self.steps]}


def _check_acyclic(rules: tuple[RewriteRule, ...]) -> None:
    """Edges run from each rule's symbol to each rule symbol on its right;
    a cycle raises CircularRuleError, named from its smallest symbol."""
    from graphlib import CycleError, TopologicalSorter

    heads = {r.lhs for r in rules}
    order = TopologicalSorter()
    for r in rules:
        for s in sorted(r.rhs.symbols() & heads):
            order.add(s, r.lhs)  # r.lhs comes before s
    try:
        order.prepare()
    except CycleError as exc:
        cycle = exc.args[1][:-1]  # graphlib repeats the first symbol at the end
        i = cycle.index(min(cycle))
        cycle = cycle[i:] + cycle[:i + 1]
        raise CircularRuleError(f"rewrite rules form a cycle: {' -> '.join(cycle)}") from None


def normal_form(
    cls: MotivicClass, rules: Iterable[RewriteRule]
) -> tuple[MotivicClass, Derivation]:
    """Substitute until no rule symbol remains.

    Deterministic: the first rule (declaration order) with a live symbol
    fires, at its lowest-power atom; the whole coefficient of that atom
    is replaced at once.  Acyclicity is checked up front so the loop
    terminates; a start or rule of another type raises ValueError.
    """
    if not isinstance(cls, MotivicClass):
        raise ValueError(f"normal form start must be a MotivicClass, got {type(cls).__name__}")
    rules = tuple(rules)
    for r in rules:
        if not isinstance(r, RewriteRule):
            raise ValueError(f"rewrite rule must be a RewriteRule, got {type(r).__name__}")
    _check_acyclic(rules)
    steps: list[Step] = []
    cur = cls
    while True:
        fired = False
        terms = cur.coefficients()
        for rule in rules:
            powers = sorted(p for (s, p) in terms if s == rule.lhs)
            if not powers:
                continue
            k = powers[0]
            delta = (rule.rhs - MotivicClass.atom(rule.lhs)).times_L(k) * terms[(rule.lhs, k)]
            after = cur + delta
            steps.append(Step(before=cur, rule=rule, after=after))
            cur = after
            fired = True
            break
        if not fired:
            return cur, Derivation(start=cls, steps=tuple(steps))


class IdentityCertificate(Record):
    """Two rewrite chains from the same symbol, plus their difference.

    Both chains start at [D]; every step preserves the class, so the two
    final forms are equal in the ring and ``difference`` (their formal
    difference) is certified zero.  For matching inputs that difference
    is L*[X] - L*[Y], nonzero as a formal expression: the certified
    identity is L*([X] - [Y]) = 0, never [X] - [Y] = 0.
    """

    __slots__ = ()
    _fields = ("left", "right", "difference")

    def __new__(
        cls, left: Derivation, right: Derivation, difference: MotivicClass
    ) -> IdentityCertificate:
        return tuple.__new__(cls, (left, right, difference))

    @property
    def final_line(self) -> str:
        terms = self.difference.coefficients()
        if terms and all(p >= 1 for (_, p) in terms):
            inner = MotivicClass({(s, p - 1): c for (s, p), c in terms.items()})
            return f"L*({inner}) = 0"
        return f"{self.difference} = 0"

    def rules(self) -> tuple[RewriteRule, ...]:
        seen: list[RewriteRule] = []
        for step in self.left.steps + self.right.steps:
            if step.rule not in seen:
                seen.append(step.rule)
        return tuple(seen)

    def render_text(self, note: str = "") -> str:
        lines = ["relations used:"]
        for rule in self.rules():
            lines.append(f"  {rule.name}    ({rule.justification})")
        lines.append("first normalization:")
        lines.append(self.left.render_text(indent="  "))
        lines.append("second normalization:")
        lines.append(self.right.render_text(indent="  "))
        if note:
            lines.append(note)
        lines.append("conclusion:")
        lines.append(f"  0 = {self.left.start} - {self.right.start}")
        lines.append(f"    = ({self.left.final}) - ({self.right.final})")
        lines.append(f"    = {self.difference}")
        lines.append(self.final_line)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "difference": self.difference.to_json(),
            "final_line": self.final_line,
        }


def verify_g2_identity(f1: LPolynomial, f2: LPolynomial) -> IdentityCertificate:
    """Certificate that L*([X] - [Y]) = 0 given equal cell-count
    polynomials f1 = [F1], f2 = [F2].

    The divisor [D] sits over both sides: it is the blow-up of F1 along X
    and of F2 along Y, giving [D] = [F1] + L*[X] = [F2] + L*[Y].  With
    f1 = f2 the difference of the two normal forms collapses to
    L*[X] - L*[Y], which equals [D] - [D] = 0.  Unequal inputs leave the
    residual ([F1] - [F2]) in the way and raise PoincareMismatchError.
    """
    if f1 != f2:
        residual = MotivicClass.atom("F1") - MotivicClass.atom("F2")
        raise PoincareMismatchError(
            "identity not derivable: [F1] - [F2] does not cancel, "
            f"the cell-count polynomials differ by {f1 - f2}",
            residual=residual,
            difference=f1 - f2,
        )
    r1 = blowup_rule("D", "F1", "X")
    r2 = blowup_rule("D", "F2", "Y")
    b1 = RewriteRule("F1", MotivicClass.from_lpoly(f1), "affine cell decomposition of F1")
    b2 = RewriteRule("F2", MotivicClass.from_lpoly(f2), "affine cell decomposition of F2")
    start = MotivicClass.atom("D")
    left_final, left = normal_form(start, (r1, b1))
    right_final, right = normal_form(start, (r2, b2))
    difference = left_final - right_final
    expected = MotivicClass.atom("X", power=1) - MotivicClass.atom("Y", power=1)
    if difference != expected:
        raise AssertionError("identity derivation produced an unexpected difference")
    return IdentityCertificate(left=left, right=right, difference=difference)
