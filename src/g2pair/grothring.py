"""Formal classes of varieties and scissor-relation rewriting.

A MotivicClass is a finite integer combination of atoms L^k*[S], where S
is an opaque variety symbol and the reserved symbol "1" marks pure
L-polynomial terms; its linear arithmetic is the Combination base it
shares with LPolynomial (motive.py).  The only products defined are by
pure classes: multiplying two classes that both carry opaque symbols is
rejected, because nothing here knows the geometry of such a product.

Rewrite rules substitute a symbol by a class (scissor relations, cell
decompositions).  normal_form applies rules deterministically - rule
declaration order first, lowest L-power atom next - and records every
step, so the result travels with a Derivation that a separate checker
(see replay.py) can re-execute without trusting this engine.

verify_g2_identity builds the certificate for the zero-divisor identity:
two chains rewrite the same divisor symbol [D] through the two blow-up
relations and cell decompositions; their final forms differ by
L*[X] - L*[Y], which must therefore vanish in the ring.  Nothing ever
divides by L, so the certificate asserts L*([X] - [Y]) = 0 and
deliberately cannot conclude [X] = [Y].
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from .errors import (
    CircularRuleError,
    PoincareMismatchError,
    SymbolProductError,
)
from .motive import Combination, LPolynomial, l_power

PURE = "1"

TermKey = tuple[str, int]


class MotivicClass(Combination):
    """Finitely supported map (symbol, L-power) -> integer coefficient."""

    __slots__ = ()

    def _key(self, key, c) -> TermKey:
        sym, power = key
        if not isinstance(sym, str) or not sym:
            raise ValueError("symbol must be a nonempty string")
        if not isinstance(power, int) or isinstance(power, bool) or power < 0:
            raise ValueError("L-power must be a nonnegative integer")
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError("coefficients must be integers")
        return (sym, power)

    @classmethod
    def zero(cls) -> "MotivicClass":
        return cls()

    @classmethod
    def atom(cls, symbol: str, power: int = 0, coeff: int = 1) -> "MotivicClass":
        return cls({(symbol, power): coeff})

    @classmethod
    def from_lpoly(cls, p: LPolynomial) -> "MotivicClass":
        return cls({(PURE, d): c for d, c in p.coefficients().items()})

    def terms(self) -> dict[TermKey, int]:
        return dict(self._terms)

    def coefficient(self, symbol: str, power: int) -> int:
        return self._terms.get((symbol, power), 0)

    def symbols(self) -> set[str]:
        return {s for (s, _) in self._terms if s != PURE}

    @property
    def is_pure(self) -> bool:
        return all(s == PURE for (s, _) in self._terms)

    def pure_part(self) -> LPolynomial:
        return LPolynomial({p: c for (s, p), c in self._terms.items() if s == PURE})

    def times_L(self, power: int) -> "MotivicClass":
        if not isinstance(power, int) or power < 0:
            raise ValueError("L-power must be a nonnegative integer")
        return self._with({(s, p + power): c for (s, p), c in self._terms.items()})

    def times_lpoly(self, p: LPolynomial) -> "MotivicClass":
        out: dict[TermKey, int] = {}
        for (s, k), c in self._terms.items():
            for d, cd in p.coefficients().items():
                key = (s, k + d)
                out[key] = out.get(key, 0) + c * cd
        return self._with(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.times_int(other)
        if isinstance(other, LPolynomial):
            return self.times_lpoly(other)
        if isinstance(other, MotivicClass):
            if other.is_pure:
                return self.times_lpoly(other.pure_part())
            if self.is_pure:
                return other.times_lpoly(self.pure_part())
            raise SymbolProductError(
                "product of two classes with opaque symbols is not defined here"
            )
        return NotImplemented

    __rmul__ = __mul__

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

    @classmethod
    def from_json(cls, doc: dict) -> "MotivicClass":
        return cls(((s, p), c) for s, p, c in doc["terms"])


class RewriteRule(
    NamedTuple("RewriteRule", [("lhs", str), ("rhs", MotivicClass), ("justification", str)])
):
    """Substitution [lhs] -> rhs.  The lhs symbol may not reappear on the
    right, so each application eliminates it."""

    def __new__(cls, lhs: str, rhs: MotivicClass, justification: str = "") -> "RewriteRule":
        if not isinstance(lhs, str) or not lhs:
            raise ValueError("rule symbol must be a nonempty string")
        if lhs == PURE:
            raise ValueError("the pure symbol cannot head a rewrite rule")
        if lhs in rhs.symbols():
            raise ValueError(f"rule right side mentions its own symbol [{lhs}]")
        return super().__new__(cls, lhs, rhs, justification)

    @property
    def name(self) -> str:
        return f"[{self.lhs}] -> {self.rhs}"

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs.to_json(),
            "justification": self.justification,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RewriteRule":
        return cls(
            lhs=doc["lhs"],
            rhs=MotivicClass.from_json(doc["rhs"]),
            justification=str(doc.get("justification", "")),
        )


def blowup_rule(
    total: str,
    ambient: Union[str, LPolynomial],
    center: Union[str, LPolynomial],
) -> RewriteRule:
    """Scissor relation of a blow-up with line fibers over the center:

        [total] = [ambient] + L*[center]

    obtained from [total] = [total minus exceptional] + [exceptional],
    with the complement untouched and the exceptional locus fibered in
    lines: [exceptional] = (1 + L)*[center] minus the embedded copy of
    the center leaves [ambient] + L*[center].  ``ambient`` and ``center``
    accept either an opaque symbol or an already-known pure class.
    """

    def as_class(part: Union[str, LPolynomial], shift: int) -> MotivicClass:
        if isinstance(part, str):
            return MotivicClass.atom(part, power=shift)
        if isinstance(part, LPolynomial):
            return MotivicClass.from_lpoly(part).times_L(shift)
        raise ValueError("ambient and center must be symbols or L-polynomials")

    names = {p for p in (total, ambient, center) if isinstance(p, str)}
    if isinstance(total, str) is False:
        raise ValueError("the total space must be an opaque symbol")
    if len(names) != sum(1 for p in (total, ambient, center) if isinstance(p, str)):
        raise ValueError("blow-up pieces must use distinct symbols")
    rhs = as_class(ambient, 0) + as_class(center, 1)
    return RewriteRule(
        lhs=total,
        rhs=rhs,
        justification=f"blow-up structure: [{total}] splits off the center with line fibers",
    )


class Step(NamedTuple):
    before: MotivicClass
    rule: RewriteRule
    after: MotivicClass

    def to_json(self) -> dict:
        return {
            "before": self.before.to_json(),
            "rule": self.rule.to_json(),
            "after": self.after.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Step":
        return cls(
            before=MotivicClass.from_json(doc["before"]),
            rule=RewriteRule.from_json(doc["rule"]),
            after=MotivicClass.from_json(doc["after"]),
        )


class Derivation(NamedTuple):
    """Chain of single-substitution steps from ``start``."""

    start: MotivicClass
    steps: tuple[Step, ...]

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

    @classmethod
    def from_json(cls, doc: dict) -> "Derivation":
        return cls(
            start=MotivicClass.from_json(doc["start"]),
            steps=tuple(Step.from_json(s) for s in doc["steps"]),
        )


def _check_acyclic(rules: tuple[RewriteRule, ...]) -> None:
    heads = {r.lhs for r in rules}
    edges: dict[str, set[str]] = {}
    for r in rules:
        edges.setdefault(r.lhs, set()).update(r.rhs.symbols() & heads)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(sym: str, trail: list[str]) -> None:
        state[sym] = 1
        trail.append(sym)
        for nxt in sorted(edges.get(sym, ())):
            if state.get(nxt) == 1:
                cycle = " -> ".join(trail[trail.index(nxt):] + [nxt])
                raise CircularRuleError(f"rewrite rules form a cycle: {cycle}")
            if state.get(nxt) != 2:
                visit(nxt, trail)
        trail.pop()
        state[sym] = 2

    for head in sorted(heads):
        if state.get(head) != 2:
            visit(head, [])


def normal_form(
    cls: MotivicClass, rules: Iterable[RewriteRule]
) -> tuple[MotivicClass, Derivation]:
    """Substitute until no rule symbol remains.

    Deterministic: the first rule (declaration order) with a live symbol
    fires, at its lowest-power atom; the whole coefficient of that atom
    is replaced at once.  Acyclicity is checked up front so the loop
    terminates.
    """
    rules = tuple(rules)
    _check_acyclic(rules)
    steps: list[Step] = []
    cur = cls
    while True:
        fired = False
        for rule in rules:
            powers = sorted(p for (s, p) in cur.terms() if s == rule.lhs)
            if not powers:
                continue
            k = powers[0]
            coeff = cur.coefficient(rule.lhs, k)
            delta = (rule.rhs - MotivicClass.atom(rule.lhs)).times_L(k).times_int(coeff)
            after = cur + delta
            steps.append(Step(before=cur, rule=rule, after=after))
            cur = after
            fired = True
            break
        if not fired:
            return cur, Derivation(start=cls, steps=tuple(steps))


class IdentityCertificate(NamedTuple):
    """Two rewrite chains from the same symbol, plus their difference.

    Both chains start at [D]; every step preserves the class, so the two
    final forms are equal in the ring and ``difference`` (their formal
    difference) is certified zero.  For matching inputs that difference
    is L*[X] - L*[Y], nonzero as a formal expression: the certified
    identity is L*([X] - [Y]) = 0, never [X] - [Y] = 0.
    """

    left: Derivation
    right: Derivation
    difference: MotivicClass

    @property
    def final_line(self) -> str:
        terms = self.difference.terms()
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

    @classmethod
    def from_json(cls, doc: dict) -> "IdentityCertificate":
        return cls(
            left=Derivation.from_json(doc["left"]),
            right=Derivation.from_json(doc["right"]),
            difference=MotivicClass.from_json(doc["difference"]),
        )


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
