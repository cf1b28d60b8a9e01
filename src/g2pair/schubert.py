"""Schubert calculus on flag varieties and their parabolic quotients.

The integral cohomology of G/P has a basis of Schubert classes sigma[w]
indexed by minimal coset representatives, with sigma[w] sitting in
degree 2*length(w).  Full products are not implemented; everything the
degree computations need follows from the divisor product rule

    d . sigma[w] = sum over beta > 0 of <lambda, beta_check> sigma[w*s_beta]

restricted to w*s_beta of length length(w)+1 that remain minimal
representatives, where lambda is the weight of the divisor d.  Repeated
divisor multiplication plus the projection p: G/B -> G/P (pullback
sigma[w] -> sigma[w], pushforward sigma[w] -> sigma[w*s_i] when the
length drops, 0 otherwise) computes Chern classes of the rank-2 bundle
V with P(V) = G/B over G/P, and from those the degree of the
anticanonical zero locus of a section of V.

The bundle conventions are self-checked: zeta (the tautological divisor
upstairs) must push to 1, and c1, c2 must satisfy the rank-2 relation
zeta^2 - p*(c1).zeta + p*(c2) = 0 exactly, term by term.

A CohomologyElement is a Combination (motive.py) keyed by basis index:
sums, multiples and rendering are the ones L-polynomials and motivic
classes use, while equality and sums also require the same ring.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import ConventionError, PicardError
from .motive import Combination
from .weyl import WeylElement, WeylGroup


class DivisorClass(NamedTuple("DivisorClass", [("weights", tuple[int, ...])])):
    """Integral divisor class sum_i weights[i-1] * omega_i in fundamental
    weight coordinates."""

    def __new__(cls, weights: Iterable[int]) -> "DivisorClass":
        weights = tuple(weights)
        if not all(isinstance(c, int) for c in weights):
            raise ValueError("divisor weights must be integers")
        return super().__new__(cls, weights)

    def pairing(self, coroot_coords: tuple[int, ...]) -> int:
        # <lambda, beta_check> in the fundamental weight basis
        return sum(c * b for c, b in zip(self.weights, coroot_coords))

    def __str__(self) -> str:
        parts = [f"{c}*w{i}" for i, c in enumerate(self.weights, start=1) if c]
        return " + ".join(parts) if parts else "0"


class CohomologyElement(Combination):
    """Integer combination of Schubert classes of one fixed ring."""

    __slots__ = ("ring",)

    def __init__(self, ring: "SchubertRing", coeffs: Mapping[int, int]):
        self.ring = ring
        super().__init__(coeffs)

    def _with(self, terms: dict) -> "CohomologyElement":
        return CohomologyElement(self.ring, terms)

    def _coerce(self, other) -> "CohomologyElement | None":
        if not isinstance(other, CohomologyElement):
            return None
        if self.ring is not other.ring:
            raise ValueError("elements live in different rings")
        return other

    def terms(self) -> tuple[tuple[WeylElement, int], ...]:
        return tuple((self.ring.basis[k], c) for k, c in self._terms.items())

    def coefficient(self, w: WeylElement) -> int:
        k = self.ring.basis_index(w)
        return 0 if k is None else self._terms.get(k, 0)

    def degree(self) -> Optional[int]:
        """Common cohomological degree (half, i.e. the Weyl length), or
        None for zero.  Mixed-degree elements are rejected."""
        lengths = {self.ring.basis[k].length for k in self._terms}
        if not lengths:
            return None
        if len(lengths) > 1:
            raise ValueError("element is not homogeneous")
        return lengths.pop()

    def __mul__(self, n: int) -> "CohomologyElement":
        if not isinstance(n, int):
            return NotImplemented
        return self.times_int(n)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohomologyElement):
            return NotImplemented
        return self.ring is other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((id(self.ring), tuple(self._terms.items())))

    def _body(self, k: int, mag: int) -> str:
        body = f"sigma[{self.ring.basis[k].name}]"
        return body if mag == 1 else f"{mag}*{body}"

    def __repr__(self) -> str:
        return f"CohomologyElement({self})"


class SchubertRing:
    """Schubert basis of H*(G/P) for P spanned by the given simple nodes."""

    def __init__(self, group: WeylGroup, parabolic: Iterable[int] = ()):
        self.group = group
        self.parabolic = group.normalize_parabolic(parabolic)
        self.basis: tuple[WeylElement, ...] = group.min_coset_reps(self.parabolic)
        self._index = {w: k for k, w in enumerate(self.basis)}
        self.dimension = self.basis[-1].length
        tops = [k for k, w in enumerate(self.basis) if w.length == self.dimension]
        if len(tops) != 1:
            raise ConventionError("quotient has no unique top class")
        self._top = tops[0]

    @property
    def rank(self) -> int:
        return self.group.rank

    def __len__(self) -> int:
        return len(self.basis)

    def basis_index(self, w: WeylElement) -> Optional[int]:
        return self._index.get(w)

    def zero(self) -> CohomologyElement:
        return CohomologyElement(self, {})

    def one(self) -> CohomologyElement:
        return CohomologyElement(self, {0: 1})

    def sigma(self, w: WeylElement) -> CohomologyElement:
        k = self.basis_index(w)
        if k is None:
            raise ValueError(f"{w.name} is not a minimal representative here")
        return CohomologyElement(self, {k: 1})

    def point_class(self) -> CohomologyElement:
        return CohomologyElement(self, {self._top: 1})

    @cached_property
    def free_nodes(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(1, self.rank + 1) if i not in self.parabolic
        )

    def check_divisor(self, d: DivisorClass) -> None:
        if len(d.weights) != self.rank:
            raise ValueError(
                f"divisor has {len(d.weights)} weights, rank is {self.rank}"
            )
        blocked = [i for i in self.parabolic if d.weights[i - 1] != 0]
        if blocked:
            raise PicardError(
                f"divisor {d} does not descend: weight at collapsed "
                f"node(s) {blocked} must vanish"
            )

    def from_divisor(self, d: DivisorClass) -> CohomologyElement:
        self.check_divisor(d)
        out: dict[int, int] = {}
        for i in self.free_nodes:
            c = d.weights[i - 1]
            if c:
                k = self.basis_index(self.group.generator(i))
                out[k] = c
        return CohomologyElement(self, out)

    def ample_generator(self) -> DivisorClass:
        """Fundamental weight of the unique uncollapsed node."""
        if len(self.free_nodes) != 1:
            raise PicardError(
                f"no single ample generator: free nodes {self.free_nodes}"
            )
        weights = [0] * self.rank
        weights[self.free_nodes[0] - 1] = 1
        return DivisorClass(tuple(weights))

    def chevalley(self, d: DivisorClass, x: CohomologyElement) -> CohomologyElement:
        """Product of the divisor d with x, one length step up."""
        if x.ring is not self:
            raise ValueError("element belongs to a different ring")
        self.check_divisor(d)
        steps = [
            (r, m) for r in self.group.reflection_data if (m := d.pairing(r.coroot))
        ]
        by_x = self.group._by_x
        out: dict[int, int] = {}
        for k, c in x.coefficients().items():
            w = self.basis[k]
            wx = w.x
            for r, m in steps:
                # w * s_beta has x-point x - p beta, and is shorter than w
                # exactly when p = <x, beta_check> < 0 (p is never 0).
                p = sum(a * b for a, b in zip(wx, r.coroot))
                if p <= 0:
                    continue
                u = by_x[tuple(a - p * b for a, b in zip(wx, r.weight))]
                if u.length != w.length + 1:
                    continue
                j = self._index.get(u)
                if j is None:
                    continue
                out[j] = out.get(j, 0) + c * m
        return CohomologyElement(self, out)

    def integrate(self, x: CohomologyElement) -> int:
        if x.ring is not self:
            raise ValueError("element belongs to a different ring")
        return x.coefficients().get(self._top, 0)


def divisor_from_degree_one(x: CohomologyElement) -> DivisorClass:
    """Read a degree-1 element as a divisor in weight coordinates."""
    weights = [0] * x.ring.rank
    for w, c in x.terms():
        if w.length != 1:
            raise ValueError(f"{x} is not of pure degree 1")
        weights[w.word[0] - 1] = c
    return DivisorClass(tuple(weights))


def pullback(x: CohomologyElement, to_ring: SchubertRing) -> CohomologyElement:
    """Along G/Q -> G/P with Q inside P: basis classes map to themselves."""
    if to_ring.group is not x.ring.group:
        raise ValueError("rings must share the Weyl group")
    if not set(to_ring.parabolic) <= set(x.ring.parabolic):
        raise ValueError("pullback goes to a finer quotient only")
    out: dict[int, int] = {}
    for w, c in x.terms():
        k = to_ring.basis_index(w)
        if k is None:
            raise ConventionError(f"{w.name} lost under pullback")
        out[k] = c
    return CohomologyElement(to_ring, out)


def pushforward(
    x: CohomologyElement,
    fiber_node: int,
    target: SchubertRing,
) -> CohomologyElement:
    """Along the line fibration collapsing one node: sigma[w] goes to
    sigma[w*s_i] when that shortens w, to zero otherwise."""
    ring = x.ring
    if fiber_node in ring.parabolic:
        raise ValueError(f"node {fiber_node} is already collapsed")
    s_i = ring.group.generator(fiber_node)
    out: dict[int, int] = {}
    for w, c in x.terms():
        if not w.has_right_descent(fiber_node):
            continue
        u = w * s_i
        k = target.basis_index(u)
        if k is None:
            raise ConventionError(f"{u.name} missing from the target basis")
        out[k] = out.get(k, 0) + c
    return CohomologyElement(target, out)


def chern_of_pushforward_bundle(
    group: WeylGroup,
    fiber_node: int,
    zeta: Optional[DivisorClass] = None,
) -> tuple[CohomologyElement, CohomologyElement]:
    """Chern classes c1, c2 of the rank-2 bundle V on G/P with
    P(V) = G/B, fibered through the given node.

    zeta is the divisor upstairs normalized by p_* zeta = 1; by default
    every fundamental weight appears once.  Both defining identities are
    re-checked exactly: the normalization, and the rank-2 relation
    zeta^2 - p*(c1).zeta + p*(c2) = 0 in H*(G/B).
    """
    flag = SchubertRing(group, ())
    base = SchubertRing(group, (fiber_node,))
    if zeta is None:
        zeta = DivisorClass((1,) * group.rank)
    zeta_elem = flag.from_divisor(zeta)
    if pushforward(zeta_elem, fiber_node, base) != base.one():
        raise ConventionError(
            f"divisor {zeta} does not push to 1 through node {fiber_node}"
        )
    z2 = flag.chevalley(zeta, zeta_elem)
    z3 = flag.chevalley(zeta, z2)
    c1 = pushforward(z2, fiber_node, base)
    d1 = divisor_from_degree_one(c1)
    c2 = base.chevalley(d1, c1) - pushforward(z3, fiber_node, base)
    residual = z2 - flag.chevalley(zeta, pullback(c1, flag)) + pullback(c2, flag)
    if not residual.is_zero:
        raise ConventionError(f"rank-2 bundle relation fails by {residual}")
    return c1, c2


def check_rank2_pair(group: WeylGroup) -> None:
    """The pair needs rank 2 and a connected diagram: on A1xA1 each
    quotient is a line, c2 vanishes and the degrees would read 0."""
    cartan = group.root_system.cartan
    if cartan.rank != 2:
        raise ConventionError(
            f"the rank-2 pair needs a rank-2 type, rank is {cartan.rank}"
        )
    if cartan.entry(1, 2) == 0:
        raise ConventionError(
            "the rank-2 pair needs a connected diagram, got the reducible type A1xA1"
        )


def degree_of_zero_locus(group: WeylGroup, side: int) -> int:
    """Degree of the 3-fold cut out of the 5-dimensional quotient on the
    given side of the rank-2 pair, in its minimal ample polarization.

    Side i is the quotient polarized by the i-th fundamental weight; the
    line fibration from the full flag variety runs through the other
    node.  The degree is the integral of h^(dim-2).c2(V) where h is the
    ample generator.
    """
    check_rank2_pair(group)
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    fiber_node = 3 - side
    _, c2 = chern_of_pushforward_bundle(group, fiber_node)
    ring = c2.ring
    h = ring.ample_generator()
    x = c2
    for _ in range(ring.dimension - 2):
        x = ring.chevalley(h, x)
    return ring.integrate(x)
