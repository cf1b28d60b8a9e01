"""Schubert calculus on flag varieties and their parabolic quotients.

The integral cohomology of G/P has a basis of Schubert classes sigma[w]
indexed by minimal coset representatives, with sigma[w] sitting in
degree 2*length(w).  A ring is built from the orbit of omega_P alone
(weyl): the cell of w is the point mu = w(omega_P), at layer length(w),
and the group is never enumerated: every ring of a quotient reads the
group's one walk of it, and only the per-cell codes and pairings below
are its own.  Full products are not implemented; everything the degree
computations need follows from Chevalley's divisor rule (Fulton-Woodward,
"On the quantum product of Schubert classes"), read on the orbit:

    sigma_lambda . sigma_mu = sum of <w lambda, gamma_check> sigma[s_gamma mu]

over the positive roots gamma with q = <mu, gamma_check> > 0 for which
s_gamma mu = mu - q gamma lies at layer length(w) + 1 (this is the rule
for w*s_beta with gamma = w beta).  Both pairings are sums of the
<w(omega_j), gamma_check> over the free nodes j.  A cell keeps those as
one list over the positive roots per free node, made from its canonical
parent's (weyl) by the permutation s_i induces on the roots, so a cell
costs O(|free nodes| * |positive roots|) and no reflection matrix.

Points are found by an integer code, c(v) = sum of v_i * r^i with the
group's radix r = 2 ht(theta_check) + 1 (WeylGroup.point_codes).  Every
coordinate of a point of an orbit of omega_P is at most ht(theta_check)
in absolute value, so the code is injective on the orbit, and it is
linear: s_gamma mu has code c(mu) - q c(gamma), one multiply-subtract
and one int-keyed lookup per candidate root.  The same rule codes the
cells: each comes from its canonical parent mu by s_i, so its code is
c(mu) - mu_i c(alpha_i), one step per cell.  A ring checks that its
codes are distinct when it is built and raises ConventionError if two
collide, so a radix too small fails before any product.  The
projection p: G/P -> G/P' with P' = P + {j} sends the cell of w to the
point w(omega_P') = mu - w(omega_j) when that point lies dim(fibre)
layers lower, and to zero otherwise.  With Chevalley products on G/B
it computes the Chern classes of the rank-2 bundle V with P(V) = G/B
over G/P from its Chern roots zeta and zeta - alpha_j, and from those
the degree of the anticanonical zero locus of a section of V.

The bundle conventions are self-checked by pushforward alone: zeta (the
tautological divisor upstairs) must push to 1, and the product of the
two roots must push to 0 and, times zeta, to c2, which together are the
rank-2 relation zeta^2 - p*(c1).zeta + p*(c2) = 0, exactly.

A CohomologyElement is a Combination (motive.py) keyed by cell index:
sums, multiples and rendering are the ones L-polynomials and motivic
classes use, while equality and sums also require the same ring.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import ConventionError, PicardError
from .motive import Combination
from .weyl import WeylElement, WeylGroup, word_name


class DivisorClass(NamedTuple("DivisorClass", [("weights", tuple[int, ...])])):
    """Integral divisor class sum_i weights[i-1] * omega_i in fundamental
    weight coordinates."""

    def __new__(cls, weights: Iterable[int]) -> "DivisorClass":
        weights = tuple(weights)
        for c in weights:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(
                    f"divisor weights must be ints, got {type(c).__name__} {c!r}"
                )
        return super().__new__(cls, weights)

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

    def degree(self) -> Optional[int]:
        """Common cohomological degree (half, i.e. the Weyl length), or
        None for zero.  Mixed-degree elements are rejected."""
        words = self.ring.words
        lengths = {len(words[k]) for k in self._terms}
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
        body = f"sigma[{word_name(self.ring.words[k])}]"
        return body if mag == 1 else f"{mag}*{body}"

    def __repr__(self) -> str:
        return f"CohomologyElement({self})"


class SchubertRing:
    """Schubert basis of H*(G/P) for P spanned by the given simple nodes,
    on the orbit of omega_P: cell k has the canonical word ``words[k]``
    and the point ``points[k]`` = w(omega_P).  Cells are indexed by the
    integer code of their point, which must be distinct on the orbit
    (ConventionError otherwise), and keep their layer length(w)."""

    def __init__(self, group: WeylGroup, parabolic: Iterable[int] = ()):
        self.group = group
        self.parabolic = group.normalize_parabolic(parabolic)
        self.free_nodes = tuple(
            i for i in range(1, group.rank + 1) if i not in self.parabolic
        )
        words, points, parents = group.orbit(self.parabolic)
        self.words, self.points, self._parents = words, points, parents
        # per cell, made on first use: <w(omega_j), gamma_check> per free
        # node j; at the identity, the coefficient of alpha_j_check in gamma_check
        self._pairings: list[Optional[tuple[list[int], ...]]] = [None] * len(words)
        self._pairings[0] = tuple(
            [coroot[j - 1] for _, coroot, _ in group.reflection_data]
            for j in self.free_nodes
        )
        self._layers = list(map(len, words))
        # c(s_i mu) = c(mu) - mu_i c(alpha_i), from the canonical parent
        powers, root_codes = group.point_codes
        simple = [root_codes[a] for a, _ in group.root_moves]
        codes = self._codes = [sum(map(mul, points[0], powers))]
        for k in range(1, len(points)):
            p, i = parents[k], words[k][0] - 1
            codes.append(codes[p] - points[p][i] * simple[i])
        self._at = dict(zip(codes, range(len(points))))
        if len(self._at) != len(points):
            raise ConventionError(
                f"point codes collide on the orbit of omega_P, P = {list(self.parabolic)}"
            )
        self.dimension = len(words[-1])
        if len(words) > 1 and len(words[-2]) == self.dimension:
            raise ConventionError("quotient has no unique top class")
        self._top = len(words) - 1

    @property
    def rank(self) -> int:
        return self.group.rank

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def basis(self) -> tuple[WeylElement, ...]:
        """The cells as group elements, built from the words.  Kept for the
        benchmark's tracer, which reads it to count cells."""
        return tuple(map(self.group.from_word, self.words))

    def zero(self) -> CohomologyElement:
        return CohomologyElement(self, {})

    def one(self) -> CohomologyElement:
        return CohomologyElement(self, {0: 1})

    def point_class(self) -> CohomologyElement:
        return CohomologyElement(self, {self._top: 1})

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
        """sum_i d_i sigma[s_i]: the walk lists the cells (i,) of the free
        nodes i in order, right after the identity."""
        self.check_divisor(d)
        out: dict[int, int] = {}
        for k, i in enumerate(self.free_nodes, start=1):
            c = d.weights[i - 1]
            if c:
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

    def _pairing(self, k: int) -> tuple[list[int], ...]:
        """For each free node j, <w(omega_j), gamma_check> over the positive
        roots gamma in root order, at the cell k = w.  Since
        <s_i v, gamma_check> = <v, s_i(gamma)_check>, a cell's lists are
        those of its canonical parent s_i w, permuted by s_i.  The pairings
        with the simple coroots are the weight coordinates of w(omega_j)."""
        memo, parents, chain = self._pairings, self._parents, []
        while memo[k] is None:
            chain.append(k)
            k = parents[k]
        ps = memo[k]
        words, moves = self.words, self.group.root_moves
        for k in reversed(chain):
            a, perm = moves[words[k][0] - 1]
            lifted = []
            for p in ps:
                out = [p[n] for n in perm]
                out[a] = -out[a]
                lifted.append(out)
            ps = memo[k] = tuple(lifted)
        return ps

    def _covers(self, k: int) -> list[tuple[int, tuple[int, ...]]]:
        """(j, <w(omega_f), gamma_check> per free node f) for every cell
        j = s_gamma mu one layer above the cell k = w, mu = w(omega_P),
        gamma > 0: the terms of the Chevalley rule."""
        code, at, layers = self._codes[k], self._at, self._layers
        roots = self.group.point_codes[1]
        up = layers[k] + 1
        ps = self._pairing(k)
        qs = ps[0] if ps else ()  # <mu, gamma_check>: mu is the sum of the w(omega_f)
        for p in ps[1:]:
            qs = list(map(add, qs, p))
        covers = []
        for n, q in enumerate(qs):
            if q > 0:
                j = at[code - q * roots[n]]
                if layers[j] == up:
                    covers.append((j, tuple([p[n] for p in ps])))
        return covers

    def chevalley(self, d: DivisorClass, x: CohomologyElement) -> CohomologyElement:
        """Product of the divisor d with x, one length step up."""
        if x.ring is not self:
            raise ValueError("element belongs to a different ring")
        self.check_divisor(d)
        lam = tuple(d.weights[j - 1] for j in self.free_nodes)
        out: dict[int, int] = {}
        for k, c in x.coefficients().items():
            for j, pairs in self._covers(k):
                m = sum(map(mul, lam, pairs))  # <w lambda, gamma_check>
                if m:
                    out[j] = out.get(j, 0) + c * m
        return CohomologyElement(self, out)

    def integrate(self, x: CohomologyElement) -> int:
        if x.ring is not self:
            raise ValueError("element belongs to a different ring")
        return x.coefficients().get(self._top, 0)


def pushforward(
    x: CohomologyElement,
    fiber_node: int,
    target: SchubertRing,
) -> CohomologyElement:
    """Along G/P -> G/P', P' = P + {fiber_node}, the target's ring: the
    cell of w goes to the cell of its point w(omega_P') when that cell
    lies dim(fibre) layers lower, and to zero otherwise.  Through the line
    fibration G/B -> G/P_i, sigma[w] goes to sigma[w*s_i] when that
    shortens w."""
    ring = x.ring
    coarser = ring.group.normalize_parabolic(ring.parabolic + (fiber_node,))
    if fiber_node in ring.parabolic:
        raise ValueError(f"node {fiber_node} is already collapsed")
    if target.group is not ring.group or target.parabolic != coarser:
        raise ValueError(
            f"pushforward through node {fiber_node} goes to the quotient by "
            f"{list(coarser)} of the same group"
        )
    drop = ring.dimension - target.dimension
    f = ring.free_nodes.index(fiber_node)
    simple = [a for a, _ in ring.group.root_moves]
    powers = ring.group.point_codes[0]
    out: dict[int, int] = {}
    for k, c in x.coefficients().items():
        # w(omega_P') = w(omega_P) - w(omega_i), read off the simple pairings
        p = ring._pairing(k)[f]
        j = target._at[ring._codes[k] - sum([p[a] * r for a, r in zip(simple, powers)])]
        if target._layers[j] == ring._layers[k] - drop:
            out[j] = out.get(j, 0) + c
    return CohomologyElement(target, out)


def chern_of_pushforward_bundle(
    group: WeylGroup,
    fiber_node: int,
    zeta: Optional[DivisorClass] = None,
) -> tuple[CohomologyElement, CohomologyElement]:
    """Chern classes c1, c2 of the rank-2 bundle V on G/P with
    P(V) = G/B, fibered through the node j = ``fiber_node``.

    zeta is the divisor upstairs normalized by p_* zeta = 1; by default
    every fundamental weight appears once.  The Chern roots of p*V are
    zeta and s = s_j zeta = zeta - alpha_j (splitting principle), so
    c1 = zeta + s, a divisor that descends, p*c2 = s.zeta and, by the
    projection formula, c2 = p_*(s.zeta^2).  Checked exactly: the
    normalization; p_*(s.zeta) = 0, so s.zeta lies on the W^P cells,
    the image of p*; and p_*(zeta.(s.zeta)) = c2, so s.zeta = p*c2.  By
    linearity in the divisor these are the rank-2 relation
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
    alpha = [row[fiber_node - 1] for row in group.root_system.cartan.entries]
    s = DivisorClass(map(sub, zeta.weights, alpha))
    c1 = base.from_divisor(DivisorClass(map(add, zeta.weights, s.weights)))
    c2 = pushforward(flag.chevalley(s, flag.chevalley(zeta, zeta_elem)), fiber_node, base)
    up = flag.chevalley(s, zeta_elem)
    if not pushforward(up, fiber_node, base).is_zero:
        raise ConventionError(f"s.zeta = {up} is not pulled back from G/P")
    if pushforward(flag.chevalley(zeta, up), fiber_node, base) != c2:
        raise ConventionError(f"s.zeta = {up} is not the pullback of c2 = {c2}")
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
    if isinstance(side, bool) or side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    fiber_node = 3 - side
    _, c2 = chern_of_pushforward_bundle(group, fiber_node)
    ring = c2.ring
    h = ring.ample_generator()
    x = c2
    for _ in range(ring.dimension - 2):
        x = ring.chevalley(h, x)
    return ring.integrate(x)
