"""Schubert calculus on flag varieties and their parabolic quotients.

The integral cohomology of G/P has a basis of Schubert classes sigma[w]
indexed by minimal coset representatives, with sigma[w] in degree
2*length(w).  A ring is built from the orbit of omega_P alone: the cell
of w is the point mu = w(omega_P), at layer length(w), and the group is
never enumerated.  The first ``SchubertRing(group, P)`` builds the ring
of G/P from the group's weyl.Quotient, which holds the walk as columns
and keeps the ring; every later call returns it.  The ring holds the
per-cell codes and the coroot classes below; one sweep over the cells
makes their pairings and covers, on the first product.  Full products
are not implemented; the degree computations need only Chevalley's
divisor rule (Fulton-Woodward, "On the quantum product of Schubert
classes"), read on the orbit:

    sigma_lambda . sigma_mu = sum of <w lambda, gamma_check> sigma[s_gamma mu]

over the positive roots gamma with q = <mu, gamma_check> > 0 for which
s_gamma mu = mu - q gamma lies at layer length(w) + 1 (the rule for
w*s_beta with gamma = w beta).  Both pairings are sums of the
<w(omega_j), gamma_check> over the free nodes j.  A cell keeps those as
one list over the positive roots per free node, made from its canonical
parent's by the permutation s_i induces on the roots: O(|free nodes| *
|positive roots|) per cell and no reflection matrix.

A cover's pairings <w(omega_f), gamma_check> = <omega_f, beta_check>
over the free nodes f are the free-node part of the positive coroot
beta_check, so they take few values: the quotient's coroot classes, read
off the identity cell's pairings and numbered once.  A cover keeps the
index of its class, and a product by lambda reads <lambda, class> from
one list that the ring makes, a free node's column of classes at a
time, checking lambda, only when lambda differs from its last divisor.
The covers of x's terms lie in the layers just above them, so a product
adds each cover's term into one flat list over those layers, bounded by
the walk's layer offsets, and reads the nonzero entries off it in cell
order: the result is sorted and built trusted, with no dict.get, no
sorting and no validation per product.

Points are found by an integer code, c(v) = sum of v_i * r^i with the
group's radix r = 2 ht(theta_check) + 1 (WeylGroup.point_codes).  Every
coordinate of a point of an orbit of omega_P is at most ht(theta_check)
in absolute value, so the code is injective on the orbit, and it is
linear: s_gamma mu has code c(mu) - q c(gamma), one multiply-subtract
and one int-keyed lookup per candidate root, and a cell's code is its
parent's minus its step mu_i times c(alpha_i).  A ring checks that its
codes are distinct and raises ConventionError if two collide, keeping
no ring, so a radix too small fails before any product of that quotient.

The projection p: G/P -> G/P' with P' = P + {j} sends the cell of w to
the point w(omega_P') (w's word folded onto omega_P') when that point
lies dim(fibre) layers lower, and to zero otherwise; P and j fix P', so
pushforward finds the ring of G/P' itself, and it reads no table.  With
Chevalley products on G/B it gives the Chern classes of the rank-2
bundle V with P(V) = G/B over G/P from its Chern roots zeta and
zeta - alpha_j, and from those the degree of the anticanonical zero
locus of a section of V.  The conventions are self-checked by
pushforward alone: zeta must push to 1, and the product of the two roots
must push to 0 and, times zeta, to c2: together the rank-2 relation
zeta^2 - p*(c1).zeta + p*(c2) = 0, exactly.

A CohomologyElement is a Combination (motive.py) keyed by cell index:
sums, multiples and rendering are the ones L-polynomials and motivic
classes use, while equality and sums also require the same ring, that
is the same group and quotient.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property
from operator import add, mul, sub

from .errors import ConventionError, PicardError
from .motive import Combination
from .rootsys import _INT, Record, check_int, check_node
from .weyl import WeylElement, WeylGroup, word_name


class DivisorClass(Record):
    """Integral divisor class sum_i weights[i-1] * omega_i in fundamental
    weight coordinates, kept as exact ints: weights not all of type int
    go through ``check_int``, which names the first that is not an int."""

    _fields = ("weights",)

    def __new__(cls, weights: Iterable[int]) -> DivisorClass:
        weights = tuple(weights)
        if not {*map(type, weights)} <= _INT:
            weights = tuple([check_int(c, "divisor weight") for c in weights])
        return tuple.__new__(cls, (weights,))

    def __str__(self) -> str:
        parts = [f"{c}*w{i}" for i, c in enumerate(self.weights, start=1) if c]
        return " + ".join(parts) if parts else "0"


class CohomologyElement(Combination):
    """Integer combination of Schubert classes of one ring (one quotient of
    one group), keyed by cell index.  The constructor takes only int cells
    0 <= k < len(ring) and int coefficients (``check_int``) and raises
    ValueError otherwise; sums and multiples of elements of the ring are
    built through the trusted _with, and the ring's one and Chevalley
    products through the trusted SchubertRing._element; both keep the
    ring.  A ring's zero is CohomologyElement(ring, {}), and an element's
    layers are ``ring.layers[k]`` over its cells."""

    __slots__ = ("ring",)

    def __init__(self, ring: "SchubertRing", coeffs: Mapping[int, int]):
        self.ring = ring
        super().__init__(coeffs)

    def _key(self, k) -> int:
        k = k if type(k) is int else check_int(k, "cell")
        if not 0 <= k <= self.ring._top:
            raise ValueError(f"cell {k} is not in a ring of {len(self.ring)} cells")
        return k

    def _with(self, terms: dict) -> "CohomologyElement":
        out = super()._with(terms)
        out.ring = self.ring
        return out

    def _coerce(self, other) -> "CohomologyElement | None":
        if not isinstance(other, CohomologyElement):
            return None
        if self.ring is not other.ring:
            raise ValueError("elements live in different rings")
        return other

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
    """Schubert basis of H*(G/P) for P spanned by the given simple nodes:
    cell k is cell k of the group's quotient (weyl.Quotient), with its
    canonical word and point w(omega_P).  One ring per quotient: the first
    call builds it in ``__init__`` and keeps it as ``Quotient.ring``, and
    every later call, with any spelling of P, returns it; a build that
    raises ConventionError (two codes collide, or no unique top class)
    keeps nothing.  The ring holds the point codes, the index code -> cell,
    each cell's layer, the coroot classes (nonzero free-node parts of the
    positive coroots) mapped to their index, and the classes as one
    column per free node.  The per-cell coroot pairings and Chevalley
    covers are made for every cell by one sweep (``_sweep``), on the
    ring's first product; until then both are None."""

    def __new__(cls, group: WeylGroup, parabolic: Iterable[int] = ()) -> "SchubertRing":
        q = group.quotient(parabolic)
        if q.ring is not None:
            return q.ring
        ring = super().__new__(cls)
        ring.quotient = q
        return ring

    def __init__(self, group: WeylGroup, parabolic: Iterable[int] = ()):
        q = self.quotient  # found by __new__
        if q.ring is self:
            return
        # c(omega_P), then c(s_i mu) = c(mu) - mu_i c(alpha_i), mu_i the cell's step
        powers, root_codes = group.point_codes
        simple = [0] + [root_codes[a] for a, _ in group.root_moves]
        codes = [sum([powers[j - 1] for j in q.free_nodes])]
        for i, p, c in zip(q.letters[1:], q.parents[1:], q.steps[1:]):
            codes.append(codes[p] - c * simple[i])
        at = dict(zip(codes, range(len(codes))))
        if len(at) != len(codes):
            raise ConventionError(
                f"point codes collide on the orbit of omega_P, P = {list(q.parabolic)}"
            )
        if q.offsets[-3] != len(codes) - 1:
            raise ConventionError("quotient has no unique top class")
        # the free-node parts of the positive coroots, numbered once
        classes: dict[tuple[int, ...], int] = {}
        for c in group.root_system.coroots:
            part = tuple([c[j - 1] for j in q.free_nodes])
            if any(part):
                classes.setdefault(part, len(classes))
        self.group, self.rank = group, group.rank
        self.parabolic, self.free_nodes = q.parabolic, q.free_nodes
        self.codes, self.at, self.layers = codes, at, q.lengths()
        self.pairings = self.covers = None  # made by _sweep on the first product
        self.classes, self.columns = classes, tuple(zip(*classes))
        # the last divisor's weights and its value on each coroot class
        self._lam: tuple = (None, None)
        self.dimension, self._top = len(q.offsets) - 3, len(codes) - 1
        q.ring = self

    def __copy__(self) -> "SchubertRing":  # the one ring of its quotient
        return self

    def __reduce__(self):  # deep copies and pickles restore the state; nothing is rebuilt
        return object.__new__, (SchubertRing,), self.__dict__

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The cells' canonical words, derived on first use; no product reads them."""
        return self.quotient.words()

    @cached_property
    def basis(self) -> tuple[WeylElement, ...]:
        """The cells as group elements.  Kept for the benchmark's tracer."""
        return tuple(map(self.group.from_word, self.words))

    def _element(self, terms: dict) -> CohomologyElement:
        """An element of this ring from terms known valid: cells of the
        ring in order, nonzero int coefficients.  Nothing is checked."""
        out = CohomologyElement.__new__(CohomologyElement)
        out.ring, out._terms = self, terms
        return out

    def one(self) -> CohomologyElement:
        return self._element({0: 1})

    def check_divisor(self, d: DivisorClass) -> None:
        weights = d.weights
        if len(weights) != self.rank:
            raise ValueError(f"divisor has {len(weights)} weights, rank is {self.rank}")
        for i in self.parabolic:
            if weights[i - 1]:
                blocked = [j for j in self.parabolic if weights[j - 1]]
                raise PicardError(
                    f"divisor {d} does not descend: weight at collapsed "
                    f"node(s) {blocked} must vanish"
                )

    def ample_generator(self) -> DivisorClass:
        """Fundamental weight of the unique uncollapsed node."""
        if len(self.free_nodes) != 1:
            raise PicardError(
                f"no single ample generator: free nodes {self.free_nodes}"
            )
        weights = [0] * self.rank
        weights[self.free_nodes[0] - 1] = 1
        return DivisorClass(tuple(weights))

    def _sweep(self) -> list[list[tuple[int, int]]]:
        """Every cell's pairings and covers, made in walk order, parents
        first, and stored whole at the end: a sweep that raises stores
        neither.  Per free node j, the cell w keeps <w(omega_j), gamma_check>
        over the positive roots gamma in root order: at the identity the
        coefficient of alpha_j_check in gamma_check, else its canonical
        parent's lists permuted by s_i, as <s_i v, gamma_check> =
        <v, s_i(gamma)_check>.  Its covers are (j, index of the class of
        beta) for every cell j = s_gamma mu one layer up, gamma = w beta > 0,
        whose class is (<w(omega_f), gamma_check>)_f over the free nodes f;
        a pairing vector that is not a class raises ConventionError."""
        q, codes, at, layers = self.quotient, self.codes, self.at, self.layers
        classes, moves = self.classes, self.group.root_moves
        roots, coroots = self.group.point_codes[1], self.group.root_system.coroots
        ps = tuple([c[j - 1] for c in coroots] for j in self.free_nodes)
        pairings, covers = [], []
        for k, (i, parent) in enumerate(zip(q.letters, q.parents)):
            if k:
                a, perm = moves[i - 1]
                lifted = []
                for p in pairings[parent]:
                    out = [p[n] for n in perm]
                    out[a] = -out[a]
                    lifted.append(out)
                ps = tuple(lifted)
            pairings.append(ps)
            qs = ps[0] if ps else ()  # <mu, gamma_check>: mu is the sum of the w(omega_f)
            for p in ps[1:]:
                qs = list(map(add, qs, p))
            code, up, cell = codes[k], layers[k] + 1, []
            for n, c in enumerate(qs):
                if c > 0 and layers[j := at[code - c * roots[n]]] == up:
                    part = tuple([p[n] for p in ps])
                    if (m := classes.get(part)) is None:
                        raise ConventionError(
                            f"cover pairings {list(part)} of cell {k} are not the "
                            f"free part of a positive coroot"
                        )
                    cell.append((j, m))
            covers.append(cell)
        self.pairings, self.covers = pairings, covers
        return covers

    def _lambda_values(self, d: DivisorClass) -> list[int]:
        """<lambda, class> for each coroot class, summed one free node's
        column at a time, kept as the ring's last divisor once d is checked."""
        self.check_divisor(d)
        weights = d.weights
        values = None
        for j, column in zip(self.free_nodes, self.columns):
            if c := weights[j - 1]:
                values = ([c * x for x in column] if values is None
                          else [v + c * x for v, x in zip(values, column)])
        self._lam = (weights, values or [0] * len(self.classes))
        return self._lam[1]

    def chevalley(self, d: DivisorClass, x: CohomologyElement) -> CohomologyElement:
        """Product of the divisor d with x, one length step up: each cover
        adds c * <lambda, its class> into one list over the layers just
        above x's terms, whose nonzero entries are the result in cell
        order, built trusted."""
        if x.ring is not self:
            raise ValueError("element belongs to a different ring")
        weights, values = self._lam
        if weights != d.weights:
            values = self._lambda_values(d)
        terms = x._terms
        out = self._element(result := {})
        if not terms:
            return out
        # x's keys are sorted, so its first and last cells bound its layers
        layers, covers, offsets = self.layers, self.covers or self._sweep(), self.quotient.offsets
        lo = offsets[layers[next(iter(terms))] + 1]
        acc = [0] * (offsets[layers[next(reversed(terms))] + 2] - lo)
        for k, c in terms.items():
            for j, i in covers[k]:
                acc[j - lo] += c * values[i]
        for c in acc:
            if c:
                result[lo] = c
            lo += 1
        return out

    def integrate(self, x: CohomologyElement) -> int:
        if x.ring is not self:
            raise ValueError("element belongs to a different ring")
        return x._terms.get(self._top, 0)


def pushforward(x: CohomologyElement, fiber_node: int) -> CohomologyElement:
    """Along G/P -> G/P', P' = P + {fiber_node}, into the ring of G/P': the
    cell of w goes to the cell of its point w(omega_P') when that cell
    lies dim(fibre) layers lower, and to zero otherwise; neither ring's
    tables are read or made.  Through the line fibration G/B -> G/P_i,
    sigma[w] goes to sigma[w*s_i] when that shortens w."""
    ring = x.ring
    check_node(fiber_node, ring.rank, "fiber node")
    if fiber_node in ring.parabolic:
        raise ValueError(f"node {fiber_node} is already collapsed")
    target = SchubertRing(ring.group, sorted(ring.parabolic + (fiber_node,)))
    drop = ring.dimension - target.dimension
    omega = tuple([int(i in target.free_nodes) for i in range(1, ring.rank + 1)])
    q, powers, out = ring.quotient, ring.group.point_codes[0], {}
    points = {0: omega}  # w(omega_P') of e and of the terms so far, parents first
    for k, c in x._terms.items():
        # w's word up the parent links to the nearest folded cell, folded onto its point
        word, p = [], k
        while p not in points:
            word.append(q.letters[p])
            p = q.parents[p]
        y = points[k] = ring.group._fold(word, points[p])
        j = target.at[sum(map(mul, y, powers))]
        if target.layers[j] == ring.layers[k] - drop:
            out[j] = out.get(j, 0) + c
    return CohomologyElement(target, out)


def chern_of_pushforward_bundle(
    group: WeylGroup,
    fiber_node: int,
    zeta: DivisorClass | None = None,
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
    check_node(fiber_node, group.rank, "fiber node")
    flag = SchubertRing(group, ())
    base = SchubertRing(group, (fiber_node,))
    if zeta is None:
        zeta = DivisorClass((1,) * group.rank)
    zeta_elem = flag.chevalley(zeta, flag.one())
    if pushforward(zeta_elem, fiber_node) != base.one():
        raise ConventionError(
            f"divisor {zeta} does not push to 1 through node {fiber_node}"
        )
    alpha = [row[fiber_node - 1] for row in group.root_system.cartan.entries]
    s = DivisorClass(map(sub, zeta.weights, alpha))
    c1 = base.chevalley(DivisorClass(map(add, zeta.weights, s.weights)), base.one())
    c2 = pushforward(flag.chevalley(s, flag.chevalley(zeta, zeta_elem)), fiber_node)
    up = flag.chevalley(s, zeta_elem)
    if pushforward(up, fiber_node):
        raise ConventionError(f"s.zeta = {up} is not pulled back from G/P")
    if pushforward(flag.chevalley(zeta, up), fiber_node) != c2:
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
    """Degree of the codimension-2 zero locus on the given side of the
    rank-2 pair, in its minimal ample polarization.  Every connected
    rank-2 type is taken: on G2 the locus is a 3-fold in a 5-dimensional
    quotient, of degree 42 on side 1 and 14 on side 2; B2 and C2
    (3-dimensional quotients) give 5 on both sides, and A2 gives 3.

    Side i is the quotient polarized by the i-th fundamental weight; the
    line fibration from the full flag variety runs through the other
    node.  The degree is the integral of h^(dim-2).c2(V) where h is the
    ample generator.
    """
    check_rank2_pair(group)
    side = check_int(side, "side")  # 1.0 would make a float node
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    fiber_node = 3 - side
    _, c2 = chern_of_pushforward_bundle(group, fiber_node)
    ring = c2.ring
    h = ring.ample_generator()
    x = c2
    for _ in range(ring.dimension - 2):
        x = ring.chevalley(h, x)
    return ring.integrate(x)
