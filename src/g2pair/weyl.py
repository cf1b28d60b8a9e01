"""Weyl groups as orbits of dominant weights in fundamental-weight
coordinates.

One walk does all enumeration.  For a set P of simple nodes let omega_P
be the sum of the fundamental weights omega_i with i not in P.  Its orbit
W.omega_P is in bijection with W/W_P (Stembridge, "Computational aspects
of root systems, Coxeter groups, and Weyl characters", 2001), and the
walk visits it breadth first, one layer per length.  A simple reflection
is s_i(v) = v - v_i * (column i of the Cartan matrix),
rootsys.reflect_weight, O(rank); s_i mu lies one layer up exactly when
mu_i > 0, and the left descents of a point are its negative coordinates.

The canonical reduced word of an element is the lexicographically
smallest one, read by peeling the smallest left descent.  So a point t
of the next layer has one canonical parent, s_i t for its first negative
coordinate i, and its word is (i,) + the parent's word: the walk emits
t = s_i mu only when no t_j with j < i is negative.  For j != i,
t_j = mu_j - mu_i a_ji >= mu_j, so only mu's own first descent f, its
first letter minus one, can block: with no f or f > i, t is accepted;
with f < i, t is rejected when t_f = mu_f - mu_i a_fi < 0, and only the
rest are reflected and their coordinates before i read.  With the letter
in the outer loop and the layer in the inner one, each layer comes out
in word order with no sort, and the walk yields exactly the minimal
coset representatives W^P in (length, word) order.

``WeylGroup.quotient`` checks P once and keeps one Quotient per
parabolic, holding the walk as columns: each cell's first letter, its
canonical parent's index, the layer offsets and the flattened points.
Words, names and points are derived from the parent links on demand;
the command line writes names and JSON rows from them, and a Schubert
ring reads its per-cell data off the parent's.

An element is its point y = w(rho): the orbit of rho is free.  One
constructor makes an element from y, keeps it per group and reads its
canonical word by peeling first descents, which ends at rho exactly when
y is in the orbit.  No verb makes an element: WeylElement and its
product, ``min_coset_reps`` and ``reflections`` stay only because the
benchmark's tracer (perfbench/tracer.py) wraps them, and ``from_word``
because they and SchubertRing.basis, which the tracer reads, use it.

|W| is the product of the degrees d_i of W, one more than the parts of
the partition dual to the numbers of positive roots of each height
(Kostant; Humphreys, "Reflection Groups and Coxeter Groups", 3.20), and
prod [d_i]_t counts every layer, so the cap is checked before anything
is enumerated.  The roots supported on P give the degrees of W_P, from
which motive counts the cells of G/P without a walk.  No element is
turned into a matrix; the tests derive matrices from the words as an
independent cross-check.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from functools import cache, cached_property
from typing import Iterable, Optional

from .errors import CapExceededError
from .rootsys import Root, RootSystem, check_cap, check_node, reflect_weight

DEFAULT_GROUP_CAP = 1_000_000

Word = tuple[int, ...]
Point = tuple[int, ...]


def word_name(word: Word) -> str:
    """Render a reduced word: () -> "e", (1, 2) -> "s1*s2"."""
    if not word:
        return "e"
    return "*".join(f"s{i}" for i in word)


class WeylElement:
    """One group element: its canonical word and its point y = w(rho),
    made only by its group's constructor.  Kept for the benchmark's
    tracer, which wraps ``__mul__``; no library path makes one."""

    __slots__ = ("word", "y", "group")

    def __init__(self, word: Word, y: Point, group: "WeylGroup"):
        self.word = word
        self.y = y
        self.group = group

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def name(self) -> str:
        return word_name(self.word)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"WeylElement({self.name})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.y == other.y and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.y)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Fold the word of u onto y(v): y(uv) = u(y(v))."""
        if self.group is not other.group:
            raise ValueError("cannot multiply elements of different groups")
        return self.group._at(self.group._fold(self.word, other.y))


def _degrees(roots: Iterable[Root], rank: int) -> tuple[int, ...]:
    """Degrees of the Weyl group of a root system of rank ``rank`` with
    positive roots ``roots``: the exponents are the partition dual to the
    numbers of roots of each height, and d_i = m_i + 1.  Heights add over
    the components of a reducible system and the dual partition of a sum
    is the union of the duals, so the rule holds there too."""
    per_height = Counter(map(sum, roots))
    return tuple(
        1 + sum(1 for c in per_height.values() if c >= j) for j in range(1, rank + 1)
    )


def q_product(degrees: Iterable[int], terms: Optional[int] = None) -> list[int]:
    """Coefficients of prod [d]_t over ``degrees``, [d]_t = 1 + t + ... + t^(d-1),
    all of them or the first ``terms``: for the degrees of W, the number
    of elements of each length."""
    out = [1]
    for d in degrees:
        # Multiply by [d]_t = (1 - t^d) / (1 - t): divide by 1 - t as a
        # running sum, then multiply by 1 - t^d.
        sums = list(itertools.accumulate(out + [0] * (d - 1)))[:terms]
        out = [c - (sums[k - d] if k >= d else 0) for k, c in enumerate(sums)]
    return out


def check_order(degrees: tuple[int, ...], cap: int) -> int:
    """The order prod(degrees) of W; above ``cap``, the CapExceededError a
    breadth-first enumeration would meet at the end of the first layer
    whose running total passes the cap.  The layer sizes are read off
    prod [d_i]_t, multiplied out only as far as that layer."""
    order, terms = math.prod(degrees), 1
    while order > cap:
        terms *= 2
        totals = enumerate(itertools.accumulate(q_product(degrees, terms)))
        hit = next(((k, t) for k, t in totals if t > cap), None)
        if hit:
            raise CapExceededError(
                f"Weyl group enumeration exceeded cap {cap} "
                f"({hit[1]} elements through length {hit[0]})"
            )
    return order


@cache
def _typecode(bound: int) -> str:
    """The narrowest signed array typecode that holds -bound..bound."""
    from array import array
    return next(c for c in "bhilq" if bound < 1 << 8 * array(c).itemsize - 1)


class Quotient:
    """W/W_P, one per group and parabolic (``WeylGroup.quotient``): the
    walk of omega_P as columns.  Cell k has the first letter ``letters[k]``
    of its word (0 for e), its parent's index ``parents[k]`` (-1) and the
    point ``coords[k*rank:(k+1)*rank]``; ``offsets[n]`` is the first cell
    of layer n, and the cell count for the two layers past the top.
    ``table`` is the Chevalley table the first ring makes, None till then."""

    __slots__ = ("group", "parabolic", "free_nodes", "letters", "parents", "coords",
                 "offsets", "table")

    def __init__(self, group: "WeylGroup", parabolic: tuple[int, ...]):
        self.group, self.parabolic, self.table, rank = group, parabolic, None, group.rank
        self.free_nodes = tuple([i for i in range(1, rank + 1) if i not in parabolic])
        a, cols = group.root_system.cartan.entries, group.root_system.cartan.columns
        omega = tuple([0 if i in parabolic else 1 for i in range(1, rank + 1)])
        # array is loaded on the first walk, not with the library (about
        # half a millisecond).  Wide enough by construction: a letter is at
        # most the rank; a cell index is below |W| and sys.maxsize, the
        # longest sequence; a coordinate is at most ht(theta_check) in
        # absolute value (point_codes), the largest degree minus one.
        from array import array
        self.letters = array(_typecode(rank))
        self.parents = array(_typecode(min(group.order, sys.maxsize)))
        self.coords = array(_typecode(max(group.degrees) - 1))
        # Two layers are kept as tuples, the one read and the one made; the
        # columns go to the arrays in batches of 4096 cells or more.
        # firsts[k] is the first letter of layer[k], rank + 1 for omega_P.
        self.offsets = offsets = [0]
        letters, parents, flat = [0], [-1], list(omega)
        layer, firsts = [omega], [rank + 1]
        while layer:
            start = offsets[-1]
            offsets.append(start + len(layer))
            made: list[Point] = []
            made_firsts: list[int] = []  # the letters of the cells made
            for i in range(rank):
                col, before = cols[i], len(made)
                for k, mu in enumerate(layer):
                    c = mu[i]
                    if c > 0:
                        if firsts[k] <= i:
                            f = firsts[k] - 1
                            if mu[f] < c * a[f][i]:
                                continue  # t_f < 0: t's first descent is f
                            t = reflect_weight(mu, i, col)
                            if min(t[:i]) < 0:
                                continue  # t's first descent is j < i: another parent
                        else:
                            t = reflect_weight(mu, i, col)
                        made.append(t)
                        parents.append(start + k)
                        flat += t
                made_firsts += [i + 1] * (len(made) - before)
            letters += made_firsts
            layer, firsts = made, made_firsts
            if len(letters) >= 4096 or not layer:
                for column, batch in (self.letters, letters), (self.parents, parents), \
                        (self.coords, flat):
                    column.fromlist(batch)
                    batch.clear()
        offsets.append(offsets[-1])

    def __len__(self) -> int:
        return len(self.letters)

    def words(self) -> tuple[Word, ...]:
        """Every cell's canonical word, each its letter plus its parent's."""
        out: list[Word] = [()]
        for i, p in zip(self.letters[1:], self.parents[1:]):
            out.append((i,) + out[p])
        return tuple(out)

    def names(self) -> list[str]:
        """word_name of every cell: "s<i>*" plus the parent's name."""
        heads, out = {i: f"s{i}*" for i in set(self.letters)}, ["e"]
        for i, p in zip(self.letters[1:], self.parents[1:]):
            out.append(heads[i] + out[p] if p else heads[i][:-1])
        return out

    def points(self) -> tuple[Point, ...]:
        """Every cell's point w(omega_P), cut out of ``coords``."""
        cells = iter(self.coords)
        return tuple(zip(*[cells] * self.group.rank))

    def lengths(self) -> list[int]:
        """The layer, length(w), of every cell, read off the offsets."""
        offsets, out = self.offsets, []
        for n in range(len(offsets) - 1):
            out += [n] * (offsets[n + 1] - offsets[n])
        return out


class WeylGroup:
    """Finite Weyl group of a root system.  The order comes from the
    degrees, and CapExceededError is raised at once when it passes
    ``cap``.  ``_quotients`` keeps one Quotient per parabolic; ``_at``
    makes an element from its point w(rho) on first use and keeps it in
    ``_made``; nothing lists the group."""

    def __init__(self, root_system: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        check_cap(cap)
        self.root_system = root_system
        self.rank = rank = root_system.rank
        self.degrees = _degrees(root_system.positive_roots, rank)
        self.order = check_order(self.degrees, cap)
        self._quotients: dict[tuple[int, ...], Quotient] = {}
        self._rho: Point = (1,) * rank
        self._made: dict[Point, WeylElement] = {}

    def _at(self, y: Point) -> WeylElement:
        """The element w with w(rho) = y, made on first use.  Its canonical
        word is the sequence of first negative coordinates peeled off y;
        each peel adds a positive multiple of a simple root, so peeling
        ends."""
        found = self._made.get(y)
        if found is None:
            cols, letters, t = self.root_system.cartan.columns, [], y
            while (i := next((k for k, c in enumerate(t) if c < 0), -1)) >= 0:
                letters.append(i + 1)
                t = reflect_weight(t, i, cols[i])
            if t != self._rho:
                raise ValueError(f"{y} is not in the orbit of rho")
            found = self._made[y] = WeylElement(tuple(letters), y, self)
        return found

    def _fold(self, letters: Word, y: Point) -> Point:
        """s_{l1} ... s_{lk}(y) for letters l1..lk, rightmost first."""
        cols = self.root_system.cartan.columns
        for i in reversed(letters):
            y = reflect_weight(y, i - 1, cols[i - 1])
        return y

    def quotient(self, nodes: Iterable[int]) -> Quotient:
        """W/W_P, P = ``nodes`` in any order or spelling, checked and
        normalized once and walked once per parabolic, so every spelling
        gets the same object; a refused one raises before the cache."""
        p = self.normalize_parabolic(nodes)
        q = self._quotients.get(p)
        if q is None:
            q = self._quotients[p] = Quotient(self, p)
        return q

    def __repr__(self) -> str:
        return f"WeylGroup(rank {self.rank}, order {self.order})"

    def from_word(self, letters: Iterable[int]) -> WeylElement:
        """The element of a word in 1..rank, reduced or not; it carries its
        canonical word.  Kept for ``min_coset_reps`` and SchubertRing.basis."""
        letters = tuple(check_node(i, self.rank, "letter") for i in letters)
        return self._at(self._fold(letters, self._rho))

    def normalize_parabolic(self, nodes: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted({check_node(i, self.rank, "parabolic node") for i in nodes}))

    def parabolic_degrees(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Degrees of W_P, P generated by ``nodes``: read off the positive
        roots supported on P, whose heights are their heights in the Levi."""
        p = self.normalize_parabolic(nodes)
        outside = [i - 1 for i in range(1, self.rank + 1) if i not in p]
        roots = (b for b in self.root_system.positive_roots if not any(b[i] for i in outside))
        return _degrees(roots, len(p))

    def min_coset_reps(self, nodes: Iterable[int]) -> tuple[WeylElement, ...]:
        """The minimal coset representatives of W/W_P as elements, in
        (length, word) order.  Kept for the benchmark's tracer."""
        return tuple(map(self.from_word, self.quotient(nodes).words()))

    @cached_property
    def point_codes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer codes of weights, v -> sum of v_i * r^i with radix
        r = 2 ht(theta_check) + 1: the powers r^i and each positive root's
        code, in root order.  A coordinate of w(omega_P) is
        <omega_P, w^-1 alpha_i_check>, a coroot's coefficient sum over the
        nodes outside P, at most ht(theta_check) in absolute value: the
        digits are balanced, so the code is injective on every orbit."""
        rs = self.root_system
        radix = 2 * max(map(sum, rs.coroots)) + 1
        powers = tuple(radix**i for i in range(self.rank))
        return powers, tuple(sum(map(operator.mul, w, powers)) for w in rs.weights)

    @cached_property
    def root_moves(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per simple reflection s_i: the index of alpha_i, and for each
        positive root beta in root order the index of s_i(beta) =
        beta - <beta, alpha_i_check> alpha_i, one coordinate edit.  s_i
        permutes the positive roots other than alpha_i and negates
        alpha_i, which keeps its own index here."""
        rs = self.root_system
        index = {beta: n for n, beta in enumerate(rs.positive_roots)}
        pairs = tuple(enumerate(zip(rs.positive_roots, rs.weights)))
        return tuple(
            (
                index[tuple(int(k == i) for k in range(self.rank))],
                tuple(index.get(b[:i] + (b[i] - w[i],) + b[i + 1:], n) for n, (b, w) in pairs),
            )
            for i in range(self.rank)
        )

    def reflections(self) -> dict[Root, WeylElement]:
        """Map positive root -> its reflection, whose y-point is
        rho - <rho, beta_check> beta.  Kept for the benchmark's tracer."""
        rs = self.root_system
        return {
            beta: self._at(tuple(1 - sum(coroot) * c for c in w))
            for beta, coroot, w in zip(rs.positive_roots, rs.coroots, rs.weights)
        }
