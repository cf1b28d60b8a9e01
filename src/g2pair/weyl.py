"""Weyl groups as orbits of dominant weights in fundamental-weight
coordinates.

One walk does all enumeration.  For a set P of simple nodes let
omega_P be the sum of the fundamental weights omega_i with i not in P.
Its orbit W.omega_P is in bijection with W/W_P (Stembridge,
"Computational aspects of root systems, Coxeter groups, and Weyl
characters", 2001), and the walk visits it breadth first, one layer per
length.  In weight coordinates a simple reflection is
s_i(v) = v - v_i * (column i of the Cartan matrix), rootsys.reflect_weight,
so every step costs O(rank).  s_i mu lies one layer up exactly when
mu_i > 0, and the left descents of a point are its negative coordinates.

Elements carry a canonical reduced word: the lexicographically smallest
one, obtained by greedy extraction of the smallest left descent.  So a
point t of the next layer has one canonical parent, s_i t for the first
negative coordinate i of t, and its word is (i,) + the parent's word.
The walk emits t = s_i mu only from that parent, that is when no
coordinate j < i of t is negative.  For j != i, t_j = mu_j - mu_i a_ji
>= mu_j, so only a negative mu_j with j < i can block, and the first
one is mu's own first descent f, the first letter of its word minus one
(omega_P has none).  So f decides before any reflection: with no f or
f > i, t is accepted; with f < i, t is rejected when
t_f = mu_f - mu_i a_fi < 0, as always when f is not adjacent to i; only
the rest are reflected and their coordinates before i read.  Taking the
letter in the outer loop and the layer, in word order, in the inner
one, each layer comes out in word order with no sort and no table of
candidates.  A minimal coset representative keeps the right factor of
every reduced product, so the walk of omega_P yields exactly the
elements of W^P, with the group's own words, in (length, word) order.
Each cell keeps its canonical parent's list index: coset names and a
Schubert ring's per-cell data (pairings, point codes) are read off the
parent's through that link.

An element is its point y = w(rho): the orbit of rho is free.  One
constructor makes an element from y and keeps it per group, so equal
elements are the same object.  It reads the canonical word off y by
reflecting at the first negative coordinate until none is left, which
ends at rho exactly when y is in the orbit.  No verb makes an element:
cosets, certificates and Schubert rings read words, points, parent links
and codes.  WeylElement and its product, ``min_coset_reps`` and
``reflections`` stay only because the benchmark's tracer
(perfbench/tracer.py) wraps them, and ``from_word`` because they and
SchubertRing.basis, which the tracer reads, make elements with it.  The
rest of the element API (the listed group, inverses, right descents,
orders, the longest element) lives in the tests' oracles.

|W| is the product of the degrees d_i of W, which are one more than the
parts of the partition dual to the numbers of positive roots of each
height (Kostant; Humphreys, "Reflection Groups and Coxeter Groups",
3.20).  The length generating function prod [d_i]_t gives the size of
every layer, so the cap is checked before anything is enumerated and the
order needs no enumeration.  The same rule, applied to the roots
supported on P, gives the degrees of W_P, from which motive counts the
cells of G/P without a walk.  Nothing here lists W: coset words, names
and Schubert rings read one walk of omega_P per parabolic, kept by the
group.  Each word of W^P is a letter followed by its parent's word, so
one pass over the parent links names a whole list, and the command line
writes each word's JSON text the same way, from its parent's text.  No
element is ever turned into a matrix; the tests derive matrices from the
words as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import CapExceededError
from .rootsys import Root, RootSystem, check_cap, check_node, reflect_weight

DEFAULT_GROUP_CAP = 1_000_000

Word = tuple[int, ...]
Point = tuple[int, ...]
Walk = tuple[tuple[Word, ...], tuple[Point, ...], tuple[int, ...]]


def word_name(word: Word) -> str:
    """Render a reduced word: () -> "e", (1, 2) -> "s1*s2"."""
    if not word:
        return "e"
    return "*".join(f"s{i}" for i in word)


def word_names(words: Sequence[Word], parents: Sequence[int]) -> list[str]:
    """word_name of each word, given the index of its canonical parent
    (the word without its first letter, -1 for the empty word) in a list
    of the same length, as ``orbit`` makes them: each name is "s<i>*" plus
    the name of the parent, which must come first."""
    out: list[str] = []
    for k, (word, p) in enumerate(zip(words, parents, strict=True)):
        if not word:
            out.append("e")
        elif not 0 <= p < k:
            raise ValueError(f"cell {k} has parent {p}, which does not come before it")
        elif len(word) > 1:
            out.append(f"s{word[0]}*{out[p]}")
        else:
            out.append(f"s{word[0]}")
    return out


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


class WeylGroup:
    """Finite Weyl group of a root system, which owns the Cartan columns
    the walk steps along and each positive root's weight and coroot.

    The order comes from the degrees, and CapExceededError is raised at
    once when it passes ``cap``.  ``orbit`` keeps one walk of omega_P per
    parabolic in ``_walks``, which coset words and Schubert rings read.
    Next to it, ``_tables`` keeps per parabolic the Chevalley table that
    schubert builds for the first ring of that quotient (codes, layers,
    pairings, covers, coroot classes), so every later ring of it reads the
    same table.
    ``_at``, kept for the methods the benchmark's tracer wraps, makes an
    element from its point w(rho) once, on first use, and keeps it in
    ``_made``; nothing lists the group.
    """

    def __init__(self, root_system: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        check_cap(cap)
        self.root_system = root_system
        self.rank = rank = root_system.rank
        self.degrees = _degrees(root_system.positive_roots, rank)
        self.order = check_order(self.degrees, cap)
        self._walks: dict[tuple[int, ...], Walk] = {}
        self._tables: dict[tuple[int, ...], tuple] = {}
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

    def orbit(self, nodes: Iterable[int]) -> Walk:
        """The orbit of omega_P, P = ``nodes`` in any order, breadth first
        in (length, word) order: the canonical words, the points and the
        index of each point's canonical parent (-1 for omega_P).  Walked
        once per parabolic and kept in ``_walks``, so every spelling of P
        gets the same tuple.  A candidate s_i mu is accepted when mu has no
        first descent f < i, rejected when f < i and mu_f - mu_i a_fi < 0,
        and only otherwise reflected and checked."""
        p = self.normalize_parabolic(nodes)
        walk = self._walks.get(p)
        if walk is not None:
            return walk
        cartan, rank = self.root_system.cartan, self.rank
        a, cols = cartan.entries, cartan.columns
        words: list[Word] = [()]
        points: list[Point] = [tuple(0 if i in p else 1 for i in range(1, rank + 1))]
        parents = [-1]
        start = 0
        while start < len(points):
            end = len(points)
            for i in range(rank):
                col, letter = cols[i], (i + 1,)
                for k in range(start, end):
                    mu = points[k]
                    c = mu[i]
                    if c > 0:
                        if k and (f := words[k][0] - 1) < i:
                            if mu[f] < c * a[f][i]:
                                continue  # t_f < 0: t's first descent is f
                            t = reflect_weight(mu, i, col)
                            if min(t[:i]) < 0:
                                continue  # t's first descent is j < i: another parent
                        else:
                            t = reflect_weight(mu, i, col)
                        words.append(letter + words[k])
                        points.append(t)
                        parents.append(k)
            start = end
        walk = self._walks[p] = (tuple(words), tuple(points), tuple(parents))
        return walk

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

    def coset_words(self, nodes: Iterable[int]) -> tuple[Word, ...]:
        """Canonical words of the minimal representatives of the cosets
        w W_P, P generated by ``nodes``, sorted by (length, word): the
        words of ``orbit``."""
        return self.orbit(nodes)[0]

    def coset_names(self, nodes: Iterable[int]) -> list[str]:
        """word_name of each word of ``coset_words``, through the walk's links."""
        words, _, parents = self.orbit(nodes)
        return word_names(words, parents)

    def min_coset_reps(self, nodes: Iterable[int]) -> tuple[WeylElement, ...]:
        """Shortest representatives of the cosets w W_P, P generated by
        ``nodes``, as elements of this group, made from the words of the
        walk of omega_P.  Sorted by (length, word) like everything else.
        Kept for the benchmark's tracer, which wraps it."""
        return tuple(map(self.from_word, self.coset_words(nodes)))

    @cached_property
    def point_codes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer codes of weights, v -> sum of v_i * r^i with radix
        r = 2 ht(theta_check) + 1, ht(theta_check) the largest height of a
        positive coroot: the powers r^i and the code of each positive root
        (weight coordinates), in root order.  A coordinate of w(omega_P) is
        <omega_P, w^-1 alpha_i_check>, a coroot's coefficient sum over the
        nodes outside P, so at most ht(theta_check) in absolute value: the
        digits are balanced and the code is injective on every orbit.  It is
        linear, so s_gamma(mu) = mu - q gamma has code c(mu) - q c(gamma)."""
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
        """Map positive root -> the reflection it defines (a fresh dict).
        s_beta has y-point rho - <rho, beta_check> beta.  Kept for the
        benchmark's tracer, which wraps it."""
        rs = self.root_system
        return {
            beta: self._at(tuple(1 - sum(coroot) * c for c in w))
            for beta, coroot, w in zip(rs.positive_roots, rs.coroots, rs.weights)
        }
