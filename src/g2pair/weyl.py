"""Weyl groups as orbits of dominant weights in fundamental-weight
coordinates.

One walk does all enumeration.  For a set P of simple nodes let
omega_P be the sum of the fundamental weights omega_i with i not in P.
Its orbit W.omega_P is in bijection with W/W_P (Stembridge,
"Computational aspects of root systems, Coxeter groups, and Weyl
characters", 2001), and the walk visits it breadth first, one layer per
length.  In weight coordinates a simple reflection is
s_i(v) = v - v_i * (column i of the Cartan matrix), so every step costs
O(rank).  s_i mu lies one layer up exactly when mu_i > 0, and the left
descents of a point are its negative coordinates.

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
constructor makes every element from y and keeps it per group, so equal
elements are the same object.  It reads the canonical word off y by
reflecting at the first negative coordinate until none is left, which
ends at rho exactly when y is in the orbit.  Words, products (u's word
folded onto y(v)), inverses, reflections and the longest element (-rho)
are points handed to it; none enumerates W.  x = w^-1(rho) is computed
on first use:

  * left descents: l(s_i w) < l(w) exactly when y_i < 0;
  * right descents: l(w s_i) < l(w) exactly when x_i < 0.

|W| is the product of the degrees d_i of W, which are one more than the
parts of the partition dual to the numbers of positive roots of each
height (Kostant; Humphreys, "Reflection Groups and Coxeter Groups",
3.20).  The length generating function prod [d_i]_t gives the size of
every layer, so the cap is checked before anything is enumerated and the
order needs no enumeration.  The same rule, applied to the roots
supported on P, gives the degrees of W_P, from which motive counts the
cells of G/P without a walk.  Only ``elements`` walks the orbit of rho;
coset words and Schubert rings read only the walk of omega_P.  Each
word of W^P is a letter followed by its parent's word, so a whole list
is named in one pass, each name from the name its parent link points to.
No element is ever turned into a matrix; the tests derive matrices from
the words as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceededError
from .rootsys import Root, RootSystem, check_cap, check_node, matvec

DEFAULT_GROUP_CAP = 1_000_000

Word = tuple[int, ...]
Point = tuple[int, ...]


def word_name(word: Word) -> str:
    """Render a reduced word: () -> "e", (1, 2) -> "s1*s2"."""
    if not word:
        return "e"
    return "*".join(f"s{i}" for i in word)


def word_names(words: Sequence[Word], parents: Sequence[int]) -> list[str]:
    """word_name of each word, given the index of its canonical parent
    (the word without its first letter, -1 for the empty word), as
    ``orbit`` makes them: each name is "s<i>*" plus the name of the
    parent, which must come first."""
    out: list[str] = []
    for k, (word, p) in enumerate(zip(words, parents)):
        if not 0 <= p < k:
            if word:
                raise ValueError(f"cell {k} has parent {p}, which does not come before it")
            out.append("e")
        elif len(word) > 1:
            out.append(f"s{word[0]}*{out[p]}")
        else:
            out.append(f"s{word[0]}")
    return out


def _reflect(v: Point, i: int, column: tuple[tuple[int, int], ...]) -> Point:
    """s_{i+1}(v) in weight coordinates, given the nonzero entries (j, a_ji)
    of column i of the Cartan matrix."""
    c = v[i]
    out = list(v)
    for j, a in column:
        out[j] -= c * a
    return tuple(out)


class WeylElement:
    """One group element: its canonical word and its point y = w(rho),
    made only by its group's constructor."""

    __slots__ = ("word", "y", "group", "_x")

    def __init__(self, word: Word, y: Point, group: "WeylGroup"):
        self.word = word
        self.y = y
        self.group = group
        self._x: Point | None = None

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

    @property
    def x(self) -> Point:
        """w^-1(rho), the point of the reversed word."""
        if self._x is None:
            self._x = self.group._fold(self.word[::-1], self.group._rho)
        return self._x

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Fold the word of u onto y(v): y(uv) = u(y(v))."""
        if self.group is not other.group:
            raise ValueError("cannot multiply elements of different groups")
        return self.group._at(self.group._fold(self.word, other.y))

    def inverse(self) -> "WeylElement":
        return self.group._at(self.x)

    def order(self) -> int:
        k, cur = 1, self
        while cur.word:
            cur = cur * self
            k += 1
        return k

    def has_right_descent(self, i: int) -> bool:
        """l(w s_i) < l(w), i.e. w sends alpha_i to a negative root, i.e.
        <w^-1 rho, alpha_i_check> < 0."""
        return self.x[i - 1] < 0


class Reflection(NamedTuple):
    """A positive root beta with beta_check in simple-coroot coordinates
    and beta in fundamental-weight coordinates: <v, beta_check> and
    s_beta(v) = v - <v, beta_check> beta of a weight v in O(rank)."""

    root: Root
    coroot: Root
    weight: Point


class LengthBijection(NamedTuple):
    """Pairing of two coset-representative lists by sorted position.

    ``pairs`` is None when the length multisets disagree; the two length
    tuples stay available either way so a failure names the mismatch.
    """

    left: tuple[WeylElement, ...]
    right: tuple[WeylElement, ...]
    lengths_left: tuple[int, ...]
    lengths_right: tuple[int, ...]
    pairs: tuple[tuple[WeylElement, WeylElement], ...] | None

    @property
    def ok(self) -> bool:
        return self.pairs is not None


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


def q_product(degrees: Iterable[int]) -> list[int]:
    """Coefficients of prod [d]_t over ``degrees``, [d]_t = 1 + t + ... + t^(d-1):
    for the degrees of W, the number of elements of each length."""
    out = [1]
    for d in degrees:
        # Multiply by [d]_t = (1 - t^d) / (1 - t): divide by 1 - t as a
        # running sum, then multiply by 1 - t^d.
        sums = list(itertools.accumulate(out + [0] * (d - 1)))
        out = [c - (sums[k - d] if k >= d else 0) for k, c in enumerate(sums)]
    return out


def _cap_error(degrees: tuple[int, ...], cap: int) -> CapExceededError:
    """For an order above the cap: the error a breadth-first enumeration
    would meet at the end of the first layer whose running total passes
    the cap, with the layer sizes read off prod [d_i]_t."""
    length, total = next(
        (k, t) for k, t in enumerate(itertools.accumulate(q_product(degrees))) if t > cap
    )
    return CapExceededError(
        f"Weyl group enumeration exceeded cap {cap} "
        f"({total} elements through length {length})"
    )


class WeylGroup:
    """Finite Weyl group of a root system.

    The order comes from the degrees, and CapExceededError is raised at
    once when it passes ``cap``.  ``_at`` makes each element from its
    point w(rho) once, on first use, and keeps it; only ``elements``,
    sorted by (length, word), walks the whole group.  Coset words and
    their parent links come from the walk of omega_P, kept per
    parabolic: one request asks for the same quotients many times.
    """

    def __init__(self, root_system: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        check_cap(cap)
        self.root_system = root_system
        rank = root_system.rank
        a = root_system.cartan.entries
        self._columns = tuple(
            tuple((j, a[j][i]) for j in range(rank) if a[j][i]) for i in range(rank)
        )
        self.degrees = _degrees(root_system.positive_roots, rank)
        self.order = math.prod(self.degrees)
        if self.order > cap:
            raise _cap_error(self.degrees, cap)
        self._walks: dict[tuple[int, ...], tuple[tuple[Word, ...], tuple[int, ...]]] = {}
        self._rho: Point = (1,) * rank
        self._made: dict[Point, WeylElement] = {}

    def _at(self, y: Point, word: Word | None = None) -> WeylElement:
        """The element w with w(rho) = y, made on first use.  Its canonical
        word is ``word`` when a walk of rho has it, else the sequence of
        first negative coordinates peeled off y; each peel adds a positive
        multiple of a simple root, so peeling ends."""
        found = self._made.get(y)
        if found is None:
            if word is None:
                cols, letters, t = self._columns, [], y
                while (i := next((k for k, c in enumerate(t) if c < 0), -1)) >= 0:
                    letters.append(i + 1)
                    t = _reflect(t, i, cols[i])
                if t != self._rho:
                    raise ValueError(f"{y} is not in the orbit of rho")
                word = tuple(letters)
            found = self._made[y] = WeylElement(word, y, self)
        return found

    def _fold(self, letters: Word, y: Point) -> Point:
        """s_{l1} ... s_{lk}(y) for letters l1..lk, rightmost first."""
        cols, v = self._columns, list(y)
        for i in reversed(letters):
            c = v[i - 1]
            for j, a in cols[i - 1]:
                v[j] -= c * a
        return tuple(v)

    def orbit(self, nodes: tuple[int, ...]) -> tuple[list[Word], list[Point], list[int]]:
        """The orbit of omega_P, P = ``nodes`` (normalized), breadth first
        in (length, word) order: the canonical words, the points and the
        index of each point's canonical parent (-1 for omega_P).  A
        candidate s_i mu is accepted when mu has no first descent f < i,
        rejected when f < i and mu_f - mu_i a_fi < 0, and only otherwise
        reflected and checked."""
        rank, cols, a = self.rank, self._columns, self.root_system.cartan.entries
        words: list[Word] = [()]
        points: list[Point] = [tuple(0 if i in nodes else 1 for i in range(1, rank + 1))]
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
                            t = _reflect(mu, i, col)
                            if min(t[:i]) < 0:
                                continue  # t's first descent is j < i: another parent
                        else:
                            t = _reflect(mu, i, col)
                        words.append(letter + words[k])
                        points.append(t)
                        parents.append(k)
            start = end
        return words, points, parents

    @cached_property
    def elements(self) -> tuple[WeylElement, ...]:
        """Every element, from the walk of rho, in (length, word) order."""
        words, ys, _ = self.orbit(())
        elements = tuple(map(self._at, ys, words))
        if len(elements) != self.order:
            raise AssertionError(
                f"orbit of rho has {len(elements)} points, the degrees give {self.order}"
            )
        if len(elements) > 1 and elements[-2].length == elements[-1].length:
            raise AssertionError("longest element is not unique; group is not finite Weyl")
        return elements

    @property
    def rank(self) -> int:
        return self.root_system.rank

    def __iter__(self) -> Iterator[WeylElement]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"WeylGroup(rank {self.rank}, order {self.order})"

    @property
    def identity(self) -> WeylElement:
        return self._at(self._rho)

    def generator(self, i: int) -> WeylElement:
        check_node(i, self.rank)
        return self._at(_reflect(self._rho, i - 1, self._columns[i - 1]))

    def from_word(self, letters: Iterable[int]) -> WeylElement:
        """The element of a word in 1..rank, reduced or not; it carries its
        canonical word."""
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

    def _coset_walk(self, nodes: Iterable[int]) -> tuple[tuple[Word, ...], tuple[int, ...]]:
        """Words and parent links of the walk of omega_P, kept per parabolic."""
        p = self.normalize_parabolic(nodes)
        walk = self._walks.get(p)
        if walk is None:
            words, _, parents = self.orbit(p)
            walk = self._walks[p] = (tuple(words), tuple(parents))
        return walk

    def coset_words(self, nodes: Iterable[int]) -> tuple[Word, ...]:
        """Canonical words of the minimal representatives of the cosets
        w W_P, P generated by ``nodes``, sorted by (length, word), without
        building the group."""
        return self._coset_walk(nodes)[0]

    def coset_names(self, nodes: Iterable[int]) -> list[str]:
        """word_name of each word of ``coset_words``, through the walk's links."""
        return word_names(*self._coset_walk(nodes))

    def min_coset_reps(self, nodes: Iterable[int]) -> tuple[WeylElement, ...]:
        """Shortest representatives of the cosets w W_P, P generated by
        ``nodes``, as elements of this group, made from the words of the
        walk of omega_P.  Sorted by (length, word) like everything else."""
        return tuple(map(self.from_word, self.coset_words(nodes)))

    def length_bijection(self, left_nodes: Iterable[int], right_nodes: Iterable[int]) -> LengthBijection:
        left = self.min_coset_reps(left_nodes)
        right = self.min_coset_reps(right_nodes)
        ll = tuple(map(len, self.coset_words(left_nodes)))
        lr = tuple(map(len, self.coset_words(right_nodes)))
        pairs = tuple(zip(left, right)) if ll == lr else None
        return LengthBijection(left=left, right=right, lengths_left=ll, lengths_right=lr, pairs=pairs)

    def longest_element(self) -> WeylElement:
        """w0, the element with w0(rho) = -rho."""
        return self._at(tuple(-c for c in self._rho))

    @cached_property
    def reflection_data(self) -> tuple[Reflection, ...]:
        """One record per positive root, in root order."""
        rs = self.root_system
        return tuple(
            Reflection(beta, rs.coroot_coordinates(beta), matvec(rs.cartan.entries, beta))
            for beta in rs.positive_roots
        )

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
        data = self.reflection_data
        radix = 2 * max(sum(r.coroot) for r in data) + 1
        powers = tuple(radix**i for i in range(self.rank))
        return powers, tuple(sum(map(operator.mul, r.weight, powers)) for r in data)

    @cached_property
    def root_moves(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per simple reflection s_i: the index of alpha_i, and for each
        positive root beta in root order the index of s_i(beta).  s_i
        permutes the positive roots other than alpha_i and negates
        alpha_i, which keeps its own index here."""
        rs = self.root_system
        roots = rs.positive_roots
        index = {beta: n for n, beta in enumerate(roots)}
        return tuple(
            (
                index[rs.simple_root(i)],
                tuple(index.get(rs.reflect(i, beta), n) for n, beta in enumerate(roots)),
            )
            for i in range(1, self.rank + 1)
        )

    def reflections(self) -> dict[Root, WeylElement]:
        """Map positive root -> the reflection it defines (a fresh dict).
        s_beta has y-point rho - <rho, beta_check> beta."""
        return {
            r.root: self._at(tuple(1 - sum(r.coroot) * c for c in r.weight))
            for r in self.reflection_data
        }
