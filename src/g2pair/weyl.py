"""Weyl groups as orbits of rho in fundamental-weight coordinates.

An element w is identified by the point y = w(rho), where rho is the sum
of the fundamental weights; the orbit of rho is free, so w -> w(rho) is a
bijection (Stembridge, "Computational aspects of root systems, Coxeter
groups, and Weyl characters", 2001).  Each element also carries
x = w^-1(rho), which holds its right-hand data.  In weight coordinates a
simple reflection is s_i(v) = v - v_i * (column i of the Cartan matrix),
so every step costs O(rank).

Read off the two points:

  * left descents: l(s_i w) < l(w) exactly when y_i < 0;
  * right descents: l(w s_i) < l(w) exactly when x_i < 0;
  * w * s_beta has x-point s_beta(x), the inverse has y-point x.

Elements carry a canonical reduced word: the lexicographically smallest
one, obtained by greedy extraction of the smallest left descent.  The
group is enumerated breadth first over the orbit, one layer per length:
s_i y is one layer up exactly when y_i > 0, and the edges into a new
point are exactly its left descents, so the smallest letter i among them
gives its word (i,) + word(s_i y), which is already known.  Matrices on
the root lattice are derived from the word on demand; they serve as an
independent cross-check and are never used to multiply.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import CapExceededError
from .rootsys import Matrix, Root, RootSystem, matvec

DEFAULT_GROUP_CAP = 1_000_000

Word = tuple[int, ...]
Point = tuple[int, ...]


def word_name(word: Word) -> str:
    """Render a reduced word: () -> "e", (1, 2) -> "s1*s2"."""
    if not word:
        return "e"
    return "*".join(f"s{i}" for i in word)


def _reflect(v: Point, i: int, column: tuple[tuple[int, int], ...]) -> Point:
    """s_{i+1}(v) in weight coordinates, given the nonzero entries (j, a_ji)
    of column i of the Cartan matrix."""
    c = v[i]
    out = list(v)
    for j, a in column:
        out[j] -= c * a
    return tuple(out)


class WeylElement:
    """One group element: its canonical word and its two orbit points
    y = w(rho) (the identity of the element) and x = w^-1(rho)."""

    __slots__ = ("word", "y", "x", "group", "_matrix")

    def __init__(self, word: Word, y: Point, x: Point, group: "WeylGroup"):
        self.word = word
        self.y = y
        self.x = x
        self.group = group
        self._matrix: Matrix | None = None

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
    def matrix(self) -> Matrix:
        """Action on the root lattice (columns are the images of the simple
        roots), derived from the word on first use."""
        if self._matrix is None:
            rs = self.group.root_system
            cols = []
            for j in range(1, rs.rank + 1):
                v = rs.simple_root(j)
                for i in reversed(self.word):
                    v = rs.reflect(i, v)
                cols.append(v)
            self._matrix = tuple(zip(*cols))
        return self._matrix

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Fold the word of v onto x(u): x(uv) = v^-1(x(u))."""
        if self.group is not other.group:
            raise ValueError("cannot multiply elements of different groups")
        cols = self.group._columns
        x = self.x
        for i in other.word:
            x = _reflect(x, i - 1, cols[i - 1])
        return self.group._by_x[x]

    def times_reflection(self, r: "Reflection") -> "WeylElement":
        """w * s_beta in O(rank): its x-point is x - <x, beta_check> beta."""
        x = self.x
        p = sum(a * b for a, b in zip(x, r.coroot))
        return self.group._by_x[tuple(a - p * b for a, b in zip(x, r.weight))]

    def inverse(self) -> "WeylElement":
        return self.group._by_y[self.x]

    def order(self) -> int:
        k, cur = 1, self
        while cur.word:
            cur = cur * self
            k += 1
        return k

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return matvec(self.matrix, v)

    def has_right_descent(self, i: int) -> bool:
        """l(w s_i) < l(w), i.e. w sends alpha_i to a negative root, i.e.
        <w^-1 rho, alpha_i_check> < 0."""
        return self.x[i - 1] < 0


class Reflection(NamedTuple):
    """The reflection s_beta of a positive root, with the data that
    w * s_beta needs: beta in fundamental-weight coordinates and beta_check
    in simple-coroot coordinates."""

    root: Root
    coroot: Root
    weight: Point
    element: WeylElement


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


class WeylGroup:
    """Finite Weyl group of a root system, fully enumerated.

    Elements are sorted by (length, word); enumeration stops with
    CapExceededError if more than ``cap`` elements appear.
    """

    def __init__(self, root_system: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        if cap < 1:
            raise ValueError("cap must be positive")
        self.root_system = root_system
        rank = root_system.rank
        a = root_system.cartan.entries
        cols = tuple(
            tuple((j, a[j][i]) for j in range(rank) if a[j][i]) for i in range(rank)
        )
        self._columns = cols
        rho = (1,) * rank
        identity = WeylElement((), rho, rho, self)
        by_word = {(): identity}
        elements = [identity]
        layer = [identity]
        length = 0
        while layer:
            length += 1
            # y_i > 0 means s_i is not a left descent of w: s_i w lies one
            # layer up, and has s_i as a left descent.  The smallest such i
            # over all edges into a point is its canonical first letter.
            first: dict[Point, tuple[int, Word]] = {}
            for e in layer:
                y = e.y
                for i, c in enumerate(y):
                    if c > 0:
                        t = _reflect(y, i, cols[i])
                        seen = first.get(t)
                        if seen is None or i < seen[0]:
                            first[t] = (i, e.word)
            total = len(elements) + len(first)
            if total > cap:
                raise CapExceededError(
                    f"Weyl group enumeration exceeded cap {cap} "
                    f"({total} elements through length {length})"
                )
            layer = []
            for y, (i, shorter) in sorted(first.items(), key=lambda item: item[1]):
                word = (i + 1,) + shorter
                # x(w) = s_j(x(w')) for w = w' s_j: the prefix w' of a
                # canonical word is canonical and one layer down.
                j = word[-1] - 1
                e = WeylElement(word, y, _reflect(by_word[word[:-1]].x, j, cols[j]), self)
                by_word[word] = e
                layer.append(e)
            elements += layer
        self.elements: tuple[WeylElement, ...] = tuple(elements)
        self._by_y = {e.y: e for e in self.elements}
        for e in self.elements:
            e.x = self._by_y[e.x].y  # x(w) = y(w^-1): keep one copy of each point
        self._by_x = {e.x: e for e in self.elements}
        self.identity = identity
        if len(self.elements) > 1 and self.elements[-2].length == self.elements[-1].length:
            raise AssertionError("longest element is not unique; group is not finite Weyl")

    @property
    def rank(self) -> int:
        return self.root_system.rank

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[WeylElement]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"WeylGroup(rank {self.rank}, order {self.order})"

    def generator(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")
        return self._by_y[_reflect((1,) * self.rank, i - 1, self._columns[i - 1])]

    def element_by_matrix(self, m: Matrix) -> WeylElement:
        """The element acting on the root lattice by m: m sends 2 rho (root
        coordinates) to 2 w(rho), whose weight coordinates name w."""
        two_y = matvec(self.root_system.cartan.entries, matvec(m, self._two_rho))
        found = self._by_y.get(tuple(c // 2 for c in two_y))
        if found is None or found.matrix != m:
            raise ValueError("matrix does not belong to this group")
        return found

    @cached_property
    def _two_rho(self) -> Root:
        """Sum of the positive roots, in simple-root coordinates."""
        return tuple(map(sum, zip(*self.root_system.positive_roots)))

    def from_word(self, letters: Iterable[int]) -> WeylElement:
        """Canonical element for an arbitrary (not necessarily reduced) word."""
        letters = list(letters)
        for i in letters:
            if not 1 <= i <= self.rank:
                raise ValueError(f"letter {i} out of range 1..{self.rank}")
        y = (1,) * self.rank
        for i in reversed(letters):
            y = _reflect(y, i - 1, self._columns[i - 1])
        return self._by_y[y]

    def inversion_length(self, w: WeylElement) -> int:
        """Number of positive roots sent negative; equals len(w.word) and is
        kept as the independent check of that fact."""
        count = 0
        for beta in self.root_system.positive_roots:
            image = matvec(w.matrix, beta)
            if all(x <= 0 for x in image):
                count += 1
        return count

    def normalize_parabolic(self, nodes: Iterable[int]) -> tuple[int, ...]:
        out = sorted(set(nodes))
        for i in out:
            if not isinstance(i, int) or not 1 <= i <= self.rank:
                raise ValueError(f"parabolic node {i} out of range 1..{self.rank}")
        return tuple(out)

    def min_coset_reps(self, nodes: Iterable[int]) -> tuple[WeylElement, ...]:
        """Shortest representatives of the cosets w W_P, P generated by
        ``nodes``: exactly the elements with no right descent in P.
        Sorted by (length, word) like everything else."""
        p = [i - 1 for i in self.normalize_parabolic(nodes)]
        return tuple(w for w in self.elements if all(w.x[k] > 0 for k in p))

    def parabolic_elements(self, nodes: Iterable[int]) -> tuple[WeylElement, ...]:
        """Elements of the standard parabolic subgroup W_P.  Canonical words
        of W_P elements only use letters of P, so membership is a word test."""
        p = set(self.normalize_parabolic(nodes))
        return tuple(w for w in self.elements if set(w.word) <= p)

    def length_bijection(self, left_nodes: Iterable[int], right_nodes: Iterable[int]) -> LengthBijection:
        left = self.min_coset_reps(left_nodes)
        right = self.min_coset_reps(right_nodes)
        ll = tuple(w.length for w in left)
        lr = tuple(w.length for w in right)
        pairs = tuple(zip(left, right)) if ll == lr else None
        return LengthBijection(left=left, right=right, lengths_left=ll, lengths_right=lr, pairs=pairs)

    def longest_element(self) -> WeylElement:
        return self.elements[-1]

    @cached_property
    def reflection_data(self) -> tuple[Reflection, ...]:
        """One record per positive root, in root order.  s_beta is an
        involution, so x = y = rho - <rho, beta_check> beta."""
        rs = self.root_system
        out = []
        for beta in rs.positive_roots:
            coroot = rs.coroot_coordinates(beta)
            weight = matvec(rs.cartan.entries, beta)
            h = sum(coroot)  # <rho, beta_check>
            point = tuple(1 - h * c for c in weight)
            out.append(Reflection(beta, coroot, weight, self._by_y[point]))
        return tuple(out)

    def reflections(self) -> dict[Root, WeylElement]:
        """Map positive root -> the reflection it defines (a fresh dict)."""
        return {r.root: r.element for r in self.reflection_data}
