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
t_j = mu_j - mu_i a_ji >= mu_j, with equality off the neighbours of i.
A layer comes out in word order, so in runs by first letter f + 1, f
the first descent; omega_P, with none, is a run of its own.  For the
letter i the walk reads the runs f > i, omega_P's included, and accepts
every mu with mu_i > 0 as it is: t_j >= mu_j >= 0 for j < i.  It skips
the run f = i (mu_i < 0) and the runs f < i with a_fi = 0 (t_f = mu_f
< 0) without reading a cell.  Only in the run of a neighbour f < i of i
is t tested: rejected when t_f = mu_f - mu_i a_fi < 0, else reflected
and rejected when a t_j with f < j < i is negative.  Visiting those runs
in order of f, then the runs f > i, keeps the parents ascending, and
with the letter in the outer loop each layer comes out in word order
with no sort: the walk yields exactly the minimal coset representatives
W^P in (length, word) order.

``WeylGroup.quotient`` checks P once and keeps one Quotient per
parabolic, holding the walk as columns: each cell's first letter i, its
canonical parent's index, its step mu_i (the parent's coordinate) and
the layer offsets; no point is kept.  Words and names are derived from
the parent links on demand, and the command line writes from them; the
one Schubert ring of a quotient codes each point from its parent's.

An element is its point y = w(rho): the orbit of rho is free.  One
constructor makes an element from y, keeps it per group and reads its
canonical word by peeling first descents, which ends at rho exactly when
y is in the orbit.  No verb makes an element: WeylElement and its
product, ``min_coset_reps`` and ``reflections`` stay only because the
benchmark's tracer (perfbench/tracer.py) wraps them, and ``from_word``
because they and SchubertRing.basis, which the tracer reads, use it.
``_fold``, a word applied to a point, also serves schubert.pushforward.

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
from collections.abc import Iterable
from functools import cache, cached_property

from .errors import CapExceededError
from .rootsys import _INT, Root, RootSystem, check_cap, check_node, reflect_weight

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


def q_product(degrees: Iterable[int], terms: int | None = None) -> list[int]:
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
def _array() -> type:
    """array.array, imported on the first walk, not with the library (about
    half a millisecond), and kept: an import statement costs about 1.4 us
    on every call, a tenth of a G2 walk."""
    from array import array
    return array


@cache
def _typecode(bound: int) -> str:
    """The narrowest signed array typecode that holds -bound..bound."""
    return next(c for c in "bhilq" if bound < 1 << 8 * _array()(c).itemsize - 1)


class Quotient:
    """W/W_P, one per group and parabolic (``WeylGroup.quotient``): the
    walk of omega_P as columns, no point kept.  A cell other than e is
    s_i mu for its canonical parent's point mu: ``letters[k]`` is i, its
    word's first letter, ``parents[k]`` the parent's index and the step
    ``steps[k]`` is mu_i > 0, so the cell's point is mu - mu_i alpha_i;
    e has 0, -1 and 0.  ``offsets[n]`` is the first cell of layer n,
    and the cell count for the two layers past the top.  ``ring`` is
    its one SchubertRing, made by the first call, else None."""

    __slots__ = ("group", "parabolic", "free_nodes", "letters", "parents", "steps",
                 "offsets", "ring")

    def __init__(self, group: "WeylGroup", parabolic: tuple[int, ...]):
        self.group, self.parabolic, self.ring, rank = group, parabolic, None, group.rank
        self.free_nodes = tuple([i for i in range(1, rank + 1) if i not in parabolic])
        cartan = group.root_system.cartan
        cols, earlier = cartan.columns, cartan.earlier_neighbours
        omega = tuple([0 if i in parabolic else 1 for i in range(1, rank + 1)])
        # Wide enough by construction: a letter is at most the rank; a cell
        # index is below |W| and sys.maxsize, the longest sequence; a step
        # is a coordinate, at most ht(theta_check) in absolute value
        # (point_codes), the largest degree minus one.
        array = _array()
        self.letters = array(_typecode(rank))
        self.parents = array(_typecode(min(group.order, sys.maxsize)))
        self.steps = array(_typecode(max(group.degrees) - 1))
        # Two layers are kept as tuples, the one read and the one made; the
        # columns go to the arrays in batches of 4096 cells or more.  A
        # layer comes out in word order, so in runs by first letter:
        # runs[f] is where the run of letter f + 1 starts, runs[rank] that
        # of omega_P and runs[rank + 1] the layer's end.
        self.offsets = offsets = [0]
        letters, parents, steps = [0], [-1], [0]
        layer, runs = [omega], [0] * (rank + 1) + [1]
        while layer:
            start, n = offsets[-1], len(layer)
            offsets.append(start + n)
            made: list[Point] = []
            made_runs = [0]  # the run starts of the layer made
            for i in range(rank):
                col, letter = cols[i], i + 1
                # The runs f < i next to i, in order: t_f = mu_f - mu_i a_fi
                # must be >= 0, and so must t_j for f < j < i (t_j >= mu_j
                # >= 0 below f).  The other runs f < i and the run f = i
                # keep t_f = mu_f < 0 and are not read.
                for f, af in earlier[i]:
                    for k in range(runs[f], runs[f + 1]):
                        mu = layer[k]
                        c = mu[i]
                        if c > 0 and mu[f] >= c * af:
                            t = list(mu)  # s_i mu as reflect_weight makes it, minus a call
                            for j, x in col:
                                t[j] -= c * x
                            if f + 1 == i or min(t[f + 1:i]) >= 0:
                                made.append(tuple(t))
                                letters.append(letter)
                                parents.append(start + k)
                                steps.append(c)
                # The runs f > i, omega_P's included, to the layer's end,
                # with no range made when there are none: t_j >= mu_j >= 0
                # for every j < i, so mu_i > 0 suffices.
                lo = runs[letter]
                for k in (range(lo, n) if lo < n else ()):
                    mu = layer[k]
                    c = mu[i]
                    if c > 0:
                        t = list(mu)
                        for j, x in col:
                            t[j] -= c * x
                        made.append(tuple(t))
                        letters.append(letter)
                        parents.append(start + k)
                        steps.append(c)
                made_runs.append(len(made))
            made_runs.append(made_runs[-1])
            layer, runs = made, made_runs
            if len(letters) >= 4096 or not layer:
                for column, batch in (self.letters, letters), (self.parents, parents), \
                        (self.steps, steps):
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
        """s_{l1} ... s_{lk}(y), rightmost first; schubert.pushforward's fold."""
        cols = self.root_system.cartan.columns
        for i in reversed(letters):
            y = reflect_weight(y, i - 1, cols[i - 1])
        return y

    def quotient(self, nodes: Iterable[int]) -> Quotient:
        """W/W_P, P = ``nodes`` in any order or spelling, checked and
        normalized once and walked once per parabolic, so every spelling
        gets the same object; a refused one raises before the cache.  A
        spelling of exact ints that is already a kept key is normalized,
        so it is returned unchecked; (True,) and (1.0,) hash equal to
        (1,) and are checked, and refused."""
        key = tuple(nodes)
        if {*map(type, key)} <= _INT and (q := self._quotients.get(key)) is not None:
            return q
        p = self.normalize_parabolic(key)
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
