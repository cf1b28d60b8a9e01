"""Root systems from Cartan matrices, in exact integer arithmetic.

The sign convention for Cartan entries is fixed once, here, and every
pairing in the package routes through this module:

    a[i][j] = <alpha_j, alpha_i_check>

so the simple reflection acts by s_i(alpha_j) = alpha_j - a[i][j] alpha_i.
Node indices are 1-based on the public surface (matching Dynkin diagram
labels and reduced words elsewhere in the package); tuple storage is
0-based internally.  For type G2 node 1 is the long root.

Roots are plain integer tuples holding coordinates in the simple-root
basis.  All derived data (symmetrizer, bilinear form, coroots) stays in
integers; nothing here floats.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import CapExceededError, NotFiniteTypeError, UnknownTypeError

Matrix = tuple[tuple[int, ...], ...]
Root = tuple[int, ...]

DEFAULT_ROOT_CAP = 100_000

_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")


def check_node(i, rank: int, what: str = "node index") -> int:
    """``i`` as a node index 1..rank; bools and non-integers are refused
    for their type, before any range is named."""
    if isinstance(i, bool) or not isinstance(i, int):
        raise ValueError(f"{what} must be an int, got {type(i).__name__} {i!r}")
    if not 1 <= i <= rank:
        raise ValueError(f"{what} {i} out of range 1..{rank}")
    return i


def check_cap(cap) -> int:
    """``cap`` as a positive int; bools are refused for their type."""
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ValueError(f"cap must be an int, got {type(cap).__name__} {cap!r}")
    if cap < 1:
        raise ValueError("cap must be positive")
    return cap


def matvec(m: Matrix, v: Root) -> Root:
    n = len(v)
    return tuple(sum(m[r][k] * v[k] for k in range(n)) for r in range(n))


class CartanMatrix(NamedTuple("CartanMatrix", [("entries", Matrix)])):
    """Square integer matrix with diagonal 2, nonpositive off-diagonal
    entries, and zeros placed symmetrically."""

    def __new__(cls, entries: Matrix) -> "CartanMatrix":
        n = len(entries)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for row in entries:
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError("Cartan entries must be integers")
        for i in range(n):
            if entries[i][i] != 2:
                raise ValueError("Cartan diagonal entries must equal 2")
            for j in range(n):
                if i != j and entries[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise ValueError("Cartan zeros must be symmetric")
        return super().__new__(cls, entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        """<alpha_j, alpha_i_check> for 1-based node indices i, j."""
        return self.entries[i - 1][j - 1]

    @cached_property
    def symmetrizer(self) -> tuple[int, ...]:
        """Positive integers d with d_i a[i][j] = d_j a[j][i], scaled to be
        coprime.  Exists exactly when the matrix is symmetrizable; the
        named families always are, arbitrary literals may not be."""
        n = self.rank
        a = self.entries
        # Every component starts from the product of all off-diagonal
        # entries; a tree path divides by distinct ones of them, so each
        # step d_j = d_i a[i][j] / a[j][i] is an exact integer division.
        top = math.prod(-x for i, row in enumerate(a) for j, x in enumerate(row) if i != j and x)
        d = [0] * n
        for start in range(n):
            if d[start]:
                continue
            d[start] = top
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i != j and a[i][j] and not d[j]:
                        d[j] = d[i] * a[i][j] // a[j][i]
                        stack.append(j)
        g = math.gcd(*d)
        out = tuple(x // g for x in d)
        for i in range(n):
            for j in range(n):
                if out[i] * a[i][j] != out[j] * a[j][i]:
                    raise ValueError("Cartan matrix is not symmetrizable")
        return out

    def bilinear(self, v: Root, w: Root) -> int:
        """Symmetric form with (alpha_i, alpha_j) = d_i a[i][j]."""
        d = self.symmetrizer
        a = self.entries
        n = self.rank
        return sum(
            d[i] * a[i][j] * v[i] * w[j] for i in range(n) for j in range(n)
        )


def _blank(n: int) -> list[list[int]]:
    return [[2 if i == j else 0 for j in range(n)] for i in range(n)]


def _set_edge(m: list[list[int]], i: int, j: int, aij: int = -1, aji: int = -1) -> None:
    # 1-based nodes; aij is the row-i, column-j entry <alpha_j, alpha_i_check>.
    m[i - 1][j - 1] = aij
    m[j - 1][i - 1] = aji


def _build_named(letter: str, n: int) -> list[list[int]]:
    m = _blank(n)
    if letter == "A":
        for i in range(1, n):
            _set_edge(m, i, i + 1)
        return m
    if letter in ("B", "C"):
        if n < 2:
            raise UnknownTypeError(f"type {letter}{n} is not supported (rank must be >= 2)")
        for i in range(1, n - 1):
            _set_edge(m, i, i + 1)
        if letter == "B":
            # node n is the short root
            _set_edge(m, n - 1, n, aij=-1, aji=-2)
        else:
            _set_edge(m, n - 1, n, aij=-2, aji=-1)
        return m
    if letter == "D":
        if n < 3:
            raise UnknownTypeError(f"type D{n} is not supported (rank must be >= 3)")
        for i in range(1, n - 1):
            _set_edge(m, i, i + 1)
        _set_edge(m, n - 2, n)
        return m
    if letter == "E":
        if n not in (6, 7, 8):
            raise UnknownTypeError(f"type E{n} is not supported (rank must be 6, 7 or 8)")
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            _set_edge(m, a, b)
        _set_edge(m, 2, 4)
        return m
    if letter == "F":
        if n != 4:
            raise UnknownTypeError(f"type F{n} is not supported (rank must be 4)")
        _set_edge(m, 1, 2)
        _set_edge(m, 2, 3, aij=-1, aji=-2)  # nodes 3, 4 short
        _set_edge(m, 3, 4)
        return m
    if letter == "G":
        if n != 2:
            raise UnknownTypeError(f"type G{n} is not supported (rank must be 2)")
        # node 1 long, node 2 short
        _set_edge(m, 1, 2, aij=-1, aji=-3)
        return m
    raise UnknownTypeError(f"unknown type letter {letter!r}")


def parse_cartan(name: str) -> CartanMatrix:
    """Parse a type name like ``"G2"`` or a JSON matrix literal like
    ``"[[2,0],[0,2]]"`` into a validated CartanMatrix."""
    name = name.strip()
    match = _TYPE_RE.match(name)
    if match:
        letter, digits = match.group(1), int(match.group(2))
        if digits < 1:
            raise UnknownTypeError(f"rank must be positive in {name!r}")
        rows = _build_named(letter, digits)
        return CartanMatrix(tuple(tuple(r) for r in rows))
    if name.startswith("["):
        try:
            data = json.loads(name)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise UnknownTypeError(f"bad matrix literal: {exc}") from None
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise UnknownTypeError("matrix literal must be a list of rows")
        try:
            return CartanMatrix(tuple(tuple(x for x in row) for row in data))
        except ValueError as exc:
            raise UnknownTypeError(str(exc)) from None
    raise UnknownTypeError(
        f"unknown type name {name!r}: expected a letter A-G with a rank, or a matrix literal"
    )


class RootSystem(
    NamedTuple("RootSystem", [("cartan", CartanMatrix), ("positive_roots", tuple[Root, ...])])
):
    """Positive roots of a finite type, sorted by (height, coordinates)."""

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def _root_set(self) -> frozenset[Root]:
        neg = tuple(tuple(-x for x in r) for r in self.positive_roots)
        return frozenset(self.positive_roots) | frozenset(neg)

    def simple_root(self, i: int) -> Root:
        check_node(i, self.rank)
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def is_root(self, v: Root) -> bool:
        return tuple(v) in self._root_set

    def reflect(self, i: int, v: Root) -> Root:
        """s_i(v) = v - <v, alpha_i_check> alpha_i for any lattice vector v."""
        check_node(i, self.rank)
        if len(v) != self.rank:
            raise ValueError("vector length does not match the rank")
        v = tuple(v)
        c = sum(x * y for x, y in zip(self.cartan.entries[i - 1], v))
        return v[:i - 1] + (v[i - 1] - c,) + v[i:]

    def norm2(self, beta: Root) -> int:
        return self.cartan.bilinear(beta, beta)

    def coroot_coordinates(self, beta: Root) -> tuple[int, ...]:
        """Coordinates of beta_check in the simple coroot basis.

        From beta = sum b_j alpha_j one gets beta_check = sum c_j alpha_j_check
        with c_j = b_j (alpha_j, alpha_j) / (beta, beta); integrality is
        automatic for genuine roots and asserted here.
        """
        beta = tuple(beta)
        if not self.is_root(beta):
            raise ValueError(f"{beta} is not a root of this system")
        d = self.cartan.symmetrizer
        nb = self.norm2(beta)
        coords = []
        for j in range(self.rank):
            num = beta[j] * 2 * d[j]
            if num % nb:
                raise ValueError("coroot is not integral; invalid root data")
            coords.append(num // nb)
        return tuple(coords)


def _check_finite_type(cartan: CartanMatrix) -> None:
    """Raise NotFiniteTypeError unless the symmetrized matrix (d_i a[i][j])
    is positive definite (Sylvester's criterion).  The leading principal
    minors come out of fraction-free (Bareiss) elimination: after step k
    the pivot m[k][k] is the minor of order k+1, and every division is
    exact."""
    try:
        d = cartan.symmetrizer
    except ValueError:
        raise NotFiniteTypeError(
            "Cartan matrix is not symmetrizable, so it is not of finite type"
        ) from None
    n = cartan.rank
    m = [[d[i] * x for x in row] for i, row in enumerate(cartan.entries)]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            raise NotFiniteTypeError(
                f"Cartan matrix is not of finite type: leading principal minor "
                f"{k + 1} of the symmetrized matrix is {pivot}"
            )
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot


def generate_root_system(cartan: CartanMatrix, cap: int = DEFAULT_ROOT_CAP) -> RootSystem:
    """Close the simple roots under simple reflections, one height at a
    time.  Every positive root of height above 1 is s_i of a lower one, so
    once the heights below h are done the layer of height h is complete.
    Raises NotFiniteTypeError before any work for a matrix of infinite
    type, and CapExceededError at the end of the first layer whose running
    total passes ``cap``."""
    check_cap(cap)
    _check_finite_type(cartan)
    n = cartan.rank
    a = cartan.entries
    layers: dict[int, set[Root]] = {1: {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}}
    found: list[Root] = []
    h = 1
    while h in layers:
        layer = sorted(layers.pop(h))
        found += layer
        if len(found) > cap:
            raise _root_cap_error(cap, len(found), h)
        for v in layer:
            for i, row in enumerate(a):
                # s_i(v) = v - c alpha_i lies higher exactly when c < 0.
                c = sum(x * y for x, y in zip(row, v))
                if c < 0:
                    layers.setdefault(h - c, set()).add(v[:i] + (v[i] - c,) + v[i + 1:])
        h += 1
    return RootSystem(cartan, tuple(found))


def _root_cap_error(cap: int, total: int, height: int) -> CapExceededError:
    return CapExceededError(
        f"positive root generation exceeded cap {cap} ({total} roots through height {height})"
    )


def series_exponents(name: str, cap: int) -> Optional[tuple[int, ...]]:
    """The exponents m_i of a type A_n, B_n, C_n or D_n named by ``name``,
    None for any other string (a literal, an exceptional or unsupported
    name), read off the name alone.  The roots of height h number
    #{i: m_i >= h} (Kostant), so when they pass ``cap`` this raises the
    error generate_root_system would, before any matrix is built."""
    match = _TYPE_RE.match(name.strip())
    letter, n = (match.group(1), int(match.group(2))) if match else ("", 0)
    if letter == "A" and n >= 1:
        exponents = tuple(range(1, n + 1))
    elif letter in ("B", "C") and n >= 2:
        exponents = tuple(range(1, 2 * n, 2))
    elif letter == "D" and n >= 3:
        exponents = (*range(1, 2 * n - 2, 2), n - 1)
    else:
        return None
    if sum(exponents) > check_cap(cap):
        per_height, left, total = Counter(exponents), n, 0
        for h in itertools.count(1):
            total += left
            if total > cap:
                raise _root_cap_error(cap, total, h)
            left -= per_height[h]
    return exponents


def root_system(name: str, cap: int = DEFAULT_ROOT_CAP) -> RootSystem:
    """Parse a type string and generate its root system; a named series
    type past the cap is refused by ``series_exponents`` first."""
    series_exponents(name, cap)
    return generate_root_system(parse_cartan(name), cap=cap)
