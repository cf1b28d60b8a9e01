"""Root systems from Cartan matrices, in exact integer arithmetic.

The sign convention for Cartan entries is fixed once, here, and every
pairing in the package routes through this module:

    a[i][j] = <alpha_j, alpha_i_check>

so the simple reflection acts by s_i(alpha_j) = alpha_j - a[i][j] alpha_i.
Node indices are 1-based on the public surface (matching Dynkin diagram
labels and reduced words elsewhere in the package); tuple storage is
0-based internally.  For type G2 node 1 is the long root.

Roots are plain integer tuples holding coordinates in the simple-root
basis.  The root system owns what every later stage reads of a positive
root beta: its weight <beta, alpha_j_check> (its fundamental-weight
coordinates) and its coroot beta_check (simple-coroot coordinates), each
derived once, on first use.  ``reflect_weight`` is the one simple
reflection in weight coordinates; root generation and the Weyl group's
elements step by it, and its walk repeats the step inline.  All derived
data (symmetrizer, weights, coroots) stays in integers; nothing floats.
"""

from __future__ import annotations

import math
import os
from collections import _tuplegetter
from functools import cached_property
from operator import mul

from .errors import CapExceededError, NotFiniteTypeError, UnknownTypeError

Matrix = tuple[tuple[int, ...], ...]
Root = tuple[int, ...]
Weight = tuple[int, ...]

DEFAULT_ROOT_CAP = 100_000
_MEMORY = (  # bytes of physical memory, which no named type's roots may outgrow
    os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") if os.name == "posix" else math.inf
)
# Bytes charged per root entry: under tracemalloc, each entry from A40 to
# A60 adds 28.1 to the peak of `roots --format json` (13.8 to plain `roots`),
# and A120's whole peak is 27.4 an entry.
_ENTRY_BYTES = 29

_INT = frozenset({int})  # {*map(type, xs)} <= _INT: every x is an exact int


def check_int(value, what: str) -> int:
    """``value`` as an exact int; a bool or any non-int is refused by type."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {type(value).__name__} {value!r}")
    return int(value)


def check_node(i, rank: int, what: str = "node index") -> int:
    """``i`` as a node index 1..rank, checked by ``check_int`` before any
    range is named."""
    i = check_int(i, what)
    if not 1 <= i <= rank:
        raise ValueError(f"{what} {i} out of range 1..{rank}")
    return i


def check_cap(cap) -> int:
    """``cap`` as a positive int, checked by ``check_int``."""
    cap = check_int(cap, "cap")
    if cap < 1:
        raise ValueError("cap must be positive")
    return cap


def reflect_weight(v: Weight, i: int, column: tuple[tuple[int, int], ...]) -> Weight:
    """s_{i+1}(v) = v - v_i (column i of the Cartan matrix) for v in weight
    coordinates, given ``column`` = CartanMatrix.columns[i]: O(rank)."""
    c = v[i]
    out = list(v)
    for j, a in column:
        out[j] -= c * a
    return tuple(out)


class Record(tuple):
    """A tuple with named fields, as ``collections.namedtuple`` makes, with
    no code generated per class.  A subclass lists its ``_fields`` and
    defines ``__new__`` with those parameters, in that order; the base
    reads each field through the C-level getter namedtuple uses, and
    unpickling and copying call the class, so a checking ``__new__``
    sees every instance made.  namedtuple's ``_make`` and ``_replace``
    are not provided: the class itself is the one constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self)])
        return f"{type(self).__name__}({body})"


class CartanMatrix(Record):
    """Square integer matrix with diagonal 2, nonpositive off-diagonal
    entries, and zeros placed symmetrically."""

    _fields = ("entries",)

    def __new__(cls, entries: Matrix) -> CartanMatrix:
        n = len(entries)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        if any(len(row) != n for row in entries):
            raise ValueError("Cartan matrix must be square")
        entries = tuple(tuple([check_int(x, "Cartan entry") for x in row]) for row in entries)
        for i in range(n):
            if entries[i][i] != 2:
                raise ValueError("Cartan diagonal entries must equal 2")
            for j in range(n):
                if i != j and entries[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise ValueError("Cartan zeros must be symmetric")
        return tuple.__new__(cls, (entries,))

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

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node i (0-based), the nonzero entries (j, a[j][i]) of column
        i: what ``reflect_weight`` subtracts."""
        a = self.entries
        return tuple(
            tuple((j, row[i]) for j, row in enumerate(a) if row[i]) for i in range(self.rank)
        )

    @cached_property
    def earlier_neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node i (0-based), the entries (f, a[f][i]) of column i above
        the diagonal: the neighbours f < i of i in the Dynkin diagram."""
        return tuple(tuple([(f, x) for f, x in col if f < i]) for i, col in enumerate(self.columns))


def _blank(n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    return m


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


def _named(name: str) -> tuple[str, int] | None:
    """(letter, rank) of a type name like ``"G2"``: one letter A-G and ASCII
    decimal digits, around which whitespace is ignored; None for any other
    string.  A rank too long to convert to int is refused by name."""
    name = name.strip()
    letter, digits = name[:1], name[1:]
    if not ("A" <= letter <= "G" and digits.isascii() and digits.isdigit()):
        return None
    try:
        return letter, int(digits)
    except ValueError:
        raise UnknownTypeError(f"type {letter} has a {len(digits)}-digit rank") from None


def parse_cartan(name: str) -> CartanMatrix:
    """Parse a type name like ``"G2"`` or a JSON matrix literal like
    ``"[[2,0],[0,2]]"`` into a validated CartanMatrix."""
    name = name.strip()
    if named := _named(name):
        letter, digits = named
        if digits < 1:
            raise UnknownTypeError(f"rank must be positive in {name!r}")
        rows = _build_named(letter, digits)
        return CartanMatrix(tuple(tuple(r) for r in rows))
    if name.startswith("["):
        import json  # only a literal needs it: the package imports without json
        try:
            data = json.loads(name)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise UnknownTypeError(f"bad matrix literal: {exc}") from None
        except ValueError:  # an integer too long to convert
            raise UnknownTypeError("bad matrix literal: an entry has too many digits") from None
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise UnknownTypeError("matrix literal must be a list of rows")
        try:
            return CartanMatrix(tuple(tuple(x for x in row) for row in data))
        except ValueError as exc:
            raise UnknownTypeError(str(exc)) from None
    raise UnknownTypeError(
        f"unknown type name {name!r}: expected a letter A-G with a rank, or a matrix literal"
    )


class RootSystem(Record):
    """Positive roots of a finite type, sorted by (height, coordinates)."""

    _fields = ("cartan", "positive_roots")

    def __new__(cls, cartan: CartanMatrix, positive_roots: tuple[Root, ...]) -> RootSystem:
        return tuple.__new__(cls, (cartan, positive_roots))

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def weights(self) -> tuple[Weight, ...]:
        """<beta, alpha_j_check> = (a beta)_j of each positive root beta, in
        root order: its fundamental-weight coordinates."""
        a = self.cartan.entries
        return tuple(
            tuple(sum(map(mul, row, beta)) for row in a) for beta in self.positive_roots
        )

    @cached_property
    def coroots(self) -> tuple[Root, ...]:
        """beta_check of each positive root in simple-coroot coordinates, in
        root order.  From beta = sum b_j alpha_j, beta_check = sum c_j
        alpha_j_check with c_j = 2 b_j d_j / (beta, beta), and (alpha_k, beta)
        = d_k <beta, alpha_k_check> gives (beta, beta) = sum b_k d_k w_k from
        the weight w, so each costs O(rank).  Integrality is automatic for
        genuine roots and asserted here."""
        d = self.cartan.symmetrizer
        out = []
        for beta, w in zip(self.positive_roots, self.weights):
            norm = sum(map(mul, beta, map(mul, d, w)))
            if any(2 * b * dj % norm for b, dj in zip(beta, d)):
                raise ValueError("coroot is not integral; invalid root data")
            out.append(tuple(2 * b * dj // norm for b, dj in zip(beta, d)))
        return tuple(out)


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
    Each root carries its weight, the pairings <v, alpha_j_check> = (a v)_j,
    that of alpha_i being column i of the matrix; s_i(v) = v - c alpha_i
    with c = <v, alpha_i_check> has the weight ``reflect_weight`` gives, so
    a root costs O(rank).  The weights are dropped at the end:
    RootSystem.weights derives them again, only when asked.
    Raises NotFiniteTypeError before any work for a matrix of infinite
    type, and CapExceededError at the end of the first layer whose running
    total passes ``cap``."""
    check_cap(cap)
    _check_finite_type(cartan)
    n = cartan.rank
    a, columns = cartan.entries, cartan.columns
    layers: dict[int, dict[Root, tuple[int, ...]]] = {
        1: {tuple(int(k == i) for k in range(n)): tuple(row[i] for row in a) for i in range(n)}
    }
    found: list[Root] = []
    h = 1
    while h in layers:
        layer = layers.pop(h)
        roots = sorted(layer)
        found += roots
        if len(found) > cap:
            raise _root_cap_error(cap, len(found), h)
        for v in roots:
            pairings = layer[v]
            for i, c in enumerate(pairings):
                # s_i(v) = v - c alpha_i lies higher exactly when c < 0.
                if c < 0:
                    up = layers.setdefault(h - c, {})
                    w = v[:i] + (v[i] - c,) + v[i + 1:]
                    if w not in up:
                        up[w] = reflect_weight(pairings, i, columns[i])
        h += 1
    return RootSystem(cartan, tuple(found))


def _root_cap_error(cap: int, total: int, height: int) -> CapExceededError:
    return CapExceededError(
        f"positive root generation exceeded cap {cap} ({total} roots through height {height})"
    )


def series_exponents(name: str, cap: int) -> tuple[int, ...] | None:
    """The exponents m_i of a type A_n, B_n, C_n or D_n named by ``name``,
    None for any other string (a literal, an exceptional or unsupported
    name), read off the name alone.  The roots of height h number
    #{i: m_i >= h} (Kostant), so when their running total passes ``cap``
    this raises the error generate_root_system would, before any matrix
    is built or any exponent listed."""
    letter, n = _named(name) or ("", 0)
    # the exponents: k terms 1, 1 + step, ..., and for D_n also n - 1
    if letter == "A" and n >= 1:
        k, step, extra = n, 1, 0
    elif letter in ("B", "C") and n >= 2:
        k, step, extra = n, 2, 0
    elif letter == "D" and n >= 3:
        k, step, extra = n - 1, 2, n - 1
    else:
        return None
    check_cap(cap)
    total, h = 0, 1
    # #{i: m_i >= h} roots of height h, in closed form, up to the top height
    while (layer := k - (h + step - 2) // step + (h <= extra)) > 0:
        total += layer
        if total > cap:
            raise _root_cap_error(cap, total, h)
        h += 1
    return tuple(range(1, 1 + step * k, step)) + ((extra,) if extra else ())


def root_system(name: str, cap: int = DEFAULT_ROOT_CAP) -> RootSystem:
    """Parse a type string and generate its root system.  A named series
    type past the cap, or whose |Phi+| * rank root entries (_ENTRY_BYTES
    each) outgrow the physical memory, is refused before any matrix."""
    exponents = series_exponents(name, cap)
    if exponents and _ENTRY_BYTES * sum(exponents) * len(exponents) > _MEMORY:
        raise MemoryError(f"the roots of {name} cannot fit in memory")
    return generate_root_system(parse_cartan(name), cap=cap)
