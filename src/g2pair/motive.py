"""Integer polynomials in the Lefschetz class L, plus the cell-count
polynomials of flag varieties.

Combination is the sparse integer-combination base shared by
LPolynomial, MotivicClass (grothring) and CohomologyElement (schubert).
Public construction validates every key and coefficient; the results of
arithmetic on valid operands are trusted and only sorted and cleared of
zeros (Combination._with).

A variety with an affine paving has motivic class sum(L^(dim of cell));
for G/P the cells are indexed by minimal coset representatives and the
dimension of a cell is the length of its word, so the class is the
length generating polynomial of W^P.  That polynomial is counted, not
enumerated: W(L) = W^P(L) W_P(L) and W(L) = prod [d_i]_L over the degrees
of W (Humphreys, "Reflection Groups and Coxeter Groups", 1.11 and 3.15),
so the cells of G/P cost one exact division per degree of W_P.  The walk
of omega_P in weyl gives the same counts cell by cell.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .rootsys import check_int
from .weyl import WeylGroup, q_product

PairList = list[list[int]]


def l_power(d: int, mag: int) -> str:
    """Render mag*L^d, leaving out a unit magnitude and the exponents 0 and 1."""
    if d == 0:
        return str(mag)
    body = "L" if d == 1 else f"L^{d}"
    return body if mag == 1 else f"{mag}*{body}"


class Combination:
    """Finite integer combination of sortable keys, kept as a sorted dict
    without zero coefficients.

    The linear structure lives here once: sums, negation, differences,
    integer multiples (the * operator), equality, hashing, truth (false
    when zero), the coefficient dict and the sign-joined text form.  A
    subclass checks one key (_key), says which other operands it absorbs
    (_coerce) and renders one term (_body); only LPolynomial defines a
    product of two values.

    The constructor validates: coefficients (and multipliers) pass
    rootsys.check_int and keys pass _key, each returned an exact int or
    normalized key.  Arithmetic builds its results through _with, which
    trusts them: keys and integer coefficients made from valid operands
    are valid, so _with only sorts the keys and drops zeros.
    """

    __slots__ = ("_terms",)

    def __init__(self, data=None):
        # an exact dict is tested first: the Mapping ABC check is slow
        if type(data) is dict or isinstance(data, Mapping):
            data = data.items()
        acc: dict = {}
        valid = self._key
        for key, c in data or ():
            key = valid(key)
            c = c if type(c) is int else check_int(c, "coefficient")
            acc[key] = acc.get(key, 0) + c
        if len(acc) > 1:
            acc = dict(sorted(acc.items()))
        if 0 in acc.values():
            acc = {k: c for k, c in acc.items() if c != 0}
        self._terms = acc

    def _with(self, terms: dict):
        """A result of arithmetic on this value's kind, from valid terms."""
        out = object.__new__(type(self))
        out._terms = {k: c for k, c in sorted(terms.items()) if c}
        return out

    def _coerce(self, other):
        return other if isinstance(other, type(self)) else None

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficients(self) -> dict:
        return dict(self._terms)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in o._terms.items():
            out[k] = out.get(k, 0) + c
        return self._with(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, n):
        if type(n) is not int:
            if not isinstance(n, int):
                return NotImplemented
            n = check_int(n, "multiplier")
        return self._with({k: n * c for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __str__(self) -> str:
        out = ""
        for k, c in self._terms.items():
            sign = (" + " if c > 0 else " - ") if out else ("" if c > 0 else "-")
            out += sign + self._body(k, abs(c))
        return out or "0"


class LPolynomial(Combination):
    """Sparse polynomial in L with integer coefficients; zero coefficients
    are never stored."""

    __slots__ = ()

    def _key(self, deg) -> int:
        deg = deg if type(deg) is int else check_int(deg, "degree")
        if deg < 0:
            raise ValueError("degree must be nonnegative")
        return deg

    @classmethod
    def lefschetz(cls, power: int = 1) -> "LPolynomial":
        return cls({power: 1})

    def to_pairs(self) -> PairList:
        return [[d, c] for d, c in self._terms.items()]

    def evaluate(self, q: int) -> int:
        """The value at L = q, by Horner's rule over the stored degrees."""
        q = check_int(q, "evaluation point")
        value, above = 0, next(reversed(self._terms), 0)
        for d, c in reversed(self._terms.items()):
            value = value * q ** (above - d) + c
            above = d
        return value * q**above

    def _coerce(self, other) -> "LPolynomial | None":
        # a bool is no constant polynomial: L + True is refused, and
        # L == True is False rather than an error
        if isinstance(other, int) and not isinstance(other, bool):
            return LPolynomial({0: other})
        return super()._coerce(other)

    def _body(self, deg: int, mag: int) -> str:
        return l_power(deg, mag)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, int] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in o._terms.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return self._with(out)

    __rmul__ = __mul__

    def __hash__(self) -> int:
        # A constant polynomial equals its int, so it hashes as that int.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return super().__hash__()

    def __repr__(self) -> str:
        return f"LPolynomial({self.to_pairs()})"


L = LPolynomial.lefschetz()


def _divide_q_integer(p: list[int], d: int) -> list[int]:
    """Exact quotient of the coefficient list p by [d]_L = (1 - L^d) / (1 - L):
    multiply by 1 - L, then divide by 1 - L^d through q_k = r_k + q_(k-d)."""
    r = [c - p[k - 1] if k else c for k, c in enumerate(p)] + [-p[-1]]
    q: list[int] = []
    for k in range(len(r)):
        c = r[k] + q[k - d] if k >= d else r[k]
        if k < len(r) - d:
            q.append(c)
        elif c:
            raise ArithmeticError(f"[{d}]_L does not divide the cell counts")
    return q


def poincare_polynomial(group: WeylGroup, parabolic: Iterable[int] = ()) -> LPolynomial:
    """Class of G/P as a polynomial in L: one cell per element of W^P,
    of dimension the element's length.  Computed as prod [d_i]_L over the
    degrees of W divided by the same product over the degrees of W_P,
    without visiting a cell."""
    counts = q_product(group.degrees)
    for d in group.parabolic_degrees(parabolic):
        counts = _divide_q_integer(counts, d)
    return LPolynomial(dict(enumerate(counts)))


def projective_bundle_poly(base: LPolynomial, rank: int) -> LPolynomial:
    """Class of a projectivized rank-r bundle: base * (1 + L + ... + L^(r-1))."""
    if check_int(rank, "bundle rank") < 1:
        raise ValueError("bundle rank must be positive")
    return base * LPolynomial((k, 1) for k in range(rank))
