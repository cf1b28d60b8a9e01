"""Integer polynomials in the Lefschetz class L, plus the cell-count
polynomials of flag varieties.

Combination is the sparse integer-combination base shared by
LPolynomial, MotivicClass (grothring) and CohomologyElement (schubert).

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
    integer multiples, equality, hashing, the coefficient dict and the
    sign-joined text form.  A subclass validates keys (_key), says which
    other operands it absorbs (_coerce), renders one term (_body) and
    defines its own products.
    """

    __slots__ = ("_terms",)

    def __init__(self, data=None):
        acc: dict = {}
        items = data.items() if isinstance(data, Mapping) else (data or ())
        for key, c in items:
            key = self._key(key, c)
            acc[key] = acc.get(key, 0) + c
        self._terms = {k: c for k, c in sorted(acc.items()) if c != 0}

    def _key(self, key, c):
        return key

    def _with(self, terms: dict):
        return type(self)(terms)

    def _coerce(self, other):
        return other if isinstance(other, type(self)) else None

    @property
    def is_zero(self) -> bool:
        return not self._terms

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

    def times_int(self, n: int):
        if not isinstance(n, int):
            raise ValueError("coefficients must be integers")
        return self._with({k: n * c for k, c in self._terms.items()})

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

    def _key(self, deg, c):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (deg, c)):
            raise ValueError("degrees and coefficients must be integers")
        if deg < 0:
            raise ValueError("negative degree")
        return deg

    @classmethod
    def zero(cls) -> "LPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LPolynomial":
        return cls({0: 1})

    @classmethod
    def lefschetz(cls, power: int = 1) -> "LPolynomial":
        return cls({power: 1})

    @classmethod
    def from_pairs(cls, pairs: PairList) -> "LPolynomial":
        return cls(pairs)

    def to_pairs(self) -> PairList:
        return [[d, c] for d, c in self._terms.items()]

    def coefficient(self, deg: int) -> int:
        return self._terms.get(deg, 0)

    def degree(self) -> int | None:
        if not self._terms:
            return None
        return max(self._terms)

    def is_palindromic(self) -> bool:
        d = self.degree()
        if d is None:
            return True
        return all(self.coefficient(k) == self.coefficient(d - k) for k in range(d + 1))

    def evaluate(self, q: int) -> int:
        if not isinstance(q, int):
            raise ValueError("evaluation point must be an integer")
        return sum(c * q**d for d, c in self._terms.items())

    def _coerce(self, other) -> "LPolynomial | None":
        return LPolynomial({0: other}) if isinstance(other, int) else super()._coerce(other)

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

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = LPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __hash__(self) -> int:
        # A constant polynomial equals its int, so it hashes as that int.
        if self.degree() in (None, 0):
            return hash(self.coefficient(0))
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
    if not isinstance(rank, int) or rank < 1:
        raise ValueError("bundle rank must be a positive integer")
    return base * LPolynomial((k, 1) for k in range(rank))
