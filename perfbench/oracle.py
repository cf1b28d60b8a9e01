"""Independent oracles for the benchmark's expected outputs.

Nothing here imports g2pair.  Cartan matrices follow the package's
documented convention a[i][j] = <alpha_j, alpha_i_check> with 1-based node
labels (B_n: node n short, C_n: node n long, F4: nodes 3, 4 short, G2:
node 1 long), but every derived quantity comes from a different route
than the package takes:

- positive roots grow by height through alpha-strings instead of closing
  under reflections;
- |W| and cell counts come from the degrees of W, read off the
  root-height partition (Kostant: the exponents form the partition dual
  to the number of roots of each height), with no group enumeration;
- top degrees of G/P use the closed form
  N! * prod <lambda, beta_check> / <rho, beta_check> over the roots
  outside the Levi, instead of the Chevalley rule;
- the G2 zero-locus degrees 42 and 14 are written down from the paper.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

Poly = list[int]  # coefficient list, index = power of L


def cartan(name: str) -> list[list[int]]:
    """Cartan matrix of a named type or a JSON literal, as a list of rows."""
    name = name.strip()
    if name.startswith("["):
        return [list(row) for row in json.loads(name)]
    letter, n = name[0], int(name[1:])
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        m[i - 1][j - 1] = aij
        m[j - 1][i - 1] = aji

    if letter == "A":
        for i in range(1, n):
            edge(i, i + 1)
    elif letter in "BC":
        for i in range(1, n - 1):
            edge(i, i + 1)
        if letter == "B":
            edge(n - 1, n, -1, -2)
        else:
            edge(n - 1, n, -2, -1)
    elif letter == "D":
        for i in range(1, n - 1):
            edge(i, i + 1)
        edge(n - 2, n)
    elif letter == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(2, 4)
    elif letter == "F":
        edge(1, 2)
        edge(2, 3, -1, -2)
        edge(3, 4)
    elif letter == "G":
        edge(1, 2, -1, -3)
    else:
        raise ValueError(f"no oracle for type {name!r}")
    return m


def positive_roots(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots of a finite type by height, using alpha-strings: for
    a root beta != alpha_i, beta + alpha_i is a root iff p > <beta, alpha_i_check>,
    where p is how far the alpha_i-string through beta reaches down."""
    n = len(a)
    simples = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    roots = set(simples)
    layer = list(simples)
    while layer:
        nxt = set()
        for beta in layer:
            for i in range(n):
                if beta == simples[i]:
                    continue
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                pairing = sum(a[i][j] * beta[j] for j in range(n))
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    nxt.add(tuple(up))
        roots |= nxt
        layer = sorted(nxt)
    return sorted(roots, key=lambda r: (sum(r), r))


def degrees(roots: list[tuple[int, ...]], rank: int) -> list[int]:
    """Degrees of the Weyl group: exponents are the partition dual to the
    number of positive roots of each height, degrees are exponents + 1.
    Works for reducible systems (the height counts add up per component)
    and gives [1] * rank for the empty system."""
    per_height: dict[int, int] = {}
    for r in roots:
        per_height[sum(r)] = per_height.get(sum(r), 0) + 1
    return [1 + sum(1 for c in per_height.values() if c >= j) for j in range(1, rank + 1)]


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_divexact(p: Poly, q: Poly) -> Poly:
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(p[k + len(q) - 1], q[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[k] = c
        for j, y in enumerate(q):
            p[k + j] -= c * y
    if any(p):
        raise ArithmeticError("polynomial division leaves a remainder")
    return out


def _quantum_product(degs: list[int]) -> Poly:
    out = [1]
    for d in degs:
        out = _poly_mul(out, [1] * d)
    return out


class Oracle:
    """Expected values for one Cartan matrix (finite type only)."""

    def __init__(self, a: list[list[int]]):
        self.a = a
        self.rank = len(a)
        self.roots = positive_roots(a)
        self.degrees = degrees(self.roots, self.rank)

    def levi_roots(self, parabolic) -> list[tuple[int, ...]]:
        p = {i - 1 for i in parabolic}
        return [r for r in self.roots if all(c == 0 or k in p for k, c in enumerate(r))]

    @property
    def order(self) -> int:
        return math.prod(self.degrees)

    def poincare(self, parabolic=()) -> Poly:
        """Cell counts of G/P: prod [d_i]_L over W divided by the same over W_P."""
        levi = degrees(self.levi_roots(parabolic), self.rank)
        return _poly_divexact(_quantum_product(self.degrees), _quantum_product(levi))

    def poincare_pairs(self, parabolic=()) -> list[list[int]]:
        return [[k, c] for k, c in enumerate(self.poincare(parabolic)) if c]

    def coset_lengths(self, parabolic) -> list[int]:
        return [k for k, c in enumerate(self.poincare(parabolic)) for _ in range(c)]

    def symmetrizer(self) -> list[Fraction]:
        """d with d_i a[i][j] = d_j a[j][i], so (alpha_i, alpha_j) = d_i a[i][j]."""
        n, a = self.rank, self.a
        d: list[Fraction | None] = [None] * n
        for start in range(n):
            if d[start] is None:
                d[start] = Fraction(1)
                todo = [start]
                while todo:
                    i = todo.pop()
                    for j in range(n):
                        if j != i and a[i][j] and d[j] is None:
                            d[j] = d[i] * a[i][j] / a[j][i]
                            todo.append(j)
        return d

    def coroot(self, beta: tuple[int, ...]) -> list[Fraction]:
        """beta_check in simple coroots: c_j = b_j (alpha_j, alpha_j) / (beta, beta)."""
        d, a, n = self.symmetrizer(), self.a, self.rank
        norm = sum(beta[i] * beta[j] * d[i] * a[i][j] for i in range(n) for j in range(n))
        return [beta[j] * 2 * d[j] / norm for j in range(n)]

    def top_degree(self, parabolic, weights) -> int:
        """Integral of lambda^N over G/P, N = dim G/P, lambda = sum weights_i omega_i."""
        levi = set(self.levi_roots(parabolic))
        outside = [r for r in self.roots if r not in levi]
        value = Fraction(math.factorial(len(outside)))
        for beta in outside:
            c = self.coroot(beta)
            value *= sum(w * x for w, x in zip(weights, c)) / sum(c)
        if value.denominator != 1:
            raise ArithmeticError(f"top degree {value} is not an integer")
        return int(value)

    def g2_degrees(self) -> tuple[int, int] | None:
        """Zero-locus degrees (side 1, side 2) for a G2 Cartan matrix, from
        the paper: the side polarized by the long node has degree 42, the
        other 14.  None when the matrix is not of type G2."""
        if self.rank != 2 or sorted((self.a[0][1], self.a[1][0])) != [-3, -1]:
            return None
        d = self.symmetrizer()
        return (42, 14) if d[0] > d[1] else (14, 42)


def parse_poly(text: str) -> list[list[int]]:
    """Read a rendered L-polynomial like '1 + 2*L + L^3' into degree pairs."""
    pairs: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        coeff, _, var = tok.rpartition("*") if "L" in tok else (tok, "", "")
        if "L" in tok:
            c = int(coeff) if coeff else 1
            power = int(var.partition("^")[2] or 1)
        else:
            c, power = int(tok), 0
        pairs[power] = pairs.get(power, 0) + sign * c
    return [[k, c] for k, c in sorted(pairs.items()) if c]


def word_length(name: str) -> int:
    return 0 if name == "e" else len(name.split("*"))


IDENTITY_LINE = "L*([X] - [Y]) = 0"
IDENTITY_DIFFERENCE = {"terms": [["X", 1, 1], ["Y", 1, -1]]}
