"""Schubert numbers by Atiyah-Bott localization: a second route to the
degrees that shares no code with the Schubert ring.

The maximal torus acts on G/P with one fixed point per coset wW_P, and
the tangent weights there are the w(beta), beta in Phi+ minus Phi_P.
An equivariant class restricts at wP to a polynomial f(w) on the torus,
and for a generic x

    int_{G/P} f = sum over w in W of f(w) / prod <w beta, x>, over |W_P|

(Atiyah-Bott, "The moment map and equivariant cohomology", 1984; each
term is W_P-invariant, so the sum over W counts each fixed point |W_P|
times).  The line bundle of a weight lam restricts to <w lam, x>, and
the rank-2 bundle V of the rank-2 pair, with weights lam = w1 + w2 and
s_j lam, has top Chern class <w lam, x> <w s_j lam, x>.

Everything here is built from the Cartan matrix alone, in weight
coordinates: alpha_j is column j (a[i][j] = <alpha_j, alpha_i_check>)
and s_i(v) = v - v_i alpha_i.  W is the orbit of rho, each element kept
as its images of the fundamental weights; Phi+ is the W-orbit of the
simple roots, kept where the coordinates in the basis of simple roots
are nonnegative.  No rootsys weights, no walk and no ring are read.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod
from operator import mul

import pytest

from g2pair.rootsys import root_system
from g2pair.schubert import DivisorClass, SchubertRing, degree_of_zero_locus
from g2pair.weyl import WeylGroup

X = (1, 10, 100)  # generic: no root of rank <= 3 has weight coordinates past 9


def simple_roots(a):
    return [tuple(row[j] for row in a) for j in range(len(a))]


def reflect(v, i, alphas):
    return tuple(x - v[i] * y for x, y in zip(v, alphas[i]))


def act(w, mu):
    """w(mu) for w given by its images of the fundamental weights."""
    return tuple(sum(c * u[k] for c, u in zip(mu, w)) for k in range(len(mu)))


def root_coordinates(a, mu):
    """c with mu = sum_j c_j alpha_j: the solution of a c = mu."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, mu)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


@cache
def weyl_group(a):
    """Every element of W, one per point of the orbit of rho."""
    n, alphas = len(a), simple_roots(a)
    identity = tuple(tuple(int(k == m) for k in range(n)) for m in range(n))
    seen, todo = {(1,) * n: identity}, [identity]
    while todo:
        w = todo.pop()
        for i in range(n):
            v = tuple(reflect(u, i, alphas) for u in w)
            point = tuple(map(sum, zip(*v)))
            if point not in seen:
                seen[point] = v
                todo.append(v)
    return tuple(seen.values())


@cache
def tangent_roots(a, parabolic):
    """Phi+ minus Phi_P: the positive roots with support off P."""
    roots = {act(w, alpha) for w in weyl_group(a) for alpha in simple_roots(a)}
    coords = [(b, root_coordinates(a, b)) for b in sorted(roots)]
    return tuple(b for b, c in coords
                 if min(c) >= 0 and any(c[k - 1] for k in range(1, len(a) + 1)
                                        if k not in parabolic))


def integrate(a, parabolic, f):
    """int_{G/P} f, where f(at) is the restriction at w through at(mu) = <w mu, x>."""
    n, tangent = len(a), tangent_roots(a, parabolic)
    total = Fraction(0)
    for w in weyl_group(a):
        def at(mu, w=w):
            return sum(map(mul, act(w, mu), X))
        denominator = prod(map(at, tangent))
        assert denominator, "x is not generic"
        total += Fraction(f(at), denominator)
    omega_p = tuple(int(k not in parabolic) for k in range(1, n + 1))
    return total / sum(act(w, omega_p) == omega_p for w in weyl_group(a))


def zero_locus_degree(a, side):
    """int over G/P (free node i = side) of w_i^dim X . c2(V)."""
    j = 3 - side
    lam = (1, 1)
    s_lam = reflect(lam, j - 1, simple_roots(a))
    omega = tuple(int(k == side) for k in (1, 2))
    dim_x = len(tangent_roots(a, (j,))) - 2
    return integrate(a, (j,), lambda at: at(omega) ** dim_x * at(lam) * at(s_lam))


RANK2 = {
    "G2": (42, 14),
    "B2": (5, 5),
    "C2": (5, 5),
    "A2": (3, 3),
    "[[2,-1],[-3,2]]": (42, 14),
    "[[2,-3],[-1,2]]": (14, 42),
}


@pytest.mark.parametrize("name", RANK2)
def test_zero_locus_degrees_by_localization(name):
    rs = root_system(name)
    a, group = rs.cartan.entries, WeylGroup(rs)
    degrees = tuple(zero_locus_degree(a, side) for side in (1, 2))
    assert degrees == RANK2[name]
    assert degrees == tuple(degree_of_zero_locus(group, side) for side in (1, 2))


def parabolics(rank):
    return [p for r in range(rank) for p in combinations(range(1, rank + 1), r)]


@pytest.mark.parametrize("name", ("A3", "B3", "C3"))
def test_mixed_integrals_match_the_chevalley_chain(name):
    # seeded random divisors, negative weights included, on every proper
    # parabolic; divisors generate H*(G/B; Q), so on G/B these integrals
    # pin the products up to Poincare duality
    rs = root_system(name)
    a, group, rng = rs.cartan.entries, WeylGroup(rs), random.Random(name)
    negative = False
    for parabolic in parabolics(len(a)):
        ring = SchubertRing(group, parabolic)
        for _ in range(3):
            divisors = [tuple(0 if k in parabolic else rng.randint(-3, 3)
                              for k in range(1, len(a) + 1))
                        for _ in range(ring.dimension)]
            negative = negative or any(c < 0 for d in divisors for c in d)
            x = ring.one()
            for d in divisors:
                x = ring.chevalley(DivisorClass(d), x)
            expected = integrate(a, parabolic, lambda at: prod(map(at, divisors)))
            assert ring.integrate(x) == expected, (parabolic, divisors)
    assert negative


def test_the_localization_sum_counts_what_it_should():
    # |W| and |Phi+| read off the enumeration, and a point integrates to 1
    for name, order, positive in (("A3", 24, 6), ("B3", 48, 9), ("C3", 48, 9), ("G2", 12, 6)):
        a = root_system(name).cartan.entries
        assert len(weyl_group(a)) == order
        assert len(tangent_roots(a, ())) == positive
    a = root_system("B3").cartan.entries
    assert tangent_roots(a, (1, 2, 3)) == ()
    assert integrate(a, (1, 2, 3), lambda at: 1) == 1
