"""Schubert numbers by Atiyah-Bott localization: a second route to the
degrees that shares no code with the Schubert ring.

The maximal torus acts on G/P with one fixed point per coset wW_P, and
the tangent weights there are the w(beta), beta in Phi+ minus Phi_P.
An equivariant class restricts at wP to a polynomial f(w) on the torus,
and for a generic x

    int_{G/P} f = sum over w in W^P of f(w) / prod <w beta, x>

(Atiyah-Bott, "The moment map and equivariant cohomology", 1984; each
term is W_P-invariant, so any representative of a coset serves, and the
sum over all of W counts each fixed point |W_P| times).

Sign convention, fixed once: the line bundle of a weight mu restricts
at wP to <w mu, x>, and the tangent weights are the w(beta) themselves.
Negating both multiplies numerator and denominator by (-1)^dim, so no
integral depends on the choice; with it, omega_i integrates to the
positive degree of G/P_i, and a bundle whose weights are the orbit
W_P . lam has top Chern class prod <w mu, x> over that orbit.  For the
zero locus X on G/P_i of a roof with nodes (i, j), V has the weights
W_{P_i} . (omega_i + omega_j), r of them, dim X = dim G/P_i - r, and

    deg X = int_{G/P_i} omega_i^dim X . c_r(V).

Everything here is built from the Cartan matrix alone, in weight
coordinates: alpha_j is column j (a[i][j] = <alpha_j, alpha_i_check>)
and s_i(v) = v - v_i alpha_i.  The cosets W/W_P are the orbit of
omega_P, walked from the identity; each is kept as one representative's
images of the fundamental weights.  Phi+ is the closure of the simple
roots under the simple reflections, each root carried with its
coordinates in the basis of simple roots, kept where those are
nonnegative.  No rootsys weights, no walk and no ring are read, except
where a ring's own products are checked: there the walk's points name
its cells, and the expected side is still built from the Cartan matrix.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod
from operator import mul

import pytest

from g2pair.rootsys import parse_cartan, root_system
from g2pair.schubert import CohomologyElement, DivisorClass, SchubertRing, degree_of_zero_locus
from g2pair.weyl import WeylGroup
from weyl_oracles import points


def generic(n):
    """x = (1, 10, 100, ...): a root's weight coordinates lie in -3..3, so
    no root pairs to 0 with it."""
    return tuple(10**k for k in range(n))


def cartan(name):
    return parse_cartan(name).entries


def simple_roots(a):
    return [tuple(row[j] for row in a) for j in range(len(a))]


def reflect(v, i, alphas):
    return tuple(x - v[i] * y for x, y in zip(v, alphas[i]))


def act(w, mu):
    """w(mu) for w given by its images of the fundamental weights."""
    return tuple(sum(c * u[k] for c, u in zip(mu, w)) for k in range(len(mu)))


@cache
def coset_reps(a, parabolic):
    """One w per coset wW_P, one per point of the orbit of omega_P, as its
    images of the fundamental weights."""
    n, alphas = len(a), simple_roots(a)
    omega_p = tuple(int(k not in parabolic) for k in range(1, n + 1))
    identity = tuple(tuple(int(k == m) for k in range(n)) for m in range(n))
    seen, todo = {omega_p: identity}, [identity]
    while todo:
        w = todo.pop()
        for i in range(n):
            v = tuple(reflect(u, i, alphas) for u in w)
            point = act(v, omega_p)
            if point not in seen:
                seen[point] = v
                todo.append(v)
    return tuple(seen.values())


def weyl_group(a):
    """Every element of W, one per point of the orbit of rho."""
    return coset_reps(a, ())


@cache
def positive_roots(a):
    """Phi+ as (weight coordinates, simple-root coordinates): s_i lowers
    the i-th simple-root coordinate by the i-th weight coordinate."""
    n, alphas = len(a), simple_roots(a)
    found = {alpha: tuple(int(k == i) for k in range(n)) for i, alpha in enumerate(alphas)}
    todo = list(found.items())
    while todo:
        v, c = todo.pop()
        for i in range(n):
            u = reflect(v, i, alphas)
            if u not in found:
                found[u] = c[:i] + (c[i] - v[i],) + c[i + 1:]
                todo.append((u, found[u]))
    return tuple(sorted((v, c) for v, c in found.items() if min(c) >= 0))


@cache
def coroots(a):
    """Phi+ as weight coordinates -> the coroot gamma_check in the basis of
    simple coroots: the same closure, where s_i lowers the i-th coroot
    coordinate by <alpha_i, gamma_check> = sum_k gamma_check_k a[k][i]."""
    n, alphas = len(a), simple_roots(a)
    found = {alpha: tuple(int(k == i) for k in range(n)) for i, alpha in enumerate(alphas)}
    todo = list(found.items())
    while todo:
        v, c = todo.pop()
        for i in range(n):
            u = reflect(v, i, alphas)
            if u not in found:
                found[u] = c[:i] + (c[i] - sum(c[k] * a[k][i] for k in range(n)),) + c[i + 1:]
                todo.append((u, found[u]))
    return {v: found[v] for v, _ in positive_roots(a)}


@cache
def tangent_roots(a, parabolic):
    """Phi+ minus Phi_P: the positive roots with support off P."""
    return tuple(v for v, c in positive_roots(a)
                 if any(c[k - 1] for k in range(1, len(a) + 1) if k not in parabolic))


def integrate(a, parabolic, f, reps=None):
    """int_{G/P} f, where f(at) is the restriction at w through at(mu) =
    <w mu, x>: a sum over W^P, or over ``reps`` when given."""
    x, tangent = generic(len(a)), tangent_roots(a, parabolic)
    total = Fraction(0)
    for w in coset_reps(a, parabolic) if reps is None else reps:
        y = [sum(map(mul, u, x)) for u in w]  # <w omega_k, x>

        def at(mu, y=y):
            return sum(map(mul, mu, y))
        denominator = prod(map(at, tangent))
        assert denominator, "x is not generic"
        total += Fraction(f(at), denominator)
    return total


def orbit(a, lam, nodes):
    """The orbit of lam under the reflections s_k, k in ``nodes``."""
    alphas, found, todo = simple_roots(a), {lam}, [lam]
    while todo:
        v = todo.pop()
        for k in nodes:
            u = reflect(v, k - 1, alphas)
            if u not in found:
                found.add(u)
                todo.append(u)
    return sorted(found)


def zero_locus_degree(a, i, j):
    """deg X = int over G/P_i of omega_i^dim X . c_r(V), V with weights
    W_{P_i} . (omega_i + omega_j)."""
    n = len(a)
    parabolic = tuple(k for k in range(1, n + 1) if k != i)
    omega = tuple(int(k == i) for k in range(1, n + 1))
    lam = tuple(int(k in (i, j)) for k in range(1, n + 1))
    weights = orbit(a, lam, parabolic)
    dim_x = len(tangent_roots(a, parabolic)) - len(weights)
    return integrate(a, parabolic, lambda at: at(omega) ** dim_x * prod(map(at, weights)))


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
    degrees = tuple(zero_locus_degree(a, side, 3 - side) for side in (1, 2))
    assert degrees == RANK2[name]
    assert degrees == tuple(degree_of_zero_locus(group, side) for side in (1, 2))


# (type, i, j) -> deg X on G/P_i: the rows up to rank 6 of the roof table
# in ROADMAP item 14, from its Segre-class prototype on the ring.  Where the
# table lists one side, the other follows by a diagram automorphism
# exchanging i and j, so the two sides must agree.
ROOFS = {
    ("G2", 1, 2): 42, ("G2", 2, 1): 14,
    ("A4", 2, 3): 25, ("A4", 3, 2): 25,
    ("D4", 1, 3): 12, ("D4", 3, 1): 12,
    ("D5", 4, 5): 144, ("D5", 5, 4): 144,
    ("A6", 3, 4): 4550, ("A6", 4, 3): 4550,
    ("C5", 3, 4): 7838688, ("C5", 4, 3): 35946768,
    ("F4", 2, 3): 278055198720, ("F4", 3, 2): 1505911680,
    ("D6", 5, 6): 6816, ("D6", 6, 5): 6816,
}


@pytest.mark.parametrize("name, i, j", ROOFS, ids=lambda v: str(v))
def test_roof_degrees_by_localization(name, i, j):
    assert zero_locus_degree(cartan(name), i, j) == ROOFS[name, i, j]


def parabolics(rank):
    return [p for r in range(rank) for p in combinations(range(1, rank + 1), r)]


@pytest.mark.parametrize("name", ("A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"))
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
    for name, order, positive in (("A3", 24, 6), ("B3", 48, 9), ("C3", 48, 9), ("G2", 12, 6),
                                  ("F4", 1152, 24)):
        a = cartan(name)
        assert len(weyl_group(a)) == order
        assert len(positive_roots(a)) == len(tangent_roots(a, ())) == positive
    a = cartan("B3")
    assert tangent_roots(a, (1, 2, 3)) == ()
    assert integrate(a, (1, 2, 3), lambda at: 1) == 1


@pytest.mark.parametrize("name", ("G2", "A3", "B3", "C3", "B4", "D4"))
def test_the_sum_over_cosets_is_the_sum_over_w_over_w_p(name):
    # one representative per coset against every element, |W_P| per coset
    a = cartan(name)
    n, rng = len(a), random.Random(name)
    for parabolic in parabolics(n):
        reps = coset_reps(a, parabolic)
        assert len(weyl_group(a)) % len(reps) == 0
        size = len(weyl_group(a)) // len(reps)
        dim = len(tangent_roots(a, parabolic))
        lams = [tuple(0 if k in parabolic else rng.randint(-2, 3) for k in range(1, n + 1))
                for _ in range(dim)]

        def f(at):
            return prod(map(at, lams))
        over_w = integrate(a, parabolic, f, reps=weyl_group(a))
        assert integrate(a, parabolic, f) == over_w / size, parabolic
    # the cosets are the library's cells, counted by a separate route
    group = WeylGroup(root_system(name))
    assert [len(coset_reps(a, p)) for p in parabolics(n)] == [
        len(group.quotient(p)) for p in parabolics(n)
    ]


def chevalley_rule(a, parabolic, f):
    """Per point mu = w(omega_P), the product of omega_f with sigma[w] by
    Chevalley's rule: sum of <w omega_f, gamma_check> sigma[s_gamma mu]
    over gamma > 0 with <mu, gamma_check> > 0 and s_gamma mu one layer up,
    a point's layer being the number of gamma > 0 it pairs negatively with."""
    n, checks = len(a), coroots(a)
    omega_p = tuple(int(k not in parabolic) for k in range(1, n + 1))
    reps = {act(w, omega_p): w for w in coset_reps(a, parabolic)}
    layer = {mu: sum(sum(map(mul, mu, c)) < 0 for c in checks.values()) for mu in reps}
    out = {}
    for mu, w in reps.items():
        terms = {}
        for gamma, check in checks.items():
            q = sum(map(mul, mu, check))
            nu = tuple(m - q * g for m, g in zip(mu, gamma))
            if q > 0 and layer[nu] == layer[mu] + 1:
                terms[nu] = terms.get(nu, 0) + sum(map(mul, w[f - 1], check))
        out[mu] = {nu: c for nu, c in terms.items() if c}
    return out


def rule_cases():
    """(type, parabolic): every proper parabolic of the rank-3 types, G2 and
    both G2 literals, and the maximal parabolics of B4, D4 and F4."""
    for name in ("A3", "B3", "C3", "G2", "[[2,-1],[-3,2]]", "[[2,-3],[-1,2]]"):
        for parabolic in parabolics(len(cartan(name))):
            yield name, parabolic
    for name in ("B4", "D4", "F4"):
        for free in range(1, 5):
            yield name, tuple(k for k in range(1, 5) if k != free)


def test_each_chevalley_coefficient_is_the_rule():
    # the ring's product omega_f . sigma[w], keyed by point, against the
    # rule evaluated on the Cartan matrix, for every cell and free node f
    groups = {}
    for name, parabolic in rule_cases():
        group = groups.setdefault(name, WeylGroup(root_system(name)))
        ring, a = SchubertRing(group, parabolic), cartan(name)
        at = points(ring.quotient)
        for f in ring.free_nodes:
            omega_f = DivisorClass(int(k == f) for k in range(1, len(a) + 1))
            want = chevalley_rule(a, parabolic, f)
            assert len(want) == len(ring), (name, parabolic)
            for k, mu in enumerate(at):
                got = ring.chevalley(omega_f, CohomologyElement(ring, {k: 1}))
                assert {at[j]: c for j, c in got.coefficients().items()} == want[mu], (
                    name, parabolic, f, mu,
                )
