"""Schubert calculus: divisor products, push/pull, Chern classes, degrees.

Two oracles keep the library honest, both implemented here from scratch:

  * a definition-level divisor multiplication that recomputes reflection
    matrices, pairings (as exact fractions through the symmetrized
    bilinear form), lengths (as inversion counts on matrices) and coset
    membership without touching the library's Schubert code;

  * the closed-form degree of an ample class on G/P,
    N! * prod <lambda, beta_check> / prod <rho, beta_check> over the
    positive roots outside the Levi, checked against repeated Chevalley
    multiplication.
"""

import itertools
import re
import time
from fractions import Fraction
from functools import cache
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2pair import cli, schubert, weyl
from g2pair.cli import run
from g2pair.errors import ConventionError, PicardError
from g2pair.rootsys import root_system
from g2pair.schubert import (
    ChevalleyTable,
    CohomologyElement,
    DivisorClass,
    SchubertRing,
    check_rank2_pair,
    chern_of_pushforward_bundle,
    degree_of_zero_locus,
    pushforward,
)
from g2pair.weyl import WeylGroup
from test_weyl_walk import SMALL
from weyl_oracles import (
    basis_index,
    bilinear,
    chevalley as oracle_chevalley,
    coefficient,
    coroot_coordinates,
    element_by_matrix,
    element_matrix,
    generator,
    identity,
    inverse_point,
    lift,
    matvec,
    sigma,
    simple_root,
    terms,
)


def make_group(name):
    return WeylGroup(root_system(name))


# --- oracle helpers ----------------------------------------------------


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )


def pair_root(cartan, v, beta):
    # <v, beta_check> for v, beta in simple-root coordinates
    return Fraction(2 * bilinear(cartan, v, beta), bilinear(cartan, beta, beta))


def pair_weight(cartan, weights, beta):
    # <lambda, beta_check> for lambda in fundamental-weight coordinates;
    # (omega_i, alpha_j) = delta_ij d_j
    d = cartan.symmetrizer
    num = 2 * sum(weights[j] * d[j] * beta[j] for j in range(cartan.rank))
    return Fraction(num, bilinear(cartan, beta, beta))


def oracle_reflection(rs, beta):
    n = rs.rank
    cols = []
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        t = pair_root(rs.cartan, e, beta)
        assert t.denominator == 1
        cols.append(tuple(e[r] - int(t) * beta[r] for r in range(n)))
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


def inv_count(rs, matrix):
    return sum(
        1
        for beta in rs.positive_roots
        if all(x <= 0 for x in matvec(matrix, beta))
    )


def stays_minimal(rs, matrix, parabolic):
    # w alpha_i positive for every Levi node i
    return all(
        any(x > 0 for x in matvec(matrix, simple_root(rs, i))) for i in parabolic
    )


def oracle_multiply(group, parabolic, weights, coeffs):
    """Divisor times a class, straight from the rule; ``coeffs`` maps
    WeylElement -> int and the result does too."""
    rs = group.root_system
    out = {}
    for w, c in coeffs.items():
        for beta in rs.positive_roots:
            m = pair_weight(rs.cartan, weights, beta)
            if m == 0:
                continue
            assert m.denominator == 1
            prod = matmul(element_matrix(w), oracle_reflection(rs, beta))
            if inv_count(rs, prod) != w.length + 1:
                continue
            if not stays_minimal(rs, prod, parabolic):
                continue
            u = element_by_matrix(group, prod)
            out[u] = out.get(u, 0) + c * int(m)
    return {k: v for k, v in out.items() if v}


def oracle_pushforward(group, fiber, parabolic_to, coeffs):
    rs = group.root_system
    s_i = oracle_reflection(rs, simple_root(rs, fiber))
    out = {}
    for w, c in coeffs.items():
        prod = matmul(element_matrix(w), s_i)
        if inv_count(rs, prod) != w.length - 1:
            continue
        assert stays_minimal(rs, prod, parabolic_to)
        u = element_by_matrix(group, prod)
        out[u] = out.get(u, 0) + c
    return {k: v for k, v in out.items() if v}


def as_dict(x):
    return dict(terms(x))


def oracle_degree_closed_form(group, parabolic, weights):
    """Borel-Hirzebruch style top self-intersection on G/P."""
    rs = group.root_system
    rho = tuple(1 for _ in range(rs.rank))
    outside = [
        beta
        for beta in rs.positive_roots
        if any(beta[i - 1] for i in range(1, rs.rank + 1) if i not in parabolic)
    ]
    num = Fraction(1)
    for beta in outside:
        num *= pair_weight(rs.cartan, weights, beta)
        num /= pair_weight(rs.cartan, rho, beta)
    deg = factorial(len(outside)) * num
    assert deg.denominator == 1
    return int(deg)


def oracle_degree_zero_locus(group, side):
    """Recompute degree_of_zero_locus with the oracle operations only."""
    fiber = 3 - side
    reps = group.min_coset_reps((fiber,))
    zeta = (1,) * group.rank
    one_up = {identity(group): 1}
    z1 = oracle_multiply(group, (), zeta, one_up)
    z2 = oracle_multiply(group, (), zeta, z1)
    z3 = oracle_multiply(group, (), zeta, z2)
    assert oracle_pushforward(group, fiber, (fiber,), z1) == {identity(group): 1}
    c1 = oracle_pushforward(group, fiber, (fiber,), z2)
    c1_weights = [0] * group.rank
    for w, c in c1.items():
        c1_weights[w.word[0] - 1] = c
    c1sq = oracle_multiply(group, (fiber,), tuple(c1_weights), c1)
    c2 = dict(c1sq)
    for w, c in oracle_pushforward(group, fiber, (fiber,), z3).items():
        c2[w] = c2.get(w, 0) - c
    c2 = {k: v for k, v in c2.items() if v}
    h = [0] * group.rank
    h[side - 1] = 1
    x = c2
    top = max(w.length for w in reps)
    for _ in range(top - 2):
        x = oracle_multiply(group, (fiber,), tuple(h), x)
    point = [w for w in reps if w.length == top]
    assert len(point) == 1
    return x.get(point[0], 0)


CASES = [
    ("A2", ()),
    ("A2", (1,)),
    ("A2", (2,)),
    ("B2", ()),
    ("B2", (1,)),
    ("B2", (2,)),
    ("G2", ()),
    ("G2", (1,)),
    ("G2", (2,)),
]


def test_chevalley_matches_oracle_exhaustively():
    for name, parabolic in CASES:
        g = make_group(name)
        ring = SchubertRing(g, parabolic)
        free = [i for i in (1, 2) if i not in parabolic]
        weight_choices = [
            tuple(1 if i in free else 0 for i in (1, 2)),
        ] + [tuple(2 if i == f else 0 for i in (1, 2)) for f in free]
        for weights in weight_choices:
            d = DivisorClass(weights)
            for w in ring.basis:
                got = as_dict(ring.chevalley(d, sigma(ring, w)))
                want = oracle_multiply(g, parabolic, weights, {w: 1})
                assert got == want, (name, parabolic, weights, w.name)


def test_g2_chevalley_chains():
    g = make_group("G2")
    # collapsing node 1: ample weight omega_2, coefficients 1,1,2,1,1
    ring1 = SchubertRing(g, (1,))
    h1 = ring1.ample_generator()
    assert h1 == DivisorClass((0, 1))
    x = ring1.one()
    values = []
    for _ in range(5):
        x = ring1.chevalley(h1, x)
        assert len(x.coefficients()) == 1
        values.append(next(iter(x.coefficients().values())))
    assert values == [1, 1, 2, 2, 2]
    assert ring1.integrate(x) == 2
    # collapsing node 2: ample weight omega_1, coefficients 1,3,6,18,18
    ring2 = SchubertRing(g, (2,))
    h2 = ring2.ample_generator()
    assert h2 == DivisorClass((1, 0))
    x = ring2.one()
    values = []
    for _ in range(5):
        x = ring2.chevalley(h2, x)
        values.append(next(iter(x.coefficients().values())))
    assert values == [1, 3, 6, 18, 18]
    assert ring2.integrate(x) == 18


def test_top_degrees_match_closed_form():
    for name, parabolic in CASES:
        g = make_group(name)
        ring = SchubertRing(g, parabolic)
        weights = tuple(
            1 if i not in parabolic else 0 for i in range(1, g.rank + 1)
        )
        d = DivisorClass(weights)
        x = ring.one()
        for _ in range(ring.dimension):
            x = ring.chevalley(d, x)
        assert ring.integrate(x) == oracle_degree_closed_form(
            g, parabolic, weights
        ), (name, parabolic)


def test_a2_flag_degree_is_six():
    g = make_group("A2")
    ring = SchubertRing(g, ())
    zeta = DivisorClass((1, 1))
    x = ring.one()
    for _ in range(3):
        x = ring.chevalley(zeta, x)
    assert ring.integrate(x) == 6 == factorial(3)


def test_g2_zeta_powers_frozen():
    g = make_group("G2")
    flag = SchubertRing(g, ())
    zeta = DivisorClass((1, 1))
    z1 = flag.from_divisor(zeta)
    z2 = flag.chevalley(zeta, z1)
    assert str(z2) == "3*sigma[s1*s2] + 5*sigma[s2*s1]"
    z3 = flag.chevalley(zeta, z2)
    assert str(z3) == "18*sigma[s1*s2*s1] + 20*sigma[s2*s1*s2]"
    assert coefficient(z2, g.from_word([1, 2])) == 3
    assert coefficient(z3, g.from_word([2, 1, 2])) == 20


def test_pushforward_pullback_basics():
    g = make_group("G2")
    flag = SchubertRing(g, ())
    for fiber in (1, 2):
        base = SchubertRing(g, (fiber,))
        zeta = flag.from_divisor(DivisorClass((1, 1)))
        assert pushforward(flag.one(), fiber, base).is_zero
        assert pushforward(zeta, fiber, base) == base.one()
        assert lift(base.one(), flag) == flag.one()
        # pushforward annihilates every pullback (fiber-degree 0)
        for w in base.basis:
            lifted = lift(sigma(base, w), flag)
            assert pushforward(lifted, fiber, base).is_zero
        # pullback of the ample generator is the Schubert divisor of the
        # node outside the Levi
        h = base.from_divisor(base.ample_generator())
        assert lift(h, flag) == sigma(flag, generator(g, 3 - fiber))
        point = base.point_class()
        assert lift(point, flag).degree() == 5


def test_pushforward_matches_oracle():
    for name in ("A2", "B2", "G2"):
        g = make_group(name)
        flag = SchubertRing(g, ())
        for fiber in (1, 2):
            base = SchubertRing(g, (fiber,))
            for w in flag.basis:
                got = as_dict(pushforward(sigma(flag, w), fiber, base))
                want = oracle_pushforward(g, fiber, (fiber,), {w: 1})
                assert got == want, (name, fiber, w.name)


def test_projection_formula_exhaustive():
    for name in ("A2", "G2"):
        g = make_group(name)
        flag = SchubertRing(g, ())
        for fiber in (1, 2):
            base = SchubertRing(g, (fiber,))
            divisors = [base.ample_generator()]
            divisors.append(
                DivisorClass(tuple(3 * c for c in divisors[0].weights))
            )
            for d in divisors:
                for w in flag.basis:
                    x = sigma(flag, w)
                    left = pushforward(flag.chevalley(d, x), fiber, base)
                    right = base.chevalley(d, pushforward(x, fiber, base))
                    assert left == right, (name, fiber, w.name)


def test_divisor_commutativity():
    for name in ("A2", "B2", "G2"):
        g = make_group(name)
        flag = SchubertRing(g, ())
        d1 = DivisorClass((1, 0))
        d2 = DivisorClass((0, 1))
        d3 = DivisorClass((2, 3))
        for w in flag.basis:
            x = sigma(flag, w)
            for a, b in ((d1, d2), (d1, d3), (d2, d3)):
                assert flag.chevalley(a, flag.chevalley(b, x)) == flag.chevalley(
                    b, flag.chevalley(a, x)
                ), (name, w.name)


def test_grading_shifts():
    g = make_group("G2")
    flag = SchubertRing(g, ())
    base = SchubertRing(g, (1,))
    zeta = DivisorClass((1, 1))
    x = flag.from_divisor(zeta)
    assert x.degree() == 1
    assert flag.chevalley(zeta, x).degree() == 2
    assert pushforward(flag.chevalley(zeta, x), 1, base).degree() == 1
    assert lift(base.one(), flag).degree() == 0
    mixed = flag.one() + x
    with pytest.raises(ValueError):
        mixed.degree()
    assert flag.zero().degree() is None


def test_chern_classes_g2_frozen():
    g = make_group("G2")
    # fiber through node 1: base collapses node 1, ample weight omega_2
    c1, c2 = chern_of_pushforward_bundle(g, 1)
    base = c1.ring
    assert base.parabolic == (1,)
    assert c1 == 5 * sigma(base, generator(g, 2))
    assert c2 == 7 * sigma(base, g.from_word([1, 2]))
    assert str(c1) == "5*sigma[s2]"
    assert str(c2) == "7*sigma[s1*s2]"
    # fiber through node 2
    c1, c2 = chern_of_pushforward_bundle(g, 2)
    base = c1.ring
    assert c1 == 3 * sigma(base, generator(g, 1))
    assert c2 == 7 * sigma(base, g.from_word([2, 1]))


def test_chern_relation_closes_for_small_types():
    for name in ("A2", "B2", "G2"):
        g = make_group(name)
        for fiber in (1, 2):
            c1, c2 = chern_of_pushforward_bundle(g, fiber)
            assert c1.degree() == 1
            assert c2.degree() in (2, None)  # c2 may vanish


def test_chern_product_flag():
    # P1 x P1 over one factor: the bundle splits as O + O(ample), so
    # c1 = 2h after the zeta normalization and c2 = 0
    g = make_group("[[2,0],[0,2]]")
    c1, c2 = chern_of_pushforward_bundle(g, 1)
    base = c1.ring
    assert c1 == 2 * sigma(base, generator(g, 2))
    assert c2.is_zero


def test_chern_rejects_bad_zeta():
    # fiber degree 0 and fiber degree 2 both fail the p_* zeta = 1 check
    g = make_group("G2")
    with pytest.raises(ConventionError):
        chern_of_pushforward_bundle(g, 1, zeta=DivisorClass((0, 1)))
    with pytest.raises(ConventionError):
        chern_of_pushforward_bundle(g, 1, zeta=DivisorClass((2, 1)))


def test_chern_custom_zeta():
    # twisting zeta by the pullback of the base hyperplane h (rank-2
    # bundle) shifts c1 by 2h and c2 by h*c1 + h^2
    g = make_group("G2")
    c1t, c2t = chern_of_pushforward_bundle(g, 1, zeta=DivisorClass((1, 2)))
    base = c1t.ring
    s2 = sigma(base, generator(g, 2))
    s12 = sigma(base, g.from_word([1, 2]))
    assert c1t == 7 * s2  # 5 + 2
    assert c2t == 13 * s12  # 7 + 5 + 1


@pytest.mark.parametrize("name", ("A2", "B2", "C2", "G2"))
def test_chern_catches_every_corrupted_product(name, monkeypatch):
    # Add +-sigma[v] to one Chevalley product on G/B, for every cell v and
    # every such product the call makes: the call must return the true
    # (c1, c2) or raise ConventionError.
    g = make_group(name)
    chevalley = SchubertRing.chevalley
    products = []  # the G/B products of the current call
    fault = None  # (n, cell, sign): add sign*sigma[cell] to product n

    def tampered(ring, d, x):
        out = chevalley(ring, d, x)
        if not ring.parabolic:
            if fault and fault[0] == len(products):
                out = out + CohomologyElement(ring, {fault[1]: fault[2]})
            products.append(out)
        return out

    monkeypatch.setattr(SchubertRing, "chevalley", tampered)
    cells = range(len(SchubertRing(g, ())))
    for fiber in (1, 2):
        fault = None
        products.clear()
        want = tuple(map(str, chern_of_pushforward_bundle(g, fiber)))
        count, caught = len(products), 0
        assert count > 0
        for fault in itertools.product(range(count), cells, (1, -1)):
            products.clear()
            try:
                got = chern_of_pushforward_bundle(g, fiber)
            except ConventionError:
                caught += 1
                continue
            assert tuple(map(str, got)) == want, (fiber, fault)
        assert caught > 0, fiber


def test_chern_refuses_a_root_product_off_the_base(monkeypatch):
    # On G2 over node 1 the second root is s = zeta - alpha_1 = -w1 + 4 w2.
    # Adding 3 sigma[s1*s2] - sigma[s2*s1] to s.zeta leaves p_*(zeta.s.zeta)
    # and so c2 unchanged; only p_*(s.zeta) = 0 sees that s.zeta is no
    # longer a pullback, i.e. that the rank-2 relation fails.
    g = make_group("G2")
    chevalley = SchubertRing.chevalley

    def tampered(ring, d, x):
        out = chevalley(ring, d, x)
        if not ring.parabolic and d == DivisorClass((-1, 4)) and x.degree() == 1:
            out = out + 3 * sigma(ring, g.from_word([1, 2])) - sigma(ring, g.from_word([2, 1]))
        return out

    monkeypatch.setattr(SchubertRing, "chevalley", tampered)
    with pytest.raises(ConventionError, match="is not pulled back from G/P"):
        chern_of_pushforward_bundle(g, 1)


def test_degrees_42_and_14():
    g = make_group("G2")
    assert degree_of_zero_locus(g, 1) == 42
    assert degree_of_zero_locus(g, 2) == 14


def test_degree_matches_oracle_pipeline():
    for name in ("B2", "G2"):
        g = make_group(name)
        for side in (1, 2):
            assert degree_of_zero_locus(g, side) == oracle_degree_zero_locus(
                g, side
            ), (name, side)


def test_degree_errors():
    with pytest.raises(ConventionError):
        degree_of_zero_locus(make_group("A3"), 1)
    with pytest.raises(ValueError):
        degree_of_zero_locus(make_group("G2"), 3)


def test_rank2_gate():
    for name in ("G2", "B2", "A2", "[[2,-3],[-1,2]]"):
        check_rank2_pair(make_group(name))
    # A1xA1 still has Chern classes, but no pair: its degrees would read 0
    reducible = make_group("[[2,0],[0,2]]")
    assert chern_of_pushforward_bundle(reducible, 1)[1].is_zero
    for g in (reducible, make_group("A1"), make_group("A3")):
        with pytest.raises(ConventionError):
            check_rank2_pair(g)
        with pytest.raises(ConventionError):
            degree_of_zero_locus(g, 1)


def test_poincare_pairing_nondegenerate():
    # one basis class per degree on G2/P_i; each pairs nontrivially with
    # the complementary power of the ample class
    g = make_group("G2")
    for parabolic in ((1,), (2,)):
        ring = SchubertRing(g, parabolic)
        h = ring.ample_generator()
        for w in ring.basis:
            x = sigma(ring, w)
            for _ in range(ring.dimension - w.length):
                x = ring.chevalley(h, x)
            assert ring.integrate(x) != 0, (parabolic, w.name)


def test_integrate_degree_sensitivity():
    g = make_group("G2")
    ring = SchubertRing(g, (1,))
    assert ring.integrate(ring.point_class()) == 1
    assert ring.integrate(ring.one()) == 0
    assert ring.integrate(ring.zero()) == 0


def test_picard_validation():
    g = make_group("G2")
    base = SchubertRing(g, (1,))
    blocked = DivisorClass((1, 0))
    with pytest.raises(PicardError):
        base.from_divisor(blocked)
    with pytest.raises(PicardError):
        base.chevalley(blocked, base.one())
    flag = SchubertRing(g, ())
    with pytest.raises(PicardError):
        flag.ample_generator()  # two free nodes, no single generator
    with pytest.raises(ValueError):
        base.chevalley(DivisorClass((0, 1, 0)), base.one())


def test_basis_membership():
    g = make_group("G2")
    base = SchubertRing(g, (1,))
    with pytest.raises(ValueError):
        sigma(base, generator(g, 1))  # has a right descent in the Levi
    assert len(base) == 6
    assert base.dimension == 5


def test_ring_mixing_rejected():
    g = make_group("G2")
    r1 = SchubertRing(g, (1,))
    r2 = SchubertRing(g, (2,))
    with pytest.raises(ValueError):
        r1.one() + r2.one()
    with pytest.raises(ValueError):
        r1.chevalley(r1.ample_generator(), r2.one())


def test_pushforward_collapsed_node_rejected():
    g = make_group("G2")
    base = SchubertRing(g, (1,))
    with pytest.raises(ValueError):
        pushforward(base.one(), 1, base)


def test_cohomology_element_api():
    g = make_group("G2")
    flag = SchubertRing(g, ())
    a = sigma(flag, g.from_word([1, 2]))
    b = sigma(flag, g.from_word([2, 1]))
    assert str(3 * a + 5 * b) == "3*sigma[s1*s2] + 5*sigma[s2*s1]"
    assert str(a - b) == "sigma[s1*s2] - sigma[s2*s1]"
    assert str(-a) == "-sigma[s1*s2]"
    assert str(flag.zero()) == "0"
    assert (a - a).is_zero
    assert 2 * a == a + a
    assert coefficient(a, g.from_word([1, 2])) == 1
    assert coefficient(a, identity(g)) == 0
    assert a != b


# --- rings on the orbit of omega_P ---------------------------------------


@cache
def shared_group(name, cap=1_000_000):
    return WeylGroup(root_system(name), cap=cap)


def all_parabolics(rank):
    nodes = range(1, rank + 1)
    return [p for k in range(rank + 1) for p in itertools.combinations(nodes, k)]


def free_weights(weights, parabolic):
    return tuple(0 if i in parabolic else c for i, c in enumerate(weights, start=1))


@pytest.mark.parametrize("name", ("A3", "B3", "C3"))
@given(data=st.data())
@settings(max_examples=3)
def test_orbit_products_match_oracle_on_rank3(name, data):
    g = shared_group(name)
    weights = data.draw(st.tuples(*[st.integers(0, 3)] * g.rank))
    for parabolic in all_parabolics(g.rank):
        ring = SchubertRing(g, parabolic)
        lam = free_weights(weights, parabolic)
        for w in ring.basis:
            got = as_dict(ring.chevalley(DivisorClass(lam), sigma(ring, w)))
            assert got == oracle_multiply(g, parabolic, lam, {w: 1}), (parabolic, lam, w.name)


@st.composite
def drawn_classes(draw, names):
    g = shared_group(draw(st.sampled_from(names)))
    parabolic = tuple(draw(st.sets(st.integers(1, g.rank), max_size=g.rank)))
    weights = free_weights(draw(st.tuples(*[st.integers(0, 3)] * g.rank)), parabolic)
    ring = SchubertRing(g, parabolic)
    cells = draw(st.lists(st.integers(0, len(ring) - 1), min_size=1, max_size=3))
    return g, ring, DivisorClass(weights), cells


@given(drawn_classes(("B4", "C4", "D4", "F4")))
@settings(max_examples=25)
def test_orbit_products_match_oracle_on_drawn_parabolics(case):
    g, ring, d, cells = case
    for k in cells:
        w = ring.basis[k]
        got = as_dict(ring.chevalley(d, sigma(ring, w)))
        assert got == oracle_multiply(g, ring.parabolic, d.weights, {w: 1}), (
            ring.parabolic, d, w.name,
        )


@given(drawn_classes(("A3", "B3", "C3", "D4", "F4")), st.data())
@settings(max_examples=40)
def test_divisors_commute_on_quotients(case, data):
    _, ring, d1, cells = case
    d2 = DivisorClass(free_weights(
        data.draw(st.tuples(*[st.integers(-2, 3)] * ring.rank)), ring.parabolic
    ))
    for k in cells:
        x = sigma(ring, ring.basis[k])
        assert ring.chevalley(d1, ring.chevalley(d2, x)) == ring.chevalley(
            d2, ring.chevalley(d1, x)
        ), (ring.parabolic, d1, d2, k)


@given(st.sampled_from(("A3", "B3", "C3", "G2", "F4")), st.data())
@settings(max_examples=40)
def test_products_by_a_drawn_divisor_sequence_match_the_pairings(name, data):
    # one ring multiplies by a drawn sequence from a small pool of divisors
    # (zeros, negatives, repeats, alternation), with bad divisors between:
    # each product matches sum(map(mul)) over the pairings, and a bad
    # divisor raises, twice over, even right after the same ring memoized
    # a good one
    g = shared_group(name)
    parabolic = tuple(sorted(data.draw(st.sets(st.integers(1, g.rank), max_size=g.rank - 1))))
    ring = SchubertRing(g, parabolic)
    weights = st.tuples(*[st.integers(-3, 3)] * g.rank).map(
        lambda w: DivisorClass(free_weights(w, parabolic))
    )
    pool = data.draw(st.lists(weights, min_size=1, max_size=3))
    sequence = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    cells = st.dictionaries(st.integers(0, len(ring) - 1), st.integers(-3, 3), max_size=3)
    for d in sequence:
        x = CohomologyElement(ring, data.draw(cells))
        assert ring.chevalley(d, x).coefficients() == pairing_product(ring, d, x), (
            parabolic, d, x,
        )
        if data.draw(st.booleans()):
            if parabolic and data.draw(st.booleans()):
                bad = list(d.weights)
                bad[data.draw(st.sampled_from(parabolic)) - 1] = data.draw(
                    st.sampled_from((-2, -1, 1, 2))
                )
                for _ in range(2):
                    with pytest.raises(PicardError, match="does not descend"):
                        ring.chevalley(DivisorClass(bad), x)
            else:
                bad = data.draw(st.sampled_from((d.weights[:-1], d.weights + (0,))))
                for _ in range(2):
                    with pytest.raises(ValueError, match="weights, rank is"):
                        ring.chevalley(DivisorClass(bad), x)


def is_line_fibration(g, parabolic, node):
    # the fibre W_P'/W_P is P^1 when the node joins no node of P
    a = g.root_system.cartan.entries
    return all(a[node - 1][i - 1] == 0 for i in parabolic)


@pytest.mark.parametrize("name", ("A3", "B3", "C3"))
def test_projection_formula_on_rank3_fibrations(name):
    g = shared_group(name)
    lines = 0
    for parabolic in all_parabolics(g.rank):
        source = SchubertRing(g, parabolic)
        for node in source.free_nodes:
            base = SchubertRing(g, parabolic + (node,))
            line = is_line_fibration(g, parabolic, node)
            lines += line
            divisors = [
                DivisorClass(free_weights(w, base.parabolic))
                for w in ((1,) * g.rank, (2, 1, 3), (0, 3, 1))
            ]
            for w in source.basis:
                x = sigma(source, w)
                pushed = pushforward(x, node, base)
                if line:
                    want = oracle_pushforward(g, node, base.parabolic, {w: 1})
                    assert as_dict(pushed) == want, (parabolic, node, w.name)
                for d in divisors:
                    left = pushforward(source.chevalley(d, x), node, base)
                    assert left == base.chevalley(d, pushed), (parabolic, node, d, w.name)
    assert lines > g.rank  # every G/B -> G/P_i, and more


def test_rings_leave_the_group_unbuilt():
    for name in ("A3", "B3", "D4", "F4", "G2"):
        g = make_group(name)
        g.quotient((1,)).words()
        quotients = dict(g._quotients)
        rings = []
        for parabolic in all_parabolics(g.rank):
            ring = SchubertRing(g, parabolic)
            d = DivisorClass(free_weights((1,) * g.rank, parabolic))
            x = ring.one()
            for _ in range(ring.dimension):
                x = ring.chevalley(d, x)
            assert ring.integrate(x) > 0
            rings.append(ring)
        assert not g._made, name
        # rings share the group's walk: the one made before them is kept,
        # and each ring's cells are the walk of its quotient
        assert all(g._quotients[p] is q for p, q in quotients.items())
        assert len(g._quotients) == len(rings)
        for ring in rings:
            q = g._quotients[ring.parabolic]
            assert ring.quotient is q and ring.words == q.words()


@pytest.mark.parametrize("name", ("G2", "B3", "F4"))
def test_rings_read_the_group_walk(name):
    g = make_group(name)
    for parabolic in all_parabolics(g.rank):
        ring = SchubertRing(g, parabolic)
        q = g.quotient(parabolic)
        assert ring.quotient is q and ring.words == q.words(), parabolic
        assert ring.quotient.coords is q.coords and ring.table is q.table, parabolic
        assert SchubertRing(g, parabolic[::-1]).quotient is ring.quotient, parabolic


def test_one_walk_per_quotient(monkeypatch):
    # Each walk makes one weyl.Quotient, so its constructions count the
    # walks: cosets and degrees of both sides of G2 must cost one walk
    # each of G2/P1, G2/P2 and G2/B (six walks before they shared one).
    walks = []
    real = weyl.Quotient
    monkeypatch.setattr(weyl, "Quotient", lambda g, p: walks.append(p) or real(g, p))
    once = make_group("G2")
    for parabolic in ((1,), (2,), ()):
        once.quotient(parabolic)
    walked = len(walks)
    assert walked == 3
    walks.clear()
    g = make_group("G2")
    for side in (1, 2):
        g.quotient((side,)).words()
        g.quotient((side,)).names()
    assert (degree_of_zero_locus(g, 1), degree_of_zero_locus(g, 2)) == (42, 14)
    assert len(walks) == walked and sorted(walks) == [(), (1,), (2,)]
    assert sorted(g._quotients) == [(), (1,), (2,)]


TABLE_PARTS = ChevalleyTable._fields


def tabled(g):
    """The parabolics whose quotient holds a Chevalley table."""
    return sorted(p for p, q in g._quotients.items() if q.table is not None)


@pytest.mark.parametrize("name", ("G2", "B3", "F4"))
def test_rings_of_a_quotient_share_one_table(name):
    g = make_group(name)
    for parabolic in all_parabolics(g.rank):
        first, second = SchubertRing(g, parabolic), SchubertRing(g, parabolic[::-1])
        d = DivisorClass(free_weights((1,) * g.rank, parabolic))
        # the second ring reads the covers the first one made
        x = first.one()
        for _ in range(first.dimension):
            x = first.chevalley(d, x)
        made = first._covers(0)
        assert second.table.covers[0] is made and second._covers(0) is made
        assert first.quotient is second.quotient and first.table is second.table
        for part in TABLE_PARTS:
            assert getattr(first.table, part) is getattr(second.table, part), (parabolic, part)
        assert g.quotient(first.parabolic).table[0] is first.table.codes
        assert g.quotient(first.parabolic).table.classes is first.table.classes
        # the rings stay two rings: their elements do not mix
        assert first.one() != second.one()
        with pytest.raises(ValueError):
            first.one() + second.one()
        with pytest.raises(ValueError):
            first.chevalley(d, second.one())
        with pytest.raises(ValueError):
            second.integrate(x)
    assert tabled(g) == sorted(all_parabolics(g.rank))


def top_power(ring, weights):
    d, x = DivisorClass(weights), ring.one()
    for _ in range(ring.dimension):
        x = ring.chevalley(d, x)
    return ring.integrate(x)


@pytest.mark.parametrize("name", SMALL)
def test_a_reused_group_gives_what_fresh_groups_give(name):
    reused = make_group(name)
    for parabolic in all_parabolics(reused.rank):
        weights = free_weights(range(1, reused.rank + 1), parabolic)
        fresh = SchubertRing(make_group(name), parabolic)
        want = top_power(fresh, weights)
        covers = [fresh._covers(k) for k in range(len(fresh))]
        for _ in range(3):
            ring = SchubertRing(reused, parabolic)
            assert top_power(ring, weights) == want, parabolic
            assert [ring._covers(k) for k in range(len(ring))] == covers, parabolic


def test_one_table_per_quotient(monkeypatch, capsys):
    # both degrees of a certificate read the table of G/B: one build each
    # of G2/B, G2/P1 and G2/P2
    builds, groups = [], []
    real_table, real_group = schubert._chevalley_table, cli._group
    monkeypatch.setattr(
        schubert, "_chevalley_table", lambda q: builds.append(q.parabolic) or real_table(q)
    )
    monkeypatch.setattr(cli, "_group", lambda ns: groups.append(real_group(ns)) or groups[-1])
    assert run(["certificate", "G2"]) == 0
    assert "side 1: 42" in capsys.readouterr().out
    assert sorted(builds) == [(), (1,), (2,)]
    assert tabled(groups[0]) == [(), (1,), (2,)]


def test_products_validate_nothing(monkeypatch):
    # Elements are validated where they are made from outside; a product
    # of valid operands is trusted.  After a warm-up pass, lambda^dim on
    # every maximal quotient of F4 validates the terms of ring.one() alone.
    g = make_group("F4")
    maximal = [p for p in all_parabolics(g.rank) if len(p) == g.rank - 1]

    def top_powers():
        return [top_power(SchubertRing(g, p), free_weights((1, 2, 3, 1), p)) for p in maximal]

    want = top_powers()
    assert all(want)
    keys = []
    real = CohomologyElement._key
    monkeypatch.setattr(
        CohomologyElement, "_key", lambda x, k, c: keys.append(k) or real(x, k, c)
    )
    assert top_powers() == want
    assert keys == [0] * len(maximal)


def test_products_build_one_lambda_table_per_ring(monkeypatch):
    # A product checks its divisor and makes its class values only when
    # the divisor differs from the ring's last one: after a warm-up pass,
    # lambda^dim on every maximal quotient of F4 does both once per ring.
    g = make_group("F4")
    maximal = [p for p in all_parabolics(g.rank) if len(p) == g.rank - 1]

    def top_powers():
        return [top_power(SchubertRing(g, p), free_weights((1, 2, 3, 1), p)) for p in maximal]

    want = top_powers()
    assert all(want)
    builds, checks = [], []
    real_build, real_check = SchubertRing._lambda_values, SchubertRing.check_divisor
    monkeypatch.setattr(
        SchubertRing, "_lambda_values", lambda r, d: builds.append(r) or real_build(r, d)
    )
    monkeypatch.setattr(
        SchubertRing, "check_divisor", lambda r, d: checks.append(r) or real_check(r, d)
    )
    assert top_powers() == want
    assert [r.parabolic for r in builds] == maximal
    assert len(set(map(id, builds))) == len(maximal)
    assert checks == builds


# (type, parabolic): every quotient of the rank-3 types and G2, and the
# maximal quotients of F4
PRODUCT_CASES = [
    (name, p) for name in ("A3", "B3", "C3", "G2")
    for p in all_parabolics(root_system(name).cartan.rank)
] + [(name, p) for name in ("F4",) for p in all_parabolics(4) if len(p) == 3]


@cache
def product_ring(name, parabolic):
    return SchubertRing(WeylGroup(root_system(name)), parabolic)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_products_match_the_dict_oracle(data):
    # a random element over random cells of several layers, times a random
    # divisor: the layer accumulator gives the oracle's terms, in its order
    ring = product_ring(*data.draw(st.sampled_from(PRODUCT_CASES)))
    cells = st.integers(0, len(ring) - 1)
    x = CohomologyElement(ring, data.draw(st.dictionaries(cells, st.integers(-9, 9), max_size=8)))
    weights = data.draw(st.tuples(*[st.integers(-3, 3)] * ring.rank))
    d = DivisorClass(free_weights(weights, ring.parabolic))
    got, want = ring.chevalley(d, x), oracle_chevalley(ring, d, x)
    assert got == want
    assert list(got.coefficients().items()) == list(want.coefficients().items())


@pytest.mark.parametrize("name, parabolic", PRODUCT_CASES)
def test_products_of_zero_and_of_the_top_cell_vanish(name, parabolic):
    ring = product_ring(name, parabolic)
    d = DivisorClass(free_weights((1, 2, 3, 1)[:ring.rank], parabolic))
    for x in (ring.zero(), ring.point_class(), ring.point_class() * -3):
        got = ring.chevalley(d, x)
        assert got.is_zero and got.ring is ring and got == oracle_chevalley(ring, d, x)


@pytest.mark.parametrize("name, parabolic", PRODUCT_CASES)
def test_layer_offsets_are_the_first_cell_of_each_layer(name, parabolic):
    ring = product_ring(name, parabolic)
    layers = ring.table.layers
    offsets = ring.quotient.offsets
    assert offsets[:ring.dimension + 1] == [layers.index(n) for n in range(ring.dimension + 1)]
    assert offsets[ring.dimension + 1:] == [len(ring)] * 2


@pytest.mark.parametrize(
    "argv",
    (
        ["weyl-order", "B3"],
        ["cosets", "G2", "--parabolic", "1"],
        ["cosets", "B3", "--parabolic", "1,3", "--format", "json"],
        ["poincare", "F4", "--parabolic", "2,3"],
        ["poincare", "G2", "--at", "2"],
    ),
)
def test_counts_leave_the_tables_alone(monkeypatch, capsys, argv):
    groups = []
    real = cli._group
    monkeypatch.setattr(cli, "_group", lambda ns: groups.append(real(ns)) or groups[-1])
    assert run(argv) == 0
    assert capsys.readouterr().out
    assert len(groups) == 1 and tabled(groups[0]) == []


@pytest.mark.parametrize("name", SMALL)
def test_divisors_are_the_cells_of_one_letter(name):
    g = shared_group(name)
    for parabolic in all_parabolics(g.rank):
        ring = SchubertRing(g, parabolic)
        for i in ring.free_nodes:
            omega = DivisorClass(int(j == i) for j in range(1, g.rank + 1))
            (k,) = ring.from_divisor(omega).coefficients()
            assert ring.words[k] == (i,), (parabolic, i)
        weights = free_weights(range(2, g.rank + 2), parabolic)
        got = ring.from_divisor(DivisorClass(weights)).coefficients()
        assert got == {ring.words.index((i,)): weights[i - 1] for i in ring.free_nodes}


@pytest.mark.parametrize("name", SMALL)
def test_pullback_keeps_every_word(name):
    # p* along G/Q -> G/P keeps each cell by its word (``lift``): every
    # canonical word of W^P is a canonical word of each finer W^Q
    g = shared_group(name)
    rings = {p: SchubertRing(g, p) for p in all_parabolics(g.rank)}
    for p, ring in rings.items():
        for q in all_parabolics(g.rank):
            if set(q) <= set(p):
                assert set(ring.words) <= set(rings[q].words), (p, q)


def test_basis_elements_are_the_groups_cells():
    for name in ("B3", "G2", "[[2,-1],[-3,2]]"):
        g = make_group(name)
        rings = [SchubertRing(g, p) for p in all_parabolics(g.rank)]
        bases = [ring.basis for ring in rings]
        # only the cells were made
        assert set(g._made.values()) == set().union(*bases)
        for ring, basis in zip(rings, bases):
            parabolic = ring.parabolic
            assert basis == g.min_coset_reps(parabolic)
            for k, w in enumerate(g.min_coset_reps(parabolic)):
                assert inverse_point(ring.basis[k]) == inverse_point(w)
                assert basis_index(ring, w) == k
                assert coefficient(sigma(ring, w), w) == 1


def top_degree(g, parabolic):
    ring = SchubertRing(g, parabolic)
    h = ring.ample_generator()
    x = ring.one()
    for _ in range(ring.dimension):
        x = ring.chevalley(h, x)
    return ring.integrate(x)


@pytest.mark.parametrize(
    "name, free, expected",
    (("E6", 1, 78), ("E7", 7, 13110), ("E8", 8, None), ("E8", 1, None)),
)
def test_e_series_degrees_through_the_ring(name, free, expected):
    g = WeylGroup(root_system(name), cap=10**9)
    parabolic = tuple(i for i in range(1, g.rank + 1) if i != free)
    if expected is None:
        weights = tuple(int(i == free) for i in range(1, g.rank + 1))
        expected = oracle_degree_closed_form(g, parabolic, weights)
    start = time.perf_counter()
    assert top_degree(g, parabolic) == expected
    assert time.perf_counter() - start < 1.0
    assert not g._made


# --- integer point codes ----------------------------------------------

SMALL_NAMED = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2",
)
G2_LITERALS = ("[[2,-1],[-3,2]]", "[[2,-3],[-1,2]]")


def code_cases():
    """(group name, parabolic): every parabolic of the small named types and
    of both G2 literals, and the maximal parabolics of E6."""
    for name in SMALL_NAMED + G2_LITERALS:
        for parabolic in all_parabolics(root_system(name).cartan.rank):
            yield name, parabolic
    for free in range(1, 7):
        yield "E6", tuple(i for i in range(1, 7) if i != free)


def tuple_cell_covers(ring, k, at):
    """The cover rule on point tuples at the cell k: (j, its pairings
    <w(omega_f), gamma_check> per free node f, read off ``_pairing``) for
    s_gamma mu = mu - q gamma, q = <mu, gamma_check> > 0, looked up as a
    tuple in ``at`` (point -> cell) and one layer up."""
    mu, ps, covers = ring.quotient.coords[k * ring.rank:(k + 1) * ring.rank], ring._pairing(k), []
    up = len(ring.words[k]) + 1
    rs = ring.group.root_system
    for n, (coroot, weight) in enumerate(zip(rs.coroots, rs.weights)):
        q = sum(a * b for a, b in zip(mu, coroot))
        if q > 0:
            j = at[tuple(a - q * b for a, b in zip(mu, weight))]
            if len(ring.words[j]) == up:
                covers.append((j, tuple(p[n] for p in ps)))
    return covers


def tuple_covers(ring):
    """Per cell, its covers by the tuple rule."""
    at = {mu: j for j, mu in enumerate(ring.quotient.points())}
    return [tuple_cell_covers(ring, k, at) for k in range(len(ring))]


def pairing_product(ring, d, x):
    """d . x by the tuple covers, <w lambda, gamma_check> summed as
    sum(map(mul, lam, pairs)) per cover: the coefficients, zeros dropped."""
    at = {mu: j for j, mu in enumerate(ring.quotient.points())}
    lam = [d.weights[f - 1] for f in ring.free_nodes]
    out = {}
    for k, c in x.coefficients().items():
        for j, pairs in tuple_cell_covers(ring, k, at):
            out[j] = out.get(j, 0) + c * sum(map(mul, lam, pairs))
    return {j: c for j, c in out.items() if c}


def class_parts(ring):
    """Each cover's class index mapped back to its free-node part."""
    parts = list(ring.table.classes)
    assert list(ring.table.classes.values()) == list(range(len(parts)))
    assert ring.table.columns == tuple(zip(*parts))
    return [[(j, parts[i]) for j, i in ring._covers(k)] for k in range(len(ring))]


def tuple_push_targets(ring, node, target):
    """Per cell, its pushforward on point tuples: w(omega_P') =
    mu - w(omega_node), found among the target's points."""
    at = {mu: j for j, mu in enumerate(target.quotient.points())}
    simple = [a for a, _ in ring.group.root_moves]
    drop = ring.dimension - target.dimension
    out = []
    for k, mu in enumerate(ring.quotient.points()):
        p = ring._pairing(k)[ring.free_nodes.index(node)]
        j = at[tuple(m - p[a] for m, a in zip(mu, simple))]
        out.append({j: 1} if len(target.words[j]) == len(ring.words[k]) - drop else {})
    return out


def codes_with_radix(g, radix):
    powers = tuple(radix**i for i in range(g.rank))
    return powers, tuple(sum(map(mul, w, powers)) for w in g.root_system.weights)


def coroot_height(g):
    return max(map(sum, g.root_system.coroots))


def test_code_covers_and_pushforward_match_tuple_lookup():
    groups = {}
    for name, parabolic in code_cases():
        g = groups.setdefault(name, make_group(name))
        ring = SchubertRing(g, parabolic)
        got = class_parts(ring)
        for k, covers in enumerate(tuple_covers(ring)):
            assert got[k] == covers, (name, parabolic, k)
        for i in ring.free_nodes:
            target = SchubertRing(g, parabolic + (i,))
            for k, pushed in enumerate(tuple_push_targets(ring, i, target)):
                got = pushforward(CohomologyElement(ring, {k: 1}), i, target)
                assert got.coefficients() == pushed, (name, parabolic, k, i)


def class_cases():
    """(group name, parabolic): every parabolic of SMALL and of E6."""
    for name in SMALL + ("E6",):
        for parabolic in all_parabolics(root_system(name).cartan.rank):
            yield name, parabolic


def test_classes_are_the_free_parts_of_the_positive_coroots():
    groups = {}
    for name, parabolic in class_cases():
        g = groups.setdefault(name, WeylGroup(root_system(name), cap=10**9))
        ring = SchubertRing(g, parabolic)
        rs = g.root_system
        coroots = [coroot_coordinates(rs, beta) for beta in rs.positive_roots]
        free = [f - 1 for f in ring.free_nodes]
        want = {tuple(c[f] for f in free) for c in coroots} - {(0,) * len(free)}
        assert set(ring.table.classes) == want, (name, parabolic)
        assert sorted(ring.table.classes.values()) == list(range(len(want))), (name, parabolic)
        assert g.quotient(ring.parabolic).table.classes is ring.table.classes


def test_a_cover_outside_the_classes_raises():
    # the covers of the identity of G/B are the simple reflections, whose
    # class is a unit vector: without it no product leaves the identity
    g = make_group("B3")
    ring = SchubertRing(g, ())
    del ring.table.classes[(1, 0, 0)]
    with pytest.raises(ConventionError, match="not the free part of a positive coroot"):
        ring.chevalley(DivisorClass((1, 1, 1)), ring.one())
    assert ring.table.covers[0] is None


def test_codes_from_the_parent_are_the_radix_sums():
    groups = {}
    for name, parabolic in code_cases():
        g = groups.setdefault(name, make_group(name))
        ring = SchubertRing(g, parabolic)
        powers = g.point_codes[0]
        want = [sum(c * r for c, r in zip(mu, powers)) for mu in ring.quotient.points()]
        assert ring.table.codes == want, (name, parabolic)


def test_orbit_coordinates_are_bounded_by_the_coroot_height():
    cases = list(code_cases()) + [
        ("E7", tuple(range(1, 7))),
        ("E8", tuple(range(1, 8))),
    ]
    groups = {}
    for name, parabolic in cases:
        g = groups.setdefault(name, WeylGroup(root_system(name), cap=10**9))
        h = coroot_height(g)
        assert g.point_codes == codes_with_radix(g, 2 * h + 1), name
        points = g.quotient(parabolic).points()
        assert max(abs(c) for mu in points for c in mu) <= h, (name, parabolic)
        if not parabolic:
            # the orbit of rho reaches the bound: <rho, theta_check> = ht(theta_check)
            assert max(max(mu) for mu in points) == h, name


@pytest.mark.parametrize("name", ("A3", "B3", "G2", "[[2,-1],[-3,2]]", "F4"))
def test_a_radix_too_small_raises_or_is_harmless(name):
    h = coroot_height(make_group(name))
    for radix in range(1, 2 * h + 1):
        g = make_group(name)
        g.__dict__["point_codes"] = codes_with_radix(g, radix)
        for parabolic in all_parabolics(g.rank):
            weights = free_weights((1,) * g.rank, parabolic)
            try:
                ring = SchubertRing(g, parabolic)
            except ConventionError as exc:
                assert "point codes collide" in str(exc)
                # a build that raises keeps nothing, so the next one raises too
                assert g.quotient(parabolic).table is None
                with pytest.raises(ConventionError, match="point codes collide"):
                    SchubertRing(g, parabolic)
                continue
            # the codes are injective on this orbit, so every lookup is right
            assert len(set(ring.table.codes)) == len(ring)
            x = ring.one()
            for _ in range(ring.dimension):
                x = ring.chevalley(DivisorClass(weights), x)
            assert ring.integrate(x) == oracle_degree_closed_form(g, parabolic, weights)
    g = make_group(name)
    g.__dict__["point_codes"] = codes_with_radix(g, 1)
    for _ in range(2):
        with pytest.raises(ConventionError, match="point codes collide"):
            SchubertRing(g, ())
        assert tabled(g) == []


@pytest.mark.parametrize("name", ("G2", "B3"))
def test_a_bad_fiber_node_is_named(name):
    # the fibre node is checked as such before any quotient is read
    g = make_group(name)
    rank = g.rank
    flag, base = SchubertRing(g, ()), SchubertRing(g, (1,))
    kept = dict(g._quotients)
    for bad, message in (
        (0, f"fiber node 0 out of range 1..{rank}"),
        (rank + 1, f"fiber node {rank + 1} out of range 1..{rank}"),
        (True, "fiber node must be an int, got bool True"),
        ("1", "fiber node must be an int, got str '1'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            pushforward(flag.one(), bad, base)
        fresh = make_group(name)
        with pytest.raises(ValueError, match=re.escape(message)):
            chern_of_pushforward_bundle(fresh, bad)
        assert fresh._quotients == {} and g._quotients == kept, bad


def test_pushforward_rejects_other_targets():
    g = make_group("G2")
    flag = SchubertRing(g, ())
    zeta = flag.from_divisor(DivisorClass((1, 1)))
    base = SchubertRing(g, (1,))
    assert pushforward(zeta, 1, base) == base.one()
    twin = WeylGroup(root_system("G2"))
    for target in (flag, SchubertRing(g, (2,)), SchubertRing(twin, (1,))):
        with pytest.raises(ValueError):
            pushforward(zeta, 1, target)
    with pytest.raises(ValueError):
        pushforward(zeta, 3, SchubertRing(g, (1, 2)))


def test_bools_and_non_ints_are_refused():
    g = make_group("G2")
    for bad in ((True, 2), (1.0, 2), ("1", 2)):
        with pytest.raises(ValueError, match="divisor weights must be ints"):
            DivisorClass(bad)
    for bad in ([True], [1.0], [False, 2], ["1"]):
        with pytest.raises(ValueError, match="parabolic node must be an int") as info:
            g.normalize_parabolic(bad)
        assert "out of range" not in str(info.value)
        with pytest.raises(ValueError, match="must be an int"):
            SchubertRing(g, bad)
    with pytest.raises(ValueError, match="out of range 1..2"):
        g.normalize_parabolic([3])
    with pytest.raises(ValueError, match="node index must be an int"):
        generator(g, True)
    with pytest.raises(ValueError, match="letter must be an int"):
        g.from_word([1, True])
    with pytest.raises(ValueError, match="must be an int"):
        pushforward(SchubertRing(g, ()).one(), True, SchubertRing(g, (1,)))
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        degree_of_zero_locus(g, True)
    with pytest.raises(ValueError, match="node index must be an int"):
        generator(g, 1.0)
    with pytest.raises(ValueError, match="node index 3 out of range 1..2"):
        generator(g, 3)
