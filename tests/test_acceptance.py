"""Acceptance gate: the seven headline checks, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; every
check also carries a plain assert so the suite fails loudly.
"""

import random
import time

from g2pair.errors import PoincareMismatchError
from g2pair.grothring import MotivicClass, verify_g2_identity
from g2pair.motive import L, LPolynomial, poincare_polynomial
from g2pair.replay import check_certificate
from g2pair.rootsys import root_system
from g2pair.schubert import (
    DivisorClass,
    SchubertRing,
    chern_of_pushforward_bundle,
    degree_of_zero_locus,
    pushforward,
)
from g2pair.weyl import WeylGroup
from weyl_oracles import (
    degree,
    elements,
    generator,
    is_palindromic,
    length_bijection,
    lift,
    order,
    parabolic_elements,
    sigma,
)

atom = MotivicClass.atom

P5 = LPolynomial({k: 1 for k in range(6)})


def make_group(name):
    return WeylGroup(root_system(name))


def report(num, label, ok):
    print(f"criterion {num}: {label} ... {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_group_order():
    t0 = time.perf_counter()
    g = make_group("G2")
    elapsed = time.perf_counter() - t0
    rotation = generator(g, 1) * generator(g, 2)
    ok = g.order == 12 and order(rotation) == 6 and elapsed < 1.0
    report(1, "W(G2) has order 12, s1*s2 has order 6, enumerated under 1s", ok)


def test_criterion_2_coset_lists():
    g = make_group("G2")
    names1 = [w.name for w in g.min_coset_reps((1,))]
    names2 = [w.name for w in g.min_coset_reps((2,))]
    bij = length_bijection(g, (1,), (2,))
    ok = (
        names1
        == ["e", "s2", "s1*s2", "s2*s1*s2", "s1*s2*s1*s2", "s2*s1*s2*s1*s2"]
        and names2
        == ["e", "s1", "s2*s1", "s1*s2*s1", "s2*s1*s2*s1", "s1*s2*s1*s2*s1"]
        and bij.ok
        and bij.lengths_left == (0, 1, 2, 3, 4, 5)
        and bij.pairs == tuple(zip(bij.left, bij.right))
        and all(a.length == b.length for a, b in bij.pairs)
    )
    report(2, "coset lists match on both sides and pair off j-th with j-th", ok)


def test_criterion_3_cell_counts():
    g = make_group("G2")
    f1 = poincare_polynomial(g, (1,))
    f2 = poincare_polynomial(g, (2,))
    flag = poincare_polynomial(g, ())
    ok = f1 == P5 and f2 == P5 and flag == (1 + L) * P5 and degree(flag) == 6
    report(3, "cell counts: both quotients 1+L+...+L^5, flag (1+L) times that", ok)


def test_criterion_4_identity_replayed():
    g = make_group("G2")
    f1 = poincare_polynomial(g, (1,))
    f2 = poincare_polynomial(g, (2,))
    cert = verify_g2_identity(f1, f2)
    diff = check_certificate(cert)  # independent replay of every step
    multiplied_only = diff == (atom("X", 1) - atom("Y", 1)).coefficients() and all(
        power >= 1 for (_, power) in diff
    )
    mismatch_named = False
    try:
        verify_g2_identity(f1, f1 + LPolynomial.lefschetz(6))
    except PoincareMismatchError as exc:
        mismatch_named = exc.residual == atom("F1") - atom("F2")
    ok = (
        cert.final_line == "L*([X] - [Y]) = 0"
        and multiplied_only
        and mismatch_named
    )
    report(4, "L*([X] - [Y]) = 0 derived and replay-checked, mismatch named", ok)


def test_criterion_5_degrees():
    g = make_group("G2")
    t0 = time.perf_counter()
    d1 = degree_of_zero_locus(g, 1)
    d2 = degree_of_zero_locus(g, 2)
    elapsed = time.perf_counter() - t0
    ok = d1 == 42 and d2 == 14 and elapsed < 1.0
    report(5, "zero-locus degrees 42 and 14, computed under 1s", ok)


def transposition(n, k):
    p = list(range(n))
    p[k], p[k + 1] = p[k + 1], p[k]
    return tuple(p)


def compose(p, q):
    return tuple(p[q[k]] for k in range(len(p)))


def perm_of(w, n):
    perm = tuple(range(n))
    for i in w.word:
        perm = compose(perm, transposition(n, i - 1))
    return perm


def test_criterion_6_oracle_suites():
    rng = random.Random(20250819)
    factorial = [1, 1, 2, 6, 24, 120]
    iso_ok = True
    checks = 0
    for n in (1, 2, 3, 4):
        g = make_group(f"A{n}")
        perms = {w: perm_of(w, n + 1) for w in elements(g)}
        iso_ok = iso_ok and len(set(perms.values())) == factorial[n + 1]
        iso_ok = iso_ok and g.order == factorial[n + 1]
        for _ in range(250):
            u = rng.choice(elements(g))
            v = rng.choice(elements(g))
            iso_ok = iso_ok and perms[u * v] == compose(perms[u], perms[v])
            checks += 1

    a2 = make_group("A2")
    ring = SchubertRing(a2, ())
    x = ring.one()
    for _ in range(3):
        x = ring.chevalley(DivisorClass((1, 1)), x)
    flag_degree_ok = ring.integrate(x) == 6

    f1 = poincare_polynomial(make_group("G2"), (1,))
    counts_ok = all(
        f1.evaluate(q) == (q**6 - 1) // (q - 1) for q in (2, 3, 4, 5)
    )

    ok = iso_ok and checks == 1000 and flag_degree_ok and counts_ok
    report(
        6,
        "oracles: W(A_n) = S_(n+1) with 1000 product checks, A2 flag "
        "degree 6, point counts at q = 2,3,4,5",
        ok,
    )


def test_criterion_7_property_suites():
    palindromic_ok = True
    factorization_ok = True
    for name in ("A2", "B2", "G2"):
        g = make_group(name)
        for parabolic in ((), (1,), (2,), (1, 2)):
            poly = poincare_polynomial(g, parabolic)
            palindromic_ok = palindromic_ok and is_palindromic(poly)
            reps = g.min_coset_reps(parabolic)
            sub = parabolic_elements(g, parabolic)
            factorization_ok = (
                factorization_ok and len(reps) * len(sub) == g.order
            )

    g2 = make_group("G2")
    flag = SchubertRing(g2, ())
    projection_ok = True
    for fiber in (1, 2):
        base = SchubertRing(g2, (fiber,))
        d = base.ample_generator()
        for w in flag.basis:
            x = sigma(flag, w)
            left = pushforward(flag.chevalley(d, x), fiber)
            right = base.chevalley(d, pushforward(x, fiber))
            projection_ok = projection_ok and left == right

    relation_ok = True
    zeta = DivisorClass((1, 1))
    for fiber in (1, 2):
        c1, c2 = chern_of_pushforward_bundle(g2, fiber)
        z1 = flag.chevalley(zeta, flag.one())
        z2 = flag.chevalley(zeta, z1)
        residual = (
            z2 - flag.chevalley(zeta, lift(c1, flag)) + lift(c2, flag)
        )
        relation_ok = relation_ok and not residual

    ok = palindromic_ok and factorization_ok and projection_ok and relation_ok
    report(
        7,
        "properties: palindromic cell counts, |W^P|*|W_P| = |W|, projection "
        "formula on H*(G2/B), rank-2 relation closes for both bundles",
        ok,
    )
