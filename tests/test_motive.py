"""L-polynomial arithmetic and flag variety cell counts."""

import pytest

from g2pair.motive import (
    L,
    LPolynomial,
    poincare_polynomial,
    projective_bundle_poly,
)
from g2pair.rootsys import root_system
from g2pair.weyl import WeylGroup
from weyl_oracles import subgroup_length_poly


def make_group(name):
    return WeylGroup(root_system(name))


P5 = LPolynomial({k: 1 for k in range(6)})


def test_constructors():
    assert LPolynomial.zero().is_zero
    assert LPolynomial.one() == 1
    assert L == LPolynomial({1: 1})
    assert LPolynomial({0: 1, 2: 0}) == LPolynomial.one()  # zero dropped
    assert LPolynomial([(1, 2), (1, 3)]) == LPolynomial({1: 5})  # merged
    with pytest.raises(ValueError):
        LPolynomial({-1: 1})


def test_arithmetic():
    p = 1 + L
    assert p * p == 1 + 2 * L + L**2
    assert p - p == LPolynomial.zero()
    assert (1 + L) * (1 - L) == 1 - L**2
    assert L**0 == 1
    assert 2 - L == LPolynomial({0: 2, 1: -1})
    assert -(1 - L) == L - 1


def test_equal_values_hash_equal():
    # a constant polynomial equals its int, so sets and dicts must agree
    assert len({1, LPolynomial.one()}) == 1
    assert {LPolynomial.one(): "x"}.get(1) == "x"
    assert {0: "z"}.get(LPolynomial.zero()) == "z"
    assert hash(LPolynomial({0: -7})) == hash(-7)
    assert len({L, LPolynomial.lefschetz(), 1 + L, L + 1}) == 2


def test_pow_and_degree():
    assert (L**3).degree() == 3
    assert LPolynomial.zero().degree() is None
    with pytest.raises(ValueError):
        L ** (-1)


def test_str_formats():
    assert str(P5) == "1 + L + L^2 + L^3 + L^4 + L^5"
    assert str(LPolynomial.zero()) == "0"
    assert str(2 * L**3) == "2*L^3"
    assert str(1 - L) == "1 - L"
    assert str(LPolynomial({0: -1, 1: 1})) == "-1 + L"
    assert str(1 + 2 * L + 2 * L**2 + 2 * L**3 + 2 * L**4 + 2 * L**5 + L**6) == (
        "1 + 2*L + 2*L^2 + 2*L^3 + 2*L^4 + 2*L^5 + L^6"
    )


def test_pairs_round_trip():
    p = 3 - 2 * L**4 + L**7
    assert LPolynomial.from_pairs(p.to_pairs()) == p


@pytest.mark.parametrize("pairs", ([[1.5, 2]], [[1, 2.0]], [["1", 2]], [[True, 2]], [[1, False]]))
def test_pairs_are_read_without_coercion(pairs):
    # int() would read [[1.5, 2]] as 2*L
    with pytest.raises(ValueError, match="degrees and coefficients must be integers"):
        LPolynomial.from_pairs(pairs)


def test_polynomial_keys_refuse_bools():
    assert LPolynomial({1: 2}) == 2 * L
    for bad in ({True: 2}, {1: True}):
        with pytest.raises(ValueError, match="degrees and coefficients must be integers"):
            LPolynomial(bad)


def test_evaluate_exact():
    assert P5.evaluate(2) == 63
    q = 10**6
    assert (1 + L).evaluate(q) == q + 1
    assert (L**5).evaluate(q) == q**30 // q**25  # exact huge integers
    with pytest.raises(ValueError):
        P5.evaluate(1.5)


def test_point_counts_projective_five_space():
    g = make_group("G2")
    p = poincare_polynomial(g, (1,))
    for q in (2, 3, 4, 5):
        assert p.evaluate(q) == (q**6 - 1) // (q - 1)


def test_g2_quotients_equal_p5():
    g = make_group("G2")
    assert poincare_polynomial(g, (1,)) == P5
    assert poincare_polynomial(g, (2,)) == P5


def test_g2_flag_factors():
    g = make_group("G2")
    flag = poincare_polynomial(g, ())
    assert flag == (1 + L) * P5
    assert flag.degree() == 6
    assert flag.evaluate(1) == 12


def test_parabolic_factorization():
    # cell counts multiply: [G/B] = [G/P] * [P/B] in L-polynomials
    for name in ("A2", "B2", "G2", "A3"):
        g = make_group(name)
        full = poincare_polynomial(g, ())
        subsets = [()]
        for i in range(1, g.rank + 1):
            subsets += [s + (i,) for s in list(subsets)]
        for p in subsets:
            assert poincare_polynomial(g, p) * subgroup_length_poly(g, p) == full


def test_palindromic():
    for name in ("A2", "B2", "G2"):
        g = make_group(name)
        subsets = [(), (1,), (2,)]
        for p in subsets:
            assert poincare_polynomial(g, p).is_palindromic(), (name, p)
    assert not (1 + 2 * L).is_palindromic()
    assert LPolynomial.zero().is_palindromic()


def test_projective_bundle_poly():
    base = 1 + L + L**2
    assert projective_bundle_poly(base, 1) == base
    assert projective_bundle_poly(base, 2) == base * (1 + L)
    assert projective_bundle_poly(LPolynomial.one(), 6) == P5 + L**5 - L**5
    with pytest.raises(ValueError):
        projective_bundle_poly(base, 0)


def test_a2_quotients():
    g = make_group("A2")
    p2 = 1 + L + L**2
    assert poincare_polynomial(g, (1,)) == p2
    assert poincare_polynomial(g, (2,)) == p2
    assert poincare_polynomial(g, ()) == p2 * (1 + L)
