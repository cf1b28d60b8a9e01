"""Operand rules of the three integer-combination classes.

LPolynomial, MotivicClass and CohomologyElement share their linear
arithmetic; these checks pin which mixed operands each one accepts, so
that sharing the code does not widen or narrow what they combine with.
"""

import pytest

from g2pair.grothring import MotivicClass
from g2pair.motive import L, LPolynomial, projective_bundle_poly
from g2pair.rootsys import root_system
from g2pair.schubert import SchubertRing
from g2pair.weyl import WeylGroup

atom = MotivicClass.atom


def test_lpolynomial_absorbs_integers_only():
    assert isinstance(1 + L, LPolynomial)
    assert isinstance(L - 1, LPolynomial)
    assert isinstance(1 - L, LPolynomial)
    for op in (lambda: 1 + atom("X"), lambda: atom("X") + L, lambda: L + atom("X")):
        with pytest.raises(TypeError):
            op()


def test_classes_of_different_kinds_never_compare_equal():
    assert (atom("X") == LPolynomial.one()) is False
    assert (LPolynomial.one() == MotivicClass.atom("1")) is False


def test_l_multiplies_a_motivic_class_from_either_side():
    assert L * atom("X") == atom("X") * L == atom("X", 1)


def test_cohomology_elements_stay_in_their_ring():
    group = WeylGroup(root_system("G2"))
    a, b = SchubertRing(group, ()), SchubertRing(group, ())
    assert a.basis == b.basis
    with pytest.raises(ValueError):
        a.one() + b.one()
    with pytest.raises(ValueError):
        a.one() - b.one()
    assert (a.one() == b.one()) is False
    assert a.one() == a.one()


def test_non_integer_operands_rejected():
    ring = SchubertRing(WeylGroup(root_system("A2")), ())
    with pytest.raises(TypeError):
        1 - ring.one()
    with pytest.raises(TypeError):
        atom("X") * 1.5
    with pytest.raises(TypeError):
        ring.one() * 1.5
    with pytest.raises(TypeError):
        L * 1.5


@pytest.mark.parametrize(
    "op, message",
    (
        (lambda n: atom("X") * n, "coefficients must be integers"),
        (lambda n: SchubertRing(WeylGroup(root_system("G2")), ()).one() * n,
         "coefficients must be integers"),
        (lambda n: L**n, "exponent must be a nonnegative integer"),
        (lambda n: (1 + L).evaluate(n), "evaluation point must be an integer"),
        (lambda n: projective_bundle_poly(L, n), "bundle rank must be a positive integer"),
        (lambda n: atom("X").times_L(n), "L-power must be a nonnegative integer"),
    ),
)
def test_bool_operands_rejected(op, message):
    # True is an int to isinstance; read as 1 it would pass unnoticed
    op(1)
    with pytest.raises(ValueError, match=message):
        op(True)


def test_equal_values_hash_equal():
    assert hash(1 + L) == hash(LPolynomial({0: 1, 1: 1}))
    assert hash(atom("X") + atom("X")) == hash(atom("X", 0, 2))
    ring = SchubertRing(WeylGroup(root_system("A2")), ())
    assert hash(ring.one() * 2) == hash(ring.one() + ring.one())
    assert len({ring.one(), 1 * ring.one(), ring.zero(), ring.one() - ring.one()}) == 2


def test_boolean_value_only_on_lpolynomial():
    assert not LPolynomial.zero()
    assert L
    # MotivicClass and CohomologyElement keep default truthiness
    assert MotivicClass.zero()
    ring = SchubertRing(WeylGroup(root_system("A2")), ())
    assert ring.zero()
