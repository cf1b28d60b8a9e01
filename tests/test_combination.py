"""Operand rules of the three integer-combination classes.

LPolynomial, MotivicClass and CohomologyElement share their linear
arithmetic; these checks pin which mixed operands each one accepts, so
that sharing the code does not widen or narrow what they combine with.
"""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2pair.grothring import MotivicClass
from g2pair.motive import L, LPolynomial
from g2pair.rootsys import root_system
from g2pair.schubert import CohomologyElement, DivisorClass, SchubertRing, pushforward
from g2pair.weyl import WeylGroup
from test_weyl_walk import SMALL, group
from weyl_oracles import layers

atom = MotivicClass.atom


def test_lpolynomial_absorbs_integers_only():
    assert isinstance(1 + L, LPolynomial)
    assert isinstance(L - 1, LPolynomial)
    assert isinstance(1 - L, LPolynomial)
    for op in (lambda: 1 + atom("X"), lambda: atom("X") + L, lambda: L + atom("X")):
        with pytest.raises(TypeError):
            op()


def test_classes_of_different_kinds_never_compare_equal():
    assert (atom("X") == LPolynomial({0: 1})) is False
    assert (LPolynomial({0: 1}) == MotivicClass.atom("1")) is False


def test_cohomology_elements_stay_in_their_ring():
    # one ring per quotient of one group: the same quotient of a second
    # group has equal cells but is another ring
    group = WeylGroup(root_system("G2"))
    a, b = SchubertRing(group, ()), SchubertRing(WeylGroup(root_system("G2")), ())
    assert SchubertRing(group, ()) is a and b is not a
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
    # a class shifts by L through times_L; it has no product by L
    with pytest.raises(TypeError):
        L * atom("X")
    with pytest.raises(TypeError):
        atom("X") * L


def test_lpolynomial_compares_unequal_to_bools():
    # True is an int to isinstance, but no constant polynomial
    one = LPolynomial({0: 1})
    assert (one == True) is False and (one != True) is True  # noqa: E712
    assert one not in [True] and {True: "a"}.get(one) is None
    assert one == 1 and {1: "a"}.get(one) == "a"
    for op in (lambda: L + True, lambda: True + L, lambda: L - False, lambda: L * True):
        with pytest.raises(TypeError):
            op()


def test_equal_values_hash_equal():
    assert hash(1 + L) == hash(LPolynomial({0: 1, 1: 1}))
    assert hash(atom("X") + atom("X")) == hash(atom("X", 0, 2))
    ring = SchubertRing(WeylGroup(root_system("A2")), ())
    assert hash(ring.one() * 2) == hash(ring.one() + ring.one())
    zero = CohomologyElement(ring, {})
    assert len({ring.one(), 1 * ring.one(), zero, ring.one() - ring.one()}) == 2


def test_every_combination_is_false_exactly_when_zero():
    ring = SchubertRing(WeylGroup(root_system("A2")), ())
    for zero, one in ((LPolynomial(), L), (MotivicClass(), atom("X")),
                      (CohomologyElement(ring, {}), ring.one())):
        assert not zero and not (one - one) and not 0 * one, type(zero)
        assert one and -one and 2 * one, type(zero)
        assert bool(zero) is False and bool(one) is True, type(zero)


@pytest.mark.parametrize(
    "coeffs",
    (
        lambda n: {-1: 1},
        lambda n: {n: 1},
        lambda n: {True: 1},
        lambda n: {1: 1.5},
        lambda n: {1: True},
        lambda n: {"a": 1},
    ),
    ids=("negative cell", "cell past the top", "bool cell", "float coefficient",
         "bool coefficient", "str cell"),
)
def test_cohomology_element_refuses_bad_terms(coeffs):
    # {-1: 1} used to pass as the top class of G2/P1 (printed, degree 5)
    # while integrate and chevalley read it as 0
    ring = SchubertRing(WeylGroup(root_system("G2")), (1,))
    with pytest.raises(ValueError):
        CohomologyElement(ring, coeffs(len(ring)))
    top = CohomologyElement(ring, {len(ring) - 1: 1})
    assert ring.integrate(top) == 1 and layers(top) == {ring.dimension}


# --- what the validating constructors accept: pinned for all three kinds ---


class Small(int):
    """An int subclass, accepted wherever an int is."""


G2_P1 = SchubertRing(WeylGroup(root_system("G2")), (1,))

# kind -> (constructor from data, the key of a term of index n)
KINDS = {
    "LPolynomial": (LPolynomial, lambda n: n),
    "MotivicClass": (MotivicClass, lambda n: ("X", n)),
    "CohomologyElement": (lambda data=None: CohomologyElement(G2_P1, data), lambda n: n),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", (True, False, 1.0, 2.5), ids=("True", "False", "1.0", "2.5"))
def test_constructors_refuse_bool_and_float_keys_and_coefficients(kind, bad):
    make, key = KINDS[kind]
    with pytest.raises(ValueError):
        make({key(bad): 1})
    with pytest.raises(ValueError):
        make({key(1): bad})
    with pytest.raises(ValueError):
        make([(key(1), 1), (key(2), bad)])


@pytest.mark.parametrize("kind", KINDS)
def test_constructors_accept_int_subclasses(kind):
    make, key = KINDS[kind]
    want = make({key(1): 3, key(2): -1})
    assert make({key(Small(1)): Small(3), key(2): Small(-1)}) == want
    assert make([(key(Small(2)), -1), (key(1), Small(3))]) == want


@pytest.mark.parametrize("kind", KINDS)
def test_constructors_accept_any_mapping_and_pairs(kind):
    make, key = KINDS[kind]
    want = make({key(1): 3, key(2): -1})
    assert make(types.MappingProxyType({key(2): -1, key(1): 3})) == want
    assert make([(key(2), -1), (key(1), 1), (key(1), 2), (key(3), 0)]) == want
    assert make(iter([(key(1), 3), (key(2), -1)])) == want
    assert list(want.coefficients()) == [key(1), key(2)]
    assert make(types.MappingProxyType({})) == make([]) == make({}) == make()


# --- results of arithmetic are built trusted; they must read as validated ---


def assert_canonical(r, kind):
    """r is of the given kind, its keys sorted, its coefficients nonzero
    ints, and it equals its validating reconstruction."""
    assert type(r) is kind
    assert list(r._terms) == sorted(r._terms)
    assert all(type(c) is int and c for c in r._terms.values())
    if kind is CohomologyElement:
        assert r == CohomologyElement(r.ring, r.coefficients())
    else:
        assert r == kind(r.coefficients())


small_ints = st.integers(-3, 3)
lpolys = st.dictionaries(st.integers(0, 6), small_ints, max_size=4).map(LPolynomial)
motives = st.dictionaries(
    st.tuples(st.sampled_from(("1", "X", "Y")), st.integers(0, 4)), small_ints, max_size=4
).map(MotivicClass)


@given(lpolys, lpolys, motives, motives, small_ints, st.integers(0, 3))
@settings(max_examples=200)
def test_polynomial_and_motive_results_are_canonical(p, q, x, y, n, k):
    for r in (p + q, p - q, -p, n * p, p * q, p * n, n - p):
        assert_canonical(r, LPolynomial)
    for r in (x + y, x - y, -x, x.times_L(k), x * n, n * x):
        assert_canonical(r, MotivicClass)


@st.composite
def ring_elements(draw):
    g = group(draw(st.sampled_from(SMALL)))
    parabolic = tuple(draw(st.sets(st.integers(1, g.rank), max_size=g.rank - 1)))
    ring = SchubertRing(g, parabolic)
    cells = st.integers(0, len(ring) - 1)
    x, y = (CohomologyElement(ring, draw(st.dictionaries(cells, small_ints, max_size=4)))
            for _ in range(2))
    weights = draw(st.tuples(*[st.integers(-2, 3)] * g.rank))
    d = DivisorClass(0 if i in ring.parabolic else c for i, c in enumerate(weights, start=1))
    node = draw(st.sampled_from(ring.free_nodes))
    return ring, x, y, d, node


@given(ring_elements(), small_ints)
@settings(max_examples=120)
def test_cohomology_results_are_canonical(case, n):
    ring, x, y, d, node = case
    target = SchubertRing(ring.group, ring.parabolic + (node,))
    for r in (x + y, x - y, -x, x * n, n * x, ring.chevalley(d, x)):
        assert_canonical(r, CohomologyElement)
        assert r.ring is ring
    pushed = pushforward(x, node)
    assert_canonical(pushed, CohomologyElement)
    assert pushed.ring is target
