"""Weyl group enumeration, canonical words, cosets.

The type-A groups double as an oracle: W(A_n) is the symmetric group
S_{n+1} with s_i the adjacent transposition (i, i+1), so orders, lengths
(= inversion counts) and random products can all be cross-checked
against plain permutation arithmetic that shares no code with the
library.
"""

import math
import random
import time

import pytest

from g2pair.errors import CapExceededError
from g2pair.rootsys import root_system
from g2pair.weyl import WeylGroup, word_name
from weyl_oracles import (
    apply,
    element_by_matrix,
    element_matrix,
    inversion_length,
    parabolic_elements,
)


def make_group(name, cap=1_000_000):
    return WeylGroup(root_system(name), cap=cap)


# permutation oracle: tuples p with p[k] = image of k, composed as functions


def transposition(n, i):
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def compose(p, q):
    return tuple(p[q[k]] for k in range(len(p)))


def perm_of_word(n, word):
    p = tuple(range(n))
    for i in word:
        p = compose(p, transposition(n, i))
    return p


def inversions(p):
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])


def test_orders():
    assert make_group("A1").order == 2
    assert make_group("A2").order == 6
    assert make_group("A3").order == 24
    assert make_group("B2").order == 8
    assert make_group("B3").order == 48
    assert make_group("G2").order == 12
    assert make_group("[[2,0],[0,2]]").order == 4


def test_g2_rotation_order():
    g = make_group("G2")
    r = g.generator(1) * g.generator(2)
    assert r.order() == 6
    assert g.from_word([1, 2] * 6) == g.identity


def test_g2_canonical_words():
    g = make_group("G2")
    assert [w.name for w in g] == [
        "e",
        "s1",
        "s2",
        "s1*s2",
        "s2*s1",
        "s1*s2*s1",
        "s2*s1*s2",
        "s1*s2*s1*s2",
        "s2*s1*s2*s1",
        "s1*s2*s1*s2*s1",
        "s2*s1*s2*s1*s2",
        "s1*s2*s1*s2*s1*s2",
    ]


def test_word_name():
    assert word_name(()) == "e"
    assert word_name((1, 2, 1)) == "s1*s2*s1"


def test_symmetric_group_oracle():
    rng = random.Random(20250819)
    for n in (1, 2, 3, 4):
        g = make_group(f"A{n}")
        assert g.order == math.factorial(n + 1)
        table = {element_matrix(w): perm_of_word(n + 1, w.word) for w in g}
        assert len(set(table.values())) == g.order
        for w in g:
            assert inversions(table[element_matrix(w)]) == w.length
            assert inversion_length(g, w) == w.length
        for _ in range(250):
            u = [rng.randint(1, n) for _ in range(rng.randint(0, 10))]
            v = [rng.randint(1, n) for _ in range(rng.randint(0, 10))]
            eu, ev = g.from_word(u), g.from_word(v)
            assert table[element_matrix(eu * ev)] == compose(
                perm_of_word(n + 1, u), perm_of_word(n + 1, v)
            )
            assert eu * ev == g.from_word(u + v)


def test_lengths_are_inversion_counts():
    for name in ("B2", "B3", "G2"):
        g = make_group(name)
        for w in g:
            assert inversion_length(g, w) == w.length


def test_g2_coset_reps_side1():
    g = make_group("G2")
    names = [w.name for w in g.min_coset_reps((1,))]
    assert names == [
        "e",
        "s2",
        "s1*s2",
        "s2*s1*s2",
        "s1*s2*s1*s2",
        "s2*s1*s2*s1*s2",
    ]


def test_g2_coset_reps_side2():
    g = make_group("G2")
    names = [w.name for w in g.min_coset_reps((2,))]
    assert names == [
        "e",
        "s1",
        "s2*s1",
        "s1*s2*s1",
        "s2*s1*s2*s1",
        "s1*s2*s1*s2*s1",
    ]


def test_a2_coset_reps():
    g = make_group("A2")
    assert [w.name for w in g.min_coset_reps((1,))] == ["e", "s2", "s1*s2"]
    assert [w.name for w in g.min_coset_reps((2,))] == ["e", "s1", "s2*s1"]


def test_min_coset_reps_are_shortest_in_coset():
    # each coset w W_P contains exactly one listed rep, and it is shortest
    for name, nodes in (("A3", (1, 3)), ("B2", (2,)), ("G2", (1,))):
        g = make_group(name)
        reps = g.min_coset_reps(nodes)
        sub = parabolic_elements(g, nodes)
        seen = set()
        for r in reps:
            coset = {element_matrix(r * p) for p in sub}
            assert not (coset & seen)
            seen |= coset
            assert all(
                element_by_matrix(g, m).length >= r.length for m in coset
            )
        assert len(seen) == g.order


def test_length_bijection_g2():
    g = make_group("G2")
    bij = g.length_bijection((1,), (2,))
    assert bij.ok
    assert bij.lengths_left == (0, 1, 2, 3, 4, 5)
    assert bij.lengths_right == (0, 1, 2, 3, 4, 5)
    reps1 = g.min_coset_reps((1,))
    reps2 = g.min_coset_reps((2,))
    for j, (a, b) in enumerate(bij.pairs):
        assert a == reps1[j]
        assert b == reps2[j]
        assert a.length == b.length == j


def test_length_bijection_mismatch():
    g = make_group("G2")
    bij = g.length_bijection((1,), ())
    assert not bij.ok
    assert bij.pairs is None
    assert len(bij.lengths_right) == 12


def test_parabolic_order_factorization():
    for name in ("A2", "B2", "G2", "A3"):
        g = make_group(name)
        nodes = range(1, g.rank + 1)
        subsets = [()]
        for i in nodes:
            subsets += [s + (i,) for s in list(subsets)]
        for p in subsets:
            reps = g.min_coset_reps(p)
            sub = parabolic_elements(g, p)
            assert len(reps) * len(sub) == g.order, (name, p)


def test_longest_element():
    g2 = make_group("G2")
    w0 = g2.longest_element()
    assert w0.length == 6
    assert w0.name == "s1*s2*s1*s2*s1*s2"
    # -1 on the root lattice: every positive root goes negative
    for beta in g2.root_system.positive_roots:
        assert apply(w0, beta) == tuple(-x for x in beta)
    assert make_group("A2").longest_element().length == 3
    assert make_group("B2").longest_element().length == 4


def test_descents_match_length_drop():
    for name in ("B2", "G2"):
        g = make_group(name)
        for w in g:
            for i in (1, 2):
                drops = (w * g.generator(i)).length < w.length
                assert w.has_right_descent(i) == drops


def test_inverse_and_products():
    g = make_group("G2")
    for w in g:
        assert w * w.inverse() == g.identity
        assert w.inverse().length == w.length
    u, v = g.from_word([1, 2]), g.from_word([2, 1, 2])
    assert (u * v).inverse() == v.inverse() * u.inverse()


def test_from_word_reduces():
    g = make_group("G2")
    assert g.from_word([1, 1]) == g.identity
    assert g.from_word([2, 1, 1, 2]) == g.identity
    assert g.from_word([1, 2, 1, 2, 1, 2, 1]).name == "s2*s1*s2*s1*s2"
    with pytest.raises(ValueError):
        g.from_word([3])


def test_from_word_refuses_letter_zero():
    # a letter is not a Python index: 0 must not wrap round to the last node
    with pytest.raises(ValueError, match=r"letter 0 out of range 1\.\.2"):
        make_group("G2").from_word((0,))


def test_from_word_refuses_a_letter_past_the_rank():
    with pytest.raises(ValueError, match=r"letter 5 out of range 1\.\.2"):
        make_group("G2").from_word((5,))


def test_non_reduced_word_gives_the_canonical_element():
    g = make_group("G2")
    e = g.from_word((1, 1))
    assert e is g.identity
    assert (e.word, e.length, e.name) == ((), 0, "e")
    assert g.from_word((2, 1, 2, 1, 2, 1, 2)) is g.from_word((1, 2, 1, 2, 1))


@pytest.mark.parametrize("name", ("G2", "B3"))
def test_length_bijection_leaves_the_group_unbuilt(name):
    g = make_group(name)
    bij = g.length_bijection((1,), (2,))
    assert bij.left == g.min_coset_reps((1,)) and bij.right == g.min_coset_reps((2,))
    assert bij.lengths_left == tuple(w.length for w in bij.left)
    assert bij.lengths_right == tuple(w.length for w in bij.right)
    assert "elements" not in vars(g)


def test_element_api_reaches_e8_without_enumerating():
    start = time.perf_counter()
    g = make_group("E8", cap=10**9)
    assert g.from_word([1, 3]).order() == 3
    w0 = g.longest_element()
    assert w0.length == 120
    assert w0.y == (-1,) * 8
    assert w0.inverse() is g.longest_element()
    for i in range(1, 9):
        assert g.generator(i) * g.generator(i) is g.identity
    refl = g.reflections()
    assert len(refl) == 120
    assert all(t.order() == 2 for t in refl.values())
    assert time.perf_counter() - start < 1
    assert "elements" not in vars(g)


def test_reflections():
    g = make_group("G2")
    refl = g.reflections()
    assert len(refl) == 6
    assert refl[(1, 0)] == g.generator(1)
    assert refl[(0, 1)] == g.generator(2)
    assert refl[(1, 1)].name == "s1*s2*s1"
    assert refl[(1, 3)].name == "s2*s1*s2"
    assert refl[(1, 2)].name == "s2*s1*s2*s1*s2"
    assert refl[(2, 3)].name == "s1*s2*s1*s2*s1"
    for beta, t in refl.items():
        assert t.order() == 2
        assert apply(t, beta) == tuple(-x for x in beta)


def test_cap_exceeded():
    with pytest.raises(CapExceededError):
        make_group("A3", cap=10)


def test_lookup_errors():
    g = make_group("G2")
    with pytest.raises(ValueError):
        g.generator(0)
    with pytest.raises(ValueError):
        g.generator(3)
    with pytest.raises(ValueError):
        element_by_matrix(g, ((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        g.normalize_parabolic((5,))
    a2 = make_group("A2")
    with pytest.raises(ValueError):
        g.generator(1) * a2.generator(1)


def test_cap_error_reports_progress():
    # A3 layers by length: 1, 3, 5, 6, ...; the cap of 10 first breaks at
    # length 3, when 1 + 3 + 5 + 6 = 15 elements are known.
    with pytest.raises(CapExceededError, match=r"cap 10 \(15 elements through length 3\)"):
        make_group("A3", cap=10)
    with pytest.raises(CapExceededError, match=r"cap 4 \(9 elements through length 2\)"):
        make_group("A3", cap=4)
