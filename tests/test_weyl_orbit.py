"""Weyl elements as rho-orbit points, cross-checked against matrices.

The library identifies an element by w(rho) in weight coordinates, reads
right descents off w^-1(rho) and multiplies by folding words onto points.
Here every derived operation is recomputed through integer matrices on
the root lattice, built as products of simple-reflection matrices along
the word: descents are read off matrix columns, products and reflections
are matrix products looked up by matrix.  Every named type with
|W| <= 1920 is covered, plus the reducible literal A1 x A1.
"""

import math
import random

import pytest

from g2pair.motive import poincare_polynomial
from g2pair.rootsys import root_system
from g2pair.weyl import WeylGroup
from weyl_oracles import (
    bilinear,
    element_by_matrix,
    element_matrix,
    elements,
    has_right_descent,
    identity,
    inverse,
    inverse_point,
    is_palindromic,
    simple_root,
)

ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D4": 192, "D5": 1920, "F4": 1152, "G2": 12,
    "[[2,0],[0,2]]": 4,
}


@pytest.fixture(scope="module", params=tuple(ORDERS))
def named_group(request):
    return request.param, WeylGroup(root_system(request.param))


@pytest.fixture
def group(named_group):
    return named_group[1]


def identity_matrix(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )


def reflection_matrix(rs, beta):
    """s_beta on the root lattice: alpha_j - <alpha_j, beta_check> beta, with
    the pairing from the symmetrized form, (alpha_j, beta) = d_j (a^T beta)_j."""
    a, d = rs.cartan.entries, rs.cartan.symmetrizer
    n = rs.rank
    norm = bilinear(rs.cartan, beta, beta)
    pair = [2 * d[j] * sum(a[j][k] * beta[k] for k in range(n)) // norm for j in range(n)]
    return tuple(
        tuple(int(r == c) - pair[c] * beta[r] for c in range(n)) for r in range(n)
    )


def word_matrix(rs, word):
    m = identity_matrix(rs.rank)
    for i in word:
        m = matmul(m, reflection_matrix(rs, simple_root(rs, i)))
    return m


def test_order_and_matrices(named_group):
    name, group = named_group
    rs = group.root_system
    assert group.order == ORDERS[name]
    seen = set()
    for w in elements(group):
        assert element_matrix(w) == word_matrix(rs, w.word)
        assert element_by_matrix(group, element_matrix(w)) is w
        seen.add(element_matrix(w))
    assert len(seen) == group.order


def test_right_descents_match_matrix_columns(group):
    rank = group.rank
    for w in elements(group):
        for i in range(1, rank + 1):
            column_negative = all(row[i - 1] <= 0 for row in element_matrix(w))
            assert has_right_descent(w, i) == column_negative


def test_inverse_is_identity_product(group):
    ident = identity_matrix(group.rank)
    for w in elements(group):
        inv = inverse(w)
        assert inv.length == w.length
        assert w * inv == identity(group)
        assert inv * w == identity(group)
        assert matmul(element_matrix(w), element_matrix(inv)) == ident


def test_times_reflection_matches_matmul(group):
    rs = group.root_system
    data = tuple(zip(rs.positive_roots, rs.coroots, rs.weights))
    matrices = [reflection_matrix(rs, beta) for beta, _, _ in data]
    by_root = group.reflections()
    assert list(by_root) == list(rs.positive_roots)
    reflections = [by_root[beta] for beta, _, _ in data]
    for s_beta, m in zip(reflections, matrices):
        assert element_matrix(s_beta) == m
    for w in elements(group):
        x = inverse_point(w)
        for (_, coroot, weight), s_beta, m in zip(data, reflections, matrices):
            expected = element_by_matrix(group, matmul(element_matrix(w), m))
            # w * s_beta has x-point s_beta(x) = x - <x, beta_check> beta
            p = sum(a * b for a, b in zip(x, coroot))
            assert inverse_point(expected) == tuple(a - p * b for a, b in zip(x, weight))
            assert w * s_beta is expected


def test_root_moves_are_simple_reflections(group):
    rs = group.root_system
    roots = rs.positive_roots
    for i, (a, perm) in enumerate(group.root_moves, start=1):
        s_i = reflection_matrix(rs, simple_root(rs, i))
        assert roots[a] == simple_root(rs, i)
        assert sorted(perm) == list(range(len(roots)))
        for n, beta in enumerate(roots):
            image = tuple(sum(row[c] * beta[c] for c in range(rs.rank)) for row in s_i)
            assert image == (tuple(-x for x in beta) if n == a else roots[perm[n]])


def test_random_products_match_matmul(group):
    rng = random.Random(f"orbit-products:{group.order}:{group.rank}")
    listed = elements(group)
    for _ in range(300):
        u, v = rng.choice(listed), rng.choice(listed)
        assert u * v is element_by_matrix(group, matmul(element_matrix(u), element_matrix(v)))


def test_reflections_are_fresh_dicts(group):
    first = group.reflections()
    first.clear()
    assert len(group.reflections()) == len(group.root_system.positive_roots)


def test_e6_order_and_cayley_plane_cells():
    g = WeylGroup(root_system("E6"))
    degrees = (2, 5, 6, 8, 9, 12)
    assert g.order == math.prod(degrees) == 51840
    reps = g.min_coset_reps(range(2, 7))
    assert len(reps) == 27
    assert reps[-1].length == 16
    assert is_palindromic(poincare_polynomial(g, range(2, 7)))
