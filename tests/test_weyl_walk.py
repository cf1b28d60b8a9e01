"""Orders from a degree table, coset words from the omega_P walk, caps from
the layer counts, and verbs that reach E7 and E8 without enumerating.

The degree table below is written out by hand from the classification,
so it shares no code with the library's reading of the degrees off the
root heights.  The coset words of the walk are compared with the
right-descent filter of the enumerated group, for every parabolic of the
small types and for parabolics of E6 drawn by hypothesis.  The walk's
words and points are compared with a plain reflect-then-check walk
(``weyl_oracles.reflect_then_slice_orbit``), and its parent links with
the words and first descents they must match.
"""

import itertools
import json
import math
import re
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2pair import cli
from g2pair.errors import CapExceededError, NotFiniteTypeError
from g2pair.rootsys import root_system
from g2pair.weyl import WeylGroup, word_name
from weyl_oracles import elements, has_right_descent, reflect_then_slice_orbit

EXCEPTIONAL = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
    "[[2,-1],[-3,2]]": (2, 6),
    "[[2,-3],[-1,2]]": (2, 6),
    "[[2,0],[0,2]]": (2, 2),
}


def degrees(name):
    if name in EXCEPTIONAL:
        return EXCEPTIONAL[name]
    letter, n = name[0], int(name[1:])
    if letter == "A":
        return tuple(range(2, n + 2))
    if letter in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    assert letter == "D"
    return tuple(range(2, 2 * n - 1, 2)) + (n,)


SMALL = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4",
    "D4", "D5", "F4", "G2", "[[2,-1],[-3,2]]", "[[2,-3],[-1,2]]", "[[2,0],[0,2]]",
)


@cache
def group(name, cap=10**9):
    return WeylGroup(root_system(name), cap=cap)


def subsets(rank):
    nodes = range(1, rank + 1)
    return [p for k in range(rank + 1) for p in itertools.combinations(nodes, k)]


def right_descent_filter(g, nodes):
    return tuple(w.word for w in elements(g) if not any(has_right_descent(w, i) for i in nodes))


@pytest.mark.parametrize("name", SMALL + ("E6", "E7", "E8"))
def test_order_is_product_of_degrees(name):
    g = WeylGroup(root_system(name), cap=10**9)
    assert g.order == math.prod(degrees(name))
    assert not g._made


def q_integers(degs):
    """Coefficients of prod over d of (1 + t + ... + t^(d-1))."""
    out = [1]
    for d in degs:
        out = [sum(out[max(0, k - d + 1):k + 1]) for k in range(len(out) + d - 1)]
    return out


def divide(num, den):
    """Exact quotient of two coefficient lists."""
    num, out = list(num), []
    for k in range(len(num) - len(den) + 1):
        q, r = divmod(num[k], den[0])
        assert r == 0
        out.append(q)
        for j, c in enumerate(den):
            num[k + j] -= q * c
    assert not any(num)
    return out


def cell_counts(g, nodes):
    counts = [0] * (max(map(len, g.quotient(nodes).words())) + 1)
    for word in g.quotient(nodes).words():
        counts[len(word)] += 1
    return counts


@pytest.mark.parametrize("name", SMALL)
def test_enumeration_matches_degrees(name):
    g = group(name)
    assert len(elements(g)) == math.prod(degrees(name))
    assert cell_counts(g, ()) == q_integers(degrees(name))


@given(st.sampled_from("ABCD"), st.integers(1, 8))
@settings(max_examples=40)
def test_named_family_orders(letter, n):
    n = max(n, {"A": 1, "B": 2, "C": 2, "D": 3}[letter])
    name = f"{letter}{n}"
    assert WeylGroup(root_system(name), cap=10**12).order == math.prod(degrees(name))


@pytest.mark.parametrize("name", SMALL)
def test_walk_words_are_the_right_descent_filter(name):
    g = group(name)
    for nodes in subsets(g.rank):
        words = g.quotient(nodes).words()
        assert words == right_descent_filter(g, nodes), (name, nodes)
        reps = g.min_coset_reps(nodes)
        assert tuple(w.word for w in reps) == words
        assert all(g.from_word(w.word) is w for w in reps)


@given(st.sets(st.integers(1, 6), max_size=5))
@settings(max_examples=8)
def test_e6_walk_words_are_the_right_descent_filter(nodes):
    g = group("E6")
    assert g.quotient(nodes).words() == right_descent_filter(g, nodes)


def walk_cases():
    """(name, parabolic): every parabolic of the small types, every maximal
    parabolic of E6, and E7/P7."""
    for name in SMALL:
        for nodes in subsets(root_system(name).rank):
            yield name, nodes
    for free in range(1, 7):
        yield "E6", tuple(i for i in range(1, 7) if i != free)
    yield "E7", tuple(range(1, 7))


def test_walk_matches_the_reflect_then_slice_oracle():
    for name, nodes in walk_cases():
        g = group(name)
        q = g.quotient(nodes)
        words, points, parents = q.words(), q.points(), q.parents
        assert (words, points) == reflect_then_slice_orbit(g, nodes), (name, nodes)
        assert len(parents) == len(words) and parents[0] == -1, (name, nodes)


def test_walk_links_name_the_canonical_parent():
    for name, nodes in walk_cases():
        q = group(name).quotient(nodes)
        words, points, parents = q.words(), q.points(), q.parents
        assert not words[0] and min(points[0]) >= 0
        for k in range(1, len(words)):
            p = parents[k]
            assert words[k] == (words[k][0],) + words[p], (name, nodes, k)
            assert 0 <= p < k and len(words[k]) == len(words[p]) + 1, (name, nodes, k)
            first = next(j for j, c in enumerate(points[k]) if c < 0)
            assert first == words[k][0] - 1 == q.letters[k] - 1, (name, nodes, k)
        # the offsets bound the layers: layer n is the words of length n
        lengths = [len(w) for w in words]
        assert q.offsets == [lengths.index(n) for n in range(lengths[-1] + 1)] + [len(words)] * 2


def test_the_kept_walk_of_e6_is_columns():
    # E6 G/B has 51,840 cells; kept as tuples of words and points its walk
    # took 18 MB, as letters, parent links and flattened points under 2 MB
    g = WeylGroup(root_system("E6"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        q = g.quotient(())
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(q) == len(q.parents) == len(q.coords) // 6 == 51840
    assert kept < 2 * 2**20, kept


def test_coset_walks_keep_the_links():
    g = WeylGroup(root_system("F4"))
    for nodes in subsets(4):
        q = g.quotient(nodes)
        letters, parents = q.letters, q.parents
        assert g.quotient(nodes) is q and g.quotient(nodes).letters is letters
        words = q.words()
        assert q.names() == [word_name(w) for w in words]
        assert all(words[k] == (letters[k],) + words[parents[k]] for k in range(1, len(q)))
    assert len(g._quotients) == 2**4


@pytest.mark.parametrize("name", ("G2", "B3", "F4"))
def test_every_spelling_of_a_parabolic_reads_one_walk(name):
    g = WeylGroup(root_system(name))
    q = g.quotient((1, 2))
    for spelling in ([2, 1, 1], (2, 1), iter((1, 2, 2)), {1: 0, 2: 0}):
        assert g.quotient(spelling) is q, spelling
    assert g.quotient([]) is g.quotient(()) and list(g._quotients) == [(1, 2), ()]


@pytest.mark.parametrize("name", ("G2", "B3", "F4"))
def test_one_quotient_per_spelling_and_none_for_a_refused_one(name):
    g = WeylGroup(root_system(name))
    rank = g.rank
    q = g.quotient((1, 2))
    spellings = ((1, 2), [1, 2], (2, 1), [2, 1, 2, 1], iter([2, 1]), {2: "x", 1: "y"}.keys(),
                 (n for n in (1, 2)))
    assert all(g.quotient(s) is q for s in spellings)
    assert g.quotient([]) is g.quotient(()) is g.quotient(iter(()))
    kept = dict(g._quotients)
    for bad in ([0], [rank + 1], [True], ["1"], (1, 0), [2, True], (1.0,), [1, "2"]):
        with pytest.raises(ValueError, match="parabolic node"):
            g.quotient(bad)
        assert g._quotients == kept, bad
    assert list(kept) == [(1, 2), ()] and kept[(1, 2)] is q


def test_coset_words_leave_the_group_unbuilt():
    g = WeylGroup(root_system("B3"))
    assert [len(w) for w in g.quotient((2, 3)).words()] == [0, 1, 2, 3, 4, 5]
    assert g.quotient(()).words() == g.quotient([]).words()
    assert not g._made
    reps = g.min_coset_reps((1,))
    assert set(g._made.values()) == set(reps)
    assert all(w.group is g for w in reps)


@pytest.mark.parametrize("name", ("A3", "B3"))
def test_cap_messages_follow_the_layers(name):
    layers = [0] * (elements(group(name))[-1].length + 1)
    for w in elements(group(name)):
        layers[w.length] += 1
    cumulative = list(itertools.accumulate(layers))
    for cap in range(1, cumulative[-1] + 1):
        if cap == cumulative[-1]:
            assert WeylGroup(root_system(name), cap=cap).order == cap
            continue
        k = next(k for k, total in enumerate(cumulative) if total > cap)
        with pytest.raises(CapExceededError) as info:
            WeylGroup(root_system(name), cap=cap)
        assert str(info.value) == (
            f"Weyl group enumeration exceeded cap {cap} "
            f"({cumulative[k]} elements through length {k})"
        )


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weyl_order_e8(capsys):
    code, out, _ = invoke(capsys, "weyl-order", "E8", "--cap", "1000000000")
    assert (code, out) == (0, "696729600\n")


def test_poincare_e8_maximal_parabolic(capsys):
    code, out, _ = invoke(
        capsys, "poincare", "E8", "--parabolic", "1,2,3,4,5,6,7",
        "--cap", "1000000000", "--format", "json",
    )
    assert code == 0
    pairs = json.loads(out)["pairs"]
    counts = [0] * (pairs[-1][0] + 1)
    for d, c in pairs:
        counts[d] = c
    assert sum(counts) == 240
    assert counts == counts[::-1]
    # the Levi of nodes 1..7 is E7: the cells are W(E8)/W(E7) by length
    assert counts == divide(q_integers(degrees("E8")), q_integers(degrees("E7")))


def test_weyl_order_e7_cap(capsys):
    code, out, err = invoke(capsys, "weyl-order", "E7")
    assert (code, out) == (1, "")
    assert "exceeded cap 1000000 (1064463 elements through length 28)" in err


@pytest.mark.parametrize(
    "literal",
    (
        "[[2,-3],[-3,2]]",
        "[[2,-2],[-2,2]]",
        "[[2,-1,-1],[-1,2,-1],[-1,-1,2]]",
        "[[2,-1,-1],[-2,2,-1],[-1,-1,2]]",  # not symmetrizable
    ),
)
def test_non_finite_literals_fail_before_generation(literal, capsys):
    with pytest.raises(NotFiniteTypeError):
        root_system(literal, cap=10**9)
    code, out, err = invoke(capsys, "roots", literal)
    assert (code, out) == (1, "")
    assert re.match(r"error: Cartan matrix is not (symmetrizable|of finite type)", err)


def positive_definite(a):
    """Oracle by floating-point eigenvalues of the symmetrized matrix."""
    np = pytest.importorskip("numpy")
    n = len(a)
    d = [1] + [0] * (n - 1)
    for _ in range(n):  # propagate d_j = d_i a_ij / a_ji along the diagram
        for i, j in itertools.permutations(range(n), 2):
            if d[i] and a[i][j] and not d[j]:
                d[j] = d[i] * a[i][j] / a[j][i]
    if not all(d):
        return False
    b = np.array([[d[i] * a[i][j] for j in range(n)] for i in range(n)])
    if not np.allclose(b, b.T):
        return False
    return bool(min(np.linalg.eigvalsh(b)) > 1e-9)


@st.composite
def connected_literals(draw):
    n = draw(st.integers(2, 3))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if j == i + 1 or draw(st.booleans()):
            a[i][j], a[j][i] = -draw(st.integers(1, 4)), -draw(st.integers(1, 4))
    return a


@given(connected_literals())
@settings(max_examples=60)
def test_random_literal_is_finite_exactly_when_positive_definite(a):
    literal = json.dumps(a)
    if positive_definite(a):
        g = WeylGroup(root_system(literal))
        assert g.order == len(elements(g))
    else:
        with pytest.raises(NotFiniteTypeError):
            root_system(literal, cap=10**9)
