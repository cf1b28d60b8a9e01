"""Cell counts from the degrees against cell counts from the walk.

``poincare_polynomial`` divides prod [d_i]_L over the degrees of W by the
same product over the degrees of W_P and visits no cell.  Here it is
compared with the length counts of the omega_P walk, which builds every
minimal coset representative, and with W(L) = W^P(L) W_P(L), where
W_P(L) comes from enumerating the parabolic subgroup.  The names made
through the walk's parent links (``Quotient.names`` and the rows of the
``cosets`` document) are compared with ``word_name`` on the same walks.
The reach tests run the command line on E7 and E8 quotients that no walk
could visit in a second.
"""

import itertools
import json
import time
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2pair.cli import _json, _WalkRows, run
from g2pair.motive import LPolynomial, poincare_polynomial
from g2pair.rootsys import root_system
from g2pair.weyl import WeylGroup, word_name
from weyl_oracles import subgroup_length_poly

SMALL = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
    "F4", "G2", "[[2,-1],[-3,2]]", "[[2,0],[0,2]]",
)


@cache
def group(name):
    return WeylGroup(root_system(name))


def parabolics(rank):
    nodes = range(1, rank + 1)
    return [p for k in range(rank + 1) for p in itertools.combinations(nodes, k)]


def walked(g, nodes):
    return LPolynomial(Counter(map(len, g.quotient(nodes).words())))


@pytest.mark.parametrize("name", SMALL)
def test_counts_match_the_walk(name):
    g = group(name)
    full = poincare_polynomial(g, ())
    for p in parabolics(g.rank):
        cells = poincare_polynomial(g, p)
        assert cells == walked(g, p), p
        assert cells.to_pairs() == walked(g, p).to_pairs(), p
        assert cells.is_palindromic(), p
        assert cells * subgroup_length_poly(g, p) == full, p


@pytest.mark.parametrize("name", SMALL)
def test_names_match_word_name(name):
    g = group(name)
    for p in parabolics(g.rank):
        words = g.quotient(p).words()
        assert g.quotient(p).names() == [word_name(w) for w in words], p


@given(st.sets(st.integers(1, 6), min_size=3))
@settings(max_examples=12)
def test_e6_counts_and_names_match_the_walk(nodes):
    g = group("E6")
    cells = poincare_polynomial(g, nodes)
    assert cells == walked(g, nodes)
    assert cells.is_palindromic()
    words = g.quotient(nodes).words()
    assert g.quotient(nodes).names() == [word_name(w) for w in words]


def test_counts_leave_the_walks_alone():
    g = WeylGroup(root_system("E6"))
    assert poincare_polynomial(g, (2, 3)).evaluate(1) == 51840 // 4
    assert g._quotients == {}
    assert "elements" not in vars(g)


def row_names(letters, parents, offsets):
    rows = json.loads(_json({"rows": _WalkRows(letters, parents, offsets)}))["rows"]
    return [row["name"] for row in rows]


def test_names_need_each_suffix_first():
    # the parent link of a word points at its suffix word[1:], one layer down
    letters, offsets = [0, 1, 2, 1, 2], [0, 1, 2, 3, 5]
    assert row_names(letters, [-1, 0, 1, 2, 2], offsets) == [
        "e", "s1", "s2*s1", "s1*s2*s1", "s2*s2*s1"]
    assert row_names([], [], [0]) == []
    for parents in ([-1, 0, 1, 3, 2], [-1, 0, 1, 2, 4], [-1, 0, 1, 1, 2], [-1, 0, 1, -1, 2]):
        with pytest.raises(ValueError, match="outside layer"):
            row_names(letters, parents, offsets)
    with pytest.raises(ValueError, match="outside layer"):
        row_names([0, 1], [-1, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="disagree in length"):
        row_names(letters, [-1, 0, 1, 2], offsets)
    # an empty word is "e" whatever its link says
    assert row_names([0, 0, 1], [-1, 0, 1], [0, 2, 3]) == ["e", "e", "s1"]


@pytest.mark.parametrize(
    "argv, expected",
    (
        (["poincare", "E7", "--parabolic", "1", "--cap", "10000000", "--at", "1"], "1451520\n"),
        (["poincare", "E8", "--cap", "1000000000", "--at", "1"], "696729600\n"),
    ),
)
def test_e7_and_e8_cells_answer_at_once(capsys, argv, expected):
    t0 = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == expected
