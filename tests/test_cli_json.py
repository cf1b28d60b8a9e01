"""The command line's JSON writer against the standard library.

``cli._json`` must give the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` for every document the verbs can build, and refuse
what they never build.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2pair.cli import _json

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(tuple)
    | st.lists(st.integers() | st.booleans(), max_size=6)
    | st.dictionaries(st.text(), inner, max_size=6),
    max_leaves=40,
)


def stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@given(documents)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@example({"q\"uote": "back\\slash", "ctrl": "\x00\x1f\n\t\x7f", "é": "snow ☃ \U0001f600"})
@example([True, 1, False, 0, -1, 10**30])
@example([[1, 2], (3,), [True], [None, 1]])
def test_matches_json_dumps(doc):
    assert _json(doc) == stdlib(doc)


def test_a_cosets_shaped_document():
    doc = {
        "type": "D5",
        "parabolic": (1,),
        "count": 2,
        "representatives": [
            {"name": "e", "word": (), "length": 0},
            {"name": "s1", "word": (1,), "length": 1},
        ],
    }
    assert _json(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "doc",
    (
        1.5,
        {"x": 0.0},
        [1, 2.0],
        {1, 2},
        {"s": {1}},
        {1: "int key"},
        {"a": 1, 2: "mixed keys"},
        [object()],
    ),
)
def test_refuses_what_the_verbs_never_build(doc):
    with pytest.raises(TypeError):
        _json(doc)
