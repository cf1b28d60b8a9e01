"""The command line's JSON writer against the standard library.

``cli._json`` must give the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` for every document the verbs can build, and refuse
what they never build.  Lists of dicts that share one key set ("rows")
get a strategy of their own, since random dictionaries almost never
share a key set; they go through the same writer as everything else.
The representatives of ``cosets`` reach the writer as the columns a
quotient keeps (``_WalkRows``: letters, parent links, layer offsets),
each name and word written from its parent's; random walks check them
against the dict rows they stand for, and every parabolic of the rank
2-5 types checks the verb itself.  Every other verb's printed document
is checked against the stdlib on the rank-2 types and on B4, F4, D5.
"""

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2pair.cli import _json, _WalkRows, run
from g2pair.rootsys import root_system
from g2pair.weyl import WeylGroup, word_name

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

# Keys and strings that need escapes, "%" (which a %-template would
# misread) or non-ASCII; the writer quotes keys and strings itself.
key_text = st.text(alphabet='ab%"\\\né☃', max_size=4)
escaped_text = st.text(alphabet='a%"\\\x00\x1f\n\té☃\U0001f600', max_size=5)
cell_kinds = (
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers() | st.booleans(),
    escaped_text,
    st.none(),
    st.dictionaries(key_text, scalars, max_size=3),
    st.lists(st.integers(min_value=-2, max_value=12), max_size=4),
    st.lists(st.integers(min_value=-2, max_value=12), max_size=4).map(tuple),
    st.lists(st.integers(min_value=0, max_value=3) | st.booleans(), max_size=3),
)


@st.composite
def walk_words(draw, n):
    """n int lists and tuples, each a letter plus an earlier one, in the
    order a walk of W/W_P lists its words (every suffix first)."""
    words = [()]
    while len(words) < n:
        words.append((draw(st.integers(min_value=0, max_value=9)),) + draw(st.sampled_from(words)))
    return [list(w) if draw(st.booleans()) else w for w in words]


@st.composite
def row_lists(draw):
    keys = draw(st.lists(key_text, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(min_value=1, max_value=8))
    columns = []
    for _ in keys:
        kind = draw(st.integers(min_value=0, max_value=len(cell_kinds) + 1))
        if kind == len(cell_kinds):
            columns.append(draw(walk_words(n)))
        else:
            cells = st.one_of(cell_kinds) if kind > len(cell_kinds) else cell_kinds[kind]
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    rows = [dict(zip(keys, cells)) for cells in zip(*columns)]
    # One row with a key the others lack, or without one they have.
    odd = draw(st.sampled_from(("none", "extra", "missing")))
    j = draw(st.integers(min_value=0, max_value=n - 1))
    if odd == "extra":
        rows[j]["z"] = draw(scalars)
    elif odd == "missing":
        del rows[j][keys[0]]
    return draw(st.sampled_from((rows, tuple(rows), {"rows": rows, "n": n}, [rows])))


def stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@given(documents)
@settings(max_examples=150)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@example({"q\"uote": "back\\slash", "ctrl": "\x00\x1f\n\t\x7f", "é": "snow ☃ \U0001f600"})
@example([True, 1, False, 0, -1, 10**30])
@example([[1, 2], (3,), [True], [None, 1]])
def test_matches_json_dumps(doc):
    assert _json(doc) == stdlib(doc)


@given(row_lists())
@settings(max_examples=300)
@example([{"w": ()}, {"w": (1,)}, {"w": [2, 1]}, {"w": (3, 2, 1)}, {"w": (1, 2)}])
@example([{"w": (1, 2)}, {"w": (3, True, 2)}])
@example([{"w": (1, 2)}, {"w": [3, 1, 2]}, {"w": (0, 3, 1, 2)}])
@example([{"%s": 1, "%%": "%d", '"': "é"}, {"%s": -2, "%%": "%", '"': "☃"}])
@example([{"b": True, "i": 1}, {"b": 0, "i": False}])
@example([{}, {}])
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([{"a": 1}, {"b": 1}])
def test_row_lists_match_json_dumps(doc):
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
    assert _json({"representatives": _WalkRows([], [], [0])}) == stdlib({"representatives": []})


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
        [{1: "a"}, {1: "b"}],
        [{"x": 1.5}, {"x": 2.5}],
        [{"w": (1, 2)}, {"w": (3, 1.0)}],
        [{"d": {"e": 0.5}}, {"d": {}}],
    ),
)
def test_refuses_what_the_verbs_never_build(doc):
    with pytest.raises(TypeError):
        _json(doc)


def parabolics(name, rank):
    """Every parabolic of a rank-``rank`` type, from () to all nodes."""
    nodes = range(1, rank + 1)
    return [(name, p) for k in range(rank + 1) for p in itertools.combinations(nodes, k)]


EVERY_PARABOLIC = [
    case
    for name, rank in (
        ("G2", 2), ("[[2,-1],[-3,2]]", 2), ("[[2,-3],[-1,2]]", 2), ("B3", 3), ("C3", 3),
        ("A4", 4), ("D4", 4), ("B4", 4), ("C4", 4), ("F4", 4), ("A5", 5), ("D5", 5),
    )
    for case in parabolics(name, rank)
]
FIRST_CASES = (
    [("D5", (k,)) for k in range(1, 6)]
    + [("F4", (k,)) for k in range(1, 5)]
    + [("E6", (2, 3, 4, 5, 6))]
)


@pytest.mark.parametrize(
    "name, nodes", FIRST_CASES + [c for c in EVERY_PARABOLIC if c not in FIRST_CASES]
)
def test_cosets_json_is_the_stdlib_dump(name, nodes, capsys):
    words = WeylGroup(root_system(name)).quotient(nodes).words()
    doc = {
        "type": name,
        "parabolic": list(nodes),
        "count": len(words),
        "representatives": [
            {"name": n, "word": list(w), "length": len(w)}
            for n, w in zip(map(word_name, words), words)
        ],
    }
    argv = ["cosets", name, "--parabolic", ",".join(map(str, nodes)), "--format", "json"]
    assert run(argv) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert run(argv[:-1] + ["text"]) == 0
    assert capsys.readouterr().out == "".join(word_name(w) + "\n" for w in words)


RANK2_TYPES = ("G2", "B2", "C2", "A2", "[[2,-1],[-3,2]]", "[[2,-3],[-1,2]]")
RANK2_ARGS = (
    ["roots"], ["weyl-order"],
    ["cosets", "--parabolic", "1"], ["cosets", "--parabolic", "2"],
    ["poincare"], ["poincare", "--parabolic", "1", "--at", "2"],
    ["verify-identity"], ["degree", "--side", "1"], ["degree", "--side", "2"],
    ["certificate"],
)
LARGER_ARGS = (
    ["roots"], ["weyl-order"],
    ["poincare", "--parabolic", "1"], ["poincare", "--parabolic", "2", "--at", "3"],
)
PRINTED = [
    [verb, name, *extra]
    for names, table in ((RANK2_TYPES, RANK2_ARGS), (("B4", "F4", "D5"), LARGER_ARGS))
    for name in names
    for verb, *extra in table
]


@pytest.mark.parametrize("argv", PRINTED, ids=" ".join)
def test_every_printed_document_is_the_stdlib_dump(argv, capsys):
    assert run(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@st.composite
def walks(draw):
    """The columns of a walk and the words they stand for: layer 0 is the
    empty word, and every cell of a later layer has a random letter and a
    parent in the layer below.  The offsets end with the cell count,
    once or three times as a Quotient keeps them."""
    letters, parents, offsets, words = [0], [-1], [0, 1], [()]
    for n in range(1, draw(st.integers(min_value=0, max_value=6)) + 1):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            p = draw(st.integers(min_value=offsets[n - 1], max_value=offsets[n] - 1))
            i = draw(st.integers())
            letters.append(i)
            parents.append(p)
            words.append((i,) + words[p])
        offsets.append(len(letters))
    if draw(st.booleans()):
        offsets += [len(letters)] * 2
    return (letters, parents, offsets), words


@given(st.data())
@settings(max_examples=200)
def test_walk_rows_match_json_dumps(data):
    columns, words = data.draw(walks())
    dicts = [{"length": len(w), "name": word_name(w), "word": list(w)} for w in words]
    depth = data.draw(st.integers(min_value=0, max_value=3))
    doc, want = _WalkRows(*columns), dicts
    for _ in range(depth):
        doc, want = {"rows": doc, "n": depth}, {"rows": want, "n": depth}
    assert _json(doc) == stdlib(want)
    assert _json([doc, doc]) == stdlib([want, want])


@given(walks(), st.data())
@settings(max_examples=200)
def test_broken_walk_rows_raise(walk, data):
    # a parent outside the layer below its cell, or a column shorter than
    # the offsets say, is refused; nothing is written
    (letters, parents, offsets), _ = walk
    if len(letters) > 1 and data.draw(st.booleans()):
        k = data.draw(st.integers(min_value=1, max_value=len(letters) - 1))
        n = next(n for n in range(len(offsets)) if offsets[n + 1] > k)
        below = range(offsets[n - 1], offsets[n])
        parents[k] = data.draw(
            st.integers(min_value=-1, max_value=len(letters)).filter(lambda p: p not in below)
        )
        match = "outside layer"
    else:
        column = data.draw(st.sampled_from((letters, parents)))
        del column[data.draw(st.integers(min_value=0, max_value=len(column) - 1))]
        match = "disagree in length"
    with pytest.raises(ValueError, match=match):
        _json({"representatives": _WalkRows(letters, parents, offsets)})
