"""The replay checker on printed certificate documents.

Every tamper of one scalar in the certificate that ``verify-identity
--format json`` prints, every missing key or wrong container, every
moved term, swapped, dropped or repeated step, and every final line but
the one the replayed difference proves must be refused with
ReplayError; and the checker must keep refusing when the class
arithmetic of the package is broken, since it shares none of it.
"""

import ast
import contextlib
import copy
import io
import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2pair.replay
from g2pair.cli import run
from g2pair.errors import ReplayError
from g2pair.grothring import (
    IdentityCertificate,
    MotivicClass,
    RewriteRule,
    blowup_rule,
    normal_form,
)
from g2pair.motive import Combination, L
from g2pair.replay import check_document

RANK2 = ("G2", "B2", "C2", "A2", "[[2,-1],[-3,2]]", "[[2,-3],[-1,2]]")
CERTIFIED = {("X", 1): 1, ("Y", 1): -1}


def printed_certificate(name, verb="verify-identity"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run([verb, name, "--format", "json"]) == 0
    return json.loads(out.getvalue())["certificate"]


def paths(node, path=()):
    """(path, value) of every node below the root, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from paths(value, path + (key,))


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def refused(doc):
    with pytest.raises(ReplayError):
        check_document(doc)


@pytest.mark.parametrize("name", RANK2)
def test_every_one_step_change_of_an_int_is_refused(name):
    doc = printed_certificate(name)
    assert check_document(doc) == CERTIFIED
    ints = [(p, v) for p, v in paths(doc) if type(v) is int]
    assert len(ints) >= 40
    for path, value in ints:
        for delta in (1, -1):
            refused(replaced(doc, path, value + delta))


@pytest.mark.parametrize("name", RANK2)
def test_every_scalar_of_the_wrong_type_is_refused(name):
    # a float, a numeric string or a bool where an int belongs; a number
    # or None where a symbol or justification belongs
    doc = printed_certificate(name)
    for path, value in paths(doc):
        if type(value) is int:
            for bad in (float(value), str(value), bool(value), not value):
                refused(replaced(doc, path, bad))
        elif isinstance(value, str):
            for bad in (7, None, [value]):
                refused(replaced(doc, path, bad))


@pytest.mark.parametrize("name", ("G2", "A2"))
def test_every_missing_key_or_wrong_container_is_refused(name):
    doc = printed_certificate(name)
    optional = {"justification", "final_line"}
    for path, value in paths(doc):
        if isinstance(path[-1], str) and path[-1] not in optional:
            short = copy.deepcopy(doc)
            node = short
            for key in path[:-1]:
                node = node[key]
            del node[path[-1]]
            refused(short)
        if isinstance(value, (dict, list)):
            for bad in ("x", 3, None, tuple(value), {} if isinstance(value, list) else []):
                refused(replaced(doc, path, bad))
    for bad in (None, [], "doc", 3):
        refused(bad)


@pytest.mark.parametrize("name", ("G2", "A2"))
def test_a_term_listed_twice_or_with_coefficient_zero_is_refused(name):
    # a document lists each (symbol, L-power) once: a repeat would let
    # the text show one coefficient while another is read
    doc = printed_certificate(name)
    for path, value in paths(doc):
        if path[-1] == "terms" and value:
            s, p, c = value[0]
            for extra in ([s, p, c], [s, p, 0], ["Z", 0, 0]):
                refused(replaced(doc, path, value + [extra]))


def test_a_final_line_that_divides_by_l_is_refused():
    # the certified identity is L*([X] - [Y]) = 0, never [X] - [Y] = 0;
    # a document without a final line still replays
    for name in RANK2:
        for verb in ("verify-identity", "certificate"):
            doc = printed_certificate(name, verb)
            assert doc["final_line"] == "L*([X] - [Y]) = 0"
            assert check_document(doc) == CERTIFIED
            for line in ("[X] - [Y] = 0", "L*([Y] - [X]) = 0", "L*[X] - L*[Y] = 0",
                         "L*([X] - [Y]) = 0 ", "L*([X]-[Y]) = 0", ""):
                refused(replaced(doc, ("final_line",), line))
            del doc["final_line"]
            assert check_document(doc) == CERTIFIED


@given(
    st.dictionaries(
        st.tuples(st.sampled_from(("1", "D1", "D2", "X")), st.integers(0, 3)),
        st.integers(-3, 3).filter(bool),
        max_size=5,
    )
)
@settings(max_examples=80)
def test_every_final_line_the_package_prints_replays(terms):
    # two chains from one start under different rules: their difference
    # takes any sign, L-power and pure part, or vanishes, and the line the
    # package prints for it must be the one replay renders
    start = MotivicClass(terms)
    cells = RewriteRule("F1", MotivicClass.from_lpoly(1 + 2 * L))
    left_final, left = normal_form(start, (blowup_rule("D1", "F1", "X"), cells))
    right_final, right = normal_form(start, (blowup_rule("D2", "F2", "Y"),))
    cert = IdentityCertificate(left, right, left_final - right_final)
    assert check_document(cert.to_json()) == cert.difference.coefficients()


@st.composite
def tampered(draw, doc, kind):
    """A copy of doc that says something else: one term moved to another
    L-power, two steps swapped, a step dropped or a step repeated."""
    out = copy.deepcopy(doc)
    steps = [(side, k) for side in ("left", "right") for k in range(len(out[side]["steps"]))]
    if kind == "move":
        classes = [v["terms"] for _, v in paths(out) if isinstance(v, dict) and v.get("terms")]
        term = draw(st.sampled_from(draw(st.sampled_from(classes))))
        term[1] = draw(st.integers(0, 9).filter(lambda p: p != term[1]))
    elif kind == "swap":
        (a, i), (b, j) = draw(st.lists(st.sampled_from(steps), min_size=2, max_size=2, unique=True))
        out[a]["steps"][i], out[b]["steps"][j] = out[b]["steps"][j], out[a]["steps"][i]
    else:
        side, k = draw(st.sampled_from(steps))
        chain = out[side]["steps"]
        if kind == "drop":
            del chain[k]
        else:
            chain.insert(draw(st.integers(0, len(chain))), copy.deepcopy(chain[k]))
    return out


def test_moved_terms_and_swapped_dropped_or_repeated_steps_are_refused():
    docs = {name: printed_certificate(name) for name in RANK2}

    @given(st.data())
    @settings(max_examples=20)
    def refuses_every_tampering(data):
        for name, doc in docs.items():
            for kind in ("move", "swap", "drop", "repeat"):
                refused(data.draw(tampered(doc, kind), label=f"{name} {kind}"))

    start = time.perf_counter()
    refuses_every_tampering()
    assert time.perf_counter() - start < 2


def test_replay_refuses_with_the_class_equality_broken(monkeypatch):
    doc = printed_certificate("G2")
    doc["left"]["steps"][1]["after"]["terms"][0][2] += 1
    monkeypatch.setattr(Combination, "__eq__", lambda self, other: True)
    with pytest.raises(ReplayError):
        check_document(doc)


def test_replay_imports_only_its_errors():
    tree = ast.parse(pathlib.Path(g2pair.replay.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", ".errors"}
