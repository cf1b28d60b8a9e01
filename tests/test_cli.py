"""Command-line interface: exact output bytes, exit codes, JSON shapes.

run() is called in-process so stdout/stderr land in capsys; one test
goes through a real subprocess to cover the module entry point.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2pair
from g2pair.cli import run
from g2pair.errors import CapExceededError
from g2pair.grothring import IdentityCertificate, MotivicClass
from g2pair.replay import check_certificate
from g2pair.rootsys import root_system
from g2pair.weyl import WeylGroup

atom = MotivicClass.atom

P5_TEXT = "1 + L + L^2 + L^3 + L^4 + L^5"
FLAG_TEXT = "1 + 2*L + 2*L^2 + 2*L^3 + 2*L^4 + 2*L^5 + L^6"
COSETS_SIDE1 = "e\ns2\ns1*s2\ns2*s1*s2\ns1*s2*s1*s2\ns2*s1*s2*s1*s2\n"
COSETS_SIDE2 = "e\ns1\ns2*s1\ns1*s2*s1\ns2*s1*s2*s1\ns1*s2*s1*s2*s1\n"
FINAL_LINE = "L*([X] - [Y]) = 0"


DEEP_LITERAL = "[" * 2000 + "]" * 2000


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weyl_order(capsys):
    code, out, err = invoke(capsys, "weyl-order", "G2")
    assert (code, out, err) == (0, "12\n", "")


def test_weyl_order_matrix_literal(capsys):
    code, out, _ = invoke(capsys, "weyl-order", "[[2,-1],[-3,2]]")
    assert (code, out) == (0, "12\n")


def test_roots_text(capsys):
    code, out, _ = invoke(capsys, "roots", "G2")
    assert code == 0
    assert out == "0 1\n1 0\n1 1\n1 2\n1 3\n2 3\n"


def test_roots_json(capsys):
    code, out, _ = invoke(capsys, "roots", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "type": "G2",
        "rank": 2,
        "count": 6,
        "positive_roots": [[0, 1], [1, 0], [1, 1], [1, 2], [1, 3], [2, 3]],
    }


def test_cosets_text_both_sides(capsys):
    code, out, _ = invoke(capsys, "cosets", "G2", "--parabolic", "1")
    assert (code, out) == (0, COSETS_SIDE1)
    code, out, _ = invoke(capsys, "cosets", "G2", "--parabolic", "2")
    assert (code, out) == (0, COSETS_SIDE2)


def test_cosets_json(capsys):
    code, out, _ = invoke(capsys, "cosets", "G2", "--parabolic", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["parabolic"] == [2]
    assert doc["count"] == 6
    assert [r["name"] for r in doc["representatives"]] == COSETS_SIDE2.split()
    assert doc["representatives"][3] == {
        "name": "s1*s2*s1",
        "word": [1, 2, 1],
        "length": 3,
    }


def test_poincare_text(capsys):
    code, out, _ = invoke(capsys, "poincare", "G2", "--parabolic", "1")
    assert (code, out) == (0, P5_TEXT + "\n")
    code, out, _ = invoke(capsys, "poincare", "G2", "--parabolic", "2")
    assert (code, out) == (0, P5_TEXT + "\n")
    code, out, _ = invoke(capsys, "poincare", "G2")
    assert (code, out) == (0, FLAG_TEXT + "\n")


def test_poincare_at(capsys):
    code, out, _ = invoke(capsys, "poincare", "G2", "--parabolic", "1", "--at", "2")
    assert (code, out) == (0, "63\n")
    code, out, _ = invoke(capsys, "poincare", "G2", "--parabolic", "1", "--at", "1")
    assert (code, out) == (0, "6\n")
    code, out, _ = invoke(capsys, "poincare", "G2", "--at", "1")
    assert (code, out) == (0, "12\n")


def test_poincare_json(capsys):
    code, out, _ = invoke(
        capsys, "poincare", "G2", "--parabolic", "1", "--at", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"] == [[k, 1] for k in range(6)]
    assert doc["text"] == P5_TEXT
    assert doc["at"] == 5
    assert doc["value"] == 5**5 + 5**4 + 5**3 + 5**2 + 5 + 1


def test_degree(capsys):
    code, out, _ = invoke(capsys, "degree", "G2", "--side", "1")
    assert (code, out) == (0, "42\n")
    code, out, _ = invoke(capsys, "degree", "G2", "--side", "2")
    assert (code, out) == (0, "14\n")


def test_degree_json(capsys):
    code, out, _ = invoke(capsys, "degree", "G2", "--side", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"type": "G2", "side": 2, "degree": 14}


def test_verify_identity_text(capsys):
    code, out, err = invoke(capsys, "verify-identity", "G2")
    assert code == 0
    assert err == ""
    lines = out.rstrip("\n").split("\n")
    assert lines[-1] == FINAL_LINE
    assert "replay check: all 4 steps re-verified independently" in lines
    assert "relations used:" in lines
    assert any(ln.startswith("conclusion:") for ln in lines)
    # the unmultiplied difference is never asserted
    assert "[X] - [Y] = 0" not in out


def test_verify_identity_json_replays(capsys):
    code, out, _ = invoke(capsys, "verify-identity", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["replay"] == {"ok": True, "checked_steps": 4}
    cert = IdentityCertificate.from_json(doc["certificate"])
    diff = check_certificate(cert)
    assert diff == atom("X", 1) - atom("Y", 1)
    assert doc["certificate"]["final_line"] == FINAL_LINE


def test_verify_identity_other_rank2(capsys):
    code, out, _ = invoke(capsys, "verify-identity", "A2")
    assert code == 0
    assert out.rstrip("\n").split("\n")[-1] == FINAL_LINE
    code, out, _ = invoke(capsys, "verify-identity", "B2")
    assert code == 0


def test_certificate_text(capsys):
    code, out, _ = invoke(capsys, "certificate", "G2")
    assert code == 0
    assert "weyl group order: 12" in out
    for name in COSETS_SIDE1.split() + COSETS_SIDE2.split():
        assert f"  {name}" in out
    assert "length bijection: j-th member pairs with j-th member" in out
    assert f"cell-count polynomial, side 1: {P5_TEXT}" in out
    assert f"cell-count polynomial, side 2: {P5_TEXT}" in out
    assert f"cell-count polynomial, full flag: {FLAG_TEXT}" in out
    assert FINAL_LINE in out
    assert "  side 1: 42" in out
    assert "  side 2: 14" in out
    assert "the degrees differ (42 != 14)" in out


def test_certificate_json(capsys):
    code, out, _ = invoke(capsys, "certificate", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_order"] == 12
    assert doc["cosets"]["side1"] == COSETS_SIDE1.split()
    assert doc["cosets"]["side2"] == COSETS_SIDE2.split()
    assert doc["cosets"]["length_bijection_ok"] is True
    assert doc["cosets"]["lengths"] == [0, 1, 2, 3, 4, 5]
    assert doc["poincare"]["side1"] == doc["poincare"]["side2"]
    assert doc["poincare"]["equal"] is True
    assert doc["degrees"] == {"side1": 42, "side2": 14}
    cert = IdentityCertificate.from_json(doc["certificate"])
    check_certificate(cert)


def test_certificate_agreeing_degrees_wording(capsys):
    # A2 has equal degrees on both sides, the closing line flips
    code, out, _ = invoke(capsys, "certificate", "A2")
    assert code == 0
    assert "the degrees agree" in out


def test_byte_determinism(capsys):
    for argv in (
        ["certificate", "G2"],
        ["certificate", "G2", "--format", "json"],
        ["verify-identity", "G2", "--format", "json"],
        ["roots", "G2", "--format", "json"],
    ):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "frobnicate", "G2")[0] == 2
    assert invoke(capsys, "degree", "G2")[0] == 2  # --side missing
    assert invoke(capsys, "degree", "G2", "--side", "3")[0] == 2
    assert invoke(capsys, "cosets", "G2")[0] == 2  # --parabolic missing
    assert invoke(capsys, "roots", "G2", "--format", "yaml")[0] == 2
    assert invoke(capsys, "cosets", "G2", "--parabolic", "x")[0] == 2
    assert invoke(capsys)[0] == 2  # no verb


def test_domain_errors_exit_1(capsys):
    cases = [
        ["roots", "Z3"],
        ["weyl-order", "G2", "--cap", "5"],
        ["roots", "G2", "--cap", "5"],
        ["degree", "A3", "--side", "1"],
        ["verify-identity", "A3"],
        ["certificate", "A1"],
        ["certificate", "[[2,0],[0,2]]"],
        ["verify-identity", "[[2,0],[0,2]]"],
        ["degree", "[[2,0],[0,2]]", "--side", "1"],
        ["cosets", "G2", "--parabolic", "7"],
        ["poincare", "G2", "--parabolic", "0"],
        ["roots", DEEP_LITERAL],
    ]
    for argv in cases:
        code, out, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ")
    assert err.startswith("error: bad matrix literal: ") and err.count("\n") == 1


def run_module(*argv, seconds=10, memory=1 << 30):
    """``python -m g2pair *argv`` in a child limited to ``memory`` bytes of
    address space and ``seconds`` of wall time: (exit code, stdout,
    stderr, seconds taken)."""
    src = os.path.dirname(os.path.dirname(g2pair.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "g2pair", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=seconds,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory)),
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def test_deep_literal_leaves_no_traceback():
    code, out, err, _ = run_module("roots", DEEP_LITERAL)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad matrix literal: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ("A5", "B4", "C4", "D5", "A12", "D9"))
def test_series_refusals_match_the_library(capsys, name):
    # the verbs refuse a series type from its exponents, before its roots;
    # the message is the one building the roots and the group gives
    for cap in (1, 7, 20, 100, 1000, 10**4, 10**6, 10**8):
        try:
            WeylGroup(root_system(name, cap=cap), cap=cap)
            want = (0, "")
        except CapExceededError as exc:
            want = (1, f"error: {exc}\n")
        code, _, err = invoke(capsys, "weyl-order", name, "--cap", str(cap))
        assert (code, err) == want, (name, cap)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("weyl-order", "A300"), "Weyl group enumeration exceeded cap 1000000 "
         "(4590249 elements through length 3)"),
        (("certificate", "A300"), "Weyl group enumeration exceeded cap 1000000 "
         "(4590249 elements through length 3)"),
        (("roots", "A100000"), "positive root generation exceeded cap 100000 "
         "(199999 roots through height 2)"),
        (("weyl-order", "A100000"), "positive root generation exceeded cap 100000 "
         "(199999 roots through height 2)"),
    ],
)
def test_large_ranks_fail_fast(argv, message):
    # A300 has 45,150 roots, inside the root cap, and 301! elements;
    # A100000 would need a 10^10-entry Cartan matrix
    code, out, err, seconds = run_module(*argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert seconds < 1.0, seconds


def test_cartan_literals_refuse_json_booleans(capsys):
    for literal in ("[[2,false],[false,2]]", "[[true,-1],[-1,2]]", "[[2,-1],[-1,true]]"):
        for verb in ("weyl-order", "roots", "poincare"):
            code, out, err = invoke(capsys, verb, literal)
            assert (code, out) == (1, ""), (verb, literal)
            assert err == "error: Cartan entries must be integers\n", (verb, literal)


def test_root_cap_error_reports_progress(capsys):
    # E8 has 8, 7, 7, 7, 7, 7, 6, ... positive roots of heights 1, 2, 3, ...;
    # the running total first passes 100 at height 18, with 103 roots.
    code, out, err = invoke(capsys, "roots", "E8", "--cap", "100")
    assert (code, out) == (1, "")
    assert err == "error: positive root generation exceeded cap 100 (103 roots through height 18)\n"
    code, out, err = invoke(capsys, "roots", "G2", "--cap", "5")
    assert (code, out) == (1, "")
    assert err == "error: positive root generation exceeded cap 5 (6 roots through height 5)\n"


@st.composite
def cartan_literals(draw):
    """Rank 1-4, off-diagonal entries in 0..-4 with zeros placed
    symmetrically, and one time in five a diagonal entry other than 2."""
    n = draw(st.integers(1, 4))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.sampled_from((-1, -2, -3, -4, 0)))
            rows[j][i] = draw(st.sampled_from((-1, -2, -3, -4))) if rows[i][j] else 0
    if draw(st.integers(0, 4)) == 4:
        i = draw(st.integers(0, n - 1))
        rows[i][i] = draw(st.sampled_from((0, 1, 3)))
    return json.dumps(rows, separators=(",", ":"))


VERB_ARGS = (
    ("roots",), ("weyl-order",), ("cosets", "--parabolic", "1"), ("poincare",),
    ("verify-identity",), ("degree", "--side", "1"), ("certificate",),
)


@given(cartan_literals())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_random_literals_exit_cleanly(literal):
    # every verb under a small cap: a result, or one error line and nothing else
    for verb, *extra in VERB_ARGS:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([verb, literal, *extra, "--cap", "60"])
        assert time.perf_counter() - start < 1.0, (verb, literal)
        if code == 0:
            assert out.getvalue() and not err.getvalue(), (verb, literal)
        else:
            assert code == 1, (verb, literal, err.getvalue())
            assert out.getvalue() == "", (verb, literal)
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "degree", "--help")[0] == 0


def test_module_entry_point():
    # the child imports the same package as these tests, also when only
    # pytest's own pythonpath setting put it on sys.path
    src = os.path.dirname(os.path.dirname(g2pair.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "g2pair", "weyl-order", "G2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "12\n"
