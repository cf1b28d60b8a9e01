"""Command-line interface: exact output bytes, exit codes, JSON shapes.

run() is called in-process so stdout/stderr land in capsys; one test
goes through a real subprocess to cover the module entry point.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2pair
from g2pair.cli import run
from g2pair.errors import CapExceededError
from g2pair.grothring import MotivicClass
from g2pair.replay import check_document
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
    diff = check_document(doc["certificate"])
    assert diff == (atom("X", 1) - atom("Y", 1)).coefficients()
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
    check_document(doc["certificate"])


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


def module_env():
    """The environment of a child that imports the same package as these
    tests, also when only pytest's own pythonpath setting put it on sys.path."""
    src = os.path.dirname(os.path.dirname(g2pair.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv, seconds=10, memory=1 << 30):
    """``python -m g2pair *argv`` in a child limited to ``memory`` bytes of
    address space and ``seconds`` of wall time: (exit code, stdout,
    stderr, seconds taken)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "g2pair", *argv],
        capture_output=True,
        text=True,
        env=module_env(),
        timeout=seconds,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory)),
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize(
    "argv",
    (["certificate", "G2", "--format", "json"], ["cosets", "D5", "--parabolic", "1", "--format", "json"]),
)
def test_a_closed_stdout_leaves_no_traceback(argv):
    # a reader that stops early, as ``| head -1`` does: the pipe is closed
    # before the child writes anything
    proc = subprocess.Popen(
        [sys.executable, "-m", "g2pair", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


STDLIB_ONLY = """
import sys
before = set(sys.modules)
from g2pair import cli
assert cli.run(["certificate", "G2", "--format", "json"]) == 0
added = {m.partition(".")[0] for m in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names) - {"g2pair"}))
"""


def test_the_package_imports_the_standard_library_only():
    # numpy, sympy and hypothesis sit beside the package for the tests; it
    # must reach for none of them, nor for anything else outside the stdlib
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY], capture_output=True, text=True, env=module_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
        (("weyl-order", "A100000000"), "positive root generation exceeded cap 100000 "
         "(100000000 roots through height 1)"),
        (("weyl-order", "A99999999999999999999"), "positive root generation exceeded "
         "cap 100000 (99999999999999999999 roots through height 1)"),
        (("weyl-order", "B30000000"), "positive root generation exceeded cap 100000 "
         "(30000000 roots through height 1)"),
        (("weyl-order", "D50000000"), "positive root generation exceeded cap 100000 "
         "(50000000 roots through height 1)"),
    ],
)
def test_large_ranks_fail_fast(argv, message):
    # A300 has 45,150 roots, inside the root cap, and 301! elements;
    # A100000 would need a 10^10-entry Cartan matrix, and the last four
    # names an exponent list too long to build (or to index)
    code, out, err, seconds = run_module(*argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert seconds < 1.0, seconds


def test_running_out_of_memory_is_one_error_line():
    # A100000 has about 5*10^9 positive roots, inside this cap: 5*10^14
    # root entries, refused from that count before its 10^10-entry Cartan
    # matrix is built; the child's 1 GiB of address space is only a guard
    code, out, err, _ = run_module("roots", "A100000", "--cap", "10000000000", seconds=10)
    assert (code, out, err) == (1, "", "error: out of memory running roots\n")


def test_roots_that_cannot_fit_are_refused_before_any_matrix(capsys, monkeypatch):
    # A30 needs 465 * 30 = 13,950 root entries and A29 435 * 29 = 12,615:
    # with memory for 13,750 entries only A30 is refused, before its Cartan
    # matrix is parsed; exceptional types are not measured, and a group
    # past its cap is refused for that first
    monkeypatch.setattr(g2pair.rootsys, "_MEMORY", 13_750 * g2pair.rootsys._ENTRY_BYTES)
    with monkeypatch.context() as m:
        m.setattr(g2pair.rootsys, "parse_cartan", None)
        with pytest.raises(MemoryError, match="the roots of A30 cannot fit in memory"):
            root_system("A30")
        assert invoke(capsys, "roots", "A30") == (1, "", "error: out of memory running roots\n")
    assert len(root_system("A29").positive_roots) == 435
    assert len(root_system("E8").positive_roots) == 120
    code, _, err = invoke(capsys, "weyl-order", "A30", "--cap", "1000")
    assert code == 1 and err.startswith("error: Weyl group enumeration exceeded cap 1000 (")


def test_roots_are_charged_what_the_verbs_peak_at(capsys, monkeypatch):
    # A10 has 55 * 10 = 550 root entries: 4,400 bytes at 8 bytes an entry,
    # but `roots --format json` peaks at about 28 an entry, so 10,000 bytes
    # of memory cannot hold it; that holds while the charge is above 18.2
    monkeypatch.setattr(g2pair.rootsys, "_MEMORY", 10_000)
    monkeypatch.setattr(g2pair.rootsys, "parse_cartan", None)
    with pytest.raises(MemoryError, match="the roots of A10 cannot fit in memory"):
        root_system("A10")
    assert invoke(capsys, "roots", "A10") == (1, "", "error: out of memory running roots\n")


class _CountingSink:
    """A stdout that keeps nothing of what it is sent, only its length."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def traced_run(*argv):
    """``run(argv)`` under tracemalloc, printing to a _CountingSink:
    (exit code, characters printed, traced peak in bytes)."""
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = run(list(argv))
        return code, sink.chars, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_cosets_document_peaks_at_a_small_multiple_of_its_bytes():
    # B5/B is 3,840 rows and 951,440 bytes of JSON.  Written as pieces and
    # joined once, the traced peak of the whole verb (roots, walk, names,
    # pieces, text) stays under 3.5x what it prints; nested joins of the
    # rows string would take it past 4x
    code, chars, peak = traced_run("cosets", "B5", "--parabolic", "", "--format", "json")
    assert (code, chars) == (0, 951_440)
    assert peak < 3.5 * chars, peak / chars


@pytest.mark.parametrize("form", (("--format", "json"), ()))
def test_the_entry_charge_covers_what_an_entry_adds_to_the_peak(form):
    # What one more root entry adds to the traced peak of `roots`, from A40
    # (820 * 40 entries) to A60 (1,830 * 60): 28.1 bytes for JSON and 13.8
    # for text.  A first untraced call makes the imports done on first use,
    # so neither size is charged for them.
    with contextlib.redirect_stdout(_CountingSink()):
        assert run(["roots", "A3", *form]) == 0
    peaks = {}
    for n in (40, 60):
        code, _, peaks[n * n * (n + 1) // 2] = traced_run("roots", f"A{n}", *form)
        assert code == 0
    (small, low), (large, high) = peaks.items()
    slope = (high - low) / (large - small)
    assert slope <= g2pair.rootsys._ENTRY_BYTES, slope


@pytest.mark.parametrize("verb", ("weyl-order", "roots", "poincare"))
def test_oversized_integers_are_one_error_line(capsys, verb):
    # both are past the interpreter's limit on converting text to int
    for name in ("A" + "9" * 5000, "[[" + "2" + "0" * 5000 + "]]"):
        code, out, err = invoke(capsys, verb, name)
        assert (code, out) == (1, ""), (verb, name[:8])
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_a_value_past_the_digit_limit_is_one_error_line(capsys, fmt):
    # poincare A5 at 300 nines is a 4,500-digit value; A1 is 1 + q, so
    # q = 10^limit - 2 prints limit digits and one more q is past the limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    message = (f"error: the value at L = q has more than {limit} digits, "
               "this interpreter's limit for printing an integer\n")
    for name, q in (("A5", "9" * 300), ("A1", str(10**limit - 1))):
        assert invoke(capsys, "poincare", name, "--at", q, "--format", fmt) == (1, "", message)
    code, out, err = invoke(capsys, "poincare", "A1", "--at", str(10**limit - 2), "--format", fmt)
    assert (code, err) == (0, "")
    value = int(out) if fmt == "text" else json.loads(out)["value"]
    assert value == 10**limit - 1
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("sign", ("", "-"))
def test_a_value_certainly_past_the_limit_is_refused_before_it_is_computed(fmt, sign):
    # E8's cell counts have degree 120: at 4,300 nines the value has
    # about 516,000 digits, which Horner's rule alone took seconds to make
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    q = sign + "9" * limit
    code, out, err, seconds = run_module(
        "poincare", "E8", "--cap", "1000000000", "--at", q, "--format", fmt
    )
    assert (code, out) == (1, "")
    assert err == (f"error: the value at L = q has more than {limit} digits, "
                   "this interpreter's limit for printing an integer\n")
    assert seconds < 1, seconds


def test_the_early_refusal_agrees_with_the_exact_value():
    # the bound refuses only values that have too many digits; near the
    # limit and for small |q| the value is computed exactly
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    from g2pair.cli import _value_at
    from g2pair.errors import DomainError
    from g2pair.motive import poincare_polynomial

    for name, parabolic in (("A1", ()), ("A2", (1,)), ("G2", ()), ("B3", (2,))):
        poly = poincare_polynomial(WeylGroup(root_system(name)), parabolic)
        top = max(poly.coefficients())
        for digits in (1, 2, limit // top - 1, limit // top, limit // top + 1, limit + 1):
            for q in (10**digits - 1, 10**digits, -(10**digits - 1), -(10**digits)):
                try:
                    value = _value_at(poly, q)
                except DomainError:
                    assert abs(poly.evaluate(q)) >= 10**limit, (name, q)
                else:
                    assert value == poly.evaluate(q), (name, q)


def test_roots_of_a_large_rank_answer_quickly():
    # A100 has 5,050 positive roots; each costs O(rank) to generate
    code, out, err, seconds = run_module("roots", "A100")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 5050
    assert lines[0] == "0 " * 99 + "1" and lines[-1] == " ".join(["1"] * 100)
    assert seconds < 1.5, seconds


def test_cartan_literals_refuse_json_booleans(capsys):
    for literal in ("[[2,false],[false,2]]", "[[true,-1],[-1,2]]", "[[2,-1],[-1,true]]"):
        for verb in ("weyl-order", "roots", "poincare"):
            code, out, err = invoke(capsys, verb, literal)
            assert (code, out) == (1, ""), (verb, literal)
            bad = "False" if "false" in literal else "True"
            assert err == f"error: Cartan entry must be an int, got bool {bad}\n", (verb, literal)


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
@settings(max_examples=40)
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


@pytest.mark.parametrize("nodes", (",", "1,,2", "1,", ",2"))
def test_node_lists_with_an_empty_part_are_refused(capsys, nodes):
    # only the empty string means "no nodes"; "," used to list the 12
    # cells of G2/B and "1,,2" to read as 1,2
    code, out, err = invoke(capsys, "cosets", "G2", "--parabolic", nodes)
    assert (code, out) == (2, "")
    assert f"expected comma-separated node indices, got {nodes!r}" in err
    code, out, _ = invoke(capsys, "cosets", "G2", "--parabolic", "")
    assert code == 0 and len(out.splitlines()) == 12


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "degree", "--help")[0] == 0


VERB_HELP = (
    ("roots", "positive roots in simple-root coordinates"),
    ("weyl-order", "order of the Weyl group"),
    ("cosets", "minimal coset representatives of W/W_P"),
    ("poincare", "cell-count polynomial of G/P in L"),
    ("verify-identity", "derive and replay-check the relation L*([X] - [Y]) = 0"),
    ("degree", "degree of the codimension-2 zero locus on one side"),
    ("certificate", "full report: cosets, cell counts, identity derivation, degrees"),
)
COMMON_OPTIONS = (
    "type Cartan type name (A1..G2) or JSON matrix literal",
    "--format {text,json} output format",
    "--cap N enumeration cap for roots and group elements",
)
OWN_OPTIONS = {
    "cosets": ("--parabolic i[,j...] nodes generating the parabolic subgroup",),
    "poincare": (
        "--parabolic i[,j...] nodes generating the parabolic subgroup "
        "(default: none, full flag)",
        "--at q evaluate at L = q (point count over a field with q elements)",
    ),
    "degree": ("--side {1,2} which of the two quotients carries the zero locus",),
}


def help_words(capsys, monkeypatch, *argv):
    # words joined by single spaces, so argparse's line wrapping is moot
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    return " ".join(out.split())


def test_help_lists_the_verbs_in_order(capsys, monkeypatch):
    text = help_words(capsys, monkeypatch, "--help")
    choices = "{" + ",".join(verb for verb, _ in VERB_HELP) + "}"
    assert text.startswith(f"usage: g2pair [-h] {choices} ...")
    assert f"{choices} " + " ".join(f"{v} {h}" for v, h in VERB_HELP) in text


@pytest.mark.parametrize("verb", sorted(OWN_OPTIONS))
def test_verb_help_names_its_own_options(capsys, monkeypatch, verb):
    text = help_words(capsys, monkeypatch, verb, "--help")
    assert text.startswith(f"usage: g2pair {verb} [-h] [--format {{text,json}}] [--cap N]")
    for line in COMMON_OPTIONS + OWN_OPTIONS[verb]:
        assert line in text, line
    own = {line.split()[0] for line in OWN_OPTIONS[verb]}
    for option in {"--parabolic", "--at", "--side"} - own:
        assert option not in text, option


def test_run_refuses_a_single_string(capsys):
    # argparse would read a str one character per argument
    with pytest.raises(TypeError, match="argv must be a list of arguments"):
        run("weyl-order G2")
    assert capsys.readouterr() == ("", "")
    for argv in (["weyl-order", "G2"], ("weyl-order", "G2")):
        assert run(argv) == 0
        assert capsys.readouterr() == ("12\n", "")


def readme_commands():
    """(argv, the value its comment starts with or None) for each g2pair
    line of the fenced block under the README's "## Command line"."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.splitlines():
        if line.startswith("g2pair "):
            command, _, comment = line.partition("#")
            value = re.match(r"(\d[^,(]*?)\s*(?:[,(]|$)", comment.strip())
            commands.append((shlex.split(command)[1:], value and value[1]))
    return commands


def test_readme_commands_run(capsys):
    commands = readme_commands()
    values = [value for _, value in commands if value]
    assert values == ["12", P5_TEXT, "42", "14"]
    for argv, value in commands:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if value is not None:
            assert out.split("\n", 1)[0] == value, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cosets", "G2", "--parabolic", "x"),
         "argument --parabolic: expected comma-separated node indices, got 'x'"),
        (("degree", "G2", "--side", "3"), "argument --side: invalid choice: 3"),
        (("roots", "G2", "--format", "yaml"), "argument --format: invalid choice: 'yaml'"),
    ],
)
def test_usage_errors_in_a_fresh_process(argv, message):
    # argparse is first imported by the parse that rejects the invocation
    code, out, err, _ = run_module(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: g2pair") and message in err, err


def test_help_in_a_fresh_process():
    code, out, err, _ = run_module("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: g2pair")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "g2pair", "weyl-order", "G2"],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "12\n"
