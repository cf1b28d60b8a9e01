"""What ``import g2pair`` does in a fresh interpreter.

The child runs with ``-I -S`` (no site, no environment, no user paths) and
imports ``json`` first, as the benchmark worker does, so that the regexes
json compiles for itself are made before the check starts.  It then makes
``collections.namedtuple`` and ``re.compile`` raise, runs the worker's
import line, and restores both: the package must import without building
a namedtuple class, compiling a regex or loading ``typing``.  The CLI then
runs in the same process and must print the golden bytes.

A second child imports nothing first: ``import g2pair`` alone must load
neither ``json``, ``re`` nor ``graphlib`` (the rewriter imports it for
its cycle check, on first use), and a text verb, then a JSON verb, must print
their golden bytes after it (the first JSON document imports json's
string quoter).
"""

import os
import subprocess
import sys

from test_cli_golden import GOLDEN

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ARGV = ["certificate", "G2", "--format", "json"]

CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
import collections, json, re

def refuse(*args, **kwargs):
    raise AssertionError("called while importing g2pair")

kept = collections.namedtuple, re.compile
collections.namedtuple = re.compile = refuse
try:
    from g2pair import DivisorClass, SchubertRing, WeylGroup, cli, root_system
finally:
    collections.namedtuple, re.compile = kept
assert "typing" not in sys.modules, "importing g2pair loaded typing"

import contextlib, hashlib, io
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(sys.argv[2:])
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_import_builds_no_namedtuple_compiles_no_regex_and_loads_no_typing():
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD, SRC, *ARGV],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    code, digest = child.stdout.split()
    assert [ARGV, int(code), digest] in [list(row) for row in GOLDEN]


BARE_ARGVS = (["certificate", "G2", "--format", "text"], ARGV)

BARE_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
import g2pair
assert "json" not in sys.modules, "importing g2pair loaded json"
assert "re" not in sys.modules, "importing g2pair loaded re"
assert "graphlib" not in sys.modules, "importing g2pair loaded graphlib"

import contextlib, hashlib, io
for argv in (sys.argv[2:6], sys.argv[6:]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = g2pair.run(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_bare_import_loads_no_json_and_the_verbs_still_print_their_golden_bytes():
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", BARE_CHILD, SRC, *BARE_ARGVS[0], *BARE_ARGVS[1]],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    golden = [list(row) for row in GOLDEN]
    for argv, line in zip(BARE_ARGVS, child.stdout.splitlines(), strict=True):
        code, digest = line.split()
        assert [argv, int(code), digest] in golden
