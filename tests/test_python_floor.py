"""Every module of the package parses at the oldest Python that
pyproject.toml's ``requires-python`` allows, read from that file, so new
syntax cannot slip past the floor on a newer interpreter; and imports
only the standard library, as pyproject.toml's empty ``dependencies``
promise."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "g2pair").glob("*.py"))


def python_floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_floor_is_read():
    assert python_floor() == (3, 10)
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_parse_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=python_floor())


def outside_imports(source):
    """The absolutely imported modules of ``source`` that are not in the
    standard library; relative imports stay in the package."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    return {m for m in imported if m.partition(".")[0] not in sys.stdlib_module_names}


def test_outside_imports_are_found():
    source = (
        "import os.path, numpy\n"
        "from hypothesis.strategies import integers\n"
        "from .weyl import q_product\n"
    )
    assert outside_imports(source) == {"numpy", "hypothesis.strategies"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_the_standard_library(path):
    assert outside_imports(path.read_text()) == set()
