"""Every module of the package parses at the oldest Python that
pyproject.toml's ``requires-python`` allows, read from that file, so new
syntax cannot slip past the floor on a newer interpreter."""

import ast
import pathlib
import re

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
