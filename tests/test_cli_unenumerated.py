"""No CLI verb enumerates the whole Weyl group.

Every pinned invocation of test_cli_golden is run in-process with
``WeylGroup.elements`` replaced by a property that raises; each must
still print the pinned bytes and exit with the pinned code.
"""

import pytest
from test_cli_golden import GOLDEN, GOLDEN_CELLS, drifted

from g2pair.weyl import WeylGroup


def refuse(group):
    raise AssertionError(f"{group!r} enumerated its elements")


@pytest.mark.parametrize("rows", (GOLDEN, GOLDEN_CELLS), ids=("GOLDEN", "GOLDEN_CELLS"))
def test_no_verb_enumerates_the_group(rows, monkeypatch, capsys):
    monkeypatch.setattr(WeylGroup, "elements", property(refuse))
    assert drifted(rows, capsys) == []
