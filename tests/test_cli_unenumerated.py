"""No CLI verb makes a Weyl group element.

Every pinned invocation of test_cli_golden is run in-process with
``WeylElement.__init__`` replaced by a function that raises; each must
still print the pinned bytes and exit with the pinned code.  So no verb
enumerates the group, nor makes even one element: cosets, certificates
and Schubert rings read words, points and parent links.
"""

import pytest
from test_cli_golden import GOLDEN, GOLDEN_CELLS, drifted

from g2pair.weyl import WeylElement


def refuse(element, word, y, group):
    raise AssertionError(f"{group!r} made the element of {word}")


@pytest.mark.parametrize("rows", (GOLDEN, GOLDEN_CELLS), ids=("GOLDEN", "GOLDEN_CELLS"))
def test_no_verb_enumerates_the_group(rows, monkeypatch, capsys):
    monkeypatch.setattr(WeylElement, "__init__", refuse)
    assert drifted(rows, capsys) == []
