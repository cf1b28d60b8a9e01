"""One integer check: every int-taking entry refuses a bool or a non-int
with ``<what> must be an int, got <type> <repr>`` (rootsys.check_int) and
keeps an accepted int subclass as an exact int."""

import re
from enum import IntEnum

import pytest

from g2pair.cli import _json
from g2pair.grothring import MotivicClass
from g2pair.motive import L, LPolynomial, projective_bundle_poly
from g2pair.rootsys import CartanMatrix, check_cap, check_int, check_node, root_system
from g2pair.schubert import (
    CohomologyElement,
    DivisorClass,
    SchubertRing,
    chern_of_pushforward_bundle,
    degree_of_zero_locus,
    pushforward,
)
from g2pair.weyl import WeylGroup


class N(IntEnum):
    MINUS_ONE = -1
    ONE = 1
    TWO = 2


def g2():
    return WeylGroup(root_system("G2"))


def zeta():
    """The divisor w1 + w2 on the flag variety of G2: it pushes to 1."""
    flag = SchubertRing(g2(), ())
    return flag.chevalley(DivisorClass((1, 1)), flag.one())


def pairs(p):
    return [x for pair in p.to_pairs() for x in pair]


def terms(x):
    """A combination's keys and coefficients, flattened."""
    out = []
    for k, c in x.coefficients().items():
        out += [*k, c] if isinstance(k, tuple) else [k, c]
    return out


# entry -> (what its message names, call on n, the accepted IntEnum member,
# the values the call returns for it, each of which must be an exact int)
ENTRIES = {
    "check_node": ("node index", lambda n: [check_node(n, 3)], N.TWO, [2]),
    "check_cap": ("cap", lambda n: [check_cap(n)], N.TWO, [2]),
    "CartanMatrix": (
        "Cartan entry",
        lambda n: [x for row in CartanMatrix(((2, n), (n, 2))).entries for x in row],
        N.MINUS_ONE, [2, -1, -1, 2],
    ),
    "DivisorClass": (
        "divisor weight", lambda n: list(DivisorClass((n, 0, 2)).weights), N.ONE, [1, 0, 2]
    ),
    "CohomologyElement-cell": (
        "cell", lambda n: terms(CohomologyElement(SchubertRing(g2(), ()), {n: 3})), N.ONE, [1, 3]
    ),
    "CohomologyElement-coefficient": (
        "coefficient", lambda n: terms(CohomologyElement(SchubertRing(g2(), ()), {1: n})),
        N.TWO, [1, 2],
    ),
    "degree_of_zero_locus": ("side", lambda n: [degree_of_zero_locus(g2(), n)], N.ONE, [42]),
    "LPolynomial-degree": ("degree", lambda n: pairs(LPolynomial({n: 2})), N.ONE, [1, 2]),
    "LPolynomial-coefficient": (
        "coefficient", lambda n: pairs(LPolynomial({1: n})), N.TWO, [1, 2]
    ),
    "LPolynomial.lefschetz": ("degree", lambda n: pairs(LPolynomial.lefschetz(n)), N.TWO, [2, 1]),
    "LPolynomial.evaluate": ("evaluation point", lambda n: [(1 + L).evaluate(n)], N.TWO, [3]),
    "projective_bundle_poly": (
        "bundle rank", lambda n: pairs(projective_bundle_poly(L, n)), N.TWO, [1, 1, 2, 1]
    ),
    "MotivicClass-L-power": (
        "L-power", lambda n: terms(MotivicClass({("X", n): 1})), N.ONE, ["X", 1, 1]
    ),
    "MotivicClass-coefficient": (
        "coefficient", lambda n: terms(MotivicClass({("X", 1): n})), N.TWO, ["X", 1, 2]
    ),
    "MotivicClass.atom-power": (
        "L-power", lambda n: terms(MotivicClass.atom("X", n)), N.TWO, ["X", 2, 1]
    ),
    "MotivicClass.atom-coefficient": (
        "coefficient", lambda n: terms(MotivicClass.atom("X", 0, n)), N.TWO, ["X", 0, 2]
    ),
    "MotivicClass.times_L": (
        "L-power", lambda n: terms(MotivicClass.atom("X", 1).times_L(n)), N.TWO, ["X", 3, 1]
    ),
    "WeylGroup.from_word": ("letter", lambda n: list(g2().from_word([1, n]).word), N.TWO, [1, 2]),
    "WeylGroup.quotient": (
        "parabolic node", lambda n: list(g2().quotient([n]).parabolic), N.TWO, [2]
    ),
    "SchubertRing": (
        "parabolic node", lambda n: list(SchubertRing(g2(), [n]).parabolic), N.TWO, [2]
    ),
    "pushforward": ("fiber node", lambda n: terms(pushforward(zeta(), n)), N.ONE, [0, 1]),
    "chern_of_pushforward_bundle": (
        "fiber node",
        lambda n: [len(c.ring) for c in chern_of_pushforward_bundle(g2(), n)], N.ONE, [6, 6],
    ),
    "Combination.__mul__-MotivicClass": (
        "multiplier", lambda n: terms(MotivicClass.atom("X") * n), N.TWO, ["X", 0, 2]
    ),
    "Combination.__mul__-CohomologyElement": (
        "multiplier", lambda n: terms(SchubertRing(g2(), ()).one() * n), N.TWO, [0, 2]
    ),
}
BAD = (True, 1.0, "1", None)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_non_int_is_refused_with_the_one_message(entry, bad):
    what, call, _, _ = ENTRIES[entry]
    message = f"^{what} must be an int, got {type(bad).__name__} {re.escape(repr(bad))}$"
    if what == "multiplier" and bad is not True:
        # x * 1.0 declines the operand: Python's own TypeError
        with pytest.raises(TypeError):
            call(bad)
        return
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_int_subclass_is_kept_as_an_exact_int(entry):
    _, call, member, want = ENTRIES[entry]
    got = call(member)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want], got


def test_check_int_returns_an_exact_int():
    for value in (0, -7, 10**30, N.TWO):
        got = check_int(value, "n")
        assert type(got) is int and got == value
    with pytest.raises(ValueError, match="^n must be an int, got bool False$"):
        check_int(False, "n")


def test_a_quotient_keeps_a_normalized_key_after_an_int_subclass():
    # before, the group kept (<N.TWO: 2>,) and every later (2,) found it
    g = WeylGroup(root_system("B3"))
    q = g.quotient([N.TWO])
    assert list(g._quotients) == [(2,)]
    assert all(type(i) is int for key in g._quotients for i in key)
    again = g.quotient((2,))
    assert again is q and type(again.parabolic[0]) is int
    assert _json({"parabolic": again.parabolic}) == '{\n  "parabolic": [\n    2\n  ]\n}'
    assert SchubertRing(g, [N.TWO]).parabolic == (2,)


def test_the_json_writer_takes_what_an_int_subclass_made():
    assert _json({"w": DivisorClass((N.ONE, 0, 2)).weights}) == _json({"w": (1, 0, 2)})
    assert _json({"p": LPolynomial({N.ONE: 2}).to_pairs()}) == _json({"p": [[1, 2]]})
