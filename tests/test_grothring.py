"""Formal class arithmetic, rewriting, certificates, and replay checking."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2pair.cli import _json, run
from g2pair.errors import (
    CircularRuleError,
    PoincareMismatchError,
    ReplayError,
    SymbolProductError,
)
from g2pair.grothring import (
    Derivation,
    IdentityCertificate,
    MotivicClass,
    RewriteRule,
    Step,
    blowup_rule,
    normal_form,
    verify_g2_identity,
)
from g2pair.motive import L, LPolynomial
from g2pair.replay import check_certificate, check_derivation, check_step

P5 = LPolynomial({k: 1 for k in range(6)})

atom = MotivicClass.atom


def test_class_basic_arithmetic():
    x = atom("X")
    assert (x - x).is_zero
    assert x + x == atom("X", coeff=2)
    assert -x == atom("X", coeff=-1)
    assert x.coefficient("X", 0) == 1
    assert x.coefficient("X", 1) == 0


def test_linearity_of_l_multiplication():
    d = atom("X") - atom("Y")
    assert d * L == atom("X", 1) - atom("Y", 1)
    assert L * d == d * L
    assert d.times_L(2) == atom("X", 2) - atom("Y", 2)
    with pytest.raises(ValueError):
        d.times_L(-1)


def test_mixed_class():
    c = MotivicClass.from_lpoly(P5) + atom("X", 1)
    assert len(c.terms()) == 7
    assert c.symbols() == {"X"}
    assert not c.is_pure
    assert c.pure_part() == P5
    assert str(c) == "1 + L + L^2 + L^3 + L^4 + L^5 + L*[X]"


def test_str_formats():
    assert str(MotivicClass.zero()) == "0"
    assert str(atom("X", 1) - atom("Y", 1)) == "L*[X] - L*[Y]"
    assert str(atom("X", 2, coeff=3)) == "3*L^2*[X]"
    assert str(-atom("X")) == "-[X]"
    assert str(MotivicClass.from_lpoly(2 * L**3)) == "2*L^3"


def test_products():
    pure = MotivicClass.from_lpoly(1 + L)
    x = atom("X")
    assert pure * pure == MotivicClass.from_lpoly(1 + 2 * L + L**2)
    assert x * pure == atom("X") + atom("X", 1)
    assert pure * x == x * pure
    assert x * 3 == atom("X", coeff=3)
    assert x * (1 + L) == x * pure
    with pytest.raises(SymbolProductError):
        x * atom("Y")


def test_validation():
    with pytest.raises(ValueError):
        MotivicClass({("X", -1): 1})
    with pytest.raises(ValueError):
        MotivicClass({("", 0): 1})


def test_blowup_rule():
    r = blowup_rule("D", "F1", "X")
    assert r.lhs == "D"
    assert r.rhs == atom("F1") + atom("X", 1)
    assert r.name == "[D] -> [F1] + L*[X]"


def test_blowup_rule_polynomial_pieces():
    # both pieces may be already-known pure classes: a line blown up at a
    # point contributes (1 + L) + L*1
    r = blowup_rule("D", 1 + L, LPolynomial.one())
    assert r.rhs == MotivicClass.from_lpoly(1 + 2 * L)
    r2 = blowup_rule("D", 1 + L, "pt")
    assert r2.rhs == MotivicClass.from_lpoly(1 + L) + atom("pt", 1)


def test_blowup_rule_validation():
    with pytest.raises(ValueError):
        blowup_rule("D", "D", "X")  # collision
    with pytest.raises(ValueError):
        blowup_rule("D", "F", "D")
    with pytest.raises(ValueError):
        blowup_rule(LPolynomial.one(), "F", "X")  # total must be a symbol


def test_rule_validation():
    with pytest.raises(ValueError):
        RewriteRule("X", atom("X") + atom("Y"))  # lhs reappears
    with pytest.raises(ValueError):
        RewriteRule("1", atom("Y"))  # reserved symbol


def test_normal_form_one_step():
    r = blowup_rule("D", "F1", "X")
    nf, deriv = normal_form(atom("D"), [r])
    assert nf == atom("F1") + atom("X", 1)
    assert len(deriv.steps) == 1
    assert deriv.start == atom("D")
    assert deriv.final == nf
    # idempotent
    nf2, deriv2 = normal_form(nf, [r])
    assert nf2 == nf
    assert deriv2.steps == ()


def test_normal_form_zero():
    nf, deriv = normal_form(MotivicClass.zero(), [blowup_rule("D", "F1", "X")])
    assert nf.is_zero
    assert deriv.steps == ()


def test_normal_form_two_route_difference():
    # two formal copies of the divisor class, one rewritten per side
    r1 = blowup_rule("D1", "F1", "X")
    r2 = blowup_rule("D2", "F2", "Y")
    nf, deriv = normal_form(atom("D1") - atom("D2"), [r1, r2])
    assert nf == (atom("F1") - atom("F2")) + atom("X", 1) - atom("Y", 1)
    assert len(deriv.steps) == 2


def test_normal_form_chained_rules():
    rules = [
        RewriteRule("A", atom("B", 1) + atom("B")),
        RewriteRule("B", MotivicClass.from_lpoly(1 + L)),
    ]
    nf, deriv = normal_form(atom("A"), rules)
    assert nf == MotivicClass.from_lpoly((1 + L) * (1 + L))
    # lowest power of the live symbol is rewritten first
    assert deriv.steps[1].rule.lhs == "B"
    powers = [min(p for (s, p) in st.before.terms() if s == "B") for st in deriv.steps[1:]]
    assert powers == sorted(powers)


def test_normal_form_respects_declaration_order():
    ra = RewriteRule("A", atom("C"))
    rb = RewriteRule("B", atom("C", 1))
    start = atom("A") + atom("B")
    _, d1 = normal_form(start, [ra, rb])
    _, d2 = normal_form(start, [rb, ra])
    assert d1.steps[0].rule == ra
    assert d2.steps[0].rule == rb
    assert d1.final == d2.final


def test_circular_rules_rejected():
    ra = RewriteRule("A", atom("B"))
    rb = RewriteRule("B", atom("A"))
    with pytest.raises(CircularRuleError):
        normal_form(atom("A"), [ra, rb])
    rc = RewriteRule("B", atom("C"))
    rd = RewriteRule("C", atom("A"))
    with pytest.raises(CircularRuleError):
        normal_form(atom("A"), [ra, rc, rd])


def test_verify_identity():
    cert = verify_g2_identity(P5, P5)
    assert cert.difference == atom("X", 1) - atom("Y", 1)
    assert cert.final_line == "L*([X] - [Y]) = 0"
    assert cert.left.start == atom("D")
    assert cert.right.start == atom("D")
    assert cert.left.final == MotivicClass.from_lpoly(P5) + atom("X", 1)
    assert cert.right.final == MotivicClass.from_lpoly(P5) + atom("Y", 1)
    assert len(cert.left.steps) == len(cert.right.steps) == 2


def test_verify_identity_any_equal_polynomial():
    f = 3 + 7 * L**2
    cert = verify_g2_identity(f, f)
    assert cert.final_line == "L*([X] - [Y]) = 0"


def test_no_l_cancellation():
    cert = verify_g2_identity(P5, P5)
    # the certified difference carries the factor of L; it is not [X] - [Y]
    assert cert.difference != atom("X") - atom("Y")
    assert all(p >= 1 for (_, p) in cert.difference.terms())
    # [X] - [Y] itself is inert under the certificate's rules: nonzero
    nf, _ = normal_form(atom("X") - atom("Y"), cert.rules())
    assert nf == atom("X") - atom("Y")
    assert not nf.is_zero


def test_mismatch_raises_with_residual():
    with pytest.raises(PoincareMismatchError) as exc:
        verify_g2_identity(P5, P5 + L)
    err = exc.value
    assert err.residual == atom("F1") - atom("F2")
    assert str(err.residual) == "[F1] - [F2]"
    assert "[F1] - [F2]" in str(err)
    assert err.difference == -L


def test_render_text():
    cert = verify_g2_identity(P5, P5)
    text = cert.render_text()
    lines = text.split("\n")
    assert lines[-1] == "L*([X] - [Y]) = 0"
    assert "first normalization:" in lines
    assert "second normalization:" in lines
    assert any("via [D] -> [F1] + L*[X]" in ln for ln in lines)
    noted = cert.render_text(note="replay ok")
    assert "replay ok" in noted.split("\n")


def test_json_round_trips():
    cert = verify_g2_identity(P5, P5)
    c = MotivicClass.from_lpoly(P5) + atom("X", 1) - atom("Y", 3)
    assert MotivicClass.from_json(c.to_json()) == c
    rule = blowup_rule("D", "F1", "X")
    assert RewriteRule.from_json(rule.to_json()) == rule
    assert Derivation.from_json(cert.left.to_json()) == cert.left
    again = IdentityCertificate.from_json(cert.to_json())
    assert again == cert
    # documents survive an actual serialization pass
    doc = json.loads(json.dumps(cert.to_json()))
    assert IdentityCertificate.from_json(doc) == cert


@given(st.lists(st.integers(-5, 5), max_size=9))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_certificate_documents_round_trip(coefficients):
    # degree <= 8, zero coefficients (and the zero polynomial) included
    f = LPolynomial(dict(enumerate(coefficients)))
    cert = verify_g2_identity(f, f)
    doc = cert.to_json()
    again = IdentityCertificate.from_json(json.loads(json.dumps(doc)))
    assert again == cert
    assert check_certificate(again) == atom("X", 1) - atom("Y", 1)
    assert _json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_replay_accepts_genuine_certificate():
    cert = verify_g2_identity(P5, P5)
    assert check_derivation(cert.left) == cert.left.final
    assert check_derivation(cert.right) == cert.right.final
    assert check_certificate(cert) == cert.difference


def test_replay_accepts_all_normal_forms():
    rules = [
        blowup_rule("D1", "F1", "X"),
        blowup_rule("D2", "F2", "Y"),
        RewriteRule("F1", MotivicClass.from_lpoly(P5)),
    ]
    for start in (
        atom("D1"),
        atom("D1") - atom("D2"),
        atom("D1", 2, coeff=5) + atom("F1"),
        MotivicClass.zero(),
    ):
        _, deriv = normal_form(start, rules)
        assert check_derivation(deriv) == deriv.final


def tampered(cert, mutate):
    doc = cert.to_json()
    mutate(doc)
    return IdentityCertificate.from_json(doc)


def test_replay_rejects_coefficient_tampering():
    cert = verify_g2_identity(P5, P5)

    def bump_after(doc):
        # corrupt one coefficient in a recorded intermediate class
        doc["left"]["steps"][1]["after"]["terms"][0][2] += 1

    with pytest.raises(ReplayError):
        check_certificate(tampered(cert, bump_after))


def test_replay_rejects_rule_tampering():
    cert = verify_g2_identity(P5, P5)

    def bend_rule(doc):
        doc["left"]["steps"][0]["rule"]["rhs"]["terms"] = [["F1", 0, 1], ["X", 2, 1]]

    with pytest.raises(ReplayError):
        check_certificate(tampered(cert, bend_rule))


def test_replay_rejects_chain_break():
    cert = verify_g2_identity(P5, P5)

    def drop_step(doc):
        doc["left"]["steps"] = doc["left"]["steps"][1:]

    with pytest.raises(ReplayError):
        check_certificate(tampered(cert, drop_step))


def test_replay_rejects_start_mismatch():
    cert = verify_g2_identity(P5, P5)

    def shift_start(doc):
        doc["right"]["start"]["terms"] = [["E", 0, 1]]
        doc["right"]["steps"][0]["before"]["terms"] = [["E", 0, 1]]

    with pytest.raises(ReplayError):
        check_certificate(tampered(cert, shift_start))


def test_replay_rejects_difference_tampering():
    cert = verify_g2_identity(P5, P5)

    def zero_difference(doc):
        doc["difference"]["terms"] = []

    with pytest.raises(ReplayError):
        check_certificate(tampered(cert, zero_difference))


def g2_certificate_document():
    """The certificate of ``g2pair verify-identity G2 --format json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["verify-identity", "G2", "--format", "json"]) == 0
    return json.loads(out.getvalue())["certificate"]


@pytest.mark.parametrize(
    "terms",
    (
        [["F1", 0, 1.9], ["X", "1", True]],
        [["F1", 0, 1.9], ["X", 1, 1]],
        [["F1", 0, 1], ["X", "1", 1]],
        [["F1", 0, 1], ["X", 1, True]],
        [["F1", 0, 1], ["X", True, 1]],
        [["F1", 0, 1], ["X", 1.0, 1]],
        [["F1", 0, 1], [5, 1, 1]],
    ),
)
@pytest.mark.parametrize("where", ("after", "rhs"))
def test_certificate_json_is_read_without_coercion(terms, where):
    doc = g2_certificate_document()
    step = doc["left"]["steps"][0]
    assert step["after"]["terms"] == step["rule"]["rhs"]["terms"] == [["F1", 0, 1], ["X", 1, 1]]
    assert check_certificate(IdentityCertificate.from_json(doc)) == atom("X", 1) - atom("Y", 1)
    (step["after"] if where == "after" else step["rule"]["rhs"])["terms"] = terms
    with pytest.raises(ValueError):
        IdentityCertificate.from_json(doc)


@pytest.mark.parametrize("lhs", (7, True, ["D"], None, ""))
def test_rule_symbols_must_be_strings(lhs):
    rhs = {"terms": [["F1", 0, 1], ["X", 1, 1]]}
    assert RewriteRule.from_json({"lhs": "7", "rhs": rhs}).lhs == "7"
    with pytest.raises(ValueError, match="rule symbol must be a nonempty string"):
        RewriteRule.from_json({"lhs": lhs, "rhs": rhs})
    with pytest.raises(ValueError, match="rule symbol must be a nonempty string"):
        RewriteRule(lhs, MotivicClass.from_json(rhs))


@pytest.mark.parametrize("justification", (5, None, True, ["why"]))
def test_rule_justification_must_be_a_string(justification):
    rhs = {"terms": [["F1", 0, 1], ["X", 1, 1]]}
    assert RewriteRule.from_json({"lhs": "A", "rhs": rhs}).justification == ""
    assert RewriteRule.from_json({"lhs": "A", "rhs": rhs, "justification": "5"}).justification == "5"
    with pytest.raises(ValueError, match="rule justification must be a string"):
        RewriteRule.from_json({"lhs": "A", "rhs": rhs, "justification": justification})
    with pytest.raises(ValueError, match="rule justification must be a string"):
        RewriteRule("A", atom("1"), justification)


def test_motivic_keys_refuse_bools():
    assert MotivicClass({("X", 1): 1}) == atom("X", 1)
    with pytest.raises(ValueError, match="L-power"):
        MotivicClass({("X", True): 1})
    with pytest.raises(ValueError, match="coefficients"):
        MotivicClass({("X", 1): True})
    with pytest.raises(ValueError, match="symbol"):
        MotivicClass({(1, 1): 1})


def test_replay_rejects_forged_step():
    # a step claiming to rewrite a symbol the class never contained
    rule = blowup_rule("D", "F1", "X")
    before = atom("Q")
    after = atom("Q") + rule.rhs - atom("D")
    with pytest.raises(ReplayError):
        check_step(Step(before=before, rule=rule, after=after))
