"""Formal class arithmetic, rewriting, certificates, and replay checking."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2pair.cli import _json
from g2pair.errors import CircularRuleError, PoincareMismatchError, ReplayError
from g2pair.grothring import (
    MotivicClass,
    RewriteRule,
    Step,
    blowup_rule,
    normal_form,
    verify_g2_identity,
)
from g2pair.motive import L, LPolynomial
from g2pair.replay import (
    check_certificate,
    check_derivation,
    check_document,
    check_step,
    read_class,
)
from test_replay import printed_certificate

P5 = LPolynomial({k: 1 for k in range(6)})

atom = MotivicClass.atom


def test_class_basic_arithmetic():
    x = atom("X")
    assert not (x - x)
    assert x + x == atom("X", coeff=2)
    assert -x == atom("X", coeff=-1)
    assert x.coefficients() == {("X", 0): 1}
    assert ("X", 1) not in x.coefficients()


def test_linearity_of_l_multiplication():
    d = atom("X") - atom("Y")
    assert d.times_L(1) == atom("X", 1) - atom("Y", 1)
    assert 3 * d.times_L(1) == d.times_L(1) * 3 == atom("X", 1, 3) - atom("Y", 1, 3)
    assert d.times_L(2) == atom("X", 2) - atom("Y", 2)
    with pytest.raises(ValueError):
        d.times_L(-1)


def test_mixed_class():
    c = MotivicClass.from_lpoly(P5) + atom("X", 1)
    assert len(c.coefficients()) == 7
    assert c.symbols() == {"X"}
    assert str(c) == "1 + L + L^2 + L^3 + L^4 + L^5 + L*[X]"


def test_str_formats():
    assert str(MotivicClass()) == "0"
    assert str(atom("X", 1) - atom("Y", 1)) == "L*[X] - L*[Y]"
    assert str(atom("X", 2, coeff=3)) == "3*L^2*[X]"
    assert str(-atom("X")) == "-[X]"
    assert str(MotivicClass.from_lpoly(2 * LPolynomial.lefschetz(3))) == "2*L^3"


def test_products():
    # a class has int multiples and the shift times_L, and no other product
    pure = MotivicClass.from_lpoly(1 + L)
    x = atom("X")
    assert x * 3 == 3 * x == atom("X", coeff=3)
    for op in (lambda: pure * pure, lambda: x * pure, lambda: x * (1 + L),
               lambda: (1 + L) * x, lambda: x * atom("Y")):
        with pytest.raises(TypeError):
            op()


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


def test_blowup_rule_validation():
    with pytest.raises(ValueError):
        blowup_rule("D", "D", "X")  # collision
    with pytest.raises(ValueError):
        blowup_rule("D", "F", "D")
    with pytest.raises(ValueError):
        blowup_rule(LPolynomial({0: 1}), "F", "X")  # total must be a symbol
    for ambient, center in ((1 + L, "X"), ("F", LPolynomial({0: 1})), (1 + L, "pt")):
        with pytest.raises(ValueError, match="blow-up pieces must be symbols"):
            blowup_rule("D", ambient, center)


def test_rule_validation():
    with pytest.raises(ValueError):
        RewriteRule("X", atom("X") + atom("Y"))  # lhs reappears
    with pytest.raises(ValueError):
        RewriteRule("1", atom("Y"))  # reserved symbol


@pytest.mark.parametrize("rhs", (L, "X", None, {("X", 0): 1}))
def test_rule_right_side_must_be_a_class(rhs):
    message = f"rule right side must be a MotivicClass, got {type(rhs).__name__}"
    with pytest.raises(ValueError, match=message):
        RewriteRule("A", rhs)


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
    nf, deriv = normal_form(MotivicClass(), [blowup_rule("D", "F1", "X")])
    assert not nf
    assert deriv.steps == ()


@pytest.mark.parametrize("start", ("X", None, L, {("X", 0): 1}),
                         ids=("str", "None", "LPolynomial", "dict"))
def test_normal_form_start_must_be_a_class(start):
    # refused before any rule is read: no derivation may start at a str
    message = f"normal form start must be a MotivicClass, got {type(start).__name__}"
    for rules in ([], [blowup_rule("D", "F1", "X")], ["junk"]):
        with pytest.raises(ValueError, match=message):
            normal_form(start, rules)


@pytest.mark.parametrize("rule", ("junk", None, ("A", atom("B"), ""), atom("B")),
                         ids=("str", "None", "tuple", "MotivicClass"))
def test_normal_form_rules_must_be_rewrite_rules(rule):
    # refused by type, with ValueError rather than an AttributeError
    message = f"rewrite rule must be a RewriteRule, got {type(rule).__name__}"
    for rules in ([rule], [blowup_rule("D", "F1", "X"), rule], iter([rule])):
        with pytest.raises(ValueError, match=message):
            normal_form(atom("X"), rules)


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
    powers = [min(p for (s, p) in st.before.coefficients() if s == "B") for st in deriv.steps[1:]]
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
    f = 3 + 7 * LPolynomial.lefschetz(2)
    cert = verify_g2_identity(f, f)
    assert cert.final_line == "L*([X] - [Y]) = 0"


def test_no_l_cancellation():
    cert = verify_g2_identity(P5, P5)
    # the certified difference carries the factor of L; it is not [X] - [Y]
    assert cert.difference != atom("X") - atom("Y")
    assert all(p >= 1 for (_, p) in cert.difference.coefficients())
    # [X] - [Y] itself is inert under the certificate's rules: nonzero
    nf, _ = normal_form(atom("X") - atom("Y"), cert.rules())
    assert nf == atom("X") - atom("Y")
    assert nf


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
    # the document is the certificate's one printed form: it survives a
    # serialization pass, and replay reads back the classes written into it
    cert = verify_g2_identity(P5, P5)
    c = MotivicClass.from_lpoly(P5) + atom("X", 1) - atom("Y", 3)
    assert read_class(json.loads(json.dumps(c.to_json()))) == c.coefficients()
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc == cert.to_json()
    assert check_derivation(doc["left"]) == cert.left.final.coefficients()
    assert check_document(doc) == cert.difference.coefficients()


@given(st.lists(st.integers(-5, 5), max_size=9))
@settings(max_examples=60)
def test_certificate_documents_round_trip(coefficients):
    # degree <= 8, zero coefficients (and the zero polynomial) included
    f = LPolynomial(dict(enumerate(coefficients)))
    cert = verify_g2_identity(f, f)
    doc = cert.to_json()
    again = json.loads(json.dumps(doc))
    assert again == doc
    assert check_document(again) == {("X", 1): 1, ("Y", 1): -1}
    assert _json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_replay_accepts_genuine_certificate():
    cert = verify_g2_identity(P5, P5)
    assert check_derivation(cert.left.to_json()) == cert.left.final.coefficients()
    assert check_derivation(cert.right.to_json()) == cert.right.final.coefficients()
    difference = cert.difference.coefficients()
    assert check_certificate(cert) == check_document(cert.to_json()) == difference


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
        MotivicClass(),
    ):
        _, deriv = normal_form(start, rules)
        assert check_derivation(deriv.to_json()) == deriv.final.coefficients()


def tampered(cert, mutate):
    doc = cert.to_json()
    mutate(doc)
    return doc


def test_replay_rejects_coefficient_tampering():
    cert = verify_g2_identity(P5, P5)

    def bump_after(doc):
        # corrupt one coefficient in a recorded intermediate class
        doc["left"]["steps"][1]["after"]["terms"][0][2] += 1

    with pytest.raises(ReplayError):
        check_document(tampered(cert, bump_after))


def test_replay_rejects_rule_tampering():
    cert = verify_g2_identity(P5, P5)

    def bend_rule(doc):
        doc["left"]["steps"][0]["rule"]["rhs"]["terms"] = [["F1", 0, 1], ["X", 2, 1]]

    with pytest.raises(ReplayError):
        check_document(tampered(cert, bend_rule))


def test_replay_rejects_chain_break():
    cert = verify_g2_identity(P5, P5)

    def drop_step(doc):
        doc["left"]["steps"] = doc["left"]["steps"][1:]

    with pytest.raises(ReplayError):
        check_document(tampered(cert, drop_step))


def test_replay_rejects_start_mismatch():
    cert = verify_g2_identity(P5, P5)

    def shift_start(doc):
        doc["right"]["start"]["terms"] = [["E", 0, 1]]
        doc["right"]["steps"][0]["before"]["terms"] = [["E", 0, 1]]

    with pytest.raises(ReplayError):
        check_document(tampered(cert, shift_start))

    def rename_right_chain(doc):
        # every right-hand step stays a valid rule application on [E]
        shift_start(doc)
        doc["right"]["steps"][0]["rule"]["lhs"] = "E"

    with pytest.raises(ReplayError, match="chains start from different classes"):
        check_document(tampered(cert, rename_right_chain))


def test_replay_rejects_difference_tampering():
    cert = verify_g2_identity(P5, P5)

    def zero_difference(doc):
        doc["difference"]["terms"] = []

    with pytest.raises(ReplayError):
        check_document(tampered(cert, zero_difference))


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
    doc = printed_certificate("G2")
    step = doc["left"]["steps"][0]
    assert step["after"]["terms"] == step["rule"]["rhs"]["terms"] == [["F1", 0, 1], ["X", 1, 1]]
    assert check_document(doc) == {("X", 1): 1, ("Y", 1): -1}
    (step["after"] if where == "after" else step["rule"]["rhs"])["terms"] = terms
    with pytest.raises(ReplayError):
        check_document(doc)


RHS = {"terms": [["F1", 0, 1], ["X", 1, 1]]}


def step_document(rule):
    """One step rewriting [lhs] by the rule [lhs] -> [F1] + L*[X]."""
    lhs = rule["lhs"] if isinstance(rule["lhs"], str) and rule["lhs"] else "A"
    return {"before": {"terms": [[lhs, 0, 1]]}, "rule": rule, "after": RHS}


@pytest.mark.parametrize("lhs", (7, True, ["D"], None, ""))
def test_rule_symbols_must_be_strings(lhs):
    check_step(step_document({"lhs": "7", "rhs": RHS, "justification": ""}))
    with pytest.raises(ReplayError, match="rule symbol must be a nonempty str"):
        check_step(step_document({"lhs": lhs, "rhs": RHS, "justification": ""}))
    with pytest.raises(ValueError, match="rule symbol must be a nonempty string"):
        RewriteRule(lhs, atom("F1") + atom("X", 1))


@pytest.mark.parametrize("justification", (5, None, True, ["why"]))
def test_rule_justification_must_be_a_string(justification):
    check_step(step_document({"lhs": "A", "rhs": RHS}))
    check_step(step_document({"lhs": "A", "rhs": RHS, "justification": "5"}))
    with pytest.raises(ReplayError, match="rule justification must be a str"):
        check_step(step_document({"lhs": "A", "rhs": RHS, "justification": justification}))
    with pytest.raises(ValueError, match="rule justification must be a string"):
        RewriteRule("A", atom("1"), justification)


def test_rule_symbol_may_not_be_pure_or_on_its_right_side():
    with pytest.raises(ReplayError, match="rule symbol must be a nonempty str other than '1'"):
        check_step(step_document({"lhs": "1", "rhs": RHS, "justification": ""}))
    own = {"terms": [["F1", 0, 1], ["A", 1, 1]]}
    doc = {"before": {"terms": [["A", 0, 1]]}, "rule": {"lhs": "A", "rhs": own}, "after": own}
    with pytest.raises(ReplayError, match="mentions its own symbol"):
        check_step(doc)


def test_motivic_keys_refuse_bools():
    assert MotivicClass({("X", 1): 1}) == atom("X", 1)
    with pytest.raises(ValueError, match="^L-power must be an int, got bool True$"):
        MotivicClass({("X", True): 1})
    with pytest.raises(ValueError, match="^coefficient must be an int, got bool True$"):
        MotivicClass({("X", 1): True})
    with pytest.raises(ValueError, match="symbol"):
        MotivicClass({(1, 1): 1})


@pytest.mark.parametrize("key", (5, None, ("X",), ("X", 0, 1), "ab"))
def test_motivic_keys_must_be_pairs(key):
    # a string key of length 2 would unpack into two one-letter parts
    with pytest.raises(ValueError, match=r"^term key must be a \(symbol, L-power\) pair, got "):
        MotivicClass({key: 1})
    with pytest.raises(ValueError, match="term key must be a"):
        MotivicClass([(key, 1)])


def test_replay_rejects_forged_step():
    # a step claiming to rewrite a symbol the class never contained
    rule = blowup_rule("D", "F1", "X")
    before = atom("Q")
    after = atom("Q") + rule.rhs - atom("D")
    with pytest.raises(ReplayError):
        check_step(Step(before=before, rule=rule, after=after).to_json())
