"""Command-line front end.

One verb per pipeline stage, all deterministic: identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 for domain
failures (unknown type, cap exceeded, mismatched inputs) with a one-line
diagnosis on stderr, 2 for malformed invocations (argparse's own
convention).
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from .errors import DomainError
from .grothring import IdentityCertificate
from .motive import LPolynomial, poincare_polynomial
from .replay import check_certificate
from .rootsys import DEFAULT_ROOT_CAP, RootSystem, root_system, series_exponents
from .schubert import check_rank2_pair, degree_of_zero_locus
from .weyl import DEFAULT_GROUP_CAP, WeylGroup, check_order
from . import grothring


def _json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True)``, written
    without json's pure-Python indenting encoder.  Takes exactly dict (str
    keys), list, tuple, str, int, bool and None, with one join per
    container; anything else, floats included, raises TypeError.  A list
    of dicts that share one key set is written column by column."""
    return _write(doc, "\n")


_INT = {int}
_STR = {str}
_DICT = {dict}
_SEQ = {list, tuple}


def _write(v, nl: str) -> str:
    # nl is a newline plus the indent of the line that holds v.
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int:
        return int.__repr__(v)
    inner = nl + "  "
    sep = "," + inner
    if t is dict:
        if not v:
            return "{}"
        # _quote raises TypeError for a key that is not a str.
        items = [_quote(k) + ": " + _write(x, inner) for k, x in sorted(v.items())]
        return "{" + inner + sep.join(items) + nl + "}"
    if t is list or t is tuple:
        if not v:
            return "[]"
        types = {*map(type, v)}
        if types == _INT:
            return "[" + inner + sep.join(map(int.__repr__, v)) + nl + "]"
        keys = v[0].keys() if types == _DICT else None
        if keys and all(d.keys() == keys for d in v):
            return "[" + inner + sep.join(_rows(v, inner)) + nl + "]"
        return "[" + inner + sep.join([_write(x, inner) for x in v]) + nl + "]"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _rows(rows: Sequence[dict], nl: str) -> list[str]:
    """_write of each dict in ``rows``, which all have one key set: one
    %-template of the sorted, quoted keys, filled from columns that are
    each written in one pass."""
    keys = sorted(rows[0])
    inner = nl + "  "
    template = "{" + inner + ("," + inner).join(
        _quote(k).replace("%", "%%") + ": %s" for k in keys
    ) + nl + "}"
    columns = [_column([d[k] for d in rows], inner) for k in keys]
    return [template % cells for cells in zip(*columns)]


def _column(col: list, nl: str) -> list[str]:
    """[_write(x, nl) for x in col], with one map for a column of ints or
    of strs.  In a column of int lists, a list whose tail x[1:] came
    earlier (as each word of a walk follows its suffix) is its first
    letter plus the tail's text; any other takes one join."""
    types = {*map(type, col)}
    if types == _INT:
        return list(map(int.__repr__, col))
    if types == _STR:
        return list(map(_quote, col))
    if not (types <= _SEQ and {*map(type, chain.from_iterable(col))} <= _INT):
        return [_write(x, nl) for x in col]
    inner = nl + "  "
    sep = "," + inner
    body: dict[tuple, str] = {}
    out = []
    for x in map(tuple, col):
        if not x:
            out.append("[]")
            continue
        rest = body.get(x[1:])
        if rest is None:
            text = body[x] = sep.join(map(int.__repr__, x))
        else:
            text = body[x] = int.__repr__(x[0]) + sep + rest
        out.append("[" + inner + text + nl + "]")
    return out


def _parse_nodes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated node indices, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("type", help="Cartan type name (A1..G2) or JSON matrix literal")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--cap", type=int, default=None, metavar="N",
        help="enumeration cap for roots and group elements",
    )
    parser = argparse.ArgumentParser(
        prog="g2pair",
        description=(
            "Exact Weyl group, flag variety and Grothendieck-ring "
            "computations around a rank-2 pair of Calabi-Yau 3-folds."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {
        name: sub.add_parser(name, help=text, parents=[common])
        for name, text in (
            ("roots", "positive roots in simple-root coordinates"),
            ("weyl-order", "order of the Weyl group"),
            ("cosets", "minimal coset representatives of W/W_P"),
            ("poincare", "cell-count polynomial of G/P in L"),
            ("verify-identity", "derive and replay-check the relation L*([X] - [Y]) = 0"),
            ("degree", "degree of the 3-fold zero locus on one side"),
            ("certificate", "full report: cosets, cell counts, identity derivation, degrees"),
        )
    }
    verbs["cosets"].add_argument(
        "--parabolic", type=_parse_nodes, required=True, metavar="i[,j...]",
        help="nodes generating the parabolic subgroup",
    )
    verbs["poincare"].add_argument(
        "--parabolic", type=_parse_nodes, default=(), metavar="i[,j...]",
        help="nodes generating the parabolic subgroup (default: none, full flag)",
    )
    verbs["poincare"].add_argument(
        "--at", type=int, default=None, metavar="q",
        help="evaluate at L = q (point count over a field with q elements)",
    )
    verbs["degree"].add_argument(
        "--side", type=int, required=True, choices=(1, 2),
        help="which 5-dimensional quotient carries the zero locus",
    )
    return parser


def _root_system(ns: argparse.Namespace) -> RootSystem:
    cap = ns.cap if ns.cap is not None else DEFAULT_ROOT_CAP
    return root_system(ns.type, cap=cap)


def _group(ns: argparse.Namespace) -> WeylGroup:
    cap = ns.cap if ns.cap is not None else DEFAULT_GROUP_CAP
    exponents = series_exponents(ns.type, ns.cap if ns.cap is not None else DEFAULT_ROOT_CAP)
    if exponents is not None:
        # |W| = prod (m_i + 1): refuse a large rank before making its roots
        check_order(tuple(m + 1 for m in exponents), cap)
    return WeylGroup(_root_system(ns), cap=cap)


def _cmd_roots(ns: argparse.Namespace) -> str:
    rs = _root_system(ns)
    if ns.format == "json":
        return _json(
            {
                "type": ns.type,
                "rank": rs.rank,
                "count": len(rs.positive_roots),
                "positive_roots": rs.positive_roots,
            }
        )
    return "\n".join(" ".join(str(x) for x in r) for r in rs.positive_roots)


def _cmd_weyl_order(ns: argparse.Namespace) -> str:
    group = _group(ns)
    if ns.format == "json":
        return _json({"type": ns.type, "order": group.order})
    return str(group.order)


def _cmd_cosets(ns: argparse.Namespace) -> str:
    group = _group(ns)
    words = group.coset_words(ns.parabolic)
    if ns.format == "json":
        return _json(
            {
                "type": ns.type,
                "parabolic": group.normalize_parabolic(ns.parabolic),
                "count": len(words),
                "representatives": [
                    {"name": name, "word": w, "length": len(w)}
                    for name, w in zip(group.coset_names(ns.parabolic), words)
                ],
            }
        )
    return "\n".join(group.coset_names(ns.parabolic))


def _cmd_poincare(ns: argparse.Namespace) -> str:
    group = _group(ns)
    poly = poincare_polynomial(group, ns.parabolic)
    if ns.format == "json":
        doc = {
            "type": ns.type,
            "parabolic": group.normalize_parabolic(ns.parabolic),
            "pairs": poly.to_pairs(),
            "text": str(poly),
        }
        if ns.at is not None:
            doc["at"] = ns.at
            doc["value"] = poly.evaluate(ns.at)
        return _json(doc)
    if ns.at is not None:
        return str(poly.evaluate(ns.at))
    return str(poly)


def _identity_pipeline(
    group: WeylGroup,
) -> tuple[LPolynomial, LPolynomial, IdentityCertificate, int]:
    check_rank2_pair(group)
    f1 = poincare_polynomial(group, (1,))
    f2 = poincare_polynomial(group, (2,))
    cert = grothring.verify_g2_identity(f1, f2)
    check_certificate(cert)
    return f1, f2, cert, len(cert.left.steps) + len(cert.right.steps)


def _cmd_verify_identity(ns: argparse.Namespace) -> str:
    group = _group(ns)
    _, _, cert, steps = _identity_pipeline(group)
    if ns.format == "json":
        return _json(
            {
                "type": ns.type,
                "certificate": cert.to_json(),
                "replay": {"ok": True, "checked_steps": steps},
            }
        )
    note = f"replay check: all {steps} steps re-verified independently"
    return cert.render_text(note=note)


def _cmd_degree(ns: argparse.Namespace) -> str:
    group = _group(ns)
    deg = degree_of_zero_locus(group, ns.side)
    if ns.format == "json":
        return _json({"type": ns.type, "side": ns.side, "degree": deg})
    return str(deg)


def _cmd_certificate(ns: argparse.Namespace) -> str:
    group = _group(ns)
    f1, f2, cert, steps = _identity_pipeline(group)
    words1, words2 = group.coset_words((1,)), group.coset_words((2,))
    names1, names2 = group.coset_names((1,)), group.coset_names((2,))
    lengths = tuple(map(len, words1))
    flag_poly = poincare_polynomial(group, ())
    deg1 = degree_of_zero_locus(group, 1)
    deg2 = degree_of_zero_locus(group, 2)

    if ns.format == "json":
        return _json(
            {
                "type": ns.type,
                "weyl_order": group.order,
                "cosets": {
                    "side1": names1,
                    "side2": names2,
                    "length_bijection_ok": lengths == tuple(map(len, words2)),
                    "lengths": lengths,
                },
                "poincare": {
                    "side1": f1.to_pairs(),
                    "side2": f2.to_pairs(),
                    "full_flag": flag_poly.to_pairs(),
                    "equal": f1 == f2,
                },
                "certificate": cert.to_json(),
                "replay": {"ok": True, "checked_steps": steps},
                "degrees": {"side1": deg1, "side2": deg2},
            }
        )

    lines = [
        f"type: {ns.type}",
        f"weyl group order: {group.order}",
        "minimal coset representatives, side 1:",
    ]
    lines += [f"  {name}" for name in names1]
    lines.append("minimal coset representatives, side 2:")
    lines += [f"  {name}" for name in names2]
    lines.append(
        "length bijection: j-th member pairs with j-th member, lengths "
        + " ".join(str(k) for k in lengths)
    )
    lines.append(f"cell-count polynomial, side 1: {f1}")
    lines.append(f"cell-count polynomial, side 2: {f2}")
    lines.append(f"cell-count polynomial, full flag: {flag_poly}")
    lines.append("identity derivation:")
    note = f"replay check: all {steps} steps re-verified independently"
    lines += ["  " + ln for ln in cert.render_text(note=note).split("\n")]
    lines.append("degrees of the zero loci:")
    lines.append(f"  side 1: {deg1}")
    lines.append(f"  side 2: {deg2}")
    if deg1 != deg2:
        lines.append(
            f"the degrees differ ({deg1} != {deg2}): the certified relation "
            "holds with non-isomorphic zero loci"
        )
    else:
        lines.append("the degrees agree: this type does not separate the zero loci")
    return "\n".join(lines)


_DISPATCH = {
    "roots": _cmd_roots,
    "weyl-order": _cmd_weyl_order,
    "cosets": _cmd_cosets,
    "poincare": _cmd_poincare,
    "verify-identity": _cmd_verify_identity,
    "degree": _cmd_degree,
    "certificate": _cmd_certificate,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one invocation; returns the exit code instead of
    raising SystemExit so tests can call it in-process."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = _DISPATCH[ns.verb](ns)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
