"""Command-line front end.

One verb per pipeline stage, all deterministic: identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 for domain
failures (unknown type, cap exceeded, mismatched inputs) with a one-line
diagnosis on stderr, 2 for malformed invocations (argparse's own
convention), and 1 with nothing on stderr when a reader closes stdout
early (``| head``).  argparse is imported on the first parse, not with
this module.  ``cosets`` and ``certificate`` write names and JSON rows
straight from a group's Quotient: its letters, parent links and offsets.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from .errors import DomainError
from .grothring import IdentityCertificate
from .motive import LPolynomial, poincare_polynomial
from .replay import check_certificate
from .rootsys import _INT, DEFAULT_ROOT_CAP, RootSystem, root_system, series_exponents
from .schubert import check_rank2_pair, degree_of_zero_locus
from .weyl import DEFAULT_GROUP_CAP, WeylGroup, check_order
from . import grothring


def _json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True)``, written
    without json's pure-Python indenting encoder.  Takes exactly dict (str
    keys), list, tuple, str, int, bool, None and _WalkRows, with one join
    per container; anything else, floats included, raises TypeError."""
    return _write(doc, "\n")


class _WalkRows(namedtuple("_WalkRows", "letters parents offsets")):
    """The rows {"length", "name", "word"} of a walk of W/W_P from the
    columns a Quotient keeps: letters, parent indices and layer offsets,
    the last the cell count.  Written as a list of those dicts would be, in
    one pass: layer 0 is "e", and a later cell's name and word text are its
    letter plus its parent's.  A parent outside the layer below, or columns
    that disagree in length, raise ValueError."""

    def __call__(self, nl: str) -> str:
        letters, parents, offsets = self
        if offsets[0] != 0 or not len(letters) == len(parents) == offsets[-1]:
            raise ValueError("the columns of a walk disagree in length")
        if not letters:
            return "[]"
        inner, key, sep = nl + "  ", nl + "    ", "," + nl + "      "
        # a name is "e" or letters joined as "s1*s2": _quote only adds quotes
        row = f'{{{key}"length": %s,{key}"name": "%s",{key}"word": %s{inner}}}'
        full = row % ("%s", "%s", f"[{sep[1:]}%s{key}]")
        rows = [row % (0, "e", "[]")] * offsets[1]
        names, texts = ["e"] * offsets[1], [""] * offsets[1]
        heads = {i: (f"s{i}*", f"{i}{sep}") for i in set(letters[offsets[1]:])}
        for n in range(1, len(offsets) - 1):
            a, b = offsets[n], offsets[n + 1]
            ps = parents[a:b]
            if ps and (min(ps) < offsets[n - 1] or max(ps) >= a):
                raise ValueError(f"a cell of layer {n} has a parent outside layer {n - 1}")
            template = full % (n, "%s", "%s")
            for i, p in zip(letters[a:b], ps):
                name, text = heads[i]
                if n > 1:
                    name, text = name + names[p], text + texts[p]
                else:  # under layer 1 is the identity: no "*e", no separator
                    name, text = name[:-1], text[:-len(sep)]
                names.append(name)
                texts.append(text)
                rows.append(template % (name, text))
        return "[" + inner + ("," + inner).join(rows) + nl + "]"


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
        if {*map(type, v)} == _INT:
            return "[" + inner + sep.join(map(int.__repr__, v)) + nl + "]"
        return "[" + inner + sep.join([_write(x, inner) for x in v]) + nl + "]"
    if t is _WalkRows:
        return v(nl)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _parse_nodes(text: str) -> tuple[int, ...]:
    # only the empty string means no nodes; an empty part is malformed
    try:
        return tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(
            f"expected comma-separated node indices, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    import argparse
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
        for name, (_, text) in _VERBS.items()
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
        help="which of the two quotients carries the zero locus",
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
    q = _group(ns).quotient(ns.parabolic)
    if ns.format == "json":
        return _json(
            {
                "type": ns.type,
                "parabolic": q.parabolic,
                "count": len(q),
                "representatives": _WalkRows(q.letters, q.parents, q.offsets),
            }
        )
    return "\n".join(q.names())


def _cmd_poincare(ns: argparse.Namespace) -> str:
    group = _group(ns)
    poly = poincare_polynomial(group, ns.parabolic)
    value = None if ns.at is None else _value_at(poly, ns.at)
    if ns.format == "json":
        doc = {
            "type": ns.type,
            "parabolic": group.normalize_parabolic(ns.parabolic),
            "pairs": poly.to_pairs(),
            "text": str(poly),
        }
        if value is not None:
            doc["at"] = ns.at
            doc["value"] = value
        return _json(doc)
    return str(poly if value is None else value)


def _value_at(poly: LPolynomial, q: int) -> int:
    """poly(q), refused when it has more digits than the interpreter
    prints.  Cell counts are nonnegative with leading coefficient 1, so
    for degree D and |q| >= 2 poly(1), |poly(q)| > |q|^D / 2 >=
    2^((b - 1) D - 1) with b = q.bit_length(): a value that certainly
    has too many digits is refused before it is computed."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return poly.evaluate(q)
    pairs = poly.to_pairs()
    log2_bound = (q.bit_length() - 1) * pairs[-1][0] - 1
    if abs(q) < 2 * sum(c for _, c in pairs) or log2_bound < (10**limit).bit_length():
        value = poly.evaluate(q)
        if abs(value) < 10**limit:
            return value
    raise DomainError(f"the value at L = q has more than {limit} digits, "
                      "this interpreter's limit for printing an integer")


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
    side1, side2 = group.quotient((1,)), group.quotient((2,))
    names1, names2 = side1.names(), side2.names()
    lengths = side1.lengths()
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
                    "length_bijection_ok": lengths == side2.lengths(),
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


# verb -> (handler, help), in the order --help lists them
_VERBS = {
    "roots": (_cmd_roots, "positive roots in simple-root coordinates"),
    "weyl-order": (_cmd_weyl_order, "order of the Weyl group"),
    "cosets": (_cmd_cosets, "minimal coset representatives of W/W_P"),
    "poincare": (_cmd_poincare, "cell-count polynomial of G/P in L"),
    "verify-identity": (
        _cmd_verify_identity, "derive and replay-check the relation L*([X] - [Y]) = 0"
    ),
    "degree": (_cmd_degree, "degree of the codimension-2 zero locus on one side"),
    "certificate": (
        _cmd_certificate, "full report: cosets, cell counts, identity derivation, degrees"
    ),
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one invocation; returns the exit code instead of
    raising SystemExit so tests can call it in-process.  ``argv`` is a
    list or tuple of arguments; a single string raises TypeError, since
    argparse would read it one character per argument."""
    if isinstance(argv, str):
        raise TypeError(f"argv must be a list of arguments, not a str: {argv!r}")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = _VERBS[ns.verb][0](ns)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory running {ns.verb}", file=sys.stderr)
        return 1
    print(out)
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head``).  Point fd 1 at devnull so
        # the interpreter's last flush of the dead pipe stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
