"""Cartan matrix parsing and positive root generation."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2pair.cli import _WalkRows
from g2pair.errors import CapExceededError, UnknownTypeError
from g2pair.grothring import MotivicClass, RewriteRule, verify_g2_identity
from g2pair.motive import LPolynomial
from g2pair.rootsys import (
    CartanMatrix,
    RootSystem,
    check_cap,
    check_node,
    generate_root_system,
    parse_cartan,
    reflect_weight,
    root_system,
    series_exponents,
)
from g2pair.schubert import DivisorClass
from g2pair.weyl import WeylGroup
from weyl_oracles import coroot_coordinates, matvec, reflect, simple_root


def simple_reflection_matrix(rs, i):
    """s_i on the root lattice from row i of the Cartan matrix."""
    a = rs.cartan.entries
    n = rs.rank
    return tuple(
        tuple((1 if r == c else 0) - (a[i - 1][c] if r == i - 1 else 0) for c in range(n))
        for r in range(n)
    )


def coroot_pairing(rs, v, beta):
    """<v, beta_check> = sum_j v_j sum_i c_i a[i][j], with c = rs.coroots of
    the positive root beta and a[i][j] = <alpha_j, alpha_i_check>."""
    c = rs.coroots[rs.positive_roots.index(beta)]
    a, n = rs.cartan.entries, rs.rank
    return sum(v[j] * sum(c[i] * a[i][j] for i in range(n)) for j in range(n))


def reflection_matrix(rs, beta):
    """s_beta on the root lattice: column j is alpha_j - <alpha_j, beta_check> beta."""
    n = rs.rank
    pair = [coroot_pairing(rs, simple_root(rs, j + 1), beta) for j in range(n)]
    return tuple(
        tuple((1 if r == c else 0) - pair[c] * beta[r] for c in range(n)) for r in range(n)
    )


def test_parse_named_g2():
    c = parse_cartan("G2")
    assert c.rank == 2
    assert c.entries == ((2, -1), (-3, 2))
    assert c.symmetrizer == (3, 1)


def test_cartan_entry_orientation():
    # entry(i, j) = <alpha_j, alpha_i_check>; for G2 the long root is node 1
    c = parse_cartan("G2")
    assert c.entry(1, 2) == -1
    assert c.entry(2, 1) == -3


def test_parse_matrix_literal():
    c = parse_cartan("[[2,0],[0,2]]")
    assert c.rank == 2
    assert c.entries == ((2, 0), (0, 2))
    assert c.symmetrizer == (1, 1)


def test_parse_rejects_bad_names():
    for bad in ("Z3", "G3", "G1", "F5", "E9", "E5", "D2", "A0", "", "A", "2G", "H3"):
        with pytest.raises(UnknownTypeError):
            parse_cartan(bad)


def test_parse_rejects_bad_literals():
    with pytest.raises(UnknownTypeError):
        parse_cartan("[[2,-1],[-1]]")
    with pytest.raises(UnknownTypeError):
        parse_cartan("[[2,1],[1,2]]")  # positive off-diagonal
    with pytest.raises(UnknownTypeError):
        parse_cartan("[[2,-1],[0,2]]")  # asymmetric zero
    with pytest.raises(UnknownTypeError):
        parse_cartan("[not json]")


@pytest.mark.parametrize("name", ("G2\u00b2", "A\u0661", "g2", "AA2", "A", "2G", "G 2", "G2a"))
def test_a_type_name_is_one_letter_a_to_g_and_ascii_digits(name):
    # superscript and Arabic-Indic digits are digits to str.isdigit, not here
    with pytest.raises(UnknownTypeError, match="^unknown type name"):
        parse_cartan(name)
    assert series_exponents(name, 100) is None


def test_a_type_name_reads_its_rank_as_decimal_digits():
    assert parse_cartan("A03") == parse_cartan("A3") and series_exponents("A03", 100) == (1, 2, 3)
    assert parse_cartan(" G2\n") == parse_cartan("G2")
    with pytest.raises(UnknownTypeError, match="^rank must be positive in 'A0'$"):
        parse_cartan("A0")
    with pytest.raises(UnknownTypeError, match="^type D has a 5000-digit rank$"):
        parse_cartan("D" + "1" * 5000)


def test_oversized_integers_are_unknown_types():
    # past the interpreter's limit on converting text to int
    rank, entry = "A" + "9" * 5000, "[[" + "2" + "0" * 5000 + "]]"
    with pytest.raises(UnknownTypeError, match="type A has a 5000-digit rank"):
        parse_cartan(rank)
    with pytest.raises(UnknownTypeError, match="type A has a 5000-digit rank"):
        series_exponents(rank, 100)
    with pytest.raises(UnknownTypeError, match="bad matrix literal: an entry has too many"):
        parse_cartan(entry)


def test_cartan_validation_direct():
    with pytest.raises(ValueError):
        CartanMatrix(((1,),))
    with pytest.raises(ValueError):
        CartanMatrix(((2, -1), (-1, 2), (0, 0)))


def test_cartan_entries_refuse_bools():
    # bool is an int subclass: False would read as 0 and True as 1
    for entries, bad in ((((2, False), (False, 2)), False), (((True, -1), (-1, 2)), True),
                         (((2, -1), (-1, True)), True)):
        with pytest.raises(ValueError, match=f"^Cartan entry must be an int, got bool {bad}$"):
            CartanMatrix(entries)
    for literal, bad in (("[[2,false],[false,2]]", False), ("[[true,-1],[-1,2]]", True)):
        message = f"^Cartan entry must be an int, got bool {bad}$"
        with pytest.raises(UnknownTypeError, match=message):
            parse_cartan(literal)


def test_caps_refuse_bools():
    rs = root_system("A2")
    for call in (
        lambda cap: generate_root_system(rs.cartan, cap=cap),
        lambda cap: root_system("A2", cap=cap),
        lambda cap: WeylGroup(rs, cap=cap),
        check_cap,
    ):
        for cap in (True, False):
            with pytest.raises(ValueError, match=f"^cap must be an int, got bool {cap}$"):
                call(cap)
        with pytest.raises(ValueError, match="^cap must be an int, got float 10.0$"):
            call(10.0)
        with pytest.raises(ValueError, match="^cap must be positive$"):
            call(0)
    assert check_cap(1) == 1
    assert WeylGroup(rs, cap=6).order == 6


def test_symmetrizers():
    assert parse_cartan("A3").symmetrizer == (1, 1, 1)
    assert parse_cartan("B2").symmetrizer == (2, 1)
    assert parse_cartan("C3").symmetrizer == (1, 1, 2)
    assert parse_cartan("F4").symmetrizer == (2, 2, 1, 1)


def test_not_symmetrizable():
    # 3-cycle with inconsistent length ratios
    m = CartanMatrix(((2, -1, -1), (-1, 2, -1), (-1, -2, 2)))
    with pytest.raises(ValueError):
        m.symmetrizer


def test_positive_root_counts():
    # classical counts: A_n -> n(n+1)/2, B_n/C_n -> n^2, D_n -> n(n-1),
    # G2 -> 6, F4 -> 24, E6/E7/E8 -> 36/63/120
    expected = {
        "A1": 1,
        "A2": 3,
        "A3": 6,
        "A4": 10,
        "B2": 4,
        "B3": 9,
        "C3": 9,
        "D4": 12,
        "G2": 6,
        "F4": 24,
        "E6": 36,
        "E7": 63,
        "E8": 120,
    }
    for name, count in expected.items():
        assert len(root_system(name).positive_roots) == count, name


def test_g2_positive_roots_exact():
    rs = root_system("G2")
    assert rs.positive_roots == (
        (0, 1),
        (1, 0),
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 3),
    )


def test_g2_root_norms():
    # (beta, beta) = sum_k b_k (alpha_k, beta) = sum_k b_k d_k <beta, alpha_k_check>
    rs = root_system("G2")
    d = rs.cartan.symmetrizer
    norms = {
        beta: sum(b * dk * wk for b, dk, wk in zip(beta, d, w))
        for beta, w in zip(rs.positive_roots, rs.weights)
    }
    assert norms == {
        (1, 0): 6,
        (0, 1): 2,
        (1, 1): 2,
        (1, 2): 2,
        (1, 3): 6,
        (2, 3): 6,
    }


def moved(rs, i, beta):
    """s_i(beta) for a positive root beta, read off WeylGroup.root_moves."""
    roots = rs.positive_roots
    a, perm = WeylGroup(rs).root_moves[i - 1]
    n = roots.index(beta)
    return tuple(-x for x in beta) if n == a else roots[perm[n]]


def test_reflect_examples():
    g2 = root_system("G2")
    assert moved(g2, 2, (1, 0)) == (1, 3)
    assert moved(g2, 1, (0, 1)) == (1, 1)
    assert moved(g2, 1, (1, 0)) == (-1, 0)
    a2 = root_system("A2")
    assert moved(a2, 1, (0, 1)) == (1, 1)


def test_reflection_permutes_other_positives():
    for name in ("A2", "B2", "G2", "A3"):
        rs = root_system(name)
        pos = set(rs.positive_roots)
        for i in range(1, rs.rank + 1):
            alpha = simple_root(rs, i)
            others = pos - {alpha}
            images = {moved(rs, i, beta) for beta in others}
            assert images == others, (name, i)
            assert moved(rs, i, alpha) == tuple(-x for x in alpha)


def test_coroot_pairings():
    a2 = root_system("A2")
    assert coroot_pairing(a2, simple_root(a2, 1), simple_root(a2, 2)) == -1
    g2 = root_system("G2")
    # <alpha_1, alpha_2_check> = a[2][1] = -3 with node 1 long
    assert coroot_pairing(g2, simple_root(g2, 1), simple_root(g2, 2)) == -3
    assert coroot_pairing(g2, simple_root(g2, 2), simple_root(g2, 1)) == -1


def test_g2_coroot_coordinates():
    rs = root_system("G2")
    expected = {
        (1, 0): (1, 0),
        (0, 1): (0, 1),
        (1, 1): (3, 1),
        (1, 2): (3, 2),
        (1, 3): (1, 1),
        (2, 3): (2, 1),
    }
    assert dict(zip(rs.positive_roots, rs.coroots)) == expected
    for beta in expected:
        # <beta, beta_check> = 2 for every root
        assert coroot_pairing(rs, beta, beta) == 2, beta


def test_coroot_rejects_non_root():
    # 2 alpha_1 has (beta, beta) = 24 and no integral coroot
    rs = root_system("G2")
    with pytest.raises(ValueError, match="^coroot is not integral; invalid root data$"):
        RootSystem(rs.cartan, rs.positive_roots + ((2, 0),)).coroots
    with pytest.raises(ValueError):
        coroot_coordinates(rs, (2, 0))


def test_is_root():
    rs = root_system("G2")
    roots = set(rs.positive_roots) | {tuple(-x for x in b) for b in rs.positive_roots}
    assert (1, 3) in roots
    assert (-1, -3) in roots
    assert (2, 0) not in roots
    assert (0, 0) not in roots


def test_reflection_matrix_matches_simple():
    for name in ("A2", "B2", "G2"):
        rs = root_system(name)
        for i in range(1, rs.rank + 1):
            assert reflection_matrix(rs, simple_root(rs, i)) == simple_reflection_matrix(rs, i)


def test_reflection_matrix_involution_and_negation():
    rs = root_system("G2")
    for beta in rs.positive_roots:
        m = reflection_matrix(rs, beta)
        assert matvec(m, beta) == tuple(-x for x in beta)
        # involution: applying twice is the identity
        assert all(
            matvec(m, matvec(m, simple_root(rs, j + 1))) == simple_root(rs, j + 1)
            for j in range(rs.rank)
        )


def test_generation_idempotent():
    rs = root_system("G2")
    again = generate_root_system(rs.cartan)
    assert again.positive_roots == rs.positive_roots


def test_cap_exceeded_on_affine_literal():
    with pytest.raises(CapExceededError):
        root_system("[[2,-2],[-2,2]]", cap=50)


def test_node_index_validation():
    rs = root_system("G2")
    g = WeylGroup(rs)
    with pytest.raises(ValueError, match="^node index 0 out of range 1..2$"):
        check_node(0, rs.rank)
    with pytest.raises(ValueError, match="^letter 3 out of range 1..2$"):
        g.from_word([3])
    with pytest.raises(ValueError, match="^parabolic node 0 out of range 1..2$"):
        g.normalize_parabolic([0])


SERIES = (
    [f"A{n}" for n in range(1, 8)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 8)]
)


@pytest.mark.parametrize("name", SERIES)
def test_series_exponents_match_the_roots(name):
    # Kostant: roots of height h number #{m_i >= h}, and |W| = prod (m_i + 1)
    rs = root_system(name)
    count = len(rs.positive_roots)
    exponents = series_exponents(name, count)
    heights = [sum(beta) for beta in rs.positive_roots]
    for h in range(1, max(heights) + 2):
        assert heights.count(h) == sum(1 for m in exponents if m >= h), (name, h)
    assert sorted(m + 1 for m in exponents) == sorted(WeylGroup(rs).degrees)
    # below the root count the exponents refuse with generation's own message
    for cap in range(1, count):
        with pytest.raises(CapExceededError) as generated:
            generate_root_system(parse_cartan(name), cap=cap)
        with pytest.raises(CapExceededError) as early:
            series_exponents(name, cap)
        assert str(early.value) == str(generated.value), (name, cap)


def test_series_exponents_leave_other_names_alone():
    for name in ("E6", "F4", "G2", "[[2,-1],[-1,2]]", "A0", "B1", "C1", "D2", "Z3", "D"):
        assert series_exponents(name, 1) is None, name


# --- generation against the direct loop ------------------------------


def oracle_positive_roots(cartan):
    """The positive roots by recomputing every pairing c = row . v: the
    same closure by height, O(|roots| * rank^2), sharing nothing with the
    pairings the library carries from root to root."""
    n, a = cartan.rank, cartan.entries
    layers = {1: {tuple(int(k == i) for k in range(n)) for i in range(n)}}
    found, h = [], 1
    while h in layers:
        layer = sorted(layers.pop(h))
        found += layer
        for v in layer:
            for i, row in enumerate(a):
                c = sum(x * y for x, y in zip(row, v))
                if c < 0:
                    layers.setdefault(h - c, set()).add(v[:i] + (v[i] - c,) + v[i + 1:])
        h += 1
    return tuple(found)


NAMED_UP_TO_RANK_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", NAMED_UP_TO_RANK_8)
def test_generation_matches_the_direct_loop_on_named_types(name):
    cartan = parse_cartan(name)
    assert generate_root_system(cartan).positive_roots == oracle_positive_roots(cartan)


COMPONENTS = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4")


@st.composite
def finite_literals(draw):
    """A finite-type Cartan matrix as a literal: named components, each
    maybe transposed (its dual), on shuffled nodes."""
    parts = draw(st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3))
    blocks = []
    for name in parts:
        m = parse_cartan(name).entries
        blocks.append([list(r) for r in zip(*m)] if draw(st.booleans()) else [list(r) for r in m])
    n = sum(map(len, blocks))
    full, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            full[at + i][at:at + len(b)] = row
        at += len(b)
    order = draw(st.permutations(range(n)))
    return "[" + ",".join(
        "[" + ",".join(str(full[i][j]) for j in order) + "]" for i in order
    ) + "]"


@given(finite_literals())
@settings(max_examples=60)
def test_generation_matches_the_direct_loop_on_drawn_literals(literal):
    cartan = parse_cartan(literal)
    assert generate_root_system(cartan).positive_roots == oracle_positive_roots(cartan)


# --- the root data RootSystem owns, against the removed formulas -------


def check_root_data(rs):
    """Coroots are the positive roots of the dual system (the transposed
    Cartan matrix) and pair to 2 with their roots; coroots, weights and
    root_moves equal the formulas through the symmetrized bilinear form,
    the Cartan rows and the root-lattice reflection; reflect_weight along
    CartanMatrix.columns sends the weight of beta to that of s_i beta."""
    a, roots = rs.cartan.entries, rs.positive_roots
    dual = generate_root_system(CartanMatrix(tuple(zip(*a))))
    assert set(rs.coroots) == set(dual.positive_roots)
    assert len(rs.coroots) == len(roots)
    for c, w in zip(rs.coroots, rs.weights):
        assert sum(x * y for x, y in zip(c, w)) == 2, (c, w)
    assert rs.coroots == tuple(coroot_coordinates(rs, beta) for beta in roots)
    assert rs.weights == tuple(matvec(a, beta) for beta in roots)
    index = {beta: n for n, beta in enumerate(roots)}
    group = WeylGroup(rs, cap=10**30)
    assert group.root_moves == tuple(
        (
            index[simple_root(rs, i)],
            tuple(index.get(reflect(rs, i, beta), n) for n, beta in enumerate(roots)),
        )
        for i in range(1, rs.rank + 1)
    )
    for i, column in enumerate(rs.cartan.columns):
        for beta, w in zip(roots, rs.weights):
            assert reflect_weight(w, i, column) == matvec(a, reflect(rs, i + 1, beta))


@pytest.mark.parametrize("name", NAMED_UP_TO_RANK_8)
def test_root_data_on_named_types(name):
    check_root_data(root_system(name))


@given(finite_literals())
@settings(max_examples=60)
def test_root_data_on_drawn_literals(literal):
    check_root_data(root_system(literal))


def _certificate():
    return verify_g2_identity(LPolynomial({0: 1, 1: 1}), LPolynomial({0: 1, 1: 1}))


# One value of each record class, and its field names in order
RECORDS = {
    "CartanMatrix": (lambda: CartanMatrix(((2, -1), (-1, 2))), ("entries",)),
    "RootSystem": (lambda: root_system("B2"), ("cartan", "positive_roots")),
    "DivisorClass": (lambda: DivisorClass((1, 2)), ("weights",)),
    "RewriteRule": (
        lambda: RewriteRule("X", MotivicClass.atom("Y"), "why"), ("lhs", "rhs", "justification")
    ),
    "Step": (lambda: _certificate().left.steps[0], ("before", "rule", "after")),
    "Derivation": (lambda: _certificate().left, ("start", "steps")),
    "IdentityCertificate": (lambda: _certificate(), ("left", "right", "difference")),
    "_WalkRows": (lambda: _WalkRows((0, 1, 2), (-1, 0, 0), (0, 1, 3, 3)),
                  ("letters", "parents", "offsets")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_tuples_with_named_fields(name):
    make, fields = RECORDS[name]
    x = make()
    cls = type(x)
    assert cls.__name__ == name and cls._fields == fields and isinstance(x, tuple)
    assert len(x) == len(fields)
    for i, field in enumerate(fields):
        assert getattr(x, field) is x[i]
        assert type(getattr(cls, field)).__name__ == "_tuplegetter"
    # positional and keyword construction, tuple equality and hash
    assert cls(*x) == x == cls(**dict(zip(fields, x))) == tuple(x)
    assert hash(x) == hash(tuple(x))
    assert repr(x) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, x))})"
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(twin) is cls and twin == x
    assert repr(pickle.loads(pickle.dumps(x))) == repr(x)


def test_record_reprs():
    assert repr(CartanMatrix(((2, -1), (-1, 2)))) == "CartanMatrix(entries=((2, -1), (-1, 2)))"
    assert repr(root_system("A1")) == (
        "RootSystem(cartan=CartanMatrix(entries=((2,),)), positive_roots=((1,),))"
    )
    assert repr(DivisorClass((1, 2))) == "DivisorClass(weights=(1, 2))"
    assert repr(RewriteRule("X", MotivicClass.atom("Y"), "why")) == (
        "RewriteRule(lhs='X', rhs=MotivicClass({('Y', 0): 1}), justification='why')"
    )
    assert repr(_WalkRows((), (), (0, 0))) == "_WalkRows(letters=(), parents=(), offsets=(0, 0))"


def test_cartan_matrices_and_root_systems_cache_derived_data():
    rs = root_system("G2")
    c = rs.cartan
    assert c.symmetrizer is c.symmetrizer and c.columns is c.columns
    assert rs.weights is rs.weights and rs.coroots is rs.coroots
    assert {"symmetrizer", "columns"} <= vars(c).keys()
    assert {"weights", "coroots"} <= vars(rs).keys()
    for twin in (pickle.loads(pickle.dumps(rs)), copy.copy(rs), copy.deepcopy(rs)):
        assert twin == rs and twin.weights == rs.weights and twin.coroots == rs.coroots
        assert twin.cartan.symmetrizer == c.symmetrizer


# A valid value of each checked record, and fields its __new__ refuses
CHECKED_TUPLES = {
    "CartanMatrix": (CartanMatrix(((2, -1), (-1, 2))), (((3, 1), (1, 3)),)),
    "DivisorClass": (DivisorClass((1, 2)), ((True, 1.5),)),
    "RewriteRule": (RewriteRule("X", MotivicClass.atom("Y")), ("", MotivicClass.atom("Y"), "")),
}


@pytest.mark.parametrize("route", ("positional", "keyword"))
@pytest.mark.parametrize("name", sorted(CHECKED_TUPLES))
def test_checked_records_refuse_bad_fields(name, route):
    good, bad = CHECKED_TUPLES[name]
    cls, fields = type(good), type(good)._fields

    def make(values):
        return cls(*values) if route == "positional" else cls(**dict(zip(fields, values)))

    with pytest.raises(ValueError):
        make(bad)
    with pytest.raises(ValueError):  # one bad field among good ones is refused too
        make(bad[:1] + good[1:])
    # valid fields still pass, and pickle and copy round-trip
    assert make(good) == good and type(make(good)) is cls
    assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")
    for twin in (pickle.loads(pickle.dumps(good)), copy.copy(good), copy.deepcopy(good)):
        assert type(twin) is cls and twin == good
