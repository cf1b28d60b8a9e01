"""Cartan matrix parsing and positive root generation."""

import pytest

from g2pair.errors import CapExceededError, UnknownTypeError
from g2pair.rootsys import (
    CartanMatrix,
    check_cap,
    generate_root_system,
    matvec,
    parse_cartan,
    root_system,
    series_exponents,
)
from g2pair.weyl import WeylGroup


def simple_reflection_matrix(rs, i):
    """s_i on the root lattice from row i of the Cartan matrix."""
    a = rs.cartan.entries
    n = rs.rank
    return tuple(
        tuple((1 if r == c else 0) - (a[i - 1][c] if r == i - 1 else 0) for c in range(n))
        for r in range(n)
    )


def coroot_pairing(rs, v, beta):
    """<v, beta_check> = sum_j v_j sum_i c_i a[i][j], with c the coordinates
    of beta_check in the simple coroots and a[i][j] = <alpha_j, alpha_i_check>."""
    c, a, n = rs.coroot_coordinates(beta), rs.cartan.entries, rs.rank
    return sum(v[j] * sum(c[i] * a[i][j] for i in range(n)) for j in range(n))


def reflection_matrix(rs, beta):
    """s_beta on the root lattice: column j is alpha_j - <alpha_j, beta_check> beta."""
    n = rs.rank
    pair = [coroot_pairing(rs, rs.simple_root(j + 1), beta) for j in range(n)]
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


def test_cartan_validation_direct():
    with pytest.raises(ValueError):
        CartanMatrix(((1,),))
    with pytest.raises(ValueError):
        CartanMatrix(((2, -1), (-1, 2), (0, 0)))


def test_cartan_entries_refuse_bools():
    # bool is an int subclass: False would read as 0 and True as 1
    for entries in (((2, False), (False, 2)), ((True, -1), (-1, 2)), ((2, -1), (-1, True))):
        with pytest.raises(ValueError, match="^Cartan entries must be integers$"):
            CartanMatrix(entries)
    for literal in ("[[2,false],[false,2]]", "[[true,-1],[-1,2]]"):
        with pytest.raises(UnknownTypeError, match="^Cartan entries must be integers$"):
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
    rs = root_system("G2")
    norms = {beta: rs.norm2(beta) for beta in rs.positive_roots}
    assert norms == {
        (1, 0): 6,
        (0, 1): 2,
        (1, 1): 2,
        (1, 2): 2,
        (1, 3): 6,
        (2, 3): 6,
    }


def test_reflect_examples():
    g2 = root_system("G2")
    assert g2.reflect(2, (1, 0)) == (1, 3)
    assert g2.reflect(1, (0, 1)) == (1, 1)
    assert g2.reflect(1, (1, 0)) == (-1, 0)
    a2 = root_system("A2")
    assert a2.reflect(1, (0, 1)) == (1, 1)


def test_reflection_permutes_other_positives():
    for name in ("A2", "B2", "G2", "A3"):
        rs = root_system(name)
        pos = set(rs.positive_roots)
        for i in range(1, rs.rank + 1):
            alpha = rs.simple_root(i)
            others = pos - {alpha}
            images = {rs.reflect(i, beta) for beta in others}
            assert images == others, (name, i)
            assert rs.reflect(i, alpha) == tuple(-x for x in alpha)


def test_coroot_pairings():
    a2 = root_system("A2")
    assert coroot_pairing(a2, a2.simple_root(1), a2.simple_root(2)) == -1
    g2 = root_system("G2")
    # <alpha_1, alpha_2_check> = a[2][1] = -3 with node 1 long
    assert coroot_pairing(g2, g2.simple_root(1), g2.simple_root(2)) == -3
    assert coroot_pairing(g2, g2.simple_root(2), g2.simple_root(1)) == -1


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
    for beta, coords in expected.items():
        assert rs.coroot_coordinates(beta) == coords, beta
        # <beta, beta_check> = 2 for every root
        assert coroot_pairing(rs, beta, beta) == 2, beta


def test_coroot_rejects_non_root():
    rs = root_system("G2")
    with pytest.raises(ValueError):
        rs.coroot_coordinates((2, 0))


def test_is_root():
    rs = root_system("G2")
    assert rs.is_root((1, 3))
    assert rs.is_root((-1, -3))
    assert not rs.is_root((2, 0))
    assert not rs.is_root((0, 0))


def test_reflection_matrix_matches_simple():
    for name in ("A2", "B2", "G2"):
        rs = root_system(name)
        for i in range(1, rs.rank + 1):
            assert reflection_matrix(rs, rs.simple_root(i)) == simple_reflection_matrix(rs, i)


def test_reflection_matrix_involution_and_negation():
    rs = root_system("G2")
    for beta in rs.positive_roots:
        m = reflection_matrix(rs, beta)
        assert matvec(m, beta) == tuple(-x for x in beta)
        # involution: applying twice is the identity
        assert all(
            matvec(m, matvec(m, rs.simple_root(j + 1))) == rs.simple_root(j + 1)
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
    with pytest.raises(ValueError):
        rs.simple_root(0)
    with pytest.raises(ValueError):
        rs.reflect(3, (1, 0))


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
