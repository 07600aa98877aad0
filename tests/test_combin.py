"""Lattice paths, loop diagrams, symmetric ASM classes, residue checks."""

import hashlib
import random
from fractions import Fraction

import mpmath
import pytest

from dycksum.combin import (
    FPL_MAX_L,
    PATHS_MAX_L,
    VSASM_LIST_MAX_SIZE,
    VSASM_MAX_SIZE,
    LinkPattern,
    PoleCollisionError,
    YoungTableau,
    convert,
    dyck_to_link,
    dyck_to_tableau,
    enumerate_fpl,
    enumerate_vsasm,
    lgv_tee,
    link_to_dyck,
    link_to_tableau,
    p_restricted_count,
    path_count,
    residue_identity_check,
    residue_sweep,
    sfactor,
    tableau_to_dyck,
    tableau_to_link,
    vsasm_genfun,
    vsasm_product,
)
from dycksum.hirota import EnumerationBudgetError
from dycksum.qkz import DyckPath, dyck_family, enumerate_dyck, partial_sum, solve_psi
from dycksum.ring import TauPoly
from dycksum.tee import tee

D = DyckPath.from_string


# ---------------------------------------------------------------------------
# path model
# ---------------------------------------------------------------------------


def test_lgv_fixtures():
    assert lgv_tee(9, 0, 4) == TauPoly.one()
    assert lgv_tee(4, 1, 2) == TauPoly({0: 2, 2: 1})
    assert lgv_tee(13, 4, 3) == tee(13, 4, 3)


def test_path_count_fixtures():
    assert path_count(4, 1, 2) == TauPoly({0: 2, 2: 1})
    assert path_count(7, 0, 3) == TauPoly.one()
    assert path_count(6, 2, 1) == tee(6, 2, 1)


def test_lgv_triangle_sweep():
    for L in range(2, 11):
        for p in range(0, L // 2 + 1):
            for k in range(0, L - 2 * p + 1):
                t = tee(L, p, k)
                assert lgv_tee(L, p, k) == t, (L, p, k)
                assert path_count(L, p, k) == t, (L, p, k)


def test_path_count_budget():
    with pytest.raises(EnumerationBudgetError):
        path_count(PATHS_MAX_L + 1, 2, 1)


def test_path_count_matches_tee_through_L14():
    for L in range(2, 15):
        for p in range(0, L // 2 + 1):
            for k in range(0, L - 2 * p + 1):
                assert path_count(L, p, k) == tee(L, p, k), (L, p, k)


def test_path_count_matches_tee_at_large_L():
    assert path_count(20, 6, 4) == tee(20, 6, 4)
    assert path_count(16, 2, 1) == tee(16, 2, 1)


def test_path_count_off_triangle():
    # k' = -1 lies off the admissible triangle, but every start is on its side
    assert path_count(6, 2, 3) == TauPoly({0: 17, 2: 9})
    assert path_count(7, 3, 2) == TauPoly({0: 24, 2: 76, 4: 56, 6: 14})
    assert path_count(8, 3, 3) == TauPoly({0: 155, 2: 307, 4: 156, 6: 28})
    assert path_count(6, 1, 5) == TauPoly({0: 5})
    assert path_count(4, 1, 3) == TauPoly({0: 3})
    # a start on the wrong side of the axis: k < 0 or k' < -1
    for L, p, k in ((6, 2, -1), (8, 2, -2), (6, 2, 4), (5, 3, 0)):
        assert path_count(L, p, k).is_zero(), (L, p, k)


# ---------------------------------------------------------------------------
# factorised count
# ---------------------------------------------------------------------------


def test_sfactor_fixtures():
    assert abs(sfactor(4, 1) - 3) < mpmath.mpf(10) ** -40
    assert abs(sfactor(6, 2) - 26) < mpmath.mpf(10) ** -40
    # pinned prefactor convention: the empty product gives exactly 1 at p=0
    for L in range(4, 13):
        assert abs(sfactor(L, 0) - 1) < mpmath.mpf(10) ** -40


def test_sfactor_matches_exact_counts():
    for L in range(4, 13):
        for p in range(0, (L - 1) // 2 + 1):
            exact = int(tee(L, p, L // 2 - p + 1).at_tau_one())
            approx = sfactor(L, p, 256)
            with mpmath.workprec(256):
                assert abs(approx - exact) / exact < mpmath.mpf(10) ** -20, (L, p)


def test_sfactor_guards():
    with pytest.raises(ValueError):
        sfactor(6, 2, 64)
    with pytest.raises(ValueError):
        sfactor(6, 5)


# ---------------------------------------------------------------------------
# vertically symmetric ASMs
# ---------------------------------------------------------------------------


VSASM_COUNTS = {3: 1, 5: 3, 7: 26, 9: 646}


def test_vsasm_counts():
    for size, count in VSASM_COUNTS.items():
        members = enumerate_vsasm(size)
        assert len(members) == count
        for B in members:
            n = B.n
            assert all(B.rows[i][j] == B.rows[i][n - 1 - j] for i in range(n) for j in range(n))


def test_vsasm_enumeration_order():
    # sha256 prefixes of the concatenated row reprs: the order is fixed
    expected = {
        3: "3fcc0f974ffeb521",
        5: "cfb0e1555efd7c45",
        7: "60d56171da1608a5",
        9: "d8bad69491561b9c",
    }
    for size, digest in expected.items():
        h = hashlib.sha256()
        for B in enumerate_vsasm(size):
            h.update(repr(B.rows).encode())
        assert h.hexdigest()[:16] == digest, size


def test_vsasm_size_three_is_forced():
    (only,) = enumerate_vsasm(3)
    assert only.rows == ((0, 1, 0), (1, -1, 1), (0, 1, 0))


def test_vsasm_genfun_fixtures():
    assert vsasm_genfun(1) == vsasm_genfun(3) == TauPoly.one()
    assert vsasm_genfun(5) == TauPoly({0: 2, 2: 1})
    for n in (1, 2, 3, 4):
        assert vsasm_genfun(2 * n + 1) == tee(2 * n, n - 1, 2), n


def test_vsasm_genfun_sweep_matches_enumeration():
    for size in range(1, VSASM_LIST_MAX_SIZE + 1, 2):
        n = (size - 1) // 2
        members = enumerate_vsasm(size)
        weighted = TauPoly.zero()
        for B in members:
            weighted = weighted + TauPoly.monomial(B.minus_count() - n)
        assert vsasm_genfun(size) == weighted, size
        assert vsasm_product(size) == len(members) == VSASM_COUNTS.get(size, 1), size


def test_vsasm_genfun_beyond_enumeration():
    # tee(2n, n-1, 2) and Kuperberg's product up to the cap (size 21, 0.4 s)
    for size in range(VSASM_LIST_MAX_SIZE + 2, VSASM_MAX_SIZE + 1, 2):
        n = (size - 1) // 2
        weighted = vsasm_genfun(size)
        assert weighted == tee(2 * n, n - 1, 2), size
        assert weighted.at_tau_one() == vsasm_product(size), size
    assert vsasm_product(11) == 45885


def test_vsasm_guards():
    for size in (4, 0, -2):
        with pytest.raises(ValueError, match="odd size"):
            enumerate_vsasm(size)
        with pytest.raises(ValueError, match="odd size"):
            vsasm_genfun(size)
    for size in (-1, -3):
        with pytest.raises(ValueError, match="positive"):
            enumerate_vsasm(size)
        with pytest.raises(ValueError, match="positive"):
            vsasm_genfun(size)
        with pytest.raises(ValueError, match="positive"):
            vsasm_product(size)
    with pytest.raises(EnumerationBudgetError):
        enumerate_vsasm(VSASM_LIST_MAX_SIZE + 2)
    with pytest.raises(EnumerationBudgetError):
        vsasm_genfun(VSASM_MAX_SIZE + 2)


def test_symmetry_class_identities():
    # the two partial-sum lines, exactly, for n <= 5
    for n in range(1, 6):
        if 2 * n >= 4:
            assert tee(2 * n, n - 1, 1) == partial_sum(2 * n, n - 1, 1), n
        if 2 * n - 1 >= 3:
            lhs = tee(2 * n - 1, n - 1, 1)
            assert lhs == partial_sum(2 * n - 1, n - 1, -1).shift(n - 1), n


# ---------------------------------------------------------------------------
# link patterns and conversions
# ---------------------------------------------------------------------------


def test_link_pattern_from_parens():
    lp = LinkPattern.from_parens("(()")
    assert lp.pairs == frozenset({(2, 3)})
    assert lp.top == 1
    assert lp.to_parens() == "(()"
    even = LinkPattern.from_parens("()()")
    assert even.top is None
    assert even.pairs == frozenset({(1, 2), (3, 4)})


def test_link_pattern_validation():
    with pytest.raises(ValueError):
        LinkPattern(4, frozenset({(1, 3), (2, 4)}))  # crossing
    with pytest.raises(ValueError):
        LinkPattern(3, frozenset({(1, 3)}), top=2)  # ray trapped under arc
    with pytest.raises(ValueError):
        LinkPattern(4, frozenset({(1, 2)}))  # incomplete cover


def test_worked_conversion_chain():
    # thirteen-terminal pattern: 1 to the top, 2-13, 3-12, nested pairs inside
    s = "((((())(())))"
    lp = LinkPattern.from_parens(s)
    assert lp.top == 1
    assert (2, 13) in lp.pairs and (3, 12) in lp.pairs
    tab, path = convert(lp)
    assert tab.first == (1, 2, 3, 4, 5, 8, 9)
    assert tab.second == (6, 7, 10, 11, 12, 13)
    assert path == D("UUUUUDDUUDDDD")
    assert tableau_to_link(tab) == lp
    assert tableau_to_dyck(tab) == path
    assert dyck_to_link(path) == lp
    assert dyck_to_tableau(path) == tab


def test_minimal_pattern_is_zigzag():
    assert link_to_dyck(LinkPattern.from_parens("()()()")) == D("UDUDUD")


def test_roundtrip_all_paths():
    for L in range(2, 11):
        for alpha in enumerate_dyck(L):
            lp = dyck_to_link(alpha)
            tab = link_to_tableau(lp)
            assert link_to_dyck(lp) == alpha
            assert tableau_to_link(tab) == lp
            assert tableau_to_dyck(tab) == alpha


def test_tableau_validation():
    with pytest.raises(ValueError):
        YoungTableau((1, 3), (2, 2))
    with pytest.raises(ValueError):
        YoungTableau((1, 4), (2, 3))  # column decreasing at slot 2
    with pytest.raises(ValueError):
        YoungTableau((2, 3), (1, 4))  # column must increase downward


# ---------------------------------------------------------------------------
# fully packed loops
# ---------------------------------------------------------------------------


def test_fpl_small_fixtures():
    assert enumerate_fpl(4) == {D("UDUD"): 2, D("UUDD"): 1}
    counts6 = enumerate_fpl(6)
    assert sum(counts6.values()) == 26
    assert len(counts6) == 5


def test_fpl_odd_matches_components():
    counts5 = enumerate_fpl(5)
    expect = {a: int(v.at_tau_one()) for a, v in solve_psi(5).values.items()}
    assert counts5 == expect
    assert sum(counts5.values()) == 11


def test_fpl_multiplicities_match_components():
    for L in range(2, FPL_MAX_L + 1):
        counts = enumerate_fpl(L)
        expect = solve_psi(L).at_tau_one()
        assert counts == expect, L


def test_fpl_budget():
    with pytest.raises(EnumerationBudgetError):
        enumerate_fpl(9)


def test_p_restricted_fixtures():
    assert p_restricted_count(4, 1) == 3
    assert p_restricted_count(6, 1) == 5
    assert p_restricted_count(6, 2) == 26


def test_p_restricted_matches_tau1_sums():
    for L in range(4, 9):
        for p in range(0, (L - 1) // 2 + 1):
            expect = int(partial_sum(L, p, 1).at_tau_one())
            assert p_restricted_count(L, p) == expect, (L, p)
            assert int(partial_sum(L, p, -1).at_tau_one()) == expect, (L, p)


# ---------------------------------------------------------------------------
# residue identities
# ---------------------------------------------------------------------------


def test_residue_fixture_point():
    assert residue_identity_check("U", (2, 3, 5))
    assert residue_identity_check("VHP", (Fraction(7, 2), 3, Fraction(9, 4)))
    assert residue_identity_check("HT", (5, Fraction(2, 3), 7))


def test_residue_degenerate_samples():
    with pytest.raises(PoleCollisionError):
        residue_identity_check("U", (1, 1, 5))  # x = y = 1 degenerates the factors
    with pytest.raises(PoleCollisionError):
        residue_identity_check("U", (2, 6, 3))  # y = a x: pole of the closed side
    with pytest.raises(PoleCollisionError):
        residue_identity_check("HT", (3, 3, 1))  # a = 1 collapses both contour poles


def test_residue_unknown_name():
    with pytest.raises(ValueError):
        residue_identity_check("XX", (2, 3, 5))


def test_residue_sweeps():
    for i, which in enumerate(("U", "VHP", "HT")):
        rep = residue_sweep(which, 100, 1000 + i)
        assert rep.passed
        assert rep.checked == 100
