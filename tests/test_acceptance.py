"""Acceptance criteria, one test per numbered criterion.

Each test prints one PASS line on success (run with -s to see them); the
assertions themselves are exact except where a precision target is stated.
Runtime budgets are asserted with wall clocks where the criterion names one.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest

from dycksum import cli, combin, hirota, qkz, tee
from dycksum.qkz import DyckPath
from dycksum.ring import RingMatrix, TauPoly, det, det_cofactor, pluecker_check, tau_qnumber

D = DyckPath.from_string


def P(*pairs):
    return TauPoly(dict(pairs))


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


# -- 1 ----------------------------------------------------------------------


TABLE1 = {
    4: {"UDUD": P((0, 1), (2, 1)), "UUDD": P((1, 1))},
    5: {
        "UDUDU": P((2, 2), (4, 1)),
        "UDUUD": P((1, 2), (3, 1)),
        "UUDDU": P((3, 1)),
        "UUDUD": P((0, 1), (2, 2)),
        "UUUDD": P((1, 1)),
    },
    6: {
        "UDUDUD": P((0, 1), (2, 5), (4, 4), (6, 1)),
        "UDUUDD": P((1, 1), (3, 3), (5, 1)),
        "UUDDUD": P((1, 2), (3, 2), (5, 1)),
        "UUDUDD": P((2, 2), (4, 2)),
        "UUUDDD": P((3, 1)),
    },
}


def test_criterion_01_component_tables():
    t0 = time.perf_counter()
    for L, table in TABLE1.items():
        psi = qkz.solve_psi(L)
        assert len(psi.values) == len(table)
        for word, expect in table.items():
            assert psi[D(word)] == expect, (L, word)
    assert time.perf_counter() - t0 < 10.0
    _report("01 component tables L=4,5,6")


# -- 2 ----------------------------------------------------------------------


TABLE2 = {
    (4, 0, -1): P((1, 1)),
    (4, 0, 1): P((1, 1)),
    (4, 1, -1): P((0, 2), (2, 1)),
    (4, 1, 1): P((0, 1), (2, 2)),
    (5, 0, -1): P((1, 1)),
    (5, 0, 1): P((1, 1)),
    (5, 1, -1): P((0, 2), (2, 2)),
    (5, 1, 1): P((0, 1), (2, 3)),
    (5, 2, -1): P((-2, 1), (0, 5), (2, 4), (4, 1)),
    (5, 2, 1): P((2, 6), (4, 5)),
    (6, 0, -1): P((3, 1)),
    (6, 0, 1): P((3, 1)),
    (6, 1, -1): P((2, 3), (4, 2)),
    (6, 1, 1): P((2, 2), (4, 3)),
    (6, 2, -1): P((0, 6), (2, 13), (4, 6), (6, 1)),
    (6, 2, 1): P((0, 1), (2, 8), (4, 12), (6, 5)),
}


def test_criterion_02_partial_sum_table():
    t0 = time.perf_counter()
    for (L, p, sign), expect in TABLE2.items():
        assert qkz.partial_sum(L, p, sign) == expect, (L, p, sign)
    assert time.perf_counter() - t0 < 10.0
    _report("02 partial-sum table incl. Laurent case")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_constant_term_fixtures():
    assert qkz.psi_bar((1, 2, 4), 6) == P((2, 2), (4, 2))
    assert qkz.psi_bar((1, 2, 3), 6) == P((3, 1))
    assert qkz.psi_bar((1, 2, 4, 6), 8) == P((3, 6), (5, 21), (7, 18), (9, 5))
    assert qkz.psi_bar((1, 2, 4, 5), 8) == P((4, 5), (6, 7), (8, 3))
    assert qkz.psi_bar((1, 2, 3, 6), 8) == P((4, 3), (6, 8), (8, 3))
    assert qkz.psi_bar((1, 2, 3, 5), 8) == P((5, 3), (7, 3))
    _report("03 constant-term fixtures L=6 and L=8")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_sum_determinant_sweep():
    t0 = time.perf_counter()
    rep = tee.verify_prop1(10)
    assert rep.passed, rep.failures[:3]
    assert rep.checked == sum(2 * ((L - 1) // 2 + 1) for L in range(4, 11))
    assert time.perf_counter() - t0 < 300.0
    _report("04 partial sums equal prefactored determinants, L<=10")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_bilinear_recurrence_sweep():
    t0 = time.perf_counter()
    rep = tee.verify_trecur(12)  # raises if the lattice stencil does not map back
    assert rep.passed, rep.failures[:3]
    assert rep.checked == 70
    assert time.perf_counter() - t0 < 120.0
    _report("05 bilinear recurrence sweep L<=12 (both coordinate systems)")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_bordered_determinant_identity():
    rep = tee.verify_lemma3(12)
    assert rep.passed, rep.failures[:3]
    assert rep.checked >= 200
    _report("06 bordered determinant equals the base determinant, L<=12")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_epsilon_classes():
    for L in range(2, 9):
        psi = qkz.solve_psi(L)
        for p in range(0, (L - 1) // 2 + 1):
            fam = qkz.dyck_family(L, p)
            covered = []
            for eps in qkz.all_epsilon(p):
                members = eps.contributors(L, p)
                covered.extend(members)
                total = TauPoly.zero()
                for alpha in members:
                    total = total + psi[alpha]
                    assert qkz.c_value(alpha, p) == eps.weight, (L, p, eps.eps)
                assert total == qkz.psi_bar(eps.b_sequence(L, p), L), (L, p, eps.eps)
            assert sorted(covered) == sorted(fam.members)
    _report("07 epsilon-indexed sums, constant statistic, disjoint cover, L<=8")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_truncated_antisymmetrisation():
    rep = tee.verify_lemma2(3)
    assert rep.passed and rep.checked == 3
    rep4 = tee.verify_lemma2(4)  # optional size, within budget
    assert rep4.passed
    _report("08 truncated antisymmetrisation identity p<=3 (+4)")


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_deformed_determinant_oracles():
    rng = random.Random(904)

    def rmat(n):
        return [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]

    for n in range(2, 6):
        for _ in range(100):
            m = rmat(n)
            assert hirota.tau2_det(m, Fraction(-1)) == det(RingMatrix(m))
    for n in range(2, 5):
        done = 0
        while done < 50:
            m = rmat(n)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
            try:
                v = hirota.tau2_det(m, lam)
            except ZeroDivisionError:
                continue
            assert v == hirota.asm_expansion(m, lam)
            done += 1
    _report("09 deformed determinant: classical limit and ASM oracle")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_path_triangle():
    for L in range(2, 11):
        for p in range(0, L // 2 + 1):
            for k in range(0, L - 2 * p + 1):
                t = tee.tee(L, p, k)
                assert combin.lgv_tee(L, p, k) == t, (L, p, k)
                assert combin.path_count(L, p, k) == t, (L, p, k)
    _report("10 determinant = minor sum = path enumeration, L<=10")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_symmetry_class_identities():
    for n, size, count in ((1, 3, 1), (2, 5, 3), (3, 7, 26), (4, 9, 646)):
        members = combin.enumerate_vsasm(size)
        assert len(members) == count
        assert combin.vsasm_genfun(size) == tee.tee(2 * n, n - 1, 2), n
    for n in range(2, 6):
        assert tee.tee(2 * n, n - 1, 1) == qkz.partial_sum(2 * n, n - 1, 1), n
        assert tee.tee(2 * n - 1, n - 1, 1) == qkz.partial_sum(2 * n - 1, n - 1, -1).shift(n - 1), n
    _report("11 symmetry-class identities (enumeration n<=4, exact n<=5)")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_loop_diagram_counts():
    t0 = time.perf_counter()
    assert combin.p_restricted_count(4, 1) == 3
    assert combin.p_restricted_count(6, 2) == 26
    for L in range(4, 9):
        counts = combin.enumerate_fpl(L)
        assert counts == qkz.solve_psi(L).at_tau_one(), L
        for p in range(0, (L - 1) // 2 + 1):
            expect = int(qkz.partial_sum(L, p, 1).at_tau_one())
            assert combin.p_restricted_count(L, p) == expect, (L, p)
    assert time.perf_counter() - t0 < 600.0
    _report("12 loop-diagram counts match components and family sums, L<=8")


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_gamma_product():
    for L in range(4, 13):
        for p in range(0, (L - 1) // 2 + 1):
            exact = int(tee.tee(L, p, L // 2 - p + 1).at_tau_one())
            approx = combin.sfactor(L, p, 256)
            with mpmath.workprec(256):
                assert abs(approx - exact) / exact < mpmath.mpf(10) ** -20, (L, p)
    _report("13 gamma product matches exact integer counts to 1e-20, L<=12")


# -- 14 ---------------------------------------------------------------------


def test_criterion_14_residue_identities():
    for i, which in enumerate(combin.RESIDUE_IDENTITIES):
        rep = combin.residue_sweep(which, 100, 1400 + i)
        assert rep.passed and rep.checked == 100, which
    _report("14 residue identities, 100 exact rational samples each")


# -- 15 ---------------------------------------------------------------------


def test_criterion_15_property_suites():
    rng = random.Random(1500)

    def rand_poly():
        return TauPoly(
            {rng.randint(-8, 8): rng.randint(-(10**6), 10**6) for _ in range(rng.randint(0, 5))}
        )

    for _ in range(1000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
    for _ in range(200):
        n = rng.randint(1, 4)
        m = RingMatrix([[rand_poly() for _ in range(n)] for _ in range(n)])
        assert det(m) == det_cofactor(m)
    for n in (2, 3, 4):
        for _ in range(34):
            a = RingMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            b = RingMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert pluecker_check(a, b)
    for k in range(0, 21):
        assert tau_qnumber(k).evaluate(Fraction(-2)) == k
    for L in range(2, 11):
        for alpha in qkz.enumerate_dyck(L):
            lp = combin.dyck_to_link(alpha)
            tab = combin.link_to_tableau(lp)
            assert combin.tableau_to_dyck(tab) == alpha
            assert combin.link_to_dyck(lp) == alpha
    _report("15 property suites: ring axioms, determinants, conversions")


# -- component-level invariants asserted at the largest solved sizes ---------


def test_positivity_through_L10():
    for L in range(2, 11):
        for alpha, poly in qkz.solve_psi(L).values.items():
            lo = poly.min_exp()
            assert all((e - lo) % 2 == 0 and c > 0 for e, c in poly.terms.items()), (L, alpha)
    _report("extra: positivity of all components through L=10")
