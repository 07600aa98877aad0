"""Octahedron recurrence, deformed determinants, ASM enumeration."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from dycksum import hirota
from dycksum.hirota import (
    ASM_COUNTS,
    ASMatrix,
    DegenerateDivisionError,
    EnumerationBudgetError,
    ExpansionPoleError,
    asm_count,
    asm_expansion,
    enumerate_asm,
    oct_init,
    octahedron_step,
    tau2_det,
)
from dycksum.ring import RingMatrix, TauPoly, det
from dycksum.tee import verify_trecur


def rmat(rng, n, lo=-9, hi=9):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]


def test_boundary_layers():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    st = oct_init(m, Fraction(0))
    assert st.value(0, 0, 0) == 1
    assert st.value(1, 2, 1) == 3


def test_two_by_two_calibration():
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    lam = Fraction(11)
    assert tau2_det([[a, b], [c, d]], lam) == a * d + lam * b * c


def test_all_ones_tau2_zero():
    st = oct_init([[1] * 3 for _ in range(3)], Fraction(0))
    st = octahedron_step(st, 2)
    assert all(v == 1 for v in st.layers[2].values())


def test_single_entry():
    assert tau2_det([[Fraction(5, 3)]], Fraction(7)) == Fraction(5, 3)


def test_reduces_to_determinant():
    rng = random.Random(12)
    for n in range(2, 6):
        for _ in range(100):
            m = rmat(rng, n)  # zero entries and zero minors included
            assert tau2_det(m, Fraction(-1)) == det(RingMatrix(m))


def test_matches_asm_expansion():
    rng = random.Random(13)
    for n in range(2, 5):
        done = 0
        while done < 50:
            m = rmat(rng, n)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
            try:
                v = tau2_det(m, lam)
            except ZeroDivisionError:
                continue
            assert v == asm_expansion(m, lam)
            done += 1


def test_expansion_small_forms():
    # n=1: the single trivial ASM
    assert asm_expansion([[Fraction(4, 3)]], Fraction(5)) == Fraction(4, 3)
    # n=2: identity plus weighted antidiagonal
    a = [[Fraction(2), Fraction(3)], [Fraction(5), Fraction(7)]]
    assert asm_expansion(a, Fraction(11)) == 14 + 11 * 15


def test_symbolic_laurent_exactness():
    # distinct monomial entries: every interior division must be exact
    rng = random.Random(3)
    for _ in range(10):
        exps = rng.sample(range(0, 18), 9)
        m = [[TauPoly.monomial(exps[3 * i + j]) for j in range(3)] for i in range(3)]
        v = tau2_det(m, TauPoly.monomial(2))
        assert isinstance(v, TauPoly) and not v.is_zero()


def test_symbolic_entries_domain():
    # a two-term interior entry at tau2 != -1 is refused before any division
    two = lambda a, b: TauPoly({0: a, 2: b})  # noqa: E731
    k = TauPoly.from_coeff
    m = [[two(3, 2), k(2), k(3)], [two(-1, 2), two(-3, 2), k(-3)], [two(-1, 1), k(3), two(2, 2)]]
    for tau2 in (Fraction(1, 2), TauPoly.monomial(2)):
        with pytest.raises(ValueError, match="interior entry"):
            tau2_det(m, tau2)
    assert tau2_det(m, Fraction(-1)) == det(RingMatrix(m))
    # single-term interiors with general boundary entries: evaluating the
    # symbolic value at rational tau agrees with the ASM expansion there
    rng = random.Random(11)
    lam = Fraction(1, 2)
    for n in (3, 4, 5):
        for _ in range(3):
            m = [
                [
                    TauPoly.monomial(rng.randint(-2, 3), rng.choice((-3, -2, -1, 1, 2, 3)))
                    if 0 < i < n - 1 and 0 < j < n - 1
                    else TauPoly({0: rng.randint(-3, 3), 2: rng.randint(1, 3)})
                    for j in range(n)
                ]
                for i in range(n)
            ]
            v = tau2_det(m, lam)
            for x in (Fraction(2), Fraction(-1, 3)):
                mx = [[e.evaluate(x) for e in row] for row in m]
                assert v.evaluate(x) == asm_expansion(mx, lam)


def test_degenerate_reports_point():
    m = [[Fraction(0), Fraction(1), Fraction(1)],
         [Fraction(1), Fraction(0), Fraction(1)],
         [Fraction(1), Fraction(1), Fraction(0)]]
    # interior zero of the first layer blocks the level-3 step
    with pytest.raises(DegenerateDivisionError) as exc:
        tau2_det(m, Fraction(1))
    assert exc.value.point[0] == 3


# central 2x2 connected minor [[1,1],[1,1]] vanishes at tau2 = -1; det = -61
ZERO_MINOR_4X4 = [[1, 2, 3, 4], [5, 1, 1, 7], [2, 1, 1, 3], [9, 4, 8, 1]]


def fraction_elimination(m):
    """Determinant by Gaussian elimination over Fraction with row pivoting."""
    a = [[Fraction(x) for x in row] for row in m]
    n, value = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            value = -value
        value *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return value


def test_zero_connected_minor_gets_its_value():
    m = [[Fraction(x) for x in row] for row in ZERO_MINOR_4X4]
    assert tau2_det(m, Fraction(-1)) == -61 == det(RingMatrix(ZERO_MINOR_4X4))
    for lam in (Fraction(-1), Fraction(1), Fraction(2, 3), Fraction(-5, 2)):
        assert tau2_det(m, lam) == asm_expansion(m, lam), lam


def _nonzero(rng):
    return Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 5))


def _planted(rng, n, lam):
    """Nonzero-entry n x n matrix with one connected k x k minor (2 <= k < n) zero at lam.

    The deformed minor is linear in the block's bottom-right corner entry,
    never a -1 cell of an ASM, so solving for that entry plants the zero.
    """
    while True:
        m = [[_nonzero(rng) for _ in range(n)] for _ in range(n)]
        k = rng.randint(2, n - 1)
        r0, c0 = rng.randint(0, n - k), rng.randint(0, n - k)
        corner = (r0 + k - 1, c0 + k - 1)

        def minor(x):
            m[corner[0]][corner[1]] = x
            block = [row[c0 : c0 + k] for row in m[r0 : r0 + k]]
            return fraction_elimination(block) if lam == -1 else asm_expansion(block, lam)

        at0 = Fraction(minor(Fraction(0)))
        slope = minor(Fraction(1)) - at0
        if slope and at0:
            m[corner[0]][corner[1]] = -at0 / slope
            return m


def test_planted_zero_minors_match_oracles():
    rng = random.Random(77)
    checked = 0
    for n in range(4, 13):
        for _ in range(28):
            m = _planted(rng, n, -1)
            assert tau2_det(m, Fraction(-1)) == fraction_elimination(m), m
            checked += 1
    for n in (4, 5):
        for _ in range(30):
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
            m = _planted(rng, n, lam)
            assert tau2_det(m, lam) == asm_expansion(m, lam), (m, lam)
            checked += 1
    assert checked >= 300


def test_zero_interior_at_minus_one():
    # tau2_det used to stop here; the expansion divided 0 by the zero -1 cell
    m = [
        [Fraction(4, 3), Fraction(-2), Fraction(-3, 2), Fraction(6)],
        [Fraction(7, 5), Fraction(7, 5), Fraction(0), Fraction(-2)],
        [Fraction(1), Fraction(3, 2), Fraction(-3, 2), Fraction(5, 2)],
        [Fraction(-2), Fraction(4), Fraction(5, 3), Fraction(-3)],
    ]
    assert tau2_det(m, Fraction(-1)) == det(RingMatrix(m)) == asm_expansion(m, Fraction(-1))
    with pytest.raises(DegenerateDivisionError):
        tau2_det(m, Fraction(2))
    with pytest.raises(ExpansionPoleError, match=r"\(2,3\)"):
        asm_expansion(m, Fraction(2))
    # every entry zero but the anti-diagonal, and an all-zero interior
    rng = random.Random(5)
    for n in range(2, 9):
        for _ in range(6):
            z = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            assert tau2_det(z, Fraction(-1)) == fraction_elimination(z), z
    anti = [[Fraction(int(i + j == 4)) for j in range(5)] for i in range(5)]
    assert tau2_det(anti, Fraction(-1)) == fraction_elimination(anti) == 1


def test_octahedron_step_guards():
    st = oct_init([[1, 2], [3, 4]], Fraction(1))
    with pytest.raises(ValueError):
        octahedron_step(st, 3)


def test_asm_counts_and_validity():
    for n, count in ASM_COUNTS.items():
        if n > 5:
            continue
        asms = enumerate_asm(n)
        assert len(asms) == count
        assert len({a.rows for a in asms}) == count
    with pytest.raises(EnumerationBudgetError):
        enumerate_asm(hirota.ASM_EXPANSION_MAX_N + 1)


def test_asm_expansion_enumerates_once_per_n(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return enumerate_asm(n)

    hirota._asm_terms.cache_clear()
    monkeypatch.setattr(hirota, "enumerate_asm", counting)
    m = [[Fraction(i + 2 * j + 1) for j in range(4)] for i in range(4)]
    first = asm_expansion(m, Fraction(3))
    for lam in (Fraction(3), Fraction(-1), Fraction(2, 5)):
        asm_expansion(m, lam)
        asm_expansion([row[:3] for row in m[:3]], lam)
    assert asm_expansion(m, Fraction(3)) == first == tau2_det(m, Fraction(3))
    assert sorted(calls) == [3, 4]


def test_asm_count_six():
    assert asm_count(6) == 7436


def _asm_product(n):
    num = den = 1
    for j in range(n):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(n + j)
    assert num % den == 0
    return num // den


def test_asm_count_sweep():
    # the sweep against the matrix list where it is enumerable, and against
    # prod (3j+1)!/(n+j)! beyond; n = 12, 13 take 0.6 s and 1.8 s
    for n in range(1, hirota.ASM_EXPANSION_MAX_N + 1):
        assert asm_count(n) == len(enumerate_asm(n)) == ASM_COUNTS[n] == _asm_product(n), n
    assert [_asm_product(n) for n in (6, 7)] == [ASM_COUNTS[6], 218348]
    for n in range(6, 12):
        assert asm_count(n) == _asm_product(n), n
    for n in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            asm_count(n)
    with pytest.raises(EnumerationBudgetError):
        asm_count(hirota.ASM_MAX_N + 1)


def test_asm_enumeration_order():
    # sha256 prefixes of the concatenated row reprs: the order is fixed
    expected = {
        1: "8349bb5d2d44e8d6",
        2: "4a5be74af9ead31a",
        3: "d35632395675a952",
        4: "9969a4b08d4b705f",
        5: "c85e1f43a111bb20",
    }
    for n, digest in expected.items():
        h = hashlib.sha256()
        for B in enumerate_asm(n):
            h.update(repr(B.rows).encode())
        assert h.hexdigest()[:16] == digest, n


def test_asmatrix_validation():
    with pytest.raises(ValueError):
        ASMatrix(((1, 0), (1, -1)))
    with pytest.raises(ValueError):
        ASMatrix(((1, 1), (0, -1)))
    ok = ASMatrix(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
    assert ok.minus_count() == 1
    assert ok.inversion_number() == 2


def test_permutation_inversions():
    # permutation matrices: the statistic is the usual inversion count
    perm = ASMatrix(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert perm.inversion_number() == 3
    ident = ASMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert ident.inversion_number() == 0


def test_keep_history_flag():
    st = oct_init([[1, 2, 3], [4, 5, 6], [7, 8, 10]], Fraction(-1), keep_history=True)
    st = octahedron_step(st, 2)
    st = octahedron_step(st, 3)
    assert set(st.layers) == {0, 1, 2, 3}
    rolling = oct_init([[1, 2, 3], [4, 5, 6], [7, 8, 10]], Fraction(-1))
    rolling = octahedron_step(rolling, 2)
    rolling = octahedron_step(rolling, 3)
    assert set(rolling.layers) == {2, 3}


def test_hirota_points_satisfy_equation():
    rng = random.Random(4)
    m = rmat(rng, 5, 1, 9)  # positive entries keep the tower nondegenerate
    st = oct_init(m, Fraction(3, 2), keep_history=True)
    for k in range(2, 6):
        st = octahedron_step(st, k)
    checked = 0
    for k in range(2, 6):
        for (R, C), v in st.layers[k].items():
            i, j = R + C - k, R - C
            lhs = v * st.hirota_point(k - 2, i, j)
            rhs = (
                st.hirota_point(k - 1, i - 1, j) * st.hirota_point(k - 1, i + 1, j)
                + Fraction(3, 2) * st.hirota_point(k - 1, i, j - 1) * st.hirota_point(k - 1, i, j + 1)
            )
            assert lhs == rhs
            checked += 1
    assert checked > 20


def test_tee_lattice_walk():
    # the recurrence sweep walks the octahedron stencil in lattice coordinates
    rep = verify_trecur(12)
    assert rep.passed
    assert rep.checked == 70


def test_hirota_point_off_lattice():
    st = oct_init([[1, 2], [3, 4]], Fraction(1))
    with pytest.raises(KeyError):
        st.hirota_point(1, 0, 0)  # i+j+k odd: no such lattice point


def test_mixed_symbolic_tau2_on_rational_matrix():
    # rational entries with a symbolic weight promote the whole tower
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    v = tau2_det(m, TauPoly.monomial(2))
    assert v == TauPoly({0: 4, 2: 6})
