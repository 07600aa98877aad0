"""Determinant family, its alternate forms, and the verification sweeps."""

import random
from fractions import Fraction

import pytest

from dycksum.qkz import partial_sum, partial_sum_eps
from dycksum.ring import TauPoly
from dycksum.tee import (
    TeeParams,
    hirota_coords,
    hirota_coords_inverse,
    nu,
    s_closed,
    s_det,
    tee,
    tee_via_U,
    verify_lemma2,
    verify_lemma3,
    verify_prop1,
    verify_trecur,
)


def P(*pairs):
    return TauPoly(dict(pairs))


def test_tee_fixtures():
    for k in range(0, 7):
        assert tee(6, 0, k) == TauPoly.one()
    assert tee(4, 1, 2) == P((0, 2), (2, 1))
    assert tee(6, 2, 1) == P((0, 1), (2, 8), (4, 12), (6, 5))


def test_tee_params():
    tp = TeeParams(13, 4, 3)
    assert tp.kprime == 2
    assert tp.admissible()
    assert not TeeParams(4, 1, 3).admissible()
    with pytest.raises(ValueError):
        TeeParams(4, -1, 0)


def test_tee_via_U_fixtures():
    assert tee_via_U(4, 1, 2) == P((0, 2), (2, 1))
    assert tee_via_U(6, 0, 3) == TauPoly.one()
    assert tee_via_U(6, 2, 2) == tee(6, 2, 2)


def test_lemma3_sweep():
    rep = verify_lemma3(12)
    assert rep.passed
    assert rep.checked >= 200


def test_nu_fixtures():
    assert nu(4, 1) == 0
    assert nu(6, 1) == 2
    assert nu(5, 2) == -2
    for n in range(2, 8):
        assert nu(2 * n - 1, n - 1) == -(n - 1)
    # integrality holds across the whole parameter window
    for L in range(2, 15):
        for p in range(0, (L - 1) // 2 + 1):
            assert isinstance(nu(L, p), int)


def test_hirota_coords_fixtures():
    assert hirota_coords(4, 1, 2) == (1, 0, 3)
    assert hirota_coords(13, 4, 3) == (6, -2, 7)
    rng = random.Random(2)
    for _ in range(100):
        L, p, k = rng.randint(0, 20), rng.randint(0, 8), rng.randint(-3, 9)
        assert hirota_coords_inverse(*hirota_coords(L, p, k)) == (L, p, k)


def test_s_det_fixtures():
    assert s_det(6, 2, "tau") == P((0, 1), (2, 8), (4, 12), (6, 5))
    assert s_det(5, 2, "tau-inv") == P((-2, 1), (0, 5), (2, 4), (4, 1))
    # the path-free column: empty determinant times the head monomial
    for L in range(4, 11):
        m = L // 2
        assert s_det(L, 0, Fraction(9, 2)) == TauPoly.monomial(m * (m - 1) // 2)
        assert s_det(L, 0, "tau") == TauPoly.monomial(nu(L, 0))


def test_s_det_matches_partial_sums():
    for L in range(2, 11):
        for p in range(0, (L - 1) // 2 + 1):
            assert s_det(L, p, "tau") == partial_sum(L, p, 1), (L, p)
            assert s_det(L, p, "tau-inv") == partial_sum(L, p, -1), (L, p)


def test_s_det_general_t_matches_eps_sum():
    rng = random.Random(17)
    for L in range(4, 9):
        for p in range(0, (L - 1) // 2 + 1):
            for _ in range(3):
                t = Fraction(rng.randint(1, 40), rng.randint(1, 11)) * rng.choice((1, -1))
                assert s_det(L, p, t) == partial_sum_eps(L, p, t), (L, p, t)


def test_s_closed_special_points():
    for L in range(4, 11):
        for p in range(0, (L - 1) // 2 + 1):
            assert s_closed(L, p, 1) == partial_sum(L, p, 1)
            assert s_closed(L, p, -1) == partial_sum(L, p, -1)


def test_prop1_sweep_small():
    rep = verify_prop1(8)
    assert rep.passed
    assert rep.checked == 32


def test_trecur_sweep():
    rep = verify_trecur(12)
    assert rep.passed
    assert rep.checked == 70
    assert rep.skipped > 0  # boundary tuples are excluded, not silently passed


def test_trecur_stencil_round_trip_is_enforced(monkeypatch):
    import dycksum.tee as tee_mod

    def skewed(n, i, j):
        L, p, k = hirota_coords_inverse(n, i, j)
        return (L, p, k + 1)

    monkeypatch.setattr(tee_mod, "hirota_coords_inverse", skewed)
    with pytest.raises(AssertionError, match="stencil"):
        verify_trecur(6)


def test_trecur_single_instance():
    L, p, k = 6, 2, 1
    lhs = tee(L, p, k) * tee(L - 2, p - 2, k + 2)
    rhs = tee(L - 1, p - 2, k + 2) * tee(L - 1, p, k) + (tee(L - 2, p - 1, k) * tee(L, p - 1, k + 2)).shift(2)
    assert lhs == rhs


def test_lemma2_symbolic():
    rep = verify_lemma2(3)
    assert rep.passed and rep.checked == 3
    with pytest.raises(ValueError):
        verify_lemma2(6)
