"""Dyck-path machinery, constant terms, the component solve, partial sums."""

import random
from fractions import Fraction

import pytest

from dycksum import qkz
from dycksum.qkz import (
    SOLVE_MAX_L,
    AdmissibleSequence,
    ConventionError,
    DyckPath,
    EpsilonSequence,
    all_epsilon,
    c_coeff,
    c_value,
    canonical_sequence,
    dyck_family,
    enumerate_dyck,
    integrand_multipoly,
    max_path,
    omega_path,
    partial_sum,
    partial_sum_eps,
    psi_bar,
    ptilde,
    solve_psi,
)
from dycksum.ring import MultiPoly, TauPoly, coeff_extract


def P(*pairs):
    return TauPoly(dict(pairs))


D = DyckPath.from_string


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_enumerate_counts():
    # Catalan numbers for even lengths, ballot numbers for odd
    for L, count in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 5), (6, 5), (7, 14), (8, 14), (9, 42), (10, 42)):
        assert len(enumerate_dyck(L)) == count


def test_enumerate_order_deterministic():
    paths = enumerate_dyck(6)
    assert [p.heights for p in paths] == sorted(p.heights for p in paths)
    assert paths[0] == D("UDUDUD")
    assert paths[-1] == D("UUUDDD")


def test_path_validation():
    with pytest.raises(ValueError):
        DyckPath((0, 1, 3))
    with pytest.raises(ValueError):
        DyckPath((0, -1, 0))
    with pytest.raises(ValueError):
        DyckPath((0, 1, 2))  # even length must end at 0
    with pytest.raises(ValueError):
        DyckPath((1, 2, 1))


def test_omega_path_fixtures():
    assert omega_path(12, 3).heights == (0, 1, 2, 3, 2, 3, 2, 3, 2, 3, 2, 1, 0)
    for L in (4, 5, 6, 9, 12):
        assert omega_path(L, 0) == max_path(L)
    assert omega_path(4, 1).heights == (0, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        omega_path(6, 3)


def test_omega_minima_sit_at_ptilde():
    for L in range(2, 11):
        for p in range(0, (L - 1) // 2 + 1):
            h = omega_path(L, p).heights
            minima = [h[i] for i in range(1, L) if h[i - 1] > h[i] < h[i + 1]]
            assert all(m == ptilde(L, p) for m in minima)


def test_family_membership():
    fam = dyck_family(5, 1)
    assert fam.members == (D("UUDUD"), D("UUUDD"))
    assert len(dyck_family(5, 2)) == 5
    assert len(dyck_family(8, 1)) == 2


def test_c_value_fixtures():
    for L in (4, 5, 6, 8):
        for p in range(0, (L - 1) // 2 + 1):
            assert c_value(omega_path(L, p), p) == 0
    assert c_value(max_path(4), 1) == 1
    with pytest.raises(ValueError):
        c_value(D("UDUD"), 0)  # zigzag lies below the maximal-floor family


def c_value_box_oracle(alpha, p):
    """Independent oracle: stack diamonds column by column with alternating signs."""
    base = omega_path(alpha.length, p)
    pt = ptilde(alpha.length, p)
    total = 0
    for i in range(1, alpha.length):
        lo, hi = base.heights[i], alpha.heights[i]
        for centre in range(lo + 1, hi + 1, 2):
            h = centre - pt
            total += (-1) ** (h - 1)
    return total


def test_c_value_against_box_oracle():
    for L in range(2, 9):
        for p in range(0, (L - 1) // 2 + 1):
            for alpha in dyck_family(L, p):
                assert c_value(alpha, p) == c_value_box_oracle(alpha, p)


# ---------------------------------------------------------------------------
# sequences and coefficients
# ---------------------------------------------------------------------------


def test_admissible_sequence_conversions():
    a = AdmissibleSequence((1, 2, 4, 5), 8)
    assert a.b == (3, 4, 6, 7)
    assert AdmissibleSequence.from_b(a.b, 8) == a
    with pytest.raises(ValueError):
        AdmissibleSequence((2, 1), 4)
    with pytest.raises(ValueError):
        AdmissibleSequence((0, 1), 4)
    with pytest.raises(ValueError):
        AdmissibleSequence((1,), 5)  # wrong length for L=5


def test_c_coeff_base_and_zero():
    # empty-sequence base cases for both parities
    assert c_coeff((), DyckPath((0, 1))) == TauPoly.one()
    assert c_coeff((1,), D("UD")) == TauPoly.one()
    # no entry at any local maximum gives zero
    assert c_coeff((1, 1), D("UUDD")).is_zero()
    # a=(1,2) against the maximal path of length 4 peels twice with k=1
    assert c_coeff((1, 2), max_path(4)) == TauPoly.one()


def test_c_coeff_peak_choice_irrelevant():
    rng = random.Random(11)
    for L in (4, 5, 6, 7, 8):
        paths = enumerate_dyck(L)
        for _ in range(40):
            alpha = rng.choice(paths)
            n = L // 2
            a = tuple(sorted(rng.randint(1, L - 1) for _ in range(n)))
            assert c_coeff(a, alpha, leftmost=True) == c_coeff(a, alpha, leftmost=False)


def test_canonical_sequence_is_unit_row():
    # the order solve_psi relies on: each canonical row has coefficient 1 at
    # alpha, and every other nonzero coefficient sits at a path pointwise
    # above alpha, which comes later in enumerate_dyck
    for L in range(1, 11):
        paths = enumerate_dyck(L)
        for i, alpha in enumerate(paths):
            seq = canonical_sequence(alpha)
            assert c_coeff(seq, alpha) == TauPoly.one()
            for j, beta in enumerate(paths):
                if j != i and not c_coeff(seq, beta).is_zero():
                    assert j > i, (L, alpha, beta)
                    assert all(x >= y for x, y in zip(beta.heights, alpha.heights)), (L, alpha, beta)


# ---------------------------------------------------------------------------
# constant terms
# ---------------------------------------------------------------------------


def test_psi_bar_normalisation():
    for L in (2, 4, 6, 8):
        n = L // 2
        assert psi_bar(tuple(range(1, n + 1)), L) == TauPoly.monomial(n * (n - 1) // 2)
    for L in (3, 5, 7, 9):
        n = L // 2
        assert psi_bar(tuple(range(1, n + 1)), L) == TauPoly.monomial(n * (n - 1) // 2)


def test_psi_bar_fixtures_L6():
    assert psi_bar((1, 2, 4), 6) == P((2, 2), (4, 2))
    assert psi_bar((1, 2, 3), 6) == P((3, 1))


def test_psi_bar_fixtures_L8():
    assert psi_bar((1, 2, 4, 6), 8) == P((3, 6), (5, 21), (7, 18), (9, 5))
    assert psi_bar((1, 2, 4, 5), 8) == P((4, 5), (6, 7), (8, 3))
    assert psi_bar((1, 2, 3, 6), 8) == P((4, 3), (6, 8), (8, 3))
    assert psi_bar((1, 2, 3, 5), 8) == P((5, 3), (7, 3))


def test_psi_bar_arity_check():
    with pytest.raises(ValueError):
        psi_bar((1, 2), 6)


def test_psi_bar_repeated_entries():
    # sequences with repeats stay linear combinations of components, with
    # ladder-value coefficients; a=(2,2) hits the L=4 top path with [2]
    assert psi_bar((2, 2), 4) == TauPoly.monomial(2, -1)
    for L in (4, 5, 6):
        psi = solve_psi(L)
        from dycksum.qkz import admissible_sequences

        for seq in admissible_sequences(L):
            total = TauPoly.zero()
            for alpha in enumerate_dyck(L):
                total = total + c_coeff(seq, alpha) * psi[alpha]
            assert total == psi_bar(seq.b, L), seq.a


def test_solve_budget():
    with pytest.raises(ValueError):
        solve_psi(11)


def test_integrand_table_built_once_per_size():
    sizes = range(2, SOLVE_MAX_L + 1)
    for L in sizes:
        psi_bar(tuple(range(1, L // 2 + 1)), L)
    misses = qkz._integrand_table.cache_info().misses
    for L in sizes:
        psi_bar(tuple(range(1, L // 2 + 1)), L)
    assert qkz._integrand_table.cache_info().misses == misses


def test_solve_rechecks_every_equation(monkeypatch):
    # a perturbed non-canonical value is caught by the re-check
    L = 6
    canonical = {canonical_sequence(a).b for a in enumerate_dyck(L)}
    target = next(s.b for s in qkz.admissible_sequences(L) if s.b not in canonical)
    real_psi_bar = qkz.psi_bar

    def perturbed(b, size):
        value = real_psi_bar(b, size)
        return value + TauPoly.one() if tuple(b) == target else value

    monkeypatch.setattr(qkz, "psi_bar", perturbed)
    with pytest.raises(ConventionError, match="inconsistent"):
        solve_psi.__wrapped__(L)


def test_solve_rejects_non_triangular_rows(monkeypatch):
    real_c_coeff = qkz.c_coeff
    monkeypatch.setattr(qkz, "c_coeff", lambda seq, a: real_c_coeff(seq, a) * 2)
    with pytest.raises(ConventionError, match="unit pivot"):
        solve_psi.__wrapped__(4)
    monkeypatch.setattr(qkz, "c_coeff", lambda seq, a: TauPoly.one())
    with pytest.raises(ConventionError, match="not triangular"):
        solve_psi.__wrapped__(4)


def test_fast_expansion_matches_multipoly():
    # the packed-integer expansion agrees with the public MultiPoly route
    for L in (2, 3, 4, 5, 6):
        ref = integrand_multipoly(L)
        for b in _all_b(L):
            e = tuple(x - 1 for x in b)
            assert psi_bar(b, L) == coeff_extract(ref, e)


def _all_b(L):
    from dycksum.qkz import admissible_sequences

    return [s.b for s in admissible_sequences(L)]


# ---------------------------------------------------------------------------
# the solve and the golden component tables
# ---------------------------------------------------------------------------

GOLDEN = {
    4: {
        "UDUD": P((0, 1), (2, 1)),
        "UUDD": P((1, 1)),
    },
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


def test_solve_psi_golden_tables():
    for L, table in GOLDEN.items():
        psi = solve_psi(L)
        for word, expect in table.items():
            assert psi[D(word)] == expect, (L, word)


def test_solve_psi_normalisation_and_positivity():
    for L in range(2, 11):
        psi = solve_psi(L)
        m = L // 2
        assert psi[max_path(L)] == TauPoly.monomial(m * (m - 1) // 2)
        for poly in psi.values.values():
            lo = poly.min_exp()
            assert all((e - lo) % 2 == 0 and c > 0 for e, c in poly.terms.items())


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

TABLE2 = {
    (4, 0, -1): P((1, 1)),
    (4, 0, +1): P((1, 1)),
    (4, 1, -1): P((0, 2), (2, 1)),
    (4, 1, +1): P((0, 1), (2, 2)),
    (5, 0, -1): P((1, 1)),
    (5, 0, +1): P((1, 1)),
    (5, 1, -1): P((0, 2), (2, 2)),
    (5, 1, +1): P((0, 1), (2, 3)),
    (5, 2, -1): P((-2, 1), (0, 5), (2, 4), (4, 1)),
    (5, 2, +1): P((2, 6), (4, 5)),
    (6, 0, -1): P((3, 1)),
    (6, 0, +1): P((3, 1)),
    (6, 1, -1): P((2, 3), (4, 2)),
    (6, 1, +1): P((2, 2), (4, 3)),
    (6, 2, -1): P((0, 6), (2, 13), (4, 6), (6, 1)),
    (6, 2, +1): P((0, 1), (2, 8), (4, 12), (6, 5)),
}


def test_partial_sum_golden_table():
    for (L, p, sign), expect in TABLE2.items():
        assert partial_sum(L, p, sign) == expect, (L, p, sign)


def test_partial_sum_sign_words():
    assert partial_sum(4, 1, "minus") == TABLE2[(4, 1, -1)]
    assert partial_sum(4, 1, "plus") == TABLE2[(4, 1, +1)]
    with pytest.raises(ValueError):
        partial_sum(4, 2, 1)


def test_partial_sum_eps_fixtures():
    assert partial_sum_eps(4, 1, "tau-inv") == TABLE2[(4, 1, -1)]
    assert partial_sum_eps(6, 1, "tau") == TABLE2[(6, 1, +1)]
    for L in (4, 5, 6, 7, 8):
        n = L // 2
        expect = TauPoly.monomial(n * (n - 1) // 2)
        assert partial_sum_eps(L, 0, Fraction(3, 7)) == expect


def test_partial_sum_eps_matches_direct():
    for L in range(2, 11):
        for p in range(0, (L - 1) // 2 + 1):
            assert partial_sum_eps(L, p, "tau") == partial_sum(L, p, 1), (L, p)
            assert partial_sum_eps(L, p, "tau-inv") == partial_sum(L, p, -1), (L, p)


# ---------------------------------------------------------------------------
# epsilon classes
# ---------------------------------------------------------------------------


def test_epsilon_classes_partition_and_sum():
    for L in range(2, 9):
        psi = solve_psi(L)
        for p in range(0, (L - 1) // 2 + 1):
            fam = dyck_family(L, p)
            seen = []
            for eps in all_epsilon(p):
                members = eps.contributors(L, p)
                seen.extend(members)
                total = TauPoly.zero()
                for alpha in members:
                    total = total + psi[alpha]
                assert total == psi_bar(eps.b_sequence(L, p), L), (L, p, eps.eps)
                for alpha in members:
                    assert c_value(alpha, p) == eps.weight
            assert sorted(seen) == sorted(fam.members)
            assert len(seen) == len(set(seen))


def test_epsilon_b_sequence_examples():
    assert EpsilonSequence((0,)).b_sequence(6, 1) == (1, 2, 4)
    assert EpsilonSequence((1,)).b_sequence(6, 1) == (1, 2, 3)
    assert EpsilonSequence((0, 1)).b_sequence(8, 2) == (1, 2, 4, 5)
    assert EpsilonSequence((1,)).b_sequence(5, 1) == (1, 2)
