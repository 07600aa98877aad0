"""Exact-arithmetic substrate tests."""

import random
from fractions import Fraction

import pytest

from dycksum.ring import (
    CapError,
    DimensionError,
    ExactDivisionError,
    MultiPoly,
    RingMatrix,
    TauPoly,
    coeff_extract,
    det,
    det_cofactor,
    pluecker_check,
    tau_qnumber,
)


def P(**terms):
    # p3=c is coefficient c at exponent 3; pm2 at exponent -2
    return TauPoly({int(k[1:].replace("m", "-")): v for k, v in terms.items()})


def rand_poly(rng, max_exp=8, max_coeff=10**6, nterms=5):
    return TauPoly(
        {rng.randint(-max_exp, max_exp): rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, nterms))}
    )


def test_qnumber_base_cases():
    assert tau_qnumber(0).is_zero()
    assert tau_qnumber(1) == TauPoly.one()
    assert tau_qnumber(2) == TauPoly.monomial(1, -1)
    assert tau_qnumber(3) == TauPoly({2: 1, 0: -1})


def test_qnumber_classical_limit():
    # at tau = -2 (q = 1) the ladder value [k] collapses to k
    for k in range(0, 21):
        assert tau_qnumber(k).evaluate(Fraction(-2)) == k


def test_qnumber_rejects_negative():
    with pytest.raises(ValueError):
        tau_qnumber(-1)


def test_taupoly_ring_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(1000):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (-a) == TauPoly.zero()


def test_taupoly_normalisation_and_json():
    p = TauPoly({2: 0, -1: 3, 0: Fraction(4, 2)})
    assert p.terms == {-1: 3, 0: 2}
    blob = p.to_json()
    assert blob["ring"] == "Z[tau,tau^-1]"
    assert blob["terms"] == [[-1, "3"], [0, "2"]]
    assert TauPoly.from_json(blob) == p
    q = TauPoly({0: Fraction(1, 3)})
    assert q.to_json()["ring"] == "Q[tau,tau^-1]"
    assert TauPoly.from_json(q.to_json()) == q


def test_taupoly_exact_division():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_poly(rng, 5, 50, 4)
        b = rand_poly(rng, 5, 50, 4)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
    with pytest.raises(ExactDivisionError):
        P(p0=1, p1=1).exact_div(P(p0=1, p1=1, p2=1))
    with pytest.raises(ZeroDivisionError):
        TauPoly.one().exact_div(TauPoly.zero())


def test_taupoly_pow_and_unit():
    t = TauPoly.tau()
    assert t**0 == TauPoly.one()
    assert (t * -1) ** 3 == TauPoly.monomial(3, -1)
    inv = TauPoly.monomial(-1)
    assert t * inv == TauPoly.one()
    assert inv**-2 == TauPoly.monomial(2)
    with pytest.raises(ExactDivisionError):
        P(p0=1, p2=1) ** -1


def test_det_small_fixtures():
    assert det(RingMatrix([])) == TauPoly.one()
    assert det(RingMatrix([[0, 1], [1, 0]])) == -1
    m = RingMatrix([[P(p0=2, p2=1)]])
    assert det(m) == P(p0=2, p2=1)
    # rational matrices whose Bareiss intermediates turn integral part-way
    F = Fraction
    m = RingMatrix([[-1, 0, 0, -3], [-3, 2, -2, -2], [0, -1, 0, 0], [-3, -3, F(-3, 2), 0]])
    assert det(m) == F(15, 2)
    rows = [
        [3, F(-1, 2), 3, -3, 2],
        [2, 0, 2, -3, -1],
        [3, 2, -3, 1, 2],
        [-4, -2, 4, -1, F(3, 2)],
        [1, -1, 1, -2, 2],
    ]
    m = RingMatrix([[F(x) for x in row] for row in rows])
    assert det(m) == F(-245, 2)


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det(RingMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_randomized():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = RingMatrix([[rand_poly(rng, 3, 9, 3) for _ in range(n)] for _ in range(n)])
        assert det(m) == det_cofactor(m)


def test_det_zero_pivot_paths():
    # leading zeros force row swaps; singular matrices give exact zero
    m = RingMatrix([[0, 2], [3, 4]])
    assert det(m) == -6
    z = RingMatrix([[TauPoly.zero(), TauPoly.zero()], [TauPoly.one(), TauPoly.one()]])
    assert det(z) == TauPoly.zero()


def test_multipoly_examples():
    mp = MultiPoly(2, (2, 2), {(1, 1): TauPoly.one(), (0, 0): TauPoly.one()})
    assert coeff_extract(mp, (1, 1)) == TauPoly.one()
    assert coeff_extract(mp, (2, 0)).is_zero()
    with pytest.raises(DimensionError):
        coeff_extract(MultiPoly(2, (2, 2), {(0, 0): TauPoly.monomial(1)}), (0,))
    with pytest.raises(CapError):
        coeff_extract(mp, (3, 0))
    # (tau + u)^2 -> coefficient of u^1 is 2 tau
    lin = MultiPoly(1, (4,), {(0,): TauPoly.tau(), (1,): TauPoly.one()})
    sq = lin * lin
    assert coeff_extract(sq, (1,)) == TauPoly.monomial(1, 2)


def test_multipoly_cap_agreement():
    # capped products agree with higher-capped ones inside the low cap
    rng = random.Random(5)
    for _ in range(50):
        cap = (3, 3)
        big = (5, 5)

        def rand_mp(capv):
            return MultiPoly(
                2,
                capv,
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): rand_poly(rng, 2, 5, 2)
                    for _ in range(3)
                },
            )

        a_low = rand_mp(cap)
        b_low = rand_mp(cap)
        a_big = MultiPoly(2, big, a_low.coefficients())
        b_big = MultiPoly(2, big, b_low.coefficients())
        low = a_low * b_low
        high = a_big * b_big
        for e0 in range(cap[0] + 1):
            for e1 in range(cap[1] + 1):
                assert coeff_extract(low, (e0, e1)) == coeff_extract(high, (e0, e1))


def naive_terms(rng, n, span, count):
    """{(u-exponents, tau degree): coefficient} with exponents in -span..span."""
    out = {}
    for _ in range(count):
        e = tuple(rng.randint(-span, span) for _ in range(n))
        c = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
        if c:
            out[(e, rng.randint(-span, span))] = c
    return out


def naive_mul(a, b, cap=None):
    out = {}
    for (ea, ta), ca in a.items():
        for (eb, tb), cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if cap is None or all(x <= c for x, c in zip(e, cap)):
                out[(e, ta + tb)] = out.get((e, ta + tb), 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def naive_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def to_multipoly(n, cap, naive):
    grouped = {}
    for (e, t), c in naive.items():
        grouped.setdefault(e, {})[t] = c
    return MultiPoly(n, cap, {e: TauPoly(t) for e, t in grouped.items()})


def test_multipoly_matches_naive_products_randomized():
    # exponents up to 2**20 overflow any field sized for the small operand,
    # and the sum of two in-range fields overflows a field sized for one
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 3)
        span_a, span_b = rng.choice([2, 3, 7, 200]), rng.choice([1, 5, 130, 2**20])
        a = naive_terms(rng, n, span_a, rng.randint(0, 6))
        b = naive_terms(rng, n, span_b, rng.randint(0, 6))
        pa, pb = to_multipoly(n, None, a), to_multipoly(n, None, b)
        assert pa * pb == to_multipoly(n, None, naive_mul(a, b))
        assert pb * pa == to_multipoly(n, None, naive_mul(a, b))
        assert pa + pb == to_multipoly(n, None, naive_add(a, b))
        assert pa + to_multipoly(n, None, {k: -c for k, c in a.items()}) == MultiPoly(n, None)
        # a capped operand keeps its cap through a product with an uncapped one
        cap = tuple(rng.randint(-span_a, span_a) for _ in range(n))
        a_cap = {k: c for k, c in a.items() if all(x <= y for x, y in zip(k[0], cap))}
        capped = to_multipoly(n, cap, a_cap) * pb
        assert capped.cap == cap
        assert capped == to_multipoly(n, None, naive_mul(a_cap, b, cap))
        # and a chain of nonnegative factors truncates exactly
        c = {(tuple(abs(x) % 3 for x in e), t): v for (e, t), v in naive_terms(rng, n, 2, 4).items()}
        chained = capped * to_multipoly(n, None, c)
        expect = to_multipoly(n, None, naive_mul(naive_mul(a_cap, b), c, cap))
        assert chained == expect
        for e, coeff in expect.coefficients().items():
            assert coeff_extract(chained, e) == coeff
    # two caps meet at the tighter one; sums need equal caps
    x = MultiPoly(2, (1, 4), {(1, 0): TauPoly.one()})
    y = MultiPoly(2, (3, 2), {(0, 2): TauPoly.one(), (1, 1): TauPoly.tau()})
    assert (x * y).cap == (1, 2)
    assert (x * y).coefficients() == {(1, 2): TauPoly.one()}
    with pytest.raises(DimensionError):
        x + y
    with pytest.raises(CapError):
        MultiPoly(1, (2,), {(3,): TauPoly.one()})


def test_pluecker_identity_fixture():
    eye = RingMatrix([[1, 0], [0, 1]])
    assert pluecker_check(eye, eye)


def test_pluecker_randomized():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(34):
            a = RingMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            b = RingMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert pluecker_check(a, b)
    # TauPoly monomial entries
    for _ in range(25):
        n = 4
        a = RingMatrix(
            [[TauPoly.monomial(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        b = RingMatrix(
            [[TauPoly.monomial(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        assert pluecker_check(a, b)
    with pytest.raises(DimensionError):
        pluecker_check(RingMatrix([[1]]), RingMatrix([[1, 0], [0, 1]]))
    # the identity exchanges row n, so it needs n >= 1
    with pytest.raises(DimensionError):
        pluecker_check(RingMatrix([]), RingMatrix([]))


def test_taupoly_repr_and_eval():
    p = P(pm2=1, p0=5, p2=4, p6=1)
    assert p.evaluate(Fraction(1)) == 11
    assert p.at_tau_one() == 11
    assert "tau^-2" in repr(p)
