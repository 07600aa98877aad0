"""The binomial determinant family T(L,p,k) and its identity web.

T is a p x p determinant of binomial convolutions in tau^2.  It carries four
printed forms (the direct determinant, a bordered (p+1) x (p+1) determinant,
the general-t contour determinant, and closed binomial forms at the two
special t values), a monomial prefactor exponent nu, and a change of
variables onto a three-index bilinear lattice.
"""

from __future__ import annotations

import itertools
from math import comb

from .report import VerifyReport
from .ring import EnumerationBudgetError, MultiPoly, RingMatrix, TauPoly, det
from . import qkz

TEE_MAX_L = 20  # largest L for tee and tee_via_U
LEMMA2_MAX_P = 5  # verify_lemma2 expands p! symbolic terms


def bino(n: int, r: int) -> int:
    """Binomial with the vanishing convention outside 0 <= r <= n."""
    if r < 0 or n < 0 or r > n:
        return 0
    return comb(n, r)


def tee_entry(l: int, m: int, k: int, kprime: int) -> TauPoly:
    """Entry T_{lm}(k, k') = sum_r C(l+k-1, 2m-l-r) C(m+k', r) tau^(2r)."""
    terms: dict[int, int] = {}
    for r in range(0, 2 * m + 1):
        c = bino(l + k - 1, 2 * m - l - r) * bino(m + kprime, r)
        if c:
            terms[2 * r] = terms.get(2 * r, 0) + c
    return TauPoly(terms)


class TeeParams:
    """Parameter triple (L, p, k) with the derived complement k' = L-2p-k."""

    __slots__ = ("L", "p", "k", "kprime")

    def __init__(self, L: int, p: int, k: int):
        if p < 0:
            raise ValueError("p must be nonnegative")
        self.L = L
        self.p = p
        self.k = k
        self.kprime = L - 2 * p - k

    def admissible(self) -> bool:
        return self.k >= 0 and self.kprime >= 0

    def __repr__(self) -> str:
        return f"TeeParams(L={self.L}, p={self.p}, k={self.k}, kprime={self.kprime})"


def tee(L: int, p: int, k: int) -> TauPoly:
    """The p x p determinant of tee_entry; the empty determinant is 1."""
    if L > TEE_MAX_L:
        raise EnumerationBudgetError(f"tee budgeted to L <= {TEE_MAX_L}")
    params = TeeParams(L, p, k)
    rows = [
        [tee_entry(l, m, params.k, params.kprime) for m in range(1, p + 1)]
        for l in range(1, p + 1)
    ]
    return det(RingMatrix(rows))


def tee_via_U(L: int, p: int, k: int) -> TauPoly:
    """Bordered (p+1) x (p+1) determinant equal to tee(L, p, k).

    First column alternates (-1)^(l-1) tau^(2(p+1-l)); the remaining block is
    tee_entry with the complement lowered by one.
    """
    if L > TEE_MAX_L:
        raise EnumerationBudgetError(f"tee budgeted to L <= {TEE_MAX_L}")
    params = TeeParams(L, p, k)
    rows = []
    for l in range(1, p + 2):
        row = [TauPoly.monomial(2 * (p + 1 - l), -1 if (l - 1) % 2 else 1)]
        for m in range(1, p + 1):
            row.append(tee_entry(l, m, params.k, params.kprime - 1))
        rows.append(row)
    return det(RingMatrix(rows))


def nu(L: int, p: int) -> int:
    """Prefactor exponent (m(m-1) - p(p+1))/2 with m = floor(L/2).

    Both products are of consecutive integers, so the value is always an
    integer; this is asserted rather than assumed.
    """
    m = L // 2
    num = m * (m - 1) - p * (p + 1)
    if num % 2:
        raise AssertionError("nu must be integral")
    return num // 2


# ---------------------------------------------------------------------------
# the general-t determinant
# ---------------------------------------------------------------------------


def _s_entry(l: int, m: int, pt: int, E: int, t: TauPoly) -> TauPoly:
    """Coefficient of u^(2m-l) in (1 + t u)(tau + u)^E (1 + tau u)^(m+pt).

    Without the first factor the coefficient of u^T is
    sum_a C(E,a) C(m+pt,T-a) tau^(E-2a+T); the t u term adds t times the
    same sum at T-1.
    """

    def coeff(T: int) -> TauPoly:
        return TauPoly(
            {E - 2 * a + T: bino(E, a) * bino(m + pt, T - a) for a in range(0, min(E, T) + 1)}
        )

    target = 2 * m - l
    if target < 0:
        return TauPoly.zero()
    out = coeff(target)
    if target >= 1:
        out = out + t * coeff(target - 1)
    return out


def _s_prefactor(L: int, p: int) -> int:
    """Monomial exponent carried by the integrated-out leading variables.

    Setting the first head variables to zero turns each (tau + u_l + u_m)
    pair among them into a bare tau: C(pt+1, 2) of them for even L and
    C(pt, 2) for odd L.
    """
    pt = qkz.ptilde(L, p)
    head = pt + 1 if L % 2 == 0 else pt
    return head * (head - 1) // 2


def s_det(L: int, p: int, t: qkz.TLike) -> TauPoly:
    """The t-parametrised determinant evaluating the partial sums.

    Entries are single-variable constant terms, scaled by the monomial the
    integrated-out head variables contribute; at t = tau or 1/tau the closed
    binomial forms are also evaluated and the two routes are asserted equal
    before returning.
    """
    qkz._check_p(L, p)
    tv = qkz._as_t(t)
    pt = qkz.ptilde(L, p)
    shift = 0 if L % 2 == 0 else 1
    rows = [
        [_s_entry(l, m, pt, l + pt - shift, tv) for m in range(1, p + 1)]
        for l in range(1, p + 1)
    ]
    result = det(RingMatrix(rows)).shift(_s_prefactor(L, p))
    unit = tv.as_unit()
    if unit in ((1, 1), (-1, 1)):
        sign = 1 if unit == (1, 1) else -1
        closed = s_closed(L, p, sign)
        if closed != result:
            raise AssertionError(f"closed form disagrees at (L,p,t)=({L},{p},tau^{sign})")
    return result


def s_closed(L: int, p: int, sign: int) -> TauPoly:
    """Closed binomial determinant for the two special t values tau^(+-1)."""
    pt = qkz.ptilde(L, p)
    even = L % 2 == 0

    def entry(l: int, m: int) -> TauPoly:
        terms: dict[int, int] = {}
        for r in range(0, 2 * m + 1):
            if even:
                if sign > 0:
                    c = bino(l + pt, r - l) * bino(m + pt + 1, 2 * m - r)
                    e = pt + 2 * m + 2 * l - 2 * r
                else:
                    c = bino(l + pt + 1, r - l) * bino(m + pt, 2 * m - r)
                    e = pt + 2 * m + 2 * l - 2 * r
            else:
                if sign > 0:
                    c = bino(l + pt - 1, r - l) * bino(m + pt + 1, 2 * m - r)
                    e = pt + 2 * m + 2 * l - 2 * r - 1
                else:
                    c = bino(l + pt, r - l) * bino(m + pt, 2 * m - r)
                    e = pt + 2 * m + 2 * l - 2 * r - 1
            if c:
                terms[e] = terms.get(e, 0) + c
        return TauPoly(terms)

    rows = [[entry(l, m) for m in range(1, p + 1)] for l in range(1, p + 1)]
    return det(RingMatrix(rows)).shift(_s_prefactor(L, p))


# ---------------------------------------------------------------------------
# lattice coordinates
# ---------------------------------------------------------------------------


def hirota_coords(L: int, p: int, k: int) -> tuple[int, int, int]:
    """Map (L, p, k) to the bilinear-lattice triple (n, i, j)."""
    return (L - p - k, 2 * p + k - L, p + k)


def hirota_coords_inverse(n: int, i: int, j: int) -> tuple[int, int, int]:
    """Inverse of hirota_coords; round-trips exactly."""
    return (n + j, n + i, j - n - i)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def verify_prop1(Lmax: int) -> VerifyReport:
    """Partial sums against the monomial-prefactored determinants.

    For every 4 <= L <= Lmax and admissible p, S_+ must equal
    tau^nu T(L, p, floor(L/2)-p) and S_- the same with k shifted by one.
    """
    if Lmax < 4:
        raise ValueError("Lmax must be at least 4")
    rep = VerifyReport("prop1", {"max_L": Lmax})
    for L in range(4, Lmax + 1):
        for p in range(0, (L - 1) // 2 + 1):
            e = nu(L, p)
            for sign, k in ((1, L // 2 - p), (-1, L // 2 - p + 1)):
                lhs = qkz.partial_sum(L, p, sign)
                rhs = tee(L, p, k).shift(e)
                rep.record(
                    lhs == rhs,
                    {
                        "L": L,
                        "p": p,
                        "sign": sign,
                        "expected": rhs.to_json(),
                        "actual": lhs.to_json(),
                    },
                )
    return rep


def verify_trecur(Lmax: int) -> VerifyReport:
    """Bilinear recurrence sweep.

    Checks T(L,p,k) T(L-2,p-2,k+2) = T(L-1,p-2,k+2) T(L-1,p,k)
    + tau^2 T(L-2,p-1,k) T(L,p-1,k+2) over every tuple with L <= Lmax whose
    six parameter triples all have p >= 0 and k, k' >= 0; other tuples are
    counted as skipped.  These six triples are the octahedron stencil
    around hirota_coords(L, p, k) mapped back by hirota_coords_inverse; a
    point where the two coordinate systems disagree is an internal fault
    and raises AssertionError.
    """
    rep = VerifyReport("trecur", {"max_L": Lmax})
    for L in range(4, Lmax + 1):
        for p in range(2, L // 2 + 1):
            for k in range(0, L - 2 * p + 1):
                calls = [
                    (L, p, k),
                    (L - 2, p - 2, k + 2),
                    (L - 1, p - 2, k + 2),
                    (L - 1, p, k),
                    (L - 2, p - 1, k),
                    (L, p - 1, k + 2),
                ]
                n, i, j = hirota_coords(L, p, k)
                stencil = [
                    (n, i, j),
                    (n - 2, i, j),
                    (n - 1, i - 1, j),
                    (n - 1, i + 1, j),
                    (n - 1, i, j - 1),
                    (n - 1, i, j + 1),
                ]
                if [hirota_coords_inverse(*pt) for pt in stencil] != calls:
                    raise AssertionError(f"lattice stencil does not map back to (L,p,k)=({L},{p},{k})")
                if not all(TeeParams(*c).admissible() for c in calls):
                    rep.skipped += 1
                    continue
                t0, t1, t2, t3, t4, t5 = (tee(*c) for c in calls)
                lhs = t0 * t1
                rhs = t2 * t3 + (t4 * t5).shift(2)
                rep.record(
                    lhs == rhs,
                    {"L": L, "p": p, "k": k, "expected": rhs.to_json(), "actual": lhs.to_json()},
                )
    return rep


def verify_lemma3(Lmax: int) -> VerifyReport:
    """Bordered-determinant identity: tee_via_U == tee on admissible triples."""
    rep = VerifyReport("lemma3", {"max_L": Lmax})
    for L in range(2, Lmax + 1):
        for p in range(0, L // 2 + 1):
            for k in range(0, L - 2 * p + 1):
                if not TeeParams(L, p, k).admissible():
                    rep.skipped += 1
                    continue
                a = tee(L, p, k)
                b = tee_via_U(L, p, k)
                rep.record(
                    a == b,
                    {"L": L, "p": p, "k": k, "expected": a.to_json(), "actual": b.to_json()},
                )
    return rep


# ---------------------------------------------------------------------------
# the truncated antisymmetrisation identity
# ---------------------------------------------------------------------------

def verify_lemma2(pmax: int) -> VerifyReport:
    """Truncated antisymmetrisation identity, expanded symbolically.

    The left side multiplies prod_{l<=m}(1 - u_l u_m) into the
    antisymmetrisation of prod u_l^(1-2l) prod_{l<m}(1 + u_l u_m + tau u_m),
    then keeps only monomials with every u-exponent <= 0; the right side is
    prod u_l^(-1) prod_{l<m}(1/u_m - 1/u_l)(tau + 1/u_l + 1/u_m).  Every
    factor after the leading monomial has nonnegative exponents, so the left
    side carries cap 0 on every variable and is truncated during the product.
    """
    if pmax > LEMMA2_MAX_P:
        raise EnumerationBudgetError(f"lemma2 budgeted to p <= {LEMMA2_MAX_P}")
    rep = VerifyReport("lemma2", {"max_p": pmax})
    one = TauPoly.one()
    tau = TauPoly.tau()
    for p in range(1, pmax + 1):
        zero_e = (0,) * p

        def ev(*exps: tuple[int, int]) -> tuple[int, ...]:
            e = [0] * p
            for var, d in exps:
                e[var] += d
            return tuple(e)

        lhs = MultiPoly(p, zero_e)
        for perm in itertools.permutations(range(p)):
            # slot l of the product carries variable u_{perm(l)}
            inv = sum(1 for i in range(p) for j in range(i + 1, p) if perm[i] > perm[j])
            lead = ev(*[(perm[l], 1 - 2 * (l + 1)) for l in range(p)])
            term = MultiPoly(p, zero_e, {lead: -one if inv % 2 else one})
            for l in range(p):
                for m in range(l + 1, p):
                    pair = ev((perm[l], 1), (perm[m], 1))
                    term = term * MultiPoly(p, None, {zero_e: one, pair: one, ev((perm[m], 1)): tau})
            lhs = lhs + term
        for l in range(p):
            for m in range(l, p):
                lhs = lhs * MultiPoly(p, None, {zero_e: one, ev((l, 1), (m, 1)): -one})

        rhs = MultiPoly(p, None, {ev(*[(l, -1) for l in range(p)]): one})
        for l in range(p):
            for m in range(l + 1, p):
                diff = MultiPoly(p, None, {ev((m, -1)): one, ev((l, -1)): -one})
                summ = MultiPoly(p, None, {zero_e: tau, ev((l, -1)): one, ev((m, -1)): one})
                rhs = rhs * diff * summ

        ok = lhs == rhs
        rep.record(ok, None if ok else {"p": p, "note": "truncated antisymmetrisation mismatch"})
    return rep
