"""Dyck-path combinatorics and the homogeneous loop-model ground-state solve.

The central objects are the Dyck paths of length L, the restricted families
D(L,p) of paths staying above a floor, the integer statistic c(alpha,p), the
constant-term values psi_bar indexed by admissible integer sequences, and the
exact solve recovering one Laurent polynomial psi_alpha per path.  Partial
weighted sums over D(L,p) are assembled from those components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .ring import EnumerationBudgetError, MultiPoly, TauPoly, tau_qnumber

# largest size the integrand expansion (psi_bar) and the exact solve are budgeted for
SOLVE_MAX_L = 10


class ConventionError(RuntimeError):
    """The linear system for the path components is not uniquely solvable."""


@dataclass(frozen=True, order=True)
class DyckPath:
    """Height sequence alpha_0..alpha_L with unit steps, staying nonnegative.

    Even lengths return to height 0; odd lengths end at height 1.  Ordering is
    lexicographic on the height tuple, which fixes every iteration order here.
    """

    heights: tuple[int, ...]

    def __post_init__(self):
        h = self.heights
        if len(h) < 2 or h[0] != 0:
            raise ValueError("path must start at height 0")
        for a, b in zip(h, h[1:]):
            if abs(a - b) != 1:
                raise ValueError("steps must change height by exactly 1")
        if any(x < 0 for x in h):
            raise ValueError("heights must stay nonnegative")
        L = len(h) - 1
        if h[L] != L % 2:
            raise ValueError("path must end at height 0 (even L) or 1 (odd L)")

    @property
    def length(self) -> int:
        return len(self.heights) - 1

    @classmethod
    def from_string(cls, steps: str) -> "DyckPath":
        """Build from a U/D (or parenthesis) step word."""
        h = [0]
        for ch in steps:
            if ch in "U(":
                h.append(h[-1] + 1)
            elif ch in "D)":
                h.append(h[-1] - 1)
            else:
                raise ValueError(f"bad step character {ch!r}")
        return cls(tuple(h))

    def to_string(self) -> str:
        return "".join("U" if b > a else "D" for a, b in zip(self.heights, self.heights[1:]))

    def up_positions(self) -> tuple[int, ...]:
        """1-based step indices that go up."""
        return tuple(i + 1 for i, (a, b) in enumerate(zip(self.heights, self.heights[1:])) if b > a)

    def down_positions(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, (a, b) in enumerate(zip(self.heights, self.heights[1:])) if b < a)

    def __str__(self) -> str:
        return self.to_string()


def max_path(L: int) -> DyckPath:
    """The componentwise-highest path of length L."""
    eps = L % 2
    return DyckPath(tuple(min(i, L + eps - i) for i in range(L + 1)))


@lru_cache(maxsize=None)
def enumerate_dyck(L: int) -> tuple[DyckPath, ...]:
    """All Dyck paths of length L, lexicographically ordered by height tuple."""
    if L < 1:
        raise ValueError("L must be positive")
    end = L % 2
    paths: list[tuple[int, ...]] = []

    def grow(h: list[int]):
        i = len(h) - 1
        if i == L:
            if h[-1] == end:
                paths.append(tuple(h))
            return
        # prune: must be able to reach `end` with L - i further unit steps
        remaining = L - i
        for step in (-1, 1):
            nxt = h[-1] + step
            if nxt < 0:
                continue
            if abs(nxt - end) > remaining - 1:
                continue
            h.append(nxt)
            grow(h)
            h.pop()

    grow([0])
    return tuple(DyckPath(t) for t in sorted(paths))


def ptilde(L: int, p: int) -> int:
    return (L - 1) // 2 - p


def _floor_heights(L: int, p: int) -> tuple[int, ...]:
    pt = ptilde(L, p)
    top = max_path(L).heights
    return tuple(min(h, pt) for h in top)


def omega_path(L: int, p: int) -> DyckPath:
    """The unique path in D(L,p) whose local minima all sit at height ptilde.

    Pointwise the lowest member of the family: heights are the floor values
    rounded up to the parity forced by the step structure.
    """
    _check_p(L, p)
    floor = _floor_heights(L, p)
    h = []
    for i, f in enumerate(floor):
        h.append(f if (f - i) % 2 == 0 else f + 1)
    return DyckPath(tuple(h))


@dataclass(frozen=True)
class RestrictedFamily:
    """The set of length-L paths lying weakly above omega_path(L, p)."""

    L: int
    p: int
    ptilde: int
    members: tuple[DyckPath, ...]

    def __contains__(self, alpha: DyckPath) -> bool:
        return alpha in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def dyck_family(L: int, p: int) -> RestrictedFamily:
    floor = _floor_heights(L, p)
    members = tuple(
        a for a in enumerate_dyck(L) if all(h >= f for h, f in zip(a.heights, floor))
    )
    return RestrictedFamily(L, p, ptilde(L, p), members)


def c_value(alpha: DyckPath, p: int) -> int:
    """Signed diamond count between alpha and omega_path(L, p).

    Diamonds at height ptilde+h carry sign (-1)^(h-1); the alternating column
    sum below is an exact rewriting of that box count and is always a
    nonnegative integer for members of D(L,p).
    """
    L = alpha.length
    base = omega_path(L, p)
    if any(h < f for h, f in zip(alpha.heights, base.heights)):
        raise ValueError("path lies below the family floor")
    total = 0
    for i in range(1, L):
        diff = alpha.heights[i] - base.heights[i]
        total += diff if i % 2 == 0 else -diff
    if ptilde(L, p) % 2:
        total = -total
    if total % 2:
        raise AssertionError("box sum must be even")
    c = total // 2
    if c < 0:
        raise AssertionError("c statistic must be nonnegative")
    return c


# ---------------------------------------------------------------------------
# admissible sequences and the coefficient recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleSequence:
    """Nondecreasing integer sequence a_1..a_n with entries in 1..L-1.

    The mirror form b_l = L - a_{n+1-l} indexes the constant-term values;
    both directions of the conversion are exact.
    """

    a: tuple[int, ...]
    L: int

    def __post_init__(self):
        n = len(self.a)
        if n != self.L // 2:
            raise ValueError(f"sequence length {n} must be floor(L/2) for L={self.L}")
        if any(not 1 <= x <= self.L - 1 for x in self.a):
            raise ValueError("entries must lie in 1..L-1")
        if any(x > y for x, y in zip(self.a, self.a[1:])):
            raise ValueError("sequence must be nondecreasing")

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(self.L - x for x in reversed(self.a))

    @classmethod
    def from_b(cls, b: Sequence[int], L: int) -> "AdmissibleSequence":
        return cls(tuple(L - x for x in reversed(tuple(b))), L)


def canonical_sequence(alpha: DyckPath) -> AdmissibleSequence:
    """The sequence whose coefficient row has a unit at alpha: down steps - 1."""
    return AdmissibleSequence(tuple(d - 1 for d in alpha.down_positions()), alpha.length)


@lru_cache(maxsize=None)
def _c_rec(a: tuple[int, ...], heights: tuple[int, ...], leftmost: bool) -> TauPoly:
    L = len(heights) - 1
    if L <= 1:
        return TauPoly.zero() if a else TauPoly.one()
    peaks = [i for i in range(1, L) if heights[i - 1] < heights[i] > heights[i + 1]]
    i = peaks[0] if leftmost else peaks[-1]
    k = sum(1 for x in a if x == i)
    if k == 0:
        return TauPoly.zero()
    new_a = []
    removed = False
    for x in a:
        if x == i and not removed:
            removed = True
            continue
        if x < i:
            new_a.append(x)
        elif x == i:
            new_a.append(i - 1)
        else:
            new_a.append(x - 2)
    new_heights = heights[:i] + heights[i + 2 :]
    return tau_qnumber(k) * _c_rec(tuple(sorted(new_a)), new_heights, leftmost)


def c_coeff(a: Union[AdmissibleSequence, Sequence[int]], alpha: DyckPath, *, leftmost: bool = True) -> TauPoly:
    """Coefficient of psi_alpha in the expansion of the a-indexed value.

    Defined by peeling local maxima of alpha: if no entry of a sits at the
    chosen peak the coefficient vanishes; otherwise one entry is consumed, the
    remainder is reindexed, and a q-number factor [k] is emitted.  The result
    does not depend on which peak is chosen; ``leftmost`` only fixes the
    traversal.
    """
    at = tuple(a.a) if isinstance(a, AdmissibleSequence) else tuple(sorted(a))
    return _c_rec(at, alpha.heights, leftmost)


def admissible_sequences(L: int, strict: bool = False) -> list[AdmissibleSequence]:
    """All nondecreasing (or strictly increasing) sequences for size L."""
    n = L // 2
    out: list[AdmissibleSequence] = []

    def grow(prefix: list[int], lo: int):
        if len(prefix) == n:
            out.append(AdmissibleSequence(tuple(prefix), L))
            return
        for v in range(lo, L):
            prefix.append(v)
            grow(prefix, v + 1 if strict else v)
            prefix.pop()

    if n == 0:
        return [AdmissibleSequence((), L)]
    grow([], 1)
    return out


# ---------------------------------------------------------------------------
# the constant-term integrand
# ---------------------------------------------------------------------------


def integrand_factors(L: int) -> list[list[tuple[tuple[int, ...], int, int]]]:
    """Factor list for the n-variable integrand of size L.

    Each factor is a list of monomials (u-exponent vector, tau-degree, +-1).
    Even L uses factors (1 - u_l u_m) for l <= m and, for l < m,
    (u_m - u_l)(1 + tau u_m + u_l u_m)(tau + u_l + u_m); odd L additionally
    extends the (1 + tau u_m + u_l u_m) family to l = m.
    """
    n = L // 2
    odd = L % 2 == 1
    factors = []

    def ev(*pairs) -> tuple[int, ...]:
        v = [0] * n
        for idx in pairs:
            v[idx] += 1
        return tuple(v)

    zero = ev()
    for l in range(n):
        for m in range(l, n):
            factors.append([(zero, 0, 1), (ev(l, m), 0, -1)])  # 1 - u_l u_m
            if odd or l < m:
                # 1 + tau u_m + u_l u_m
                factors.append([(zero, 0, 1), (ev(m), 1, 1), (ev(l, m), 0, 1)])
            if l < m:
                factors.append([(ev(m), 0, 1), (ev(l), 0, -1)])  # u_m - u_l
                factors.append([(zero, 1, 1), (ev(l), 0, 1), (ev(m), 0, 1)])  # tau + u_l + u_m
    return factors


@lru_cache(maxsize=None)
def _integrand_table(L: int) -> tuple[int, dict[int, TauPoly]]:
    """Expand the size-L integrand with every u-exponent capped at L - 2.

    Returns (bits, table) where table maps radix-encoded u-exponent vectors
    (bits per digit) to TauPoly coefficients.  Exponents and the tau degree
    are packed into one integer key so the inner loop is plain integer-dict
    arithmetic.  Built once per size: every psi_bar read of size L shares it.
    """
    n = L // 2
    cap = L - 2
    bits = (cap + 2).bit_length()
    shifts = [bits * i for i in range(n)]
    tau_shift = bits * n

    def encode(evec: tuple[int, ...], taudeg: int) -> int:
        key = taudeg << tau_shift
        for e, s in zip(evec, shifts):
            key += e << s
        return key

    factors = []
    for fac in integrand_factors(L):
        mons = []
        for evec, taudeg, coef in fac:
            touched = tuple(shifts[i] for i, e in enumerate(evec) if e)
            mons.append((encode(evec, taudeg), touched, coef))
        # order factors by the highest variable they touch so intermediates
        # stay confined to a prefix of the variables for as long as possible
        hi = max((i for m in fac for i, e in enumerate(m[0]) if e), default=-1)
        factors.append((hi, len(mons), mons))
    factors.sort(key=lambda t: (t[0], t[1]))

    mask = (1 << bits) - 1
    cur: dict[int, int] = {0: 1}
    for _, _, mons in factors:
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, c in cur.items():
            for delta, touched, coef in mons:
                nk = key + delta
                ok = True
                for shift in touched:
                    if (nk >> shift) & mask > cap:
                        ok = False
                        break
                if not ok:
                    continue
                s = get(nk, 0) + (c if coef > 0 else -c)
                if s:
                    nxt[nk] = s
                else:
                    nxt.pop(nk, None)
        cur = nxt

    grouped: dict[int, dict[int, int]] = {}
    ukey_mask = (1 << tau_shift) - 1
    for key, c in cur.items():
        u = key & ukey_mask
        grouped.setdefault(u, {})[key >> tau_shift] = c
    return bits, {u: TauPoly(t) for u, t in grouped.items()}


def integrand_multipoly(L: int) -> MultiPoly:
    """Reference expansion through the public MultiPoly type (slow path).

    Uses the same uniform cap L - 2 per variable as ``_integrand_table``.
    """
    n = L // 2
    caps = (L - 2,) * n
    acc = MultiPoly.one(n, caps)
    for fac in integrand_factors(L):
        terms = {}
        for evec, taudeg, coef in fac:
            if all(e <= c for e, c in zip(evec, caps)):
                terms[evec] = TauPoly.monomial(taudeg, coef)
        acc = acc * MultiPoly(n, caps, terms)
    return acc


def psi_bar(b: Sequence[int], L: int) -> TauPoly:
    """Constant-term value indexed by the nondecreasing sequence b.

    Expands the size-L integrand once per size (cached) and reads the
    coefficient of the monomial with exponents b_l - 1.
    """
    if L > SOLVE_MAX_L:
        raise EnumerationBudgetError(f"constant terms budgeted to L <= {SOLVE_MAX_L}")
    b = tuple(int(x) for x in b)
    n = L // 2
    if len(b) != n:
        raise ValueError(f"b must have length {n} for L={L}")
    AdmissibleSequence.from_b(b, L)  # validates range and monotonicity
    if n == 0:
        return TauPoly.one()
    bits, table = _integrand_table(L)
    key = 0
    for l, x in enumerate(b):
        key += (x - 1) << (bits * l)
    return table.get(key, TauPoly.zero())


# ---------------------------------------------------------------------------
# the exact solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiVector:
    """One Laurent polynomial per path of length L.

    The component at the maximal path is tau^(m(m-1)/2) with m = floor(L/2),
    and every component divided by its lowest tau power is a polynomial in
    tau^2 with nonnegative integer coefficients; both facts are asserted on
    construction.
    """

    L: int
    values: dict[DyckPath, TauPoly]

    def __post_init__(self):
        m = self.L // 2
        top = max_path(self.L)
        expect = TauPoly.monomial(m * (m - 1) // 2)
        if self.values[top] != expect:
            raise AssertionError("maximal-path component has the wrong normalisation")
        for alpha, poly in self.values.items():
            if poly.is_zero():
                raise AssertionError(f"vanishing component at {alpha}")
            lo = poly.min_exp()
            for e, c in poly.terms.items():
                if (e - lo) % 2 or (isinstance(c, int) and c < 0) or not isinstance(c, int):
                    raise AssertionError(f"component at {alpha} violates positivity")

    def __getitem__(self, alpha: DyckPath) -> TauPoly:
        return self.values[alpha]

    def at_tau_one(self) -> dict[DyckPath, int]:
        return {a: int(p.at_tau_one()) for a, p in self.values.items()}


@lru_cache(maxsize=None)
def solve_psi(L: int) -> PsiVector:
    """Solve for the components in one triangular pass over canonical rows.

    The canonical row of alpha (``canonical_sequence``) has a unit
    coefficient at alpha, and every other nonzero coefficient sits at a path
    pointwise above alpha, hence later in lexicographic order.  Paths are
    therefore solved from last to first, each from its own row, so all
    arithmetic stays in the Laurent ring.  Afterwards every other
    nondecreasing admissible equation is re-checked against the solved
    vector (the canonical ones hold by construction).  A row without a unit
    pivot, a coefficient at a path not yet solved, or a residual mismatch
    raises ConventionError.
    """
    if L > SOLVE_MAX_L:
        raise EnumerationBudgetError(f"solve budgeted to L <= {SOLVE_MAX_L}")
    if L < 1:
        raise ValueError("L must be positive")
    paths = enumerate_dyck(L)
    solved: dict[DyckPath, TauPoly] = {}
    canonical: set[tuple[int, ...]] = set()
    for alpha in reversed(paths):
        seq = canonical_sequence(alpha)
        canonical.add(seq.a)
        acc = psi_bar(seq.b, L)
        pivot = None
        for a in paths:
            c = c_coeff(seq, a)
            if c.is_zero():
                continue
            if a == alpha:
                pivot = c.as_unit()
            elif a in solved:
                acc = acc - c * solved[a]
            else:
                raise ConventionError(f"canonical row of {alpha} is not triangular at {a} for L={L}")
        if pivot is None:
            raise ConventionError(f"canonical row of {alpha} has no unit pivot for L={L}")
        e, sign = pivot
        solved[alpha] = (acc * sign).shift(-e)

    for seq in admissible_sequences(L):
        if seq.a in canonical:
            continue
        acc = TauPoly.zero()
        for a in paths:
            c = c_coeff(seq, a)
            if not c.is_zero():
                acc = acc + c * solved[a]
        if acc != psi_bar(seq.b, L):
            raise ConventionError(f"inconsistent equation at sequence a={seq.a} for L={L}")

    return PsiVector(L, solved)


# ---------------------------------------------------------------------------
# epsilon sequences and partial sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonSequence:
    """A vector of p binary choices selecting one constant-term value."""

    eps: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (0, 1) for e in self.eps):
            raise ValueError("entries must be 0 or 1")

    @property
    def weight(self) -> int:
        return sum(self.eps)

    def b_sequence(self, L: int, p: int) -> tuple[int, ...]:
        """The b-sequence whose constant term collects this epsilon class."""
        if len(self.eps) != p:
            raise ValueError("epsilon length must equal p")
        pt = ptilde(L, p)
        if L % 2 == 0:
            head = tuple(range(1, pt + 2))
            tail = tuple(pt + 1 + 2 * l - self.eps[l - 1] for l in range(1, p + 1))
        else:
            head = tuple(range(1, pt + 1))
            tail = tuple(pt + 2 * l - self.eps[l - 1] for l in range(1, p + 1))
        return head + tail

    def contributors(self, L: int, p: int) -> tuple[DyckPath, ...]:
        """Members of D(L,p) whose step pattern matches this epsilon vector.

        For even L the l-th condition compares heights at L-pt-2l-1 and
        L-pt-2l; for odd L the pair shifts one step to the right.
        """
        pt = ptilde(L, p)
        shift = 0 if L % 2 == 0 else 1
        out = []
        for alpha in dyck_family(L, p):
            ok = True
            for l in range(1, p + 1):
                i = L - pt - 2 * l - 1 + shift
                up = alpha.heights[i] < alpha.heights[i + 1]
                if up != bool(self.eps[l - 1]):
                    ok = False
                    break
            if ok:
                out.append(alpha)
        return tuple(out)


def all_epsilon(p: int) -> list[EpsilonSequence]:
    out = []
    for mask in range(1 << p):
        out.append(EpsilonSequence(tuple((mask >> i) & 1 for i in range(p))))
    return out


def _check_p(L: int, p: int):
    if not 0 <= p <= (L - 1) // 2:
        raise ValueError(f"p must lie in 0..{(L - 1) // 2} for L={L}")


def partial_sum(L: int, p: int, sign: Union[int, str]) -> TauPoly:
    """Weighted sum of components over D(L,p) with weights tau^(+-c).

    ``sign`` is +1/-1 or "plus"/"minus".  The result is a Laurent polynomial;
    negative powers occur when the family floor sits low.
    """
    _check_p(L, p)
    if isinstance(sign, str):
        sign = {"plus": 1, "+": 1, "minus": -1, "-": -1}[sign]
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    psi = solve_psi(L)
    total = TauPoly.zero()
    for alpha in dyck_family(L, p):
        total = total + psi[alpha].shift(sign * c_value(alpha, p))
    return total


TLike = Union[int, Fraction, TauPoly, str]


def _as_t(t: TLike) -> TauPoly:
    if isinstance(t, TauPoly):
        return t
    if isinstance(t, str):
        if t == "tau":
            return TauPoly.tau()
        if t == "tau-inv":
            return TauPoly.monomial(-1)
        return TauPoly.from_coeff(Fraction(t))
    return TauPoly.from_coeff(t)


def partial_sum_eps(L: int, p: int, t: TLike) -> TauPoly:
    """The t-weighted epsilon sum of constant-term values.

    Sums t^(sum eps) psi_bar over all 2^p epsilon choices; at t = tau^(+-1)
    this equals partial_sum(L, p, +-1).
    """
    _check_p(L, p)
    tv = _as_t(t)
    total = TauPoly.zero()
    for eps in all_epsilon(p):
        total = total + tv**eps.weight * psi_bar(eps.b_sequence(L, p), L)
    return total
