"""Enumerative cross-checks: lattice paths, loop diagrams, symmetric ASMs.

Everything here recomputes quantities from the determinant/solve side by
direct counting: two-fan nonintersecting lattice path families for the
determinant family, fully packed loop diagrams classified by link pattern,
vertically symmetric alternating sign matrices with a tau^2 weight per -1,
the gamma-product evaluation of the counts at tau = 1, and exact-rational
residue spot checks of three integral identities.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

import mpmath

from .hirota import ASMatrix, _build_asms, _monotone_rows, _row_sweep
from .qkz import DyckPath, _check_p, dyck_family
from .report import VerifyReport
from .ring import EnumerationBudgetError, RingMatrix, TauPoly, det
from . import tee as tee_mod

FPL_MAX_L = 8
VSASM_MAX_SIZE = tee_mod.TEE_MAX_L + 1  # vsasm_genfun; tee(2n, n-1, 2) checks size 2n+1
VSASM_LIST_MAX_SIZE = 9  # enumerate_vsasm, which only the order and count tests read
PATHS_MAX_L = tee_mod.TEE_MAX_L  # largest L for lgv_tee and path_count
SFACTOR_MAX_L = 64


class PoleCollisionError(ValueError):
    """A sample point hit a pole of one of the rational sides; resample."""


# ---------------------------------------------------------------------------
# two-fan lattice path model for the determinant family
# ---------------------------------------------------------------------------


def lgv_tee(L: int, p: int, k: int) -> TauPoly:
    """Determinant family via the minor-sum (Cauchy-Binet) presentation.

    Sums over endpoint columns 1 <= r_1 < ... < r_p <= 2p the product of the
    two p x p binomial minors; equals tee(L, p, k) exactly.
    """
    if L > PATHS_MAX_L:
        raise EnumerationBudgetError(f"minor sum budgeted to L <= {PATHS_MAX_L}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p == 0:
        return TauPoly.one()
    kp = L - 2 * p - k
    total = TauPoly.zero()
    for rs in itertools.combinations(range(1, 2 * p + 1), p):
        m1 = RingMatrix(
            [[tee_mod.bino(l + k - 1, r - l) for r in rs] for l in range(1, p + 1)]
        )
        d1 = det(m1)
        if d1 == 0:
            continue
        m2 = RingMatrix(
            [
                [TauPoly.monomial(2 * (2 * l - r), tee_mod.bino(l + kp, 2 * l - r)) for r in rs]
                for l in range(1, p + 1)
            ]
        )
        d2 = det(m2)
        total = total + d2 * d1
    return total


def _fan_ends(p: int, base: int, shift: int) -> dict[tuple[int, ...], int]:
    """Vertex-disjoint families of one fan, counted by their endpoint set.

    Path l (1 <= l <= p) joins l + base steps from the axis at x = l - shift,
    and each step keeps x or moves to x + 1.  The sweep state is the sorted
    tuple of occupied x positions, so distinct positions on every level are
    exactly vertex-disjointness.  A joining path lies left of every path
    already in the sweep and no path can pass another, so path l ends at the
    l-th smallest endpoint.  Paths move one at a time, right to left, and a
    move onto the occupied x is dropped.  A position from which its path can
    no longer reach its place among endpoints in 1..2p is pruned, so the
    final states are exactly the endpoint sets.
    """
    top = 2 * p
    states: dict[tuple[int, ...], int] = {(): 1}
    m = 0
    for height in range(p + base, -1, -1):
        for i in range(m - 1, -1, -1):
            # path i has p - m + i paths left of it at the end
            lo, hi = p - m + i + 1 - height, top - (m - 1 - i)
            moved: dict[tuple[int, ...], int] = {}
            for st, c in states.items():
                x = st[i]
                if x >= lo:
                    moved[st] = moved.get(st, 0) + c
                x += 1
                if lo <= x <= hi and (i == m - 1 or st[i + 1] != x):
                    key = st[:i] + (x,) + st[i + 1:]
                    moved[key] = moved.get(key, 0) + c
            states = moved
        l = height - base
        if 1 <= l <= p:
            states = {(l - shift,) + st: c for st, c in states.items()}
            m += 1
    return states


def path_count(L: int, p: int, k: int) -> TauPoly:
    """Direct count of the two-fan nonintersecting path families.

    Fan one descends from (l, l+k-1) to the axis with unweighted steps; fan
    two ascends from (l-k', -(l+k')) with weight tau^2 per vertical step.
    Families are vertex-disjoint within each fan and the fans share their
    endpoint columns r_1 < ... < r_p in 1..2p.  Each fan is one level sweep
    (``_fan_ends``) that counts its families for every endpoint set at once.
    Path l of fan two makes 2l - r_l of its l + k' steps vertically, so a
    family ending at r carries tau^(2(p(p+1) - sum r)) and the value is the
    dot product of the two fans' counts with that weight.  A start on the
    wrong side of the axis (k < 0 or k' < -1) leaves no family.  No
    determinant is involved; equals the determinant value on the common
    domain.
    """
    if L > PATHS_MAX_L:
        raise EnumerationBudgetError(f"path enumeration budgeted to L <= {PATHS_MAX_L}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p == 0:
        return TauPoly.one()
    kp = L - 2 * p - k
    if k < 0 or kp < -1:
        return TauPoly.zero()
    ascending = _fan_ends(p, kp, kp)
    terms: dict[int, int] = {}
    for rs, n1 in _fan_ends(p, k - 1, 0).items():
        n2 = ascending.get(rs)
        if n2:
            e = 2 * (p * (p + 1) - sum(rs))
            terms[e] = terms.get(e, 0) + n1 * n2
    return TauPoly(terms)


# ---------------------------------------------------------------------------
# factorised count at tau = 1
# ---------------------------------------------------------------------------


def sfactor(L: int, p: int, precision: int = 256) -> mpmath.mpf:
    """Gamma-product evaluation of the tau = 1 count of D(L,p) diagrams.

    The power-of-two prefactor is 2^(2p(L-p-1)/3); the printed source of the
    product carries a different prefactor that does not reproduce the
    determinant values, so the exponent here was calibrated against exact
    counts for every p at L <= 12 and is exact at p = 0 by the empty product.
    """
    if L > SFACTOR_MAX_L:
        raise EnumerationBudgetError(f"gamma product budgeted to L <= {SFACTOR_MAX_L}")
    if precision < 128:
        raise ValueError("precision must be at least 128 bits")
    _check_p(L, p)
    with mpmath.workprec(precision):
        val = mpmath.mpf(2) ** (mpmath.mpf(2 * p * (L - p - 1)) / 3)
        for j in range(1, p + 1):
            val *= mpmath.gamma(L - j + 1) * mpmath.gamma(mpmath.mpf(2 * L + 2 * j + 3) / 6)
            val *= mpmath.gamma(mpmath.mpf(L - 2 * j + 3) / 3)
            val /= mpmath.gamma(L - 2 * j + 1) * mpmath.gamma(j + mpmath.mpf(1) / 2)
            val /= mpmath.gamma(mpmath.mpf(2 * L - j + 3) / 3)
        return +val


# ---------------------------------------------------------------------------
# vertically symmetric alternating sign matrices
# ---------------------------------------------------------------------------


def _symmetric_next_rows(size: int) -> Callable[[tuple[int, ...]], list[tuple[int, ...]]]:
    """Interlacing step of vertically symmetric triangles of odd size.

    A row invariant under j -> size+1-j is its left half plus the centre
    when its length is odd.  The next row's left half interlaces prev's left
    half below the centre: one entry longer when the centre leaves, and
    capped by prev's last left entry when the centre enters.  Rows come out
    in lexicographic order.
    """
    half, centre = (size - 1) // 2, (size + 1) // 2

    def next_rows(prev: tuple[int, ...]) -> list[tuple[int, ...]]:
        left = prev[: len(prev) // 2]
        if len(prev) % 2:
            lefts, mid = _monotone_rows(half, left), ()
        else:
            lefts, mid = _monotone_rows(left[-1], left[:-1]), (centre,)
        return [row + mid + tuple(size + 1 - v for v in reversed(row)) for row in lefts]

    return next_rows


def _check_vsasm_size(size: int, cap: int, what: str) -> None:
    if size % 2 == 0:
        raise ValueError("vertically symmetric matrices have odd size")
    if size < 1:
        raise ValueError("size must be positive")
    if size > cap:
        raise EnumerationBudgetError(f"{what} budgeted to size <= {cap}")


def enumerate_vsasm(size: int) -> list[ASMatrix]:
    """All vertically symmetric alternating sign matrices of odd size."""
    _check_vsasm_size(size, VSASM_LIST_MAX_SIZE, "symmetric enumeration")
    return _build_asms(size, [((size + 1) // 2,)], _symmetric_next_rows(size))


def vsasm_genfun(size: int) -> TauPoly:
    """Weighted count of vertically symmetric ASMs, by a row sweep over their triangles.

    The centre column of a size-(2n+1) member alternates and forces n entries
    equal to -1; every further -1 occurs in a mirror pair.  Each such pair
    (one fundamental-domain -1 beyond the forced ones) carries a weight
    tau^2, so member B contributes tau^(minus(B) - n).  The normalisation is
    calibrated so the smallest case has value 1 and the size-5 family gives
    2 + tau^2.
    """
    _check_vsasm_size(size, VSASM_MAX_SIZE, "symmetric weighted count")
    n = (size - 1) // 2
    by_minus = _row_sweep(size, [((size + 1) // 2,)], _symmetric_next_rows(size), True)
    if any((minus - n) % 2 for minus in by_minus):
        raise AssertionError("off-centre -1 entries must pair up")
    return TauPoly({minus - n: mult for minus, mult in by_minus.items()})


def vsasm_product(size: int) -> int:
    """Kuperberg's product formula for the number of VSASMs of odd size 2n+1.

    prod_{i<n} (3i+2) (6i+3)! (2i+1)! / ((4i+2)! (4i+3)!), computed over the
    integers; an independent route to ``vsasm_genfun(size).at_tau_one()``.
    """
    if size % 2 == 0 or size < 1:
        raise ValueError("vertically symmetric matrices have odd positive size")
    num = den = 1
    for i in range((size - 1) // 2):
        num *= (3 * i + 2) * factorial(6 * i + 3) * factorial(2 * i + 1)
        den *= factorial(4 * i + 2) * factorial(4 * i + 3)
    return num // den


# ---------------------------------------------------------------------------
# link patterns and their encodings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkPattern:
    """Noncrossing pairing of 1..L; odd L leaves exactly one opener unmatched."""

    L: int
    pairs: frozenset[tuple[int, int]]
    top: Optional[int] = None

    def __post_init__(self):
        seen = sorted(x for pr in self.pairs for x in pr) + ([self.top] if self.top else [])
        if sorted(seen) != list(range(1, self.L + 1)):
            raise ValueError("pairs plus top must cover 1..L exactly once")
        if (self.top is None) != (self.L % 2 == 0):
            raise ValueError("odd length requires exactly one unmatched terminal")
        for a, b in self.pairs:
            if not a < b:
                raise ValueError("pairs must be ordered")
            for c, d in self.pairs:
                if a < c < b < d:
                    raise ValueError("crossing pairs")
            if self.top is not None and a < self.top < b:
                raise ValueError("unmatched terminal trapped under an arc")

    def to_parens(self) -> str:
        out = ["?"] * self.L
        for a, b in self.pairs:
            out[a - 1] = "("
            out[b - 1] = ")"
        if self.top is not None:
            out[self.top - 1] = "("
        return "".join(out)

    @classmethod
    def from_parens(cls, s: str) -> "LinkPattern":
        stack: list[int] = []
        pairs = set()
        for pos, ch in enumerate(s, start=1):
            if ch in "(U":
                stack.append(pos)
            elif ch in ")D":
                if not stack:
                    raise ValueError("unbalanced closer")
                pairs.add((stack.pop(), pos))
            else:
                raise ValueError(f"bad character {ch!r}")
        if len(stack) > 1:
            raise ValueError("more than one unmatched opener")
        top = stack[0] if stack else None
        return cls(len(s), frozenset(pairs), top)


@dataclass(frozen=True)
class YoungTableau:
    """Two-row standard tableau: opener positions over closer positions."""

    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        allv = sorted(self.first + self.second)
        n = len(allv)
        if allv != list(range(1, n + 1)):
            raise ValueError("entries must be 1..L without repeats")
        if len(self.first) - len(self.second) != n % 2:
            raise ValueError("row lengths must differ by L mod 2")
        if any(a >= b for a, b in zip(self.first, self.first[1:])):
            raise ValueError("first row must increase")
        if any(a >= b for a, b in zip(self.second, self.second[1:])):
            raise ValueError("second row must increase")
        if any(self.second[j] <= self.first[j] for j in range(len(self.second))):
            raise ValueError("columns must increase downward")


def link_to_dyck(link: LinkPattern) -> DyckPath:
    return DyckPath.from_string(link.to_parens())


def dyck_to_link(alpha: DyckPath) -> LinkPattern:
    return LinkPattern.from_parens(alpha.to_string())


def link_to_tableau(link: LinkPattern) -> YoungTableau:
    s = link.to_parens()
    first = tuple(i for i, ch in enumerate(s, start=1) if ch == "(")
    second = tuple(i for i, ch in enumerate(s, start=1) if ch == ")")
    return YoungTableau(first, second)


def tableau_to_link(t: YoungTableau) -> LinkPattern:
    L = len(t.first) + len(t.second)
    s = ["?"] * L
    for i in t.first:
        s[i - 1] = "("
    for i in t.second:
        s[i - 1] = ")"
    return LinkPattern.from_parens("".join(s))


def dyck_to_tableau(alpha: DyckPath) -> YoungTableau:
    return YoungTableau(alpha.up_positions(), alpha.down_positions())


def tableau_to_dyck(t: YoungTableau) -> DyckPath:
    return link_to_dyck(tableau_to_link(t))


def convert(link: LinkPattern) -> tuple[YoungTableau, DyckPath]:
    """Both alternate encodings of a link pattern; all round trips are exact."""
    return link_to_tableau(link), link_to_dyck(link)


# ---------------------------------------------------------------------------
# fully packed loop diagrams
# ---------------------------------------------------------------------------


def _fpl_geometry(L: int):
    """Grid shape, forced external half-edges in boundary-walk order."""
    if L % 2 == 0:
        H, W = L // 2, L
    else:
        H, W = (L - 1) // 2, L + 1
    walk = (
        [("left", r, 1) for r in range(1, H + 1)]
        + [("bottom", H, c) for c in range(1, W + 1)]
        + [("right", r, W) for r in range(H, 0, -1)]
    )
    drawn = {}
    terminals = []
    for idx, (side, r, c) in enumerate(walk):
        if idx % 2 == 0:
            terminals.append((side, r, c))
            drawn[(side, r, c)] = len(terminals)
        else:
            drawn[(side, r, c)] = 0
    return H, W, drawn, terminals


def enumerate_fpl(L: int) -> dict[DyckPath, int]:
    """Count fully packed loop diagrams per link-pattern Dyck path.

    Vertices form an H x W grid; every vertex must meet exactly two drawn
    bonds, counting forced boundary half-edges (every other one along the
    left, bottom and right sides, starting at the top-left) and, for odd L,
    exactly one free half-edge on the top side.
    """
    if L > FPL_MAX_L:
        raise EnumerationBudgetError(f"loop enumeration budgeted to L <= {FPL_MAX_L}")
    if L < 2:
        raise ValueError("L must be at least 2")
    H, W, forced, terminals = _fpl_geometry(L)
    odd = L % 2 == 1

    def ext(side: str, r: int, c: int) -> int:
        return forced.get((side, r, c), 0)

    counts: dict[DyckPath, int] = {}

    # edge state arrays: right[r][c] joins (r,c)-(r,c+1); down joins (r,c)-(r+1,c)
    right = [[False] * (W + 1) for _ in range(H + 1)]
    down = [[False] * (W + 1) for _ in range(H + 1)]
    topext = [False] * (W + 1)

    def finish():
        # trace terminal-to-terminal paths through the drawn bonds
        def neighbours(r: int, c: int):
            out = []
            if c > 1 and right[r][c - 1]:
                out.append((r, c - 1))
            if c < W and right[r][c]:
                out.append((r, c + 1))
            if r > 1 and down[r - 1][c]:
                out.append((r - 1, c))
            if r < H and down[r][c]:
                out.append((r + 1, c))
            if r == 1 and topext[c]:
                out.append(("TOP", c))
            for side, onside in (("left", c == 1), ("right", c == W), ("bottom", r == H)):
                label = ext(side, r, c) if onside else 0
                if label:
                    out.append(("EXT", label))
            return out

        pairing = {}
        for label, (side, r0, c0) in enumerate(terminals, start=1):
            if label in pairing:
                continue
            prev: object = ("EXT", label)
            cur = (r0, c0)
            while True:
                nbrs = neighbours(*cur)
                nxt = [x for x in nbrs if x != prev]
                if len(nxt) != 1:
                    raise AssertionError("vertex degree violated during trace")
                step = nxt[0]
                if isinstance(step[0], str):
                    if step[0] == "EXT":
                        pairing[label] = step[1]
                        pairing[step[1]] = label
                    else:
                        pairing[label] = "TOP"
                    break
                prev, cur = cur, step
        s = []
        for i in range(1, L + 1):
            mate = pairing[i]
            s.append("(" if mate == "TOP" or (isinstance(mate, int) and mate > i) else ")")
        path = link_to_dyck(LinkPattern.from_parens("".join(s)))
        counts[path] = counts.get(path, 0) + 1

    def visit(r: int, c: int, tops: int):
        if r > H:
            if not odd or tops == 1:
                finish()
            return
        nr, nc = (r, c + 1) if c < W else (r + 1, 1)
        deg = 0
        if c == 1:
            deg += 1 if ext("left", r, c) else 0
        if c == W:
            deg += 1 if ext("right", r, c) else 0
        if r == H:
            deg += 1 if ext("bottom", r, c) else 0
        if c > 1 and right[r][c - 1]:
            deg += 1
        if r > 1 and down[r - 1][c]:
            deg += 1
        top_allowed = odd and r == 1
        choices_right = (False, True) if c < W else (False,)
        choices_down = (False, True) if r < H else (False,)
        choices_top = (False, True) if (top_allowed and tops == 0) else (False,)
        for cr in choices_right:
            for cd in choices_down:
                for ct in choices_top:
                    if deg + cr + cd + ct != 2:
                        continue
                    right[r][c] = cr
                    down[r][c] = cd
                    if top_allowed:
                        topext[c] = ct
                    visit(nr, nc, tops + ct)
        right[r][c] = False
        down[r][c] = False
        if top_allowed:
            topext[c] = False

    visit(1, 1, 0)
    return counts


def p_restricted_count(L: int, p: int) -> int:
    """Number of loop diagrams whose link-pattern path stays in D(L,p)."""
    fam = set(dyck_family(L, p).members)
    return sum(cnt for path, cnt in enumerate_fpl(L).items() if path in fam)


# ---------------------------------------------------------------------------
# exact-rational residue spot checks
# ---------------------------------------------------------------------------

RESIDUE_IDENTITIES = ("U", "VHP", "HT")


def _mu_linear(a: Fraction, xsq: Fraction) -> tuple[Fraction, Fraction]:
    """(slope, intercept) in u of a(a+u) - (1+a u) x^2."""
    return a - a * xsq, a * a - xsq


def _residue_sum(a: Fraction, x: Fraction, y: Fraction, numer) -> Fraction:
    """Residues of numer(u)/prod(mu factors) at the two x-dependent poles."""
    factors = [
        _mu_linear(a, x * x),
        _mu_linear(a, 1 / (x * x)),
        _mu_linear(a, (a / y) ** 2),
        _mu_linear(a, (a * y) ** 2),
    ]
    total = Fraction(0)
    for idx in (0, 1):
        s, c = factors[idx]
        if s == 0:
            raise PoleCollisionError("degenerate linear factor")
        u0 = -c / s
        den = s
        for j, (s2, c2) in enumerate(factors):
            if j == idx:
                continue
            v = s2 * u0 + c2
            if v == 0:
                raise PoleCollisionError("pole collision between factors")
            den *= v
        total += Fraction(numer(u0)) / den
    return total


def residue_identity_check(which: str, sample: tuple) -> bool:
    """Exact check of one of the three rational integral identities.

    The closed rational side is compared against the residue sum of the
    u-integrand at its two x-dependent poles at the sample point (x, y, a).
    The orientation of the first contour and the monomial normalisation of
    the other two sides are fixed here once (calibrated constants); with
    those pinned, each identity holds at every nondegenerate rational point.
    """
    x, y, a = (Fraction(v) for v in sample)
    if x == 0 or y == 0 or a == 0:
        raise PoleCollisionError("coordinates must be nonzero")
    d1 = a * a * x * x - y * y
    d2 = a * a * y * y - x * x
    d3 = a * a - x * x * y * y
    d4 = 1 - a * a * x * x * y * y
    if 0 in (d1, d2, d3, d4):
        raise PoleCollisionError("sample lies on a pole of the closed side")
    D = d1 * d2 * d3 * d4
    tau = a + 1 / a
    if which == "U":
        if a * a + 1 == 0 or x * x == a * a or a * a * x * x == 1:
            raise PoleCollisionError("sample hits the prefactor poles")
        lhs = 1 / D
        pref = a**3 * (a * a - 1) ** 2
        pref /= (a * a + 1) * x * x * y**4 * (x * x - a * a) * (a * a * x * x - 1)
        # contour orientation: the integral equals minus the x-pole residues
        rhs = -pref * _residue_sum(a, x, y, lambda u: u * (u + tau))
        return lhs == rhs
    if which == "VHP":
        num = -(a * a) * y * y * (1 + x**4)
        num += ((a**4 + a * a + 1) * (1 + y**4) - (a * a + 1) ** 2 * y * y) * x * x
        lhs = num * x * x * y * y / (a * a * D)
        rhs = (1 - a * a) ** 2 * _residue_sum(a, x, y, lambda u: u * (1 + u * tau))
        return lhs == rhs
    if which == "HT":
        num = (a * a + 1) ** 2 * x * x * y * y
        num -= a * a * (x * x + y * y) * (1 + x * x * y * y)
        lhs = num * x * x * y * y / (a * a * D)
        rhs = (1 - a * a) ** 2 * _residue_sum(a, x, y, lambda u: u)
        return lhs == rhs
    raise ValueError(f"unknown identity {which!r}; expected one of {RESIDUE_IDENTITIES}")


def residue_sweep(which: str, samples: int, seed: int) -> VerifyReport:
    """Randomised sweep of one residue identity at nondegenerate points."""
    rep = VerifyReport(f"residues-{which}", {"samples": samples, "seed": seed})
    rng = random.Random(seed)
    done = 0
    while done < samples:
        pt = tuple(
            Fraction(rng.randint(2, 40), rng.randint(1, 12)) * rng.choice((1, -1))
            for _ in range(3)
        )
        try:
            ok = residue_identity_check(which, pt)
        except PoleCollisionError:
            continue
        rep.record(ok, {"which": which, "sample": [str(v) for v in pt]})
        done += 1
    return rep
