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
from typing import Iterable, Optional, Sequence

import mpmath

from .hirota import ASMatrix, _build_asms
from .qkz import DyckPath, _check_p, dyck_family
from .report import VerifyReport
from .ring import EnumerationBudgetError, RingMatrix, TauPoly, det
from . import tee as tee_mod

FPL_MAX_L = 8
VSASM_MAX_SIZE = 9
PATHS_MAX_P = 5
PATHS_MAX_L = 14
SFACTOR_MAX_L = 64
VSASM_COUNTS = {3: 1, 5: 3, 7: 26, 9: 646}


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


def _descending_paths(start: tuple[int, int], end_x: int) -> Iterable[tuple[tuple[int, int], ...]]:
    """Paths from start down to (end_x, 0) with steps (0,-1) and (+1,-1)."""
    x0, y0 = start
    diag = end_x - x0
    if diag < 0 or diag > y0:
        return
    for downs in itertools.combinations(range(y0), diag):
        pts = [start]
        x = x0
        for step in range(y0):
            x += 1 if step in downs else 0
            pts.append((x, y0 - step - 1))
        yield tuple(pts)


def _ascending_paths(start: tuple[int, int], end_x: int) -> Iterable[tuple[tuple[int, int], ...]]:
    """Paths from start up to (end_x, 0): steps (0,+1) weight tau^2, (+1,+1) weight 1."""
    x0, y0 = start
    height = -y0
    diag = end_x - x0
    if diag < 0 or diag > height:
        return
    for diags in itertools.combinations(range(height), diag):
        pts = [start]
        x = x0
        for step in range(height):
            x += 1 if step in diags else 0
            pts.append((x, y0 + step + 1))
        yield tuple(pts)


def _family_weight(
    starts: list[tuple[int, int]], ends: Sequence[int], gen, weight_verticals: bool
) -> TauPoly:
    """Weighted count of vertex-disjoint path families, start l to ends[l]."""
    total = TauPoly.zero()

    def place(idx: int, used: set, weight: int):
        nonlocal total
        if idx == len(starts):
            total = total + TauPoly.monomial(2 * weight)
            return
        for path in gen(starts[idx], ends[idx]):
            pts = set(path)
            if pts & used:
                continue
            w = 0
            if weight_verticals:
                w = sum(1 for a, b in zip(path, path[1:]) if a[0] == b[0])
            place(idx + 1, used | pts, weight + w)

    place(0, set(), 0)
    return total


def path_count(L: int, p: int, k: int) -> TauPoly:
    """Direct enumeration of the two-fan nonintersecting path families.

    Fan one descends from (l, l+k-1) to the axis with unweighted steps; fan
    two ascends from (l-k', -(l+k')) with weight tau^2 per vertical step.
    The fans share endpoint columns; families are vertex-disjoint within
    each fan.  Equals the determinant value on the common domain.
    """
    if p > PATHS_MAX_P or L > PATHS_MAX_L:
        raise EnumerationBudgetError(f"path enumeration budgeted to p <= {PATHS_MAX_P}, L <= {PATHS_MAX_L}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p == 0:
        return TauPoly.one()
    kp = L - 2 * p - k
    starts1 = [(l, l + k - 1) for l in range(1, p + 1)]
    starts2 = [(l - kp, -(l + kp)) for l in range(1, p + 1)]
    total = TauPoly.zero()
    for rs in itertools.combinations(range(1, 2 * p + 1), p):
        n1 = _family_weight(starts1, rs, _descending_paths, False)
        if n1.is_zero():
            continue
        n2 = _family_weight(starts2, rs, _ascending_paths, True)
        total = total + n1 * n2
    return total


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


def _symmetric_rows(size: int, length: int) -> list[tuple[int, ...]]:
    """Strictly increasing subsets of 1..size, invariant under j -> size+1-j."""
    out = []
    for rows in itertools.combinations(range(1, size + 1), length):
        if all(size + 1 - j in rows for j in rows):
            out.append(rows)
    return out


def enumerate_vsasm(size: int) -> list[ASMatrix]:
    """All vertically symmetric alternating sign matrices of odd size."""
    if size % 2 == 0:
        raise ValueError("vertically symmetric matrices have odd size")
    if size > VSASM_MAX_SIZE:
        raise EnumerationBudgetError(f"symmetric enumeration budgeted to size <= {VSASM_MAX_SIZE}")
    rows_by_len = {m: _symmetric_rows(size, m) for m in range(1, size + 1)}

    def next_rows(prev: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Symmetric rows one longer than prev that interlace it."""
        return [
            big
            for big in rows_by_len[len(prev) + 1]
            if all(big[j] <= prev[j] <= big[j + 1] for j in range(len(prev)))
        ]

    return _build_asms(size, [((size + 1) // 2,)], next_rows)


def vsasm_genfun(size: int) -> TauPoly:
    """Weighted count of vertically symmetric ASMs.

    The centre column of a size-(2n+1) member alternates and forces n entries
    equal to -1; every further -1 occurs in a mirror pair.  Each such pair
    (one fundamental-domain -1 beyond the forced ones) carries a weight
    tau^2, so member B contributes tau^(minus(B) - n).  The normalisation is
    calibrated so the smallest case has value 1 and the size-5 family gives
    2 + tau^2.
    """
    n = (size - 1) // 2
    total = TauPoly.zero()
    for B in enumerate_vsasm(size):
        extra = B.minus_count() - n
        if extra % 2:
            raise AssertionError("off-centre -1 entries must pair up")
        total = total + TauPoly.monomial(extra)
    return total


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
