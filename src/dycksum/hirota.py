"""Octahedron recurrence, the tau^2-deformed determinant, and its ASM oracle.

The three-index bilinear recurrence

    f(n,i,j) f(n-2,i,j) = f(n-1,i-1,j) f(n-1,i+1,j)
                          + tau^2 f(n-1,i,j-1) f(n-1,i,j+1)

is solved layer by layer from the boundary f(0,.,.) = 1, f(1,.,.) = matrix
entries.  Layers are stored in connected-minor corner coordinates (R, C),
where f(k, R, C) is the deformed determinant of the k x k submatrix whose
bottom-right corner is (R, C); the rotation (n, i, j) = (k, R+C-k, R-C)
carries the stencil onto the equation above.  At tau^2 = -1 the recurrence
reduces to ordinary determinant condensation, and for every matrix the top
value expands as a weighted sum over alternating sign matrices, which this
module also enumerates directly as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Callable, Sequence, Union

from .ring import EnumerationBudgetError, ExactDivisionError, TauPoly, _int_div, _norm_coeff

Value = Union[int, Fraction, TauPoly]


class DegenerateDivisionError(ZeroDivisionError):
    """A zero interior value blocked the recurrence; carries the (n,i,j) triple."""

    def __init__(self, level: int, i: int, j: int):
        super().__init__(f"zero divisor at (n,i,j)=({level},{i},{j})")
        self.point = (level, i, j)


class ExpansionPoleError(ValueError):
    """A zero entry sits at a -1 cell of an ASM whose weight does not vanish."""


def _rational_div(a: Value, b: Value) -> Value:
    return _norm_coeff(Fraction(a, b))


@dataclass
class OctState:
    """Rolling solution of the recurrence for one boundary matrix.

    ``layers[k]`` maps corner pairs (R, C), k <= R, C <= n, to the layer-k
    values.  Only the two most recent layers are retained unless
    ``keep_history`` is set.  ``level`` is the highest populated layer.
    ``div`` is the exact division of the tower's value domain, fixed once
    by ``oct_init``.
    """

    n: int
    tau2: Value
    layers: dict[int, dict[tuple[int, int], Value]]
    level: int
    keep_history: bool = False
    div: Callable[[Value, Value], Value] = _rational_div

    def value(self, k: int, R: int, C: int) -> Value:
        return self.layers[k][(R, C)]

    def hirota_point(self, k: int, i: int, j: int) -> Value:
        """Value addressed in rotated coordinates (n, i, j) = (k, R+C-k, R-C)."""
        if (i + j + k) % 2:
            raise KeyError("off-lattice point: i+j+k must be even")
        R = (i + j + k) // 2
        C = (i - j + k) // 2
        return self.layers[k][(R, C)]


def oct_init(matrix: Sequence[Sequence[Value]], tau2: Value, keep_history: bool = False) -> OctState:
    """Boundary layers: layer 0 all ones, layer 1 the matrix itself.

    Fixes the value domain of the whole tower: Laurent polynomials if tau2
    or some entry is a TauPoly; integers with checked division at tau2 = -1
    with integer entries, where every value is an integer minor (Dodgson
    condensation); rationals otherwise.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    tau2 = _norm_coeff(tau2)
    layer0 = {(R, C): 1 for R in range(0, n + 1) for C in range(0, n + 1)}
    layer1 = {
        (R, C): _norm_coeff(matrix[R - 1][C - 1]) for R in range(1, n + 1) for C in range(1, n + 1)
    }
    div = _rational_div
    if isinstance(tau2, TauPoly) or any(isinstance(v, TauPoly) for v in layer1.values()):
        layer0 = {k: TauPoly.one() for k in layer0}
        layer1 = {
            k: v if isinstance(v, TauPoly) else TauPoly.from_coeff(v) for k, v in layer1.items()
        }
        if not isinstance(tau2, TauPoly):
            tau2 = TauPoly.from_coeff(tau2)
        div = TauPoly.exact_div
    elif tau2 == -1 and all(isinstance(v, int) for v in layer1.values()):
        div = _int_div
    return OctState(n, tau2, {0: layer0, 1: layer1}, 1, keep_history, div)


def octahedron_step(state: OctState, k: int) -> OctState:
    """Populate layer k from layers k-1 and k-2 by exact division.

    Divisions are exact by the Laurent property of the recurrence; an inexact
    one raises ExactDivisionError (an internal bug, not a data condition),
    while a zero divisor raises DegenerateDivisionError with the failing
    lattice point in rotated coordinates.  The division is the one
    ``oct_init`` fixed for the tower's value domain.
    """
    if k != state.level + 1:
        raise ValueError(f"expected step to layer {state.level + 1}, got {k}")
    if k < 2 or k > state.n:
        raise ValueError("layer out of range")
    prev = state.layers[k - 1]
    prev2 = state.layers[k - 2]
    tau2 = state.tau2
    div = state.div
    new: dict[tuple[int, int], Value] = {}
    for R in range(k, state.n + 1):
        for C in range(k, state.n + 1):
            den = prev2[(R - 1, C - 1)]
            if not den:
                raise DegenerateDivisionError(k, R + C - k, R - C)
            num = prev[(R - 1, C - 1)] * prev[(R, C)] + tau2 * (prev[(R - 1, C)] * prev[(R, C - 1)])
            new[(R, C)] = div(num, den)
    layers = dict(state.layers) if state.keep_history else {k - 1: prev}
    layers[k] = new
    return OctState(state.n, tau2, layers, k, state.keep_history, div)


TAU2_DET_MAX_N = 12


class _EpsSeries:
    """Power series in eps whose coefficients at eps^0 .. eps^(len(c)-1) are known.

    The value type of a tower run on matrix + eps*E.  A product is known as
    far as both factors determine it, so a factor with leading zeros keeps
    precision; a quotient by a series of valuation v loses v terms.
    """

    __slots__ = ("c",)

    def __init__(self, c: list):
        self.c = c

    def valuation(self) -> int:
        for i, x in enumerate(self.c):
            if x:
                return i
        return len(self.c)

    def __bool__(self) -> bool:
        return any(self.c)

    def __add__(self, other: "_EpsSeries") -> "_EpsSeries":
        return _EpsSeries([x + y for x, y in zip(self.c, other.c)])

    def __rmul__(self, scalar: Value) -> "_EpsSeries":
        return _EpsSeries([scalar * x for x in self.c])

    def __mul__(self, other: "_EpsSeries") -> "_EpsSeries":
        a, b = self.c, other.c
        # a nonzero eps^0 term, the usual case, needs no valuation scan
        va = 0 if a and a[0] else self.valuation()
        vb = 0 if b and b[0] else other.valuation()
        size = min(len(a) + vb, len(b) + va)
        out = [0] * size
        for i in range(va, min(len(a), size - vb)):
            x = a[i]
            if x:
                for j, y in enumerate(b[vb : size - i], vb):
                    out[i + j] += x * y
        return _EpsSeries(out)


def _series_div(coeff_div: Callable[[Value, Value], Value]) -> Callable[[_EpsSeries, _EpsSeries], _EpsSeries]:
    """Exact series division with coefficient division ``coeff_div`` (den is nonzero)."""

    def div(num: _EpsSeries, den: _EpsSeries) -> _EpsSeries:
        v = den.valuation()
        if any(num.c[:v]):
            raise ExactDivisionError("numerator vanishes to lower order than the divisor")
        n, d, lead = num.c, den.c, den.c[v]
        q: list = []
        for j in range(min(len(n), len(d)) - v):
            acc = n[j + v]
            for i in range(j):
                acc -= q[i] * d[j + v - i]
            q.append(coeff_div(acc, lead))
        return _EpsSeries(q)

    return div


def _perturbed_value(base: OctState, stuck: DegenerateDivisionError) -> Value:
    """eps^0 term of the tower of ``base`` run on matrix + eps*E, E = Pascal's C(i+j, i).

    At tau2 = -1 every tower value is the ordinary determinant of a
    connected minor, a polynomial in eps whose top coefficient is a minor
    of E.  Pascal's matrix is totally positive, so no divisor vanishes
    identically; the divisor of level k, a (k-2) x (k-2) minor, has
    valuation at most k - 2, so (n-1)(n-2)/2 + 1 terms always suffice.  The
    precision starts at 2 terms and doubles until every divisor shows its
    leading term and the top value keeps its eps^0 term.  At other tau2 the
    perturbed tower can stay degenerate only where a deformed connected
    minor of E vanishes at that tau2; past n^2 terms this re-raises
    ``stuck``.  Coefficients live in the domain ``oct_init`` fixed for base.
    """
    n, div = base.n, _series_div(base.div)
    prec = 2
    while prec <= n * n:
        pad = [0] * (prec - 2)
        layer0 = {key: _EpsSeries([v, 0] + pad) for key, v in base.layers[0].items()}
        layer1 = {(R, C): _EpsSeries([v, comb(R + C - 2, R - 1)] + pad) for (R, C), v in base.layers[1].items()}
        try:
            top = _top(OctState(n, base.tau2, {0: layer0, 1: layer1}, 1, False, div)).c
        except DegenerateDivisionError:
            top = []
        if top:
            return _norm_coeff(top[0])
        prec *= 2
    raise stuck


def _top(state: OctState) -> Value:
    """Run a tower from its boundary layers to the top value."""
    for k in range(state.level + 1, state.n + 1):
        state = octahedron_step(state, k)
    return state.value(state.n, state.n, state.n)


def tau2_det(matrix: Sequence[Sequence[Value]], tau2: Value) -> Value:
    """Deformed determinant: the top value of the recurrence tower.

    With tau2 = -1 this is the ordinary determinant.  Rational input:
      * at tau2 = -1 every matrix has a value.  Each row is scaled to
        integers (the value has degree one in each row, since every ASM row
        sums to 1), the tower runs over the integers, and the value is
        divided by the product of the scales.
      * a zero divisor reruns the tower on matrix + eps*E over truncated
        power series in eps (``_perturbed_value``) and returns the eps^0
        term.
      * at any other tau2 a zero interior entry (rows and columns 2..n-1)
        can be a pole, since interior entries are exactly the denominators
        of the ASM expansion (Robbins-Rumsey); it raises
        DegenerateDivisionError with the failing point, as does a
        perturbed tower that stays degenerate (see ``_perturbed_value``).

    Domain with TauPoly entries or tau2: at tau2 = -1 any Laurent
    polynomials are allowed.  At any other tau2 every interior entry must be
    a single term c*tau^e or zero, since a unit keeps every intermediate a
    Laurent polynomial; any other interior entry raises ValueError.  A zero
    divisor raises DegenerateDivisionError; this domain has no fallback.
    """
    n = len(matrix)
    if n > TAU2_DET_MAX_N:
        raise EnumerationBudgetError(f"deformed determinant budgeted to n <= {TAU2_DET_MAX_N}")
    if n == 0:
        return 1
    if isinstance(tau2, TauPoly) or any(isinstance(v, TauPoly) for row in matrix for v in row):
        tau2_poly = tau2 if isinstance(tau2, TauPoly) else TauPoly.from_coeff(tau2)
        if tau2_poly != TauPoly.from_coeff(-1):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    v = matrix[i][j]
                    if isinstance(v, TauPoly) and len(v.terms) > 1:
                        raise ValueError(
                            f"interior entry ({i + 1},{j + 1}) = {v} is not a single term c*tau^e;"
                            " at tau2 != -1 the recurrence may leave the Laurent ring"
                        )
        return _top(oct_init(matrix, tau2))
    scale = 1
    if tau2 == -1:
        rows = []
        for row in matrix:
            d = lcm(*(v.denominator for v in row))
            rows.append([v.numerator * (d // v.denominator) for v in row])
            scale *= d
        matrix = rows
    base = oct_init(matrix, tau2)
    try:
        value = _top(base)
    except DegenerateDivisionError as exc:
        if tau2 != -1 and any(not matrix[i][j] for i in range(1, n - 1) for j in range(1, n - 1)):
            raise
        value = _perturbed_value(base, exc)
    return _norm_coeff(Fraction(value, scale)) if scale != 1 else value


# ---------------------------------------------------------------------------
# alternating sign matrices
# ---------------------------------------------------------------------------

ASM_MAX_N = 13  # asm_count
ASM_EXPANSION_MAX_N = 5  # asm_expansion and enumerate_asm, its matrix list
ASM_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436}


@dataclass(frozen=True)
class ASMatrix:
    """Matrix with entries in {-1,0,1}, alternating nonzero signs, unit line sums."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for line in list(self.rows) + [tuple(r[j] for r in self.rows) for j in range(n)]:
            if len(line) != n:
                raise ValueError("matrix must be square")
            nz = [x for x in line if x]
            if sum(line) != 1 or not nz or nz[0] != 1 or nz[-1] != 1:
                raise ValueError("line sums must be 1 with signs alternating from +1")
            if any(a == b for a, b in zip(nz, nz[1:])):
                raise ValueError("nonzero entries must alternate in sign")

    @property
    def n(self) -> int:
        return len(self.rows)

    def minus_count(self) -> int:
        return sum(1 for row in self.rows for x in row if x == -1)

    def inversion_number(self) -> int:
        """Sum of B[i,j] B[k,l] over i<k and j>l; the permutation inversion count."""
        cells = [
            (i, j, v) for i, row in enumerate(self.rows) for j, v in enumerate(row) if v
        ]
        total = 0
        for i, j, v in cells:
            for k, l, w in cells:
                if i < k and j > l:
                    total += v * w
        return total


def _monotone_rows(n: int, prev: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Strictly increasing rows of length len(prev)+1 in 1..n interlacing prev.

    Entry j lies between prev[j-1] and prev[j] (1 and n at the ends), so
    neighbours can only collide on a shared prev value.  Rows come out in
    lexicographic order.
    """
    bounds = (1, *prev, n)
    rows: list[tuple[int, ...]] = [()]
    for lo, hi in zip(bounds, bounds[1:]):
        rows = [row + (v,) for row in rows for v in range(max(lo, row[-1] + 1) if row else lo, hi + 1)]
    return rows


def _build_asms(
    size: int,
    starts: Sequence[tuple[int, ...]],
    next_rows: Callable[[tuple[int, ...]], list[tuple[int, ...]]],
) -> list[ASMatrix]:
    """ASMs of every monotone triangle grown from a start row by next_rows.

    Row r of the matrix is +1 at the entries that enter triangle row r and -1
    at those that leave it; triangles come out depth first, in the order of
    starts and of next_rows.
    """
    results: list[ASMatrix] = []

    def build(triangle: list[tuple[int, ...]]):
        if len(triangle) == size:
            rows = []
            prev: set[int] = set()
            for rowset in triangle:
                cur = set(rowset)
                rows.append(
                    tuple(
                        1 if j in cur and j not in prev else -1 if j in prev and j not in cur else 0
                        for j in range(1, size + 1)
                    )
                )
                prev = cur
            results.append(ASMatrix(tuple(rows)))
            return
        for nxt in next_rows(triangle[-1]):
            triangle.append(nxt)
            build(triangle)
            triangle.pop()

    for start in starts:
        build([start])
    return results


def _row_sweep(
    size: int,
    starts: Sequence[tuple[int, ...]],
    next_rows: Callable[[tuple[int, ...]], list[tuple[int, ...]]],
    weighted: bool,
) -> dict[int, int]:
    """Monotone triangles grown from a start row by next_rows, counted by -1 entries.

    The same triangles as ``_build_asms``, swept one row at a time: a layer
    maps the current row to a dict from the number of -1 entries so far to
    multiplicity.  The entries of row k-1 missing from row k are the -1
    entries of matrix row k, so each step's weight is local.  Unweighted,
    every triangle is filed under 0.
    """
    layer = {start: {0: 1} for start in starts}
    for _ in range(size - 1):
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for prev, dist in layer.items():
            prev_set = set(prev)
            for row in next_rows(prev):
                step = len(prev_set.difference(row)) if weighted else 0
                acc = nxt.setdefault(row, {})
                for minus, mult in dist.items():
                    acc[minus + step] = acc.get(minus + step, 0) + mult
        layer = nxt
    total: dict[int, int] = {}
    for dist in layer.values():
        for minus, mult in dist.items():
            total[minus] = total.get(minus, 0) + mult
    return total


def asm_count(n: int) -> int:
    """Number of alternating sign matrices of size n, by a row sweep over monotone triangles."""
    if n > ASM_MAX_N:
        raise EnumerationBudgetError(f"ASM count budgeted to n <= {ASM_MAX_N}")
    if n < 1:
        raise ValueError("n must be positive")
    starts = [(start,) for start in range(1, n + 1)]
    return _row_sweep(n, starts, lambda prev: _monotone_rows(n, prev), False)[0]


def enumerate_asm(n: int) -> list[ASMatrix]:
    """All alternating sign matrices of size n by monotone-triangle search."""
    if n > ASM_EXPANSION_MAX_N:
        raise EnumerationBudgetError(f"ASM enumeration budgeted to n <= {ASM_EXPANSION_MAX_N}")
    if n < 1:
        raise ValueError("n must be positive")
    return _build_asms(n, [(start,) for start in range(1, n + 1)], lambda prev: _monotone_rows(n, prev))


@lru_cache(maxsize=None)
def _asm_terms(n: int) -> tuple[tuple, ...]:
    """Per ASM of size n, in enumeration order: (inv, minus, +1 cells, -1 cells).

    Cells are (row, column) pairs in row-major order.  Built once per n, so
    repeated expansions do not re-enumerate and re-score the matrices.
    """
    out = []
    for B in enumerate_asm(n):
        cells = [(i, j, v) for i, row in enumerate(B.rows) for j, v in enumerate(row) if v]
        plus = tuple((i, j) for i, j, v in cells if v == 1)
        minus = tuple((i, j) for i, j, v in cells if v == -1)
        out.append((B.inversion_number(), len(minus), plus, minus))
    return tuple(out)


def asm_expansion(matrix: Sequence[Sequence[Value]], lam: Value) -> Value:
    """Deformed determinant as a weighted sum over alternating sign matrices.

    Each ASM B contributes lam^inv(B) (1 + 1/lam)^minus(B) times the product
    of matrix entries at the +1 cells divided by those at the -1 cells.  At
    lam = -1 every B with a -1 entry has weight 0 and is skipped, so any
    matrix is allowed and the sum is the determinant.  At any other lam a
    zero entry at a -1 cell is a pole and raises ExpansionPoleError; lam
    must be nonzero.
    """
    n = len(matrix)
    if n > ASM_EXPANSION_MAX_N:
        raise EnumerationBudgetError(f"expansion oracle budgeted to n <= {ASM_EXPANSION_MAX_N}")
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroDivisionError("lam must be nonzero")
    total = Fraction(0)
    for inv, minus_count, plus, minus in _asm_terms(n):
        term = lam ** inv * (1 + 1 / lam) ** minus_count
        if not term:
            continue
        for i, j in plus:
            term *= Fraction(matrix[i][j])
        for i, j in minus:
            if not matrix[i][j]:
                raise ExpansionPoleError(f"zero entry at ({i + 1},{j + 1}), a -1 cell, at lam = {lam}")
            term /= Fraction(matrix[i][j])
        total += term
    return _norm_coeff(total)
