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
from typing import Callable, Sequence, Union

from .ring import EnumerationBudgetError, TauPoly, _norm_coeff

Value = Union[int, Fraction, TauPoly]


class DegenerateDivisionError(ZeroDivisionError):
    """A zero interior value blocked the recurrence; carries the (n,i,j) triple."""

    def __init__(self, level: int, i: int, j: int):
        super().__init__(f"zero divisor at (n,i,j)=({level},{i},{j})")
        self.point = (level, i, j)


@dataclass
class OctState:
    """Rolling solution of the recurrence for one boundary matrix.

    ``layers[k]`` maps corner pairs (R, C), k <= R, C <= n, to the layer-k
    values.  Only the two most recent layers are retained unless
    ``keep_history`` is set.  ``level`` is the highest populated layer.
    """

    n: int
    tau2: Value
    layers: dict[int, dict[tuple[int, int], Value]]
    level: int
    keep_history: bool = False

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
    """Boundary layers: layer 0 all ones, layer 1 the matrix itself."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    layer0 = {(R, C): 1 for R in range(0, n + 1) for C in range(0, n + 1)}
    layer1 = {
        (R, C): _norm_coeff(matrix[R - 1][C - 1]) for R in range(1, n + 1) for C in range(1, n + 1)
    }
    if isinstance(tau2, TauPoly) or any(isinstance(v, TauPoly) for v in layer1.values()):
        layer0 = {k: TauPoly.one() for k in layer0}
        layer1 = {
            k: v if isinstance(v, TauPoly) else TauPoly.from_coeff(v) for k, v in layer1.items()
        }
        if not isinstance(tau2, TauPoly):
            tau2 = TauPoly.from_coeff(tau2)
    return OctState(n=n, tau2=tau2, layers={0: layer0, 1: layer1}, level=1, keep_history=keep_history)


def octahedron_step(state: OctState, k: int) -> OctState:
    """Populate layer k from layers k-1 and k-2 by exact division.

    Divisions are exact by the Laurent property of the recurrence; an inexact
    one raises ExactDivisionError (an internal bug, not a data condition),
    while a zero divisor raises DegenerateDivisionError with the failing
    lattice point in rotated coordinates.
    """
    if k != state.level + 1:
        raise ValueError(f"expected step to layer {state.level + 1}, got {k}")
    if k < 2 or k > state.n:
        raise ValueError("layer out of range")
    prev = state.layers[k - 1]
    prev2 = state.layers[k - 2]
    tau2 = state.tau2
    # oct_init fixed one domain for the whole tower: TauPoly, or int/Fraction
    if isinstance(tau2, TauPoly):
        div = TauPoly.exact_div
    else:
        def div(a: Value, b: Value) -> Value:
            return _norm_coeff(Fraction(a, b))
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
    return OctState(state.n, tau2, layers, k, state.keep_history)


TAU2_DET_MAX_N = 12


def tau2_det(matrix: Sequence[Sequence[Value]], tau2: Value) -> Value:
    """Deformed determinant: the top value of the recurrence tower.

    With tau2 = -1 this is the ordinary determinant.  Interior zeros make the
    recurrence degenerate; the error then reports the failing point so
    callers can resample random inputs.

    Domain with TauPoly entries: at tau2 = -1 any Laurent polynomials are
    allowed.  At any other tau2 every interior entry (rows and columns
    2..n-1) must be a single term c*tau^e or zero, since only interior
    entries are ever divided by (Robbins-Rumsey) and a unit keeps every
    intermediate a Laurent polynomial; any other interior entry raises
    ValueError.  Rational entries have no such restriction.
    """
    n = len(matrix)
    if n > TAU2_DET_MAX_N:
        raise EnumerationBudgetError(f"deformed determinant budgeted to n <= {TAU2_DET_MAX_N}")
    if n == 0:
        return 1
    tau2_poly = tau2 if isinstance(tau2, TauPoly) else TauPoly.from_coeff(tau2)
    if any(isinstance(v, TauPoly) for row in matrix for v in row) and tau2_poly != TauPoly.from_coeff(-1):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                v = matrix[i][j]
                if isinstance(v, TauPoly) and len(v.terms) > 1:
                    raise ValueError(
                        f"interior entry ({i + 1},{j + 1}) = {v} is not a single term c*tau^e;"
                        " at tau2 != -1 the recurrence may leave the Laurent ring"
                    )
    state = oct_init(matrix, tau2)
    for k in range(2, n + 1):
        state = octahedron_step(state, k)
    return state.value(n, n, n)


# ---------------------------------------------------------------------------
# alternating sign matrices
# ---------------------------------------------------------------------------

ASM_MAX_N = 6
ASM_EXPANSION_MAX_N = 5
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
    """Strictly increasing rows of length len(prev)+1 interlacing prev."""
    size = len(prev) + 1
    out: list[tuple[int, ...]] = []

    def grow(row: list[int], lo: int):
        j = len(row)
        if j == size:
            out.append(tuple(row))
            return
        lower = max(lo, prev[j - 1] if j > 0 else 1)
        upper = prev[j] if j < size - 1 else n
        for v in range(lower, upper + 1):
            row.append(v)
            grow(row, v + 1)
            row.pop()

    grow([], 1)
    return out


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


def enumerate_asm(n: int) -> list[ASMatrix]:
    """All alternating sign matrices of size n by monotone-triangle search."""
    if n > ASM_MAX_N:
        raise EnumerationBudgetError(f"ASM enumeration budgeted to n <= {ASM_MAX_N}")
    if n < 1:
        raise ValueError("n must be positive")
    return _build_asms(n, [(start,) for start in range(1, n + 1)], lambda prev: _monotone_rows(n, prev))


def asm_expansion(matrix: Sequence[Sequence[Value]], lam: Value) -> Value:
    """Deformed determinant as a weighted sum over alternating sign matrices.

    Each ASM B contributes lam^inv(B) (1 + 1/lam)^minus(B) times the product
    of matrix entries at the +1 cells divided by those at the -1 cells.
    Requires nonzero entries wherever some ASM has a -1, and nonzero lam.
    """
    n = len(matrix)
    if n > ASM_EXPANSION_MAX_N:
        raise EnumerationBudgetError(f"expansion oracle budgeted to n <= {ASM_EXPANSION_MAX_N}")
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroDivisionError("lam must be nonzero")
    total = Fraction(0)
    for B in enumerate_asm(n):
        term = lam ** B.inversion_number() * (1 + 1 / lam) ** B.minus_count()
        for i, row in enumerate(B.rows):
            for j, v in enumerate(row):
                if v == 1:
                    term *= Fraction(matrix[i][j])
                elif v == -1:
                    term /= Fraction(matrix[i][j])
        total += term
    return _norm_coeff(total)
