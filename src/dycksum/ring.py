"""Exact arithmetic substrate.

Everything downstream is built on four value types:

* ``int`` / ``Fraction`` -- arbitrary precision integers and reduced rationals
  (Python's built-ins already satisfy the required invariants).
* ``TauPoly`` -- sparse Laurent polynomials in a single variable ``tau`` with
  integer (or exact rational) coefficients.
* ``MultiPoly`` -- sparse Laurent polynomials in u_1..u_n and tau, one
  packed integer key per monomial, with an optional upper cap per variable;
  products drop monomials beyond the cap, which is sound while every later
  factor has nonnegative exponents in the capped variables.
* ``RingMatrix`` -- immutable rectangular matrices over any of the above,
  with fraction-free (Bareiss) determinants.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Division in an integral domain left a nonzero remainder."""


class DimensionError(ValueError):
    """Matrix or exponent-vector dimensions do not match."""


class CapError(ValueError):
    """Requested exponent lies outside a MultiPoly's declared cap."""


class EnumerationBudgetError(ValueError):
    """Requested size exceeds the documented budget of the function called."""


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def coeff_str(c: Coeff) -> str:
    """Decimal string for integers, "p/q" for non-integer rationals."""
    c = _norm_coeff(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


def coeff_from_str(s: str) -> Coeff:
    if "/" in s:
        return _norm_coeff(Fraction(s))
    return int(s)


class TauPoly:
    """Sparse Laurent polynomial in tau.

    Stored as a map from integer exponent (possibly negative) to a nonzero
    coefficient.  Instances are immutable by convention: no public method
    mutates ``terms`` after construction, so values can be shared freely.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        clean: dict[int, Coeff] = {}
        if terms:
            for e, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "TauPoly":
        return cls()

    @classmethod
    def one(cls) -> "TauPoly":
        return cls({0: 1})

    @classmethod
    def tau(cls) -> "TauPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: Coeff = 1) -> "TauPoly":
        return cls({exponent: coefficient})

    @classmethod
    def from_coeff(cls, c: Coeff) -> "TauPoly":
        return cls({0: c})

    # -- predicates and accessors -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: int) -> Coeff:
        return self.terms.get(exponent, 0)

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self.terms)

    def as_unit(self) -> tuple[int, Coeff] | None:
        """(exponent, coefficient) if this is c*tau^e with c in {1,-1}, else None."""
        if len(self.terms) != 1:
            return None
        ((e, c),) = self.terms.items()
        if c == 1 or c == -1:
            return e, c
        return None

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TauPoly") -> "TauPoly":
        if not isinstance(other, TauPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _norm_coeff(s)
            else:
                out.pop(e, None)
        res = TauPoly.__new__(TauPoly)
        res.terms = out
        return res

    def __sub__(self, other: "TauPoly") -> "TauPoly":
        if not isinstance(other, TauPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TauPoly":
        res = TauPoly.__new__(TauPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __mul__(self, other: Union["TauPoly", Coeff]) -> "TauPoly":
        if isinstance(other, (int, Fraction)):
            other = _norm_coeff(other)
            if not other:
                return TauPoly.zero()
            res = TauPoly.__new__(TauPoly)
            res.terms = {e: _norm_coeff(c * other) for e, c in self.terms.items()}
            return res
        if not isinstance(other, TauPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return TauPoly.zero()
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict[int, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = TauPoly.__new__(TauPoly)
        res.terms = {e: _norm_coeff(c) for e, c in out.items() if c}
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TauPoly":
        if n < 0:
            unit = self.as_unit()
            if unit is None:
                raise ExactDivisionError("negative power of a non-unit")
            e, c = unit
            return TauPoly.monomial(e * n, c if n % 2 else 1)
        out = TauPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "TauPoly":
        """Multiply by tau^k."""
        res = TauPoly.__new__(TauPoly)
        res.terms = {e + k: c for e, c in self.terms.items()}
        return res

    def exact_div(self, other: "TauPoly") -> "TauPoly":
        """Exact quotient self/other; raises ExactDivisionError on remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return TauPoly.zero()
        # normalise both to ordinary polynomials with nonzero constant term
        ms, mo = self.min_exp(), other.min_exp()
        num = {e - ms: c for e, c in self.terms.items()}
        den = {e - mo: c for e, c in other.terms.items()}
        dmax = max(den)
        nmax = max(num)
        lead = den[dmax]
        quot: dict[int, Coeff] = {}
        # long division from the top exponent down
        work = dict(num)
        deg = nmax
        while work:
            deg = max(work)
            if deg < dmax:
                raise ExactDivisionError("nonzero remainder in TauPoly division")
            c = Fraction(work[deg], lead) if lead not in (1, -1) else work[deg] * lead
            if isinstance(c, Fraction):
                c = _norm_coeff(c)
            q = deg - dmax
            quot[q] = c
            for e, d in den.items():
                s = work.get(e + q, 0) - c * d
                if s:
                    work[e + q] = s
                else:
                    work.pop(e + q, None)
        return TauPoly({e + ms - mo: c for e, c in quot.items()})

    # -- evaluation and display --------------------------------------------

    def evaluate(self, x: Coeff) -> Coeff:
        """Exact value at tau = x (x nonzero if negative exponents occur)."""
        total: Coeff = 0
        x = Fraction(x)
        for e, c in self.terms.items():
            total += c * x**e
        return _norm_coeff(Fraction(total))

    def at_tau_one(self) -> Coeff:
        return _norm_coeff(sum(self.terms.values(), start=Fraction(0)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TauPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(coeff_str(c))
                continue
            var = "tau" if e == 1 else f"tau^{e}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{coeff_str(c)}*{var}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    # -- shared JSON schema --------------------------------------------------

    def to_json(self) -> dict:
        ring = "Z[tau,tau^-1]" if self.is_integral() else "Q[tau,tau^-1]"
        return {
            "ring": ring,
            "terms": [[e, coeff_str(self.terms[e])] for e in sorted(self.terms)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "TauPoly":
        return cls({int(e): coeff_from_str(c) for e, c in obj["terms"]})


def tau_qnumber(k: int) -> TauPoly:
    """The q-number [k] rewritten in tau = -(q + 1/q).

    Satisfies [0] = 0, [1] = 1 and the ladder [k+1] = -tau*[k] - [k-1].
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    prev, cur = TauPoly.zero(), TauPoly.one()
    if k == 0:
        return prev
    neg_tau = TauPoly.monomial(1, -1)
    for _ in range(k - 1):
        prev, cur = cur, neg_tau * cur - prev
    return cur


def _width(lo: Sequence[int], hi: Sequence[int]) -> int:
    """Bits a field needs to hold every exponent from lo to hi, offset by lo."""
    return max([h - l for l, h in zip(lo, hi)], default=0).bit_length() or 1


class MultiPoly:
    """Sparse Laurent polynomial in u_1..u_n and tau with int/Fraction coefficients.

    Each monomial u^e tau^t is one integer key.  Field l, ``bits`` wide at
    bit l * bits, holds e_l - lo[l]; t sits above the n fields, so it is
    unbounded and may be negative.  Every exponent of u_l lies between
    lo[l] and hi[l].  A product picks a field width that holds the sum of
    both factors' bounds, so fields never carry and multiplying two
    monomials is adding their keys.

    ``cap`` is None or an upper cap per variable.  A product keeps the
    tighter cap of each variable and drops every monomial beyond it.  That
    is sound only if every later factor has nonnegative exponents in the
    capped variables: such a factor never lowers an exponent, so no dropped
    monomial could have come back under the cap, and every coefficient
    within the cap is exact.  Sums need equal caps.
    """

    __slots__ = ("n", "cap", "lo", "hi", "bits", "terms")

    def __init__(self, n: int, cap: Sequence[int] | None, terms: Mapping[tuple, TauPoly] | None = None):
        if cap is not None:
            cap = tuple(int(c) for c in cap)
            if len(cap) != n:
                raise DimensionError("cap vector length must equal variable count")
        mons: list[tuple[tuple[int, ...], TauPoly]] = []
        for ev, p in (terms or {}).items():
            ev = tuple(int(e) for e in ev)
            if len(ev) != n:
                raise DimensionError("exponent vector arity mismatch")
            if cap is not None and any(e > c for e, c in zip(ev, cap)):
                raise CapError("exponent beyond cap")
            if not p.is_zero():
                mons.append((ev, p))
        exps = [ev for ev, _ in mons] or [(0,) * n]
        lo, hi = tuple(map(min, zip(*exps))), tuple(map(max, zip(*exps)))
        bits = _width(lo, hi)
        terms = {}
        for ev, p in mons:
            ukey = sum((e - l) << (i * bits) for i, (e, l) in enumerate(zip(ev, lo)))
            for t, c in p.terms.items():
                terms[(t << (n * bits)) + ukey] = c
        self._set(n, cap, lo, hi, bits, terms)

    def _set(self, n, cap, lo, hi, bits, terms):
        self.n, self.cap, self.lo, self.hi, self.bits, self.terms = n, cap, lo, hi, bits, terms
        return self

    def _layout(self, lo: tuple[int, ...], bits: int) -> dict[int, Coeff]:
        """The terms re-keyed with offsets lo and field width bits."""
        if lo == self.lo and bits == self.bits:
            return self.terms
        shift, mask = self.n * self.bits, (1 << self.bits) - 1
        out = {}
        for key, c in self.terms.items():
            new = (key >> shift) << (self.n * bits)
            for i in range(self.n):
                new += (((key >> (i * self.bits)) & mask) + self.lo[i] - lo[i]) << (i * bits)
            out[new] = c
        return out

    @classmethod
    def one(cls, n: int, cap: Sequence[int] | None) -> "MultiPoly":
        return cls(n, cap, {(0,) * n: TauPoly.one()})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.n != other.n or self.cap != other.cap:
            raise DimensionError("mismatched MultiPoly shapes")
        lo = tuple(map(min, self.lo, other.lo))
        hi = tuple(map(max, self.hi, other.hi))
        bits = max(self.bits, other.bits, _width(lo, hi))
        out = dict(self._layout(lo, bits))
        for key, c in other._layout(lo, bits).items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return MultiPoly.__new__(MultiPoly)._set(self.n, self.cap, lo, hi, bits, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self.n != other.n:
            raise DimensionError("mismatched MultiPoly shapes")
        n = self.n
        if self.cap is None or other.cap is None:
            cap = other.cap if self.cap is None else self.cap
        else:
            cap = tuple(map(min, self.cap, other.cap))
        lo = tuple(map(operator.add, self.lo, other.lo))
        hi = tuple(map(operator.add, self.hi, other.hi))
        bits = max(self.bits, other.bits, _width(lo, hi))
        if cap is not None:
            hi = tuple(max(l, min(h, c)) for l, h, c in zip(lo, hi, cap))
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        items = big._layout(big.lo, bits).items()
        mask = (1 << bits) - 1
        out: dict[int, Coeff] = {}
        get = out.get
        mons = []
        for kb, cb in small._layout(small.lo, bits).items():
            # cap checks only on the fields this monomial can push past a cap; the
            # first is unrolled, and one that always passes stands in for none
            checks = [
                (i * bits, cap[i] - lo[i])
                for i in range(n)
                if cap is not None and big.hi[i] + ((kb >> (i * bits)) & mask) + small.lo[i] > cap[i]
            ] or [(0, mask)]
            mons.append((kb, cb, *checks[0], checks[1:]))
        # the large operand outermost, so cancelling contributions meet early
        # and the result dict stays near its final size
        for ka, ca in items:
            for kb, cb, shift, limit, rest in mons:
                nk = ka + kb
                if (nk >> shift) & mask > limit:
                    continue
                for sh, lim in rest:
                    if (nk >> sh) & mask > lim:
                        break
                else:
                    s = get(nk, 0) + ca * cb
                    if s:
                        out[nk] = s
                    else:
                        del out[nk]
        return MultiPoly.__new__(MultiPoly)._set(n, cap, lo, hi, bits, out)

    def coefficients(self) -> dict[tuple[int, ...], TauPoly]:
        """Map from each u-exponent vector to its TauPoly coefficient (one pass over the terms)."""
        shift, mask = self.n * self.bits, (1 << self.bits) - 1
        grouped: dict[int, dict[int, Coeff]] = {}
        for key, c in self.terms.items():
            grouped.setdefault(key & ((1 << shift) - 1), {})[key >> shift] = c
        out = {}
        while grouped:  # popping frees each group as soon as it is copied
            u, t = grouped.popitem()
            out[tuple(((u >> (i * self.bits)) & mask) + l for i, l in enumerate(self.lo))] = TauPoly(t)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.n == other.n and self.coefficients() == other.coefficients()
        return NotImplemented

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, terms={len(self.terms)})"


def coeff_extract(p: MultiPoly, e: Sequence[int]) -> TauPoly:
    """Coefficient of u^e in p; e must lie within p's cap, if p has one."""
    ev = tuple(int(x) for x in e)
    if len(ev) != p.n:
        raise DimensionError(f"exponent arity {len(ev)} != variable count {p.n}")
    if p.cap is not None and any(x > c for x, c in zip(ev, p.cap)):
        raise CapError(f"exponent {ev} beyond cap {p.cap}")
    return p.coefficients().get(ev, TauPoly.zero())


class RingMatrix:
    """Immutable rectangular matrix over TauPoly or exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionError("ragged rows")
        else:
            width = 0
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    def __getitem__(self, idx: tuple[int, int]):
        i, j = idx
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self) -> str:
        return f"RingMatrix({self.rows}x{self.cols})"


def _int_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError("nonzero integer remainder")
    return q


def det(m: RingMatrix) -> TauPoly | Coeff:
    """Exact determinant by fraction-free Bareiss elimination.

    The 0x0 determinant is 1 (empty product).  The domain is fixed once per
    matrix: TauPoly if any entry is one, integers if every entry is an int,
    rationals otherwise.  Every interior division is exact; a nonzero
    remainder indicates corrupted input, never a valid state.
    """
    if not m.is_square():
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return TauPoly.one()
    flat = [x for row in m.entries for x in row]
    if any(isinstance(x, TauPoly) for x in flat):
        a = [[x if isinstance(x, TauPoly) else TauPoly.from_coeff(x) for x in row] for row in m.entries]
        div = TauPoly.exact_div
    elif all(isinstance(x, int) for x in flat):
        a = [list(row) for row in m.entries]
        div = _int_div
    else:
        # integer divmod on an intermediate that happens to be integral would
        # reject a valid rational quotient, so stay in Fraction throughout
        a = [[Fraction(x) for x in row] for row in m.entries]
        div = operator.truediv
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return _norm_coeff(a[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                if prev is not None:
                    elt = div(elt, prev)
                a[i][j] = elt
        prev = a[k][k]
    result = a[n - 1][n - 1]
    if sign < 0:
        result = -result
    return _norm_coeff(result)


def det_cofactor(m: RingMatrix) -> TauPoly | Coeff:
    """Determinant by cofactor expansion; cross-check path for small sizes."""
    if not m.is_square():
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return TauPoly.one()

    def rec(rows: tuple) -> object:
        if len(rows) == 1:
            return rows[0][0]
        total = None
        for j in range(len(rows)):
            minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
            term = rows[0][j] * rec(minor)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return total

    return rec(m.entries)


def pluecker_check(a: RingMatrix, b: RingMatrix) -> bool:
    """Row-exchange determinant identity for a pair of same-size square matrices.

    |A||B| must equal the sum over j of |A_1..A_{n-1}, B_j| times
    |B_1..B_{j-1}, A_n, B_{j+1}..B_n|; returns whether it holds exactly.
    """
    if not (a.is_square() and b.is_square()):
        raise DimensionError("both matrices must be square")
    if a.rows != b.rows:
        raise DimensionError("matrices must have equal size")
    n = a.rows
    if n == 0:
        raise DimensionError("the identity exchanges row n, so it needs n >= 1")
    lhs = det(a) * det(b)
    rhs = None
    for j in range(n):
        left = RingMatrix(a.entries[: n - 1] + (b.entries[j],))
        right = RingMatrix(b.entries[:j] + (a.entries[n - 1],) + b.entries[j + 1 :])
        term = det(left) * det(right)
        rhs = term if rhs is None else rhs + term
    if isinstance(lhs, TauPoly) or isinstance(rhs, TauPoly):
        if not isinstance(lhs, TauPoly):
            lhs = TauPoly.from_coeff(lhs)
        if not isinstance(rhs, TauPoly):
            rhs = TauPoly.from_coeff(rhs)
    return lhs == rhs
