"""Command-line entry point and the regression runner over the identity web.

Subcommands print JSON (default) or an aligned table on stdout; diagnostics
and timing go to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid input, 3 internal error.  Output bytes depend only on argv and
--seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import combin, hirota, qkz, tee
from .report import VerifyReport
from .ring import EnumerationBudgetError, RingMatrix, TauPoly, det, det_cofactor, pluecker_check, tau_qnumber

VERIFY_MIN_L = 4  # prop1, trecur and sfactor sweep from L = 4
VERIFY_MAX_L = 12
# nearest_int is printed only when the value's magnitude leaves this many
# bits of --bits precision spare, so the rounding is exact
NEAREST_INT_GUARD_BITS = 32


# ---------------------------------------------------------------------------
# randomized property suites (seeded)
# ---------------------------------------------------------------------------


def _rand_taupoly(rng: random.Random, max_abs_exp: int = 8, max_coeff: int = 10**6, terms: int = 5) -> TauPoly:
    return TauPoly(
        {
            rng.randint(-max_abs_exp, max_abs_exp): rng.randint(-max_coeff, max_coeff)
            for _ in range(rng.randint(0, terms))
        }
    )


def verify_ring(seed: int, triples: int = 1000) -> VerifyReport:
    """Ring axioms, determinant cross-checks, q-number limit, unit identity."""
    rep = VerifyReport("ring", {"seed": seed, "triples": triples})
    rng = random.Random(seed)
    for _ in range(triples):
        a, b, c = (_rand_taupoly(rng) for _ in range(3))
        ok = (a + b) * c == a * c + b * c and a * b == b * a
        rep.record(ok, {"law": "distributive/commutative"})
    for _ in range(200):
        n = rng.randint(1, 4)
        m = RingMatrix(
            [[_rand_taupoly(rng, 3, 9, 3) for _ in range(n)] for _ in range(n)]
        )
        rep.record(det(m) == det_cofactor(m), {"law": "bareiss-vs-cofactor", "n": n})
    for k in range(0, 21):
        val = tau_qnumber(k).evaluate(Fraction(-2))
        rep.record(val == k, {"law": "qnumber at tau=-2", "k": k})
    for n in (2, 3, 4):
        for _ in range(34):
            a = RingMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            b = RingMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            rep.record(pluecker_check(a, b), {"law": "row-exchange", "n": n})
    return rep


def verify_hirota_suite(seed: int) -> VerifyReport:
    """Deformed determinant against the ordinary one and the ASM oracle."""
    rep = VerifyReport("hirota", {"seed": seed})
    rng = random.Random(seed)

    def rmat(n):
        return [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]

    for n in range(2, 6):
        for _ in range(100):
            m = rmat(n)
            v = hirota.tau2_det(m, Fraction(-1))
            rep.record(v == det(RingMatrix(m)), {"law": "tau2=-1 is det", "n": n})
    for n in range(2, 5):
        done = 0
        while done < 50:
            m = rmat(n)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
            try:
                v = hirota.tau2_det(m, lam)
            except ZeroDivisionError:
                continue  # a zero interior entry can be a pole at this lam
            rep.record(v == hirota.asm_expansion(m, lam), {"law": "asm oracle", "n": n})
            done += 1
    return rep


def verify_lemma1(Lmax: int) -> VerifyReport:
    """Epsilon-class decomposition of the constant-term values.

    For every L <= Lmax, p and epsilon vector: the selected value equals the
    sum of components over its contributor set, contributors all share the
    statistic c = sum(eps), and the classes partition the whole family.
    """
    rep = VerifyReport("lemma1", {"max_L": Lmax})
    for L in range(2, Lmax + 1):
        psi = qkz.solve_psi(L)
        for p in range(0, (L - 1) // 2 + 1):
            fam = qkz.dyck_family(L, p)
            covered: list = []
            for eps in qkz.all_epsilon(p):
                members = eps.contributors(L, p)
                covered.extend(members)
                total = TauPoly.zero()
                for alpha in members:
                    total = total + psi[alpha]
                value = qkz.psi_bar(eps.b_sequence(L, p), L)
                rep.record(
                    total == value,
                    {"L": L, "p": p, "eps": list(eps.eps), "law": "class sum"},
                )
                cs = {qkz.c_value(alpha, p) for alpha in members}
                rep.record(
                    cs <= {eps.weight},
                    {"L": L, "p": p, "eps": list(eps.eps), "law": "constant c"},
                )
            rep.record(
                sorted(covered) == sorted(fam.members),
                {"L": L, "p": p, "law": "disjoint union"},
            )
    return rep


def verify_equations(Lmax: int) -> VerifyReport:
    """Every non-canonical nondecreasing admissible equation against the solve.

    ``qkz.solve_psi`` reads only the canonical rows; for every L <= Lmax
    each other row sum(c_coeff(a, alpha) psi_alpha) must equal psi_bar at
    the same sequence.  Most of those sequences exceed the per-variable caps
    of the components' table, so this suite reads the uniform-cap tables.
    """
    rep = VerifyReport("equations", {"max_L": Lmax})
    for L in range(1, Lmax + 1):
        psi = qkz.solve_psi(L)
        paths = qkz.enumerate_dyck(L)
        canonical = {qkz.canonical_sequence(alpha).a for alpha in paths}
        for seq in qkz.admissible_sequences(L):
            if seq.a in canonical:
                continue
            total = TauPoly.zero()
            for alpha in paths:
                c = qkz.c_coeff(seq, alpha)
                if not c.is_zero():
                    total = total + c * psi[alpha]
            rep.record(total == qkz.psi_bar(seq.b, L), {"L": L, "a": list(seq.a)})
    return rep


def verify_lgv(Lmax: int) -> VerifyReport:
    """Determinant family == minor-sum form == direct path enumeration."""
    rep = VerifyReport("lgv", {"max_L": Lmax})
    for L in range(2, Lmax + 1):
        for p in range(0, L // 2 + 1):
            for k in range(0, L - 2 * p + 1):
                t = tee.tee(L, p, k)
                ok = combin.lgv_tee(L, p, k) == t and combin.path_count(L, p, k) == t
                rep.record(ok, {"L": L, "p": p, "k": k})
    return rep


def verify_fpl(Lmax: int) -> VerifyReport:
    """Loop-diagram counts against components and restricted families."""
    rep = VerifyReport("fpl", {"max_L": Lmax})
    for L in range(2, Lmax + 1):
        counts = combin.enumerate_fpl(L)
        psi1 = qkz.solve_psi(L).at_tau_one()
        rep.record(counts == psi1, {"L": L, "law": "per-pattern multiplicities"})
        for p in range(0, (L - 1) // 2 + 1):
            expect = int(qkz.partial_sum(L, p, 1).at_tau_one())
            got = combin.p_restricted_count(L, p)
            rep.record(got == expect, {"L": L, "p": p, "expected": expect, "actual": got})
    return rep


def verify_prop4(nmax: int) -> VerifyReport:
    """The three symmetry-class identities, exactly for n <= nmax.

    Line 1 also checks the class count, the weighted sum at tau = 1, against
    Kuperberg's product formula.
    """
    rep = VerifyReport("prop4", {"max_n": nmax})
    for n in range(1, nmax + 1):
        size = 2 * n + 1
        weighted = combin.vsasm_genfun(size)
        rep.record(
            weighted.at_tau_one() == combin.vsasm_product(size),
            {"line": 1, "n": n, "law": "class count"},
        )
        rep.record(weighted == tee.tee(2 * n, n - 1, 2), {"line": 1, "n": n})
        if 2 * n <= qkz.SOLVE_MAX_L:
            rep.record(
                tee.tee(2 * n, n - 1, 1) == qkz.partial_sum(2 * n, n - 1, 1),
                {"line": 2, "n": n},
            )
        if 2 * n - 1 >= 2 and 2 * n - 1 <= qkz.SOLVE_MAX_L:
            lhs = tee.tee(2 * n - 1, n - 1, 1)
            rhs = qkz.partial_sum(2 * n - 1, n - 1, -1).shift(n - 1)
            rep.record(lhs == rhs, {"line": 3, "n": n})
    return rep


def verify_sfactor(Lmax: int) -> VerifyReport:
    """Gamma-product values against exact integer counts, 256-bit precision."""
    import mpmath

    rep = VerifyReport("sfactor", {"max_L": Lmax})
    for L in range(4, Lmax + 1):
        for p in range(0, (L - 1) // 2 + 1):
            k = L // 2 - p + 1
            exact = int(tee.tee(L, p, k).at_tau_one())
            approx = combin.sfactor(L, p, 256)
            with mpmath.workprec(256):
                rel = abs(approx - exact) / exact
                ok = rel < mpmath.mpf(10) ** -20
            rep.record(ok, {"L": L, "p": p, "expected": exact, "rel_err": float(rel)})
    return rep


def verify_residues(samples: int, seed: int) -> VerifyReport:
    rep = VerifyReport("residues", {"samples": samples, "seed": seed})
    for i, which in enumerate(combin.RESIDUE_IDENTITIES):
        sub = combin.residue_sweep(which, samples, seed + i)
        rep.checked += sub.checked
        rep.failures.extend(sub.failures)
    return rep


def verify_sums(Lmax: int) -> VerifyReport:
    """Partial sums: direct weighting vs epsilon form vs determinant routes."""
    rep = VerifyReport("sums", {"max_L": Lmax})
    rng = random.Random(0xD5C)
    for L in range(2, Lmax + 1):
        for p in range(0, (L - 1) // 2 + 1):
            plus = qkz.partial_sum(L, p, 1)
            minus = qkz.partial_sum(L, p, -1)
            rep.record(qkz.partial_sum_eps(L, p, "tau") == plus, {"L": L, "p": p, "t": "tau"})
            rep.record(
                qkz.partial_sum_eps(L, p, "tau-inv") == minus, {"L": L, "p": p, "t": "tau-inv"}
            )
            if L >= 4:
                rep.record(tee.s_det(L, p, "tau") == plus, {"L": L, "p": p, "law": "det route +"})
                rep.record(
                    tee.s_det(L, p, "tau-inv") == minus, {"L": L, "p": p, "law": "det route -"}
                )
                if L <= 8:
                    t = Fraction(rng.randint(1, 30), rng.randint(1, 9)) * rng.choice((1, -1))
                    rep.record(
                        tee.s_det(L, p, t) == qkz.partial_sum_eps(L, p, t),
                        {"L": L, "p": p, "t": str(t), "law": "general t"},
                    )
    return rep


SUITES = {
    "ring": lambda max_L, seed: verify_ring(seed),
    "equations": lambda max_L, seed: verify_equations(min(max_L, qkz.SOLVE_MAX_L)),
    "prop1": lambda max_L, seed: tee.verify_prop1(min(max_L, qkz.SOLVE_MAX_L)),
    "trecur": lambda max_L, seed: tee.verify_trecur(max_L),
    "lemma1": lambda max_L, seed: verify_lemma1(min(max_L, 8)),
    "lemma2": lambda max_L, seed: tee.verify_lemma2(4),
    "lemma3": lambda max_L, seed: tee.verify_lemma3(max_L),
    "hirota": lambda max_L, seed: verify_hirota_suite(seed),
    "lgv": lambda max_L, seed: verify_lgv(min(max_L, tee.TEE_MAX_L)),
    "fpl": lambda max_L, seed: verify_fpl(min(max_L, combin.FPL_MAX_L)),
    "prop4": lambda max_L, seed: verify_prop4(min(max_L, qkz.SOLVE_MAX_L) // 2),
    "sfactor": lambda max_L, seed: verify_sfactor(max_L),
    "residues": lambda max_L, seed: verify_residues(100, seed),
    "sums": lambda max_L, seed: verify_sums(min(max_L, qkz.SOLVE_MAX_L)),
}


def verify_all(max_L: int, seed: int) -> list[VerifyReport]:
    """Run every suite; deterministic for a fixed seed."""
    return [_run_suite(name, max_L, seed) for name in sorted(SUITES)]


def _run_suite(name: str, max_L: int, seed: int) -> VerifyReport:
    t0 = time.perf_counter()
    rep = SUITES[name](max_L, seed)
    rep.wall_time = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _emit(obj: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return
    # aligned two-column table for terminal reading
    flat = _flatten(obj)
    width = max(len(k) for k, _ in flat)
    for k, v in flat:
        print(f"{k:<{width}}  {v}")


def _flatten(obj, prefix: str = "") -> list[tuple[str, str]]:
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}{i}."))
    else:
        out.append((prefix.rstrip("."), json.dumps(obj)))
    return out


def _parse_rational(x) -> Fraction:
    """An exact rational from a decimal or "p/q" string, or from a JSON integer.

    JSON floats and booleans are refused: a float has already lost its
    decimal digits, and ``true`` is not a number.
    """
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        try:
            return Fraction(x)
        except ZeroDivisionError as exc:
            raise ValueError(f"{x!r} has a zero denominator") from exc
    raise ValueError(f'{x!r} is not a decimal or "p/q" string or an integer')


def _parse_matrix(path: str) -> tuple[list[list[Fraction]], int]:
    with open(path) as fh:
        data = json.load(fh)
    try:
        n, rows = data["n"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f'matrix file needs "n" and an "entries" list of rows ({exc!r})') from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError('"n" must be a JSON integer')
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('"entries" must be a JSON array of row arrays')
    entries = [[_parse_rational(x) for x in row] for row in rows]
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError("entries must form an n x n matrix")
    return entries, n


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_psi(args) -> dict:
    psi = qkz.solve_psi(args.L)
    return {
        "L": args.L,
        "psi": {a.to_string(): psi[a].to_json() for a in qkz.enumerate_dyck(args.L)},
    }


def _cmd_sums(args) -> dict:
    if args.t is not None:
        value = qkz.partial_sum_eps(args.L, args.p, args.t)
        out = {"L": args.L, "p": args.p, "t": args.t}
    else:
        value = qkz.partial_sum(args.L, args.p, args.sign)
        out = {"L": args.L, "p": args.p, "sign": args.sign}
    out.update(value.to_json())
    return out


def _cmd_tee(args) -> dict:
    fn = tee.tee_via_U if args.via_u else tee.tee
    value = fn(args.L, args.p, args.k)
    out = {"L": args.L, "p": args.p, "k": args.k, "via_u": bool(args.via_u)}
    out.update(value.to_json())
    return out


def _cmd_hirota(args) -> dict:
    matrix, n = _parse_matrix(args.input)
    tau2 = _parse_rational(args.tau2)
    try:
        value = hirota.tau2_det(matrix, tau2)
    except hirota.DegenerateDivisionError as exc:
        return {"n": n, "tau2": args.tau2, "degenerate_at": list(exc.point)}
    return {"n": n, "tau2": args.tau2, "value": str(value)}


def _cmd_lgv(args) -> dict:
    if args.method == "paths":
        value = combin.path_count(args.L, args.p, args.k)
    else:
        value = combin.lgv_tee(args.L, args.p, args.k)
    out = {"L": args.L, "p": args.p, "k": args.k, "method": args.method}
    out.update(value.to_json())
    return out


def _cmd_asm(args) -> dict:
    if args.klass == "vsasm":
        gen = combin.vsasm_genfun(args.size)
        return {"size": args.size, "class": "vsasm", "count": gen.at_tau_one(), **gen.to_json()}
    return {"size": args.size, "class": "asm", "count": hirota.asm_count(args.size)}


def _cmd_fpl(args) -> dict:
    counts = combin.enumerate_fpl(args.L)
    out = {"L": args.L, "total": sum(counts.values())}
    if args.p is not None:
        out["p"] = args.p
        out["restricted"] = combin.p_restricted_count(args.L, args.p)
    out["patterns"] = {a.to_string(): c for a, c in sorted(counts.items())}
    return out


def _cmd_sfactor(args) -> dict:
    import mpmath

    value = combin.sfactor(args.L, args.p, args.bits)
    need = mpmath.mag(value) + NEAREST_INT_GUARD_BITS
    if need > args.bits:
        raise ValueError(f"sfactor L={args.L} p={args.p} needs --bits >= {need} to round exactly")
    with mpmath.workprec(args.bits):
        nearest = int(mpmath.nint(value))
    return {"L": args.L, "p": args.p, "bits": args.bits, "value": mpmath.nstr(value, 30), "nearest_int": nearest}


def _cmd_verify(args) -> tuple[dict, bool]:
    if args.max_L > VERIFY_MAX_L:
        raise EnumerationBudgetError(f"verify budgeted to {VERIFY_MIN_L} <= max-L <= {VERIFY_MAX_L}")
    if args.max_L < VERIFY_MIN_L:
        raise ValueError(f"verify needs {VERIFY_MIN_L} <= max-L <= {VERIFY_MAX_L}")
    if args.suite == "all":
        reports = verify_all(args.max_L, args.seed)
    else:
        if args.suite not in SUITES:
            raise ValueError(f"unknown suite {args.suite!r}")
        reports = [_run_suite(args.suite, args.max_L, args.seed)]
    ok = all(r.passed for r in reports)
    for r in reports:
        print(f"[{r.suite}] checked={r.checked} failed={len(r.failures)} ({r.wall_time:.2f}s)", file=sys.stderr)
    return {"reports": [r.to_json() for r in reports], "passed": ok}, ok


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps the subparser from clobbering a value given before the
    # subcommand; defaults are filled in after parsing
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(prog="dycksum", description=__doc__, parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", parents=[common], help="all components for one size")
    p.add_argument("--L", type=int, required=True)

    p = sub.add_parser("sums", parents=[common], help="partial weighted sums over a restricted family")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.add_argument("--t", help='general weight: rational "p/q", "tau" or "tau-inv"')

    p = sub.add_parser("tee", parents=[common], help="determinant family value")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--via-u", action="store_true", dest="via_u")

    p = sub.add_parser("hirota", parents=[common], help="deformed determinant of a rational matrix")
    p.add_argument("--input", required=True, help='JSON file {"n":..,"entries":[["p/q",..],..]}')
    p.add_argument("--tau2", required=True, help='rational value for tau^2, e.g. "-1"')

    p = sub.add_parser("lgv", parents=[common], help="minor-sum or direct path enumeration")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("det", "paths"), default="det")

    p = sub.add_parser("asm", parents=[common], help="alternating sign matrix classes")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--class", dest="klass", choices=("asm", "vsasm"), default="asm")

    p = sub.add_parser("fpl", parents=[common], help="fully packed loop diagrams by link pattern")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p", type=int)

    p = sub.add_parser("sfactor", parents=[common], help="gamma-product value of the tau=1 count")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--bits", type=int, default=256)

    p = sub.add_parser("verify", parents=[common], help="regression suites over the identity web")
    p.add_argument("--suite", default="all", help="|".join(["all"] + sorted(SUITES)))
    p.add_argument("--max-L", type=int, default=8, dest="max_L")

    return ap


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; normalise
        return 2 if exc.code not in (0, None) else 0
    if not hasattr(args, "format"):
        args.format = "json"
    if not hasattr(args, "seed"):
        args.seed = 42
    try:
        if args.command == "verify":
            out, ok = _cmd_verify(args)
            _emit(out, args.format)
            return 0 if ok else 1
        handler = {
            "psi": _cmd_psi,
            "sums": _cmd_sums,
            "tee": _cmd_tee,
            "hirota": _cmd_hirota,
            "lgv": _cmd_lgv,
            "asm": _cmd_asm,
            "fpl": _cmd_fpl,
            "sfactor": _cmd_sfactor,
        }[args.command]
        _emit(handler(args), args.format)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a broken invariant inside the library, not a bad request
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
