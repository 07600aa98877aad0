#!/usr/bin/env python3
"""Benchmark for dycksum: seeded workloads, output checks, metrics.

Usage (from the repository root):

    python3 bench/run.py --workload verify-web --seed 1 --seconds 20 --trace 0

Every timed call runs in a fresh worker process (``bench/worker.py``) that
imports the package from ``src/``; nothing is installed.  A run repeats whole
passes of its workload while the next one should end within ``--seconds`` of
measured time, and makes at least ``min_passes``: same-seed passes must print
identical bytes.  ``wall_ref`` sums, over the timed parts of a pass (the
verify call, each command, each evaluation), the part's median over the
passes.  Each part is timed in reference units: its seconds divided by the
time of a fixed reference kernel that the worker runs every 20 ms while the
part runs, so the host's swings in speed (20-40% within seconds on a shared
2-vCPU host, seen in CPU time as well as wall time) cancel.  The same sums in
seconds are printed as ``wall_s`` and reported by traced runs as
``run.wall_s``.  Each output is checked against a second route computed in
this process, outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass, asserts that they print identical bytes, and
reports the per-layer metrics of the traced pass plus ``trace.overhead_s``.
Human-readable lines come first; the last line of standard output is the
JSON result.  Span files of traced passes are left in ``bench/_out/spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKER = HERE / "worker.py"

# import-only workers before each untraced pass and after the last, so that
# setup_s is a median over moments spread across the run
PROBES_PER_GAP = 4
WORKER_TIMEOUT_S = 170
RUN_LIMIT_S = 150  # no pass starts that would end a run later than this

# wall_ref and ok_per_ref are in reference units: seconds divided by the time of
# bench/worker.py's fixed reference kernel at the same moments (see HostClock)
END_TO_END = [("wall_ref", "ref"), ("ok_per_ref", "1/ref"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# per-layer metrics: (function span, statistics); units follow the statistic
LAYER_FUNCS = [
    ("qkz.psi_bar", ("calls", "total_s")),
    ("qkz.solve_psi", ("self_s",)),
    ("qkz.c_coeff", ("calls", "self_s")),
    ("qkz.partial_sum_eps", ("self_s",)),
    ("ring.det", ("calls", "self_s")),
    ("ring.TauPoly.exact_div", ("calls", "self_s")),
    ("tee.tee", ("calls", "self_s")),
    ("tee.tee_via_U", ("self_s",)),
    ("tee.s_det", ("self_s",)),
    ("tee.verify_lemma2", ("self_s",)),
    ("hirota.tau2_det", ("calls", "self_s")),
    ("hirota.octahedron_step", ("calls", "self_s")),
    ("hirota.enumerate_asm", ("self_s",)),
    ("hirota.asm_expansion", ("self_s",)),
    ("combin.path_count", ("self_s",)),
    ("combin.enumerate_fpl", ("self_s",)),
    ("combin.enumerate_vsasm", ("self_s",)),
    ("combin.lgv_tee", ("self_s",)),
    ("combin.sfactor", ("self_s",)),
    ("combin.residue_sweep", ("self_s",)),
]
VERIFY_SUITES = [
    "fpl", "hirota", "hirota-tee", "lemma1", "lemma2", "lemma3", "lgv",
    "prop1", "prop4", "residues", "ring", "sfactor", "sums", "trecur",
]
COLD_COMMANDS = ["psi", "sums", "lgv", "fpl", "asm", "asm-vsasm", "tee", "sfactor", "hirota"]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for func, stats in LAYER_FUNCS:
        for stat in stats:
            out.append((f"{func}.{stat}", "count" if stat == "calls" else "s", "lower"))
    out += [
        ("qkz.integrand.misses", "count", "lower"),
        ("qkz.integrand.hits", "count", "higher"),
        ("hirota.degenerate.count", "count", "lower"),
    ]
    for suite in VERIFY_SUITES:
        out.append((f"cli.suite.{suite}.total_s", "s", "lower"))
        out.append((f"cli.suite.{suite}.self_s", "s", "lower"))
    for cmd in COLD_COMMANDS:
        out.append((f"cli.cmd.{cmd}.wall_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    # the untraced pass of a traced run, in seconds
    out.append(("run.wall_s", "s", "lower"))
    out.append(("run.ok_per_s", "1/s", "higher"))
    return out


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


class Pass:
    """What one pass of a workload measured and what its checks found."""

    def __init__(self):
        self.parts: dict = {}  # timed part -> seconds
        self.parts_ref: dict = {}  # timed part -> reference units (untraced passes)
        self.kernels: list[float] = []  # median reference-kernel seconds, per worker
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # wrong values and unexpected errors
        self.stdout: list[bytes] = []  # per worker, for byte comparisons
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.layers: dict[str, dict] = {}
        self.integrand: dict[str, int] | None = {"hits": 0, "misses": 0}

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())

    def fail(self, n: int, why: str | None = None):
        """Count n failed evaluations; ``why`` marks them as wrong, not a known defect."""
        self.failed += n
        if why:
            self.wrong.append(why)


class Runner:
    """Spawns workers for one run and keeps their job files in one directory."""

    def __init__(self, tag: str, trace_dir: Path | None):
        self.dir = OUT / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.trace_dir = trace_dir
        self.env = dict(os.environ)
        self.env.pop("DYCKSUM_THREADS", None)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
        self.count = 0

    def spawn(self, job: dict, pas: Pass, label: str) -> tuple[bytes, dict | None]:
        """Run one worker; record its setup time and memory in ``pas``."""
        self.count += 1
        job_path = self.dir / f"{self.count}.job.json"
        res_path = self.dir / f"{self.count}.result.json"
        if job.get("trace") and self.trace_dir is not None:
            job = dict(job, spans=str(self.trace_dir / f"{label}.jsonl"))
        job_path.write_text(json.dumps(job))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), repr(spawned), str(job_path), str(res_path)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            pas.wrong.append(f"worker {label} ran longer than {WORKER_TIMEOUT_S} s")
            return b"", None
        if proc.returncode != 0 or not res_path.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            pas.wrong.append(f"worker {label} exited {proc.returncode}: {' | '.join(tail)}")
            return proc.stdout, None
        res = json.loads(res_path.read_text())
        pas.setups.append(res["setup_s"])
        if res.get("kernel_s"):
            pas.kernels.append(res["kernel_s"])
        pas.rss.append(res["rss_mb"])
        if res["integrand"] is None:
            pas.integrand = None
        elif pas.integrand is not None:
            for key in ("hits", "misses"):
                pas.integrand[key] += res["integrand"][key]
        for name, row in (res["layers"] or {}).items():
            acc = pas.layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}})
            for key in ("calls", "total_s", "self_s"):
                acc[key] += row[key]
            for err, n in row["errors"].items():
                acc["errors"][err] = acc["errors"].get(err, 0) + n
        pas.stdout.append(proc.stdout)
        return proc.stdout, res

    def probe_setups(self, n: int, pas: Pass):
        for _ in range(n):
            self.spawn({"kind": "probe"}, pas, "probe")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _json_out(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _nonzero(rng: random.Random) -> int:
    while True:
        v = rng.randint(-9, 9)
        if v:
            return v


def rational_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Signed nonzero rational entries, as in the program's own hirota suite."""
    return [[Fraction(_nonzero(rng), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]


def integer_matrix(rng: random.Random, n: int) -> list[list[int]]:
    return [[_nonzero(rng) for _ in range(n)] for _ in range(n)]


def fraction_det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over Fraction, the reference route.

    Written here rather than taken from ``ring.det``: Bareiss there divides
    with integer ``divmod`` once an intermediate of a rational matrix
    normalises to an int, and raises ExactDivisionError on some rational
    matrices (det-tower seed 135 has one).
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return result


def seeded_lambda(rng: random.Random, sign: int) -> Fraction:
    return sign * Fraction(rng.randint(1, 9), rng.randint(1, 5))


class VerifyWeb:
    """The full regression sweep in one fresh process, thread pool at its default.

    One pass per untraced run: a pass takes about 21 s, and two would leave
    too little of the time all runs share.  Two same-seed sweeps are still
    compared byte for byte in every traced run (one untraced, one traced).
    """

    min_passes = 1

    def __init__(self, seed: int, runner: Runner):
        self.argv = ["verify", "--suite", "all", "--max-L", "10", "--seed", str(seed)]

    def run_pass(self, runner: Runner, trace: bool) -> Pass:
        pas = Pass()
        out, res = runner.spawn({"kind": "cli", "label": "verify", "argv": self.argv, "trace": trace}, pas, "verify")
        report = _json_out(out)
        if res is None or report is None:
            pas.attempted += 1
            pas.fail(1, "verify produced no report")
            return pas
        pas.parts["verify"] = res["wall_s"]
        pas.parts_ref["verify"] = res["wall_ref"]
        for rep in report["reports"]:
            pas.attempted += rep["checked"]
            if rep["failed"]:
                pas.fail(len(rep["failed"]), f"suite {rep['suite']} failed {len(rep['failed'])} checks")
        if res["exit"] != 0 or report["passed"] is not True:
            pas.wrong.append(f"verify exit {res['exit']}, passed={report['passed']}")
        return pas


class ColdEdge:
    """Each CLI command once at or just inside its budget edge, each in a fresh process.

    Path enumeration runs at L = 13, p = 5, k = 2 (2 s): at L = 14, p = 5 the
    cheapest k takes 11 s and k = 0 or 4 take minutes, which would leave no
    room for a second pass in a run.
    """

    min_passes = 2

    def __init__(self, seed: int, runner: Runner):
        from dycksum import hirota, qkz, tee
        from dycksum.ring import TauPoly

        rng = random.Random(f"cold-edge/{seed}")
        sums_p = rng.randint(0, 4)
        sums_t = seeded_lambda(rng, rng.choice((1, -1))) * rng.randint(1, 4)
        tee_p = rng.randint(0, 10)
        tee_k = rng.randint(0, 20 - 2 * tee_p)
        sf_p = rng.randint(0, 31)
        matrix = rational_matrix(rng, 12)
        hpath = runner.dir / "hirota-input.json"
        hpath.write_text(json.dumps({"n": 12, "entries": [[str(x) for x in row] for row in matrix]}))

        psi8 = {a.to_string(): v for a, v in qkz.solve_psi(8).at_tau_one().items()}
        restricted8 = int(qkz.partial_sum(8, 2, 1).at_tau_one())
        sf_k = 64 // 2 - sf_p + 1
        sf_rows = [
            [int(tee.tee_entry(l, m, sf_k, 64 - 2 * sf_p - sf_k).at_tau_one()) for m in range(1, sf_p + 1)]
            for l in range(1, sf_p + 1)
        ]
        sf_exact = fraction_det(sf_rows)
        poly = TauPoly.from_json

        # (label, argv, number of checked values, check(out) -> failed values)
        self.commands = [
            ("psi", ["psi", "--L", "10"], 1,
             lambda o: int(sum(poly(v).at_tau_one() for v in o["psi"].values()) != 45885)),
            ("sums", ["sums", "--L", "10", "--p", str(sums_p), f"--t={sums_t}"], 1,
             lambda o: int(poly(o) != tee.s_det(10, sums_p, sums_t))),
            ("lgv", ["lgv", "--method", "paths", "--L", "13", "--p", "5", "--k", "2"], 1,
             lambda o: int(poly(o) != tee.tee(13, 5, 2))),
            ("fpl", ["fpl", "--L", "8", "--p", "2"], len(psi8) + 1,
             lambda o: sum(o["patterns"].get(a) != c for a, c in psi8.items()) + (o["restricted"] != restricted8)),
            ("asm", ["asm", "--size", "6"], 1,
             lambda o: int(o["count"] != hirota.ASM_COUNTS[6])),
            ("asm-vsasm", ["asm", "--class", "vsasm", "--size", "9"], 2,
             lambda o: (o["count"] != 646) + (poly(o) != tee.tee(8, 3, 2))),
            ("tee", ["tee", "--via-u", "--L", "20", "--p", str(tee_p), "--k", str(tee_k)], 1,
             lambda o: int(poly(o) != tee.tee(20, tee_p, tee_k))),
            # counts at L = 64 reach 753 bits; 1024 bits lets the value round exactly
            ("sfactor", ["sfactor", "--L", "64", "--p", str(sf_p), "--bits", "1024"], 1,
             lambda o: int(o["nearest_int"] != int(sf_exact))),
            ("hirota", ["hirota", "--input", str(hpath), "--tau2=-1"], 1,
             lambda o: int(Fraction(o["value"]) != fraction_det(matrix))),
        ]

    def run_pass(self, runner: Runner, trace: bool) -> Pass:
        pas = Pass()
        for label, argv, values, check in self.commands:
            out, res = runner.spawn({"kind": "cli", "label": label, "argv": argv, "trace": trace}, pas, label)
            pas.attempted += values
            result = _json_out(out)
            if res is None or res["exit"] != 0 or result is None:
                pas.fail(values, f"{label} exit {res and res['exit']}")
                continue
            pas.parts[label] = res["wall_s"]
            pas.parts_ref[label] = res["wall_ref"]
            if "degenerate_at" in result:
                pas.fail(values)  # known defect: zero minor on a matrix with nonzero entries
                continue
            try:
                bad = check(result)
            except Exception as exc:  # malformed output, or the second route itself failed
                bad = values
                pas.wrong.append(f"{label}: check raised {type(exc).__name__}: {exc}")
            if bad:
                pas.fail(bad, f"{label}: {bad} of {values} values differ from the second route")
        return pas


class DetTower:
    """Deformed determinants and the determinant family, in-process batch.

    Each ``tau2_det`` evaluation carries routes to a second value: the
    determinant by ``fraction_det`` at tau^2 = -1, the ASM expansion for n <= 5, and for integer
    matrices the symbolic run evaluated at the same rational tau^2.  An
    evaluation none of whose routes can be applied counts as failed.
    """

    min_passes = 3
    RATIONAL_PER_N = 40
    INTEGER_PER_N = {2: 6, 3: 6, 4: 6, 5: 6, 6: 6, 7: 6, 8: 6, 9: 3, 10: 2, 11: 2, 12: 1}
    TEE_MAX_L = 13

    def __init__(self, seed: int, runner: Runner):
        rng = random.Random(f"det-tower/{seed}")
        self.ops: list[dict] = []
        self.routes: list[list[tuple]] = []  # per op; empty for the tee family
        self.matrices: list[list[list]] = []
        self.oracle: dict[tuple, Fraction] = {}
        for n in range(2, 13):
            for i in range(self.RATIONAL_PER_N):
                m = self._matrix(rational_matrix(rng, n))
                lam = seeded_lambda(rng, 1 if i % 2 else -1)
                self._tau2(m, -1, [("det",)])
                if n <= 5:
                    self._tau2(m, lam, [("asm", lam)])
            for i in range(self.INTEGER_PER_N[n]):
                m = self._matrix(integer_matrix(rng, n))
                lam = seeded_lambda(rng, 1 if i % 2 else -1)
                self._tau2(m, -1, [("det",)])
                at_lam = self._tau2(m, lam, [("asm", lam)] if n <= 5 else [])
                sym = self._tau2(m, "sym", [("det",), ("same", at_lam, lam)])
                self.routes[at_lam].append(("same", sym, lam))
        self.tee_index: dict[tuple, int] = {}
        for L in range(2, self.TEE_MAX_L + 1):
            for p in range(0, L // 2 + 1):
                for k in range(0, L - 2 * p + 1):
                    self.tee_index[(L, p, k)] = len(self.ops)
                    for op in ("tee", "tee_via_U", "lgv_tee"):
                        self.ops.append({"op": op, "L": L, "p": p, "k": k})
                        self.routes.append([])

    def _matrix(self, m) -> int:
        self.matrices.append(m)
        return len(self.matrices) - 1

    def _tau2(self, m: int, tau2, routes: list[tuple]) -> int:
        entries = [[x if isinstance(x, int) else str(x) for x in row] for row in self.matrices[m]]
        self.ops.append({"op": "tau2_det", "matrix": entries, "tau2": str(tau2), "m": m})
        self.routes.append(routes)
        return len(self.ops) - 1

    def run_pass(self, runner: Runner, trace: bool) -> Pass:
        from dycksum.ring import TauPoly

        pas = Pass()
        out, res = runner.spawn({"kind": "batch", "ops": self.ops, "trace": trace}, pas, "batch")
        lines = out.decode().splitlines()
        pas.attempted = len(self.ops)
        if res is None or len(lines) != len(self.ops):
            pas.fail(len(self.ops), "batch produced no complete output")
            return pas
        pas.parts = dict(enumerate(res["op_s"]))
        pas.parts_ref = dict(enumerate(res["op_ref"] or ()))
        outcomes = [json.loads(line) for line in lines]
        values: list = []
        for rec in outcomes:
            v = rec.get("value")
            values.append(TauPoly.from_json(v) if isinstance(v, dict) else None if v is None else Fraction(v))
        for i, rec in enumerate(outcomes):
            if "degenerate_at" in rec:
                pas.fail(1)  # known defect: every entry is nonzero, so the value exists
            elif "error" in rec:
                pas.fail(1, f"op {i} ({self.ops[i]['op']}) raised {rec['error']}")
            else:
                try:
                    why = self._check(i, values)
                except Exception as exc:  # the second route itself failed
                    why = f"check raised {type(exc).__name__}: {exc}"
                if why:
                    pas.fail(1, f"op {i} ({self.ops[i]['op']}): {why}")
        return pas

    def _check(self, i: int, values: list) -> str | None:
        """None if op i agrees with every applicable second route, else why not."""
        op = self.ops[i]
        if op["op"] != "tau2_det":
            base = self.tee_index[(op["L"], op["p"], op["k"])]
            if not values[base] == values[base + 1] == values[base + 2]:
                return "tee, tee_via_U and lgv_tee disagree"
            if not self._recurrence(op["L"], op["p"], op["k"], values):
                return "bilinear recurrence fails"
            return None
        from dycksum import hirota

        m = op["m"]
        applied = 0
        for route in self.routes[i]:
            if route[0] == "det":
                want = self._oracle(("det", m), lambda: fraction_det(self.matrices[m]))
                got, lam = _at_tau2(values[i], -1), -1
            elif route[0] == "asm":
                lam = route[1]
                want = self._oracle(("asm", m, lam), lambda: hirota.asm_expansion(self.matrices[m], lam))
                got = values[i]
            else:  # ("same", other op on this matrix, lam)
                _, other, lam = route
                if values[other] is None:
                    continue  # the other run failed; counted there
                want, got = _at_tau2(values[other], lam), _at_tau2(values[i], lam)
            applied += 1
            if got is None or got != want:
                return f"differs from {route[0]} at tau^2 = {lam}"
        return None if applied else "no second route applied"

    def _oracle(self, key: tuple, compute) -> Fraction:
        if key not in self.oracle:
            self.oracle[key] = compute()
        return self.oracle[key]

    def _recurrence(self, L: int, p: int, k: int, values: list) -> bool:
        """T(L,p,k)T(L-2,p-2,k+2) = T(L-1,p-2,k+2)T(L-1,p,k) + tau^2 T(L-2,p-1,k)T(L,p-1,k+2)."""
        stencil = [(L, p, k), (L - 2, p - 2, k + 2), (L - 1, p - 2, k + 2), (L - 1, p, k),
                   (L - 2, p - 1, k), (L, p - 1, k + 2)]
        if not all(s in self.tee_index for s in stencil):
            return True  # not every neighbour is admissible within the sweep
        t = [values[self.tee_index[s]] for s in stencil]
        return t[0] * t[1] == t[2] * t[3] + (t[4] * t[5]).shift(2)


def _at_tau2(value, x):
    """A rational as is; a Laurent polynomial in tau^2 evaluated at tau^2 = x.

    Returns None for a polynomial with an odd power of tau."""
    if not hasattr(value, "terms"):
        return value
    total = Fraction(0)
    for e, c in value.terms.items():
        if e % 2:
            return None
        total += Fraction(c) * Fraction(x) ** (e // 2)
    return total


WORKLOADS = {"verify-web": VerifyWeb, "cold-edge": ColdEdge, "det-tower": DetTower}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    trace_dir = None
    if trace:
        trace_dir = OUT / "spans" / f"{name}-seed{seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    runner = Runner(f"{name}-seed{seed}-{os.getpid()}", trace_dir)
    try:
        workload = WORKLOADS[name](seed, runner)
        passes: list[Pass] = []
        probes = Pass()
        if trace:
            passes = [workload.run_pass(runner, False), workload.run_pass(runner, True)]
        else:
            spent = 0.0
            while True:
                runner.probe_setups(PROBES_PER_GAP, probes)
                t0 = time.monotonic()
                passes.append(workload.run_pass(runner, False))
                spent += passes[-1].wall_s
                last = time.monotonic() - t0
                if passes[-1].wrong:
                    break  # the run is incorrect already; more passes add nothing
                if len(passes) >= workload.min_passes and (
                    spent + passes[-1].wall_s > seconds or time.monotonic() - started + last > RUN_LIMIT_S
                ):
                    break
        runner.probe_setups(PROBES_PER_GAP, probes)
        setups = [s for p in passes for s in p.setups] + probes.setups
    finally:
        runner.close()

    wrong = [w for p in passes + [probes] for w in p.wrong]
    for p in passes[1:]:
        if p.stdout != passes[0].stdout:
            wrong.append("two same-seed passes printed different bytes" + (" (traced vs untraced)" if trace else ""))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines = [f"workload {name} seed {seed} passes {len(passes)} trace {int(trace)}",
             f"failed_share {failed / attempted:.6f} ({failed} of {attempted})"]
    if trace:
        metrics = layer_metrics(passes[0], passes[1])
    else:
        # a crashed worker leaves its parts out; the run is then marked incorrect
        wall = _sum_of_medians([p.parts for p in passes])
        wall_ref = _sum_of_medians([p.parts_ref for p in passes])
        ok = (attempted - failed) / len(passes)
        kernel = statistics.median([k for p in passes for k in p.kernels] or [0.0])
        lines.append(f"wall_s {wall:.6g} s, ok_per_s {ok / wall if wall else 0.0:.6g} 1/s, "
                     f"reference kernel {kernel * 1e3:.4g} ms")
        values = {
            "wall_ref": wall_ref,
            "ok_per_ref": ok / wall_ref if wall_ref else 0.0,
            "setup_s": statistics.median(setups or [0.0]),
            "peak_rss_mb": max([r for p in passes for r in p.rss] or [0.0]),
        }
        metrics = {key: (values[key], unit) for key, unit in END_TO_END}
    for key, (value, unit) in metrics.items():
        lines.append(f"{key} {value:.6g} {unit}")
    for w in wrong:
        print(f"INCORRECT: {w}", file=sys.stderr)
    print("\n".join(lines))
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _sum_of_medians(parts: list[dict]) -> float:
    """Sum over timed parts of each part's median over the passes."""
    keys = {k for p in parts for k in p}
    return sum(statistics.median(p[k] for p in parts if k in p) for k in keys)


def layer_metrics(plain: Pass, traced: Pass) -> dict:
    layers = traced.layers
    values: dict[str, float] = {}
    for func, stats in LAYER_FUNCS:
        for stat in stats:
            values[f"{func}.{stat}"] = layers.get(func, {}).get(stat, 0)
    if traced.integrand is None:
        print("absent qkz.integrand.misses qkz.integrand.hits: qkz._integrand_table has no cache_info")
    integ = traced.integrand or {"hits": 0, "misses": 0}
    values["qkz.integrand.misses"] = integ["misses"]
    values["qkz.integrand.hits"] = integ["hits"]
    values["hirota.degenerate.count"] = layers.get("hirota.tau2_det", {}).get("errors", {}).get(
        "DegenerateDivisionError", 0
    )
    for suite in VERIFY_SUITES:
        row = layers.get(f"cli.suite.{suite}", {})
        values[f"cli.suite.{suite}.total_s"] = row.get("total_s", 0.0)
        values[f"cli.suite.{suite}.self_s"] = row.get("self_s", 0.0)
    for cmd in COLD_COMMANDS:
        values[f"cli.cmd.{cmd}.wall_s"] = traced.parts.get(cmd, 0.0)
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    values["run.wall_s"] = plain.wall_s
    values["run.ok_per_s"] = (plain.attempted - plain.failed) / plain.wall_s if plain.wall_s else 0.0
    return {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dycksum" / "cli.py").is_file():
        print(f"error: no dycksum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
