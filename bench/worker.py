"""One fresh benchmark process: import dycksum, run one job, report.

Usage: ``PYTHONPATH=src python3 bench/worker.py SPAWN_MONOTONIC JOB.json RESULT.json``

``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start and the import
of dycksum and mpmath.  Standard output carries only what the program prints
(the CLI's output, or one JSON line per library evaluation for a batch);
timings (for a batch, also each evaluation's time), memory and per-layer
aggregates go to RESULT.json.

An untraced job also samples the host's speed (``HostClock``): the CPU
time of a fixed reference kernel, run between the job's own bytecodes every
``SAMPLE_PERIOD_S``.  Each timing is then also given in reference units,
its seconds divided by the kernel's time at the same moments, which cancels
the host's swings in speed.  Times in seconds exclude the sampler's pauses.

Job kinds:
  {"kind": "probe"}                                   import only
  {"kind": "cli", "label": L, "argv": [...]}          one ``dycksum.cli.run``
  {"kind": "batch", "ops": [...]}                     library evaluations
Any job may carry ``"trace": true`` and ``"spans": PATH``.
"""

import sys
import time

SPAWN = float(sys.argv[1])

import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import mpmath  # noqa: E402,F401
from dycksum import cli, combin, hirota, qkz, tee  # noqa: E402
from dycksum.ring import TauPoly  # noqa: E402

SETUP_S = time.monotonic() - SPAWN

SAMPLE_PERIOD_S = 0.02
_REF = [[Fraction((i * 7 + j * 3) % 17 - 8 or 1, (i + 2 * j) % 4 + 1) for j in range(6)] for i in range(6)]


def ref_kernel(reps: int = 3) -> Fraction:
    """Fixed work like the program's own: rational Gaussian elimination, 6 x 6."""
    for _ in range(reps):
        a = [row[:] for row in _REF]
        d = Fraction(1)
        for k in range(6):
            p = next(i for i in range(k, 6) if a[i][k])
            a[k], a[p] = a[p], a[k]
            d *= a[k][k]
            for i in range(k + 1, 6):
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return d


class HostClock:
    """A job clock that excludes its own sampling pauses, and the host's speed over it.

    SIGALRM runs ``ref_kernel`` in the main thread and records the kernel's
    thread CPU time, so a wait for the GIL held by a pool thread is not
    counted.  ``ref_units(a, b)`` integrates dt / kernel time over the job
    clock from a to b, each slice taking the sample that closes it.
    """

    def __init__(self):
        self.paused = 0.0
        self.times: list[float] = []  # job clock of each sample
        self.kernel: list[float] = []  # kernel CPU seconds at that sample

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        ref_kernel(1)  # refill the caches the job has evicted; time only warm runs
        c0 = time.thread_time()
        ref_kernel()
        self.kernel.append(time.thread_time() - c0)
        self.times.append(t0 - self.paused)
        self.paused += time.perf_counter() - t0

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def ref_units(self, a: float, b: float) -> float:
        times, kernel = self.times, self.kernel
        i = bisect.bisect_left(times, a)
        total, t = 0.0, a
        while t < b:
            if i >= len(times):
                return total + (b - t) / kernel[-1]
            end = min(times[i], b)
            total += (end - t) / kernel[i]
            t = end
            i += 1
        return total


class PlainClock:
    """Job clock of a traced run: no sampling, no reference units."""

    def now(self) -> float:
        return time.perf_counter()

    def start(self):
        pass

    def stop(self):
        pass

    def ref_units(self, a: float, b: float) -> None:
        return None


def _integrand_info():
    """(hits, misses) of the integrand cache, or None if it has no cache_info."""
    info = getattr(getattr(qkz, "_integrand_table", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def _parse_value(v):
    if v == "sym":
        return TauPoly.monomial(2)
    return Fraction(v)


def _parse_entry(v):
    return int(v) if isinstance(v, int) else Fraction(v)


def _batch_calls(ops):
    """Turn JSON ops into (function, args) pairs; looked up after tracing is on."""
    funcs = {"tee": tee.tee, "tee_via_U": tee.tee_via_U, "lgv_tee": combin.lgv_tee}
    calls = []
    for op in ops:
        if op["op"] == "tau2_det":
            matrix = [[_parse_entry(x) for x in row] for row in op["matrix"]]
            calls.append((hirota.tau2_det, (matrix, _parse_value(op["tau2"]))))
        else:
            calls.append((funcs[op["op"]], (op["L"], op["p"], op["k"])))
    return calls


def _dump_value(v):
    if isinstance(v, TauPoly):
        return v.to_json()
    return str(v)


def run_batch(calls, clock):
    """Evaluate and time every call; returns the wall time and each call's span."""
    outcomes = []
    spans = []
    now = clock.now
    clock.start()
    start = now()
    for fn, args in calls:
        t0 = now()
        try:
            outcomes.append((0, fn(*args)))
        except hirota.DegenerateDivisionError as exc:
            outcomes.append((1, list(exc.point)))
        except Exception as exc:  # reported as a failed evaluation, never fatal
            outcomes.append((2, f"{type(exc).__name__}: {exc}"))
        spans.append((t0, now()))
    wall = now() - start
    clock.stop()
    for kind, payload in outcomes:
        key = ("value", "degenerate_at", "error")[kind]
        rec = {key: _dump_value(payload) if kind == 0 else payload}
        sys.stdout.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return wall, spans


def run_cli(argv, tracer, label, clock):
    run = cli.run if tracer is None else tracer.wrap(f"cli.cmd.{label}", cli.run)
    clock.start()
    start = clock.now()
    code = run(argv)
    end = clock.now()
    clock.stop()
    return (start, end), code


def main():
    with open(sys.argv[2]) as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = PlainClock() if tracer is not None else HostClock()
    result = {"setup_s": SETUP_S, "wall_s": None, "wall_ref": None, "exit": None, "integrand": None,
              "layers": None}
    before = _integrand_info()
    if job["kind"] == "cli":
        span, result["exit"] = run_cli(job["argv"], tracer, job["label"], clock)
        result["wall_s"], result["wall_ref"] = span[1] - span[0], clock.ref_units(*span)
    elif job["kind"] == "batch":
        result["wall_s"], spans = run_batch(_batch_calls(job["ops"]), clock)
        result["op_s"] = [b - a for a, b in spans]
        result["op_ref"] = [clock.ref_units(a, b) for a, b in spans] if tracer is None else None
    if tracer is None and job["kind"] != "probe":
        result["kernel_s"] = statistics.median(clock.kernel)
    after = _integrand_info()
    sys.stdout.flush()
    if before is not None and after is not None:
        result["integrand"] = {"hits": after[0] - before[0], "misses": after[1] - before[1]}
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(sys.argv[3], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
