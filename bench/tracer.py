"""In-memory span tracer that wraps the library's functions from outside.

``Tracer.install()`` replaces every public function of the dycksum modules
(and ``TauPoly.exact_div`` and the verify suites) with a wrapper that records
one span per call: id, name, start, end, parent span id and thread id.
Every module-level binding of a wrapped function is replaced, not only the
defining one, so ``tee.det`` and ``cli.det`` are traced like ``ring.det``.
Parent stacks are per thread because ``cli.verify_all`` runs a thread pool.
Nothing is written until ``write_spans`` is called at the end of a run.

Leaf helpers in ``UNTRACED`` are left alone: they are called once per matrix
entry or coefficient, so a span each would cost more than the call itself.
The ``cli.verify_*`` functions are the bodies of the verify suites, so their
time is recorded under the ``cli.suite.<name>`` span that wraps each suite.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time

UNTRACED = {"tee.bino", "ring.coeff_str", "ring.coeff_from_str"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, error)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        perf = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            error = None
            start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, name, start, end, parent, get_ident(), error))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer and the verify suites."""
        import dycksum
        from dycksum import cli, combin, hirota, qkz, ring, tee

        modules = {"ring": ring, "qkz": qkz, "tee": tee, "hirota": hirota, "combin": combin, "cli": cli}
        originals: dict[int, tuple[str, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped under its own layer
                if f"{layer}.{attr}" not in UNTRACED and not (layer == "cli" and attr.startswith("verify")):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self.wrap(name, obj) for key, (name, obj) in originals.items()}
        for mod in list(modules.values()) + [dycksum]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
        ring.TauPoly.exact_div = self.wrap("ring.TauPoly.exact_div", ring.TauPoly.exact_div)
        for suite, fn in list(cli.SUITES.items()):
            cli.SUITES[suite] = self.wrap(f"cli.suite.{suite}", fn)

    # -- output ---------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per name: calls, total_s, self_s (duration minus direct children), errors."""
        child_time: dict[int, float] = {}
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for sid, name, start, end, _, _, error in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(sid, 0.0)
            if error:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span, in completion order."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread, error in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "thread": thread}
                if error:
                    rec["error"] = error
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
