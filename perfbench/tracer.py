"""Span tracer for the benchmark's traced run, and the per-layer metrics.

Run as a script it wraps the public functions of each expmart module, runs
the CLI in this process, and writes the recorded spans to a JSON file:

    python3 perfbench/tracer.py --spans OUT.json -- [expmart arguments]

Nothing under ``src/expmart/`` is changed.  The modules import each other
with ``from .algebra import ...``, so each wrapper replaces the function in
every expmart namespace that binds it; calls made inside the defining module
go through the module global and are caught as well.

A span is (id, parent id, thread, name, start, end, info).  Spans are kept in
memory and written out when the run ends.  Parents are tracked per thread:
a task running on a worker thread starts a root span there, so the main
thread's ``cli.run`` span keeps the time it spent waiting for the workers as
self time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function, info) for plain functions; info(args, result) -> number
FUNCTIONS = (
    ("algebra", "make_element", None),
    ("algebra", "mul", None),
    ("algebra", "apply_G", None),
    ("algebra", "inner_product", None),
    ("algebra", "expectation", None),
    ("algebra", "gaussian_expectation", None),
    ("algebra", "commutator_residual", None),
    ("processes", "generate", lambda a, r: [a[2], a[1].steps]),
    ("verify", "evaluate_element", lambda a, r: int(getattr(a[1], "size", 1))),
    ("verify", "ito_integral", lambda a, r: a[1].grid.steps),
    ("verify", "energy_integral", None),
    ("verify", "weighted_energy_integral", None),
    ("verify", "verify_pde", None),
    ("verify", "verify_h1", None),
    ("cli", "random_element", None),
    ("cli", "run", None),
    ("cli", "write_reports", lambda a, r: _file_bytes(r)),
)
# (module, class, method, is_classmethod)
METHODS = (
    ("verify", "Estimate", "from_samples", True),
    ("verify", "ProcessElement", "at", False),
)
MODULES = ("algebra", "processes", "verify", "config", "cli")

MB = 2**20

# name -> unit, in the order the traced run prints them
PER_LAYER = {
    "processes.generate_s": "s",
    "processes.path_steps_per_s": "1/s",
    "processes.path_matrix_mb": "MB-computed",
    "verify.evaluate_element_s": "s",
    "verify.evaluate_element_calls": "count",
    "verify.points_per_s": "1/s",
    "verify.ito_integral_self_s": "s",
    "verify.ito_columns": "count",
    "verify.process_element_at_s": "s",
    "verify.energy_integral_s": "s",
    "verify.estimate_s": "s",
    "verify.pde_s": "s",
    "verify.verify_h1_s": "s",
    "algebra.inner_product_s": "s",
    "algebra.inner_product_calls": "count",
    "algebra.apply_G_s": "s",
    "algebra.apply_G_calls": "count",
    "algebra.mul_s": "s",
    "algebra.commutator_residual_s": "s",
    "algebra.make_element_s": "s",
    "algebra.make_element_calls": "count",
    "algebra.mp_escalations": "count",
    "algebra.mp_max_dps": "digits",
    "algebra.mp_escalation_ratio": "ratio",
    "algebra.mp_lock_wait_s": "s",
    "cli.random_element_s": "s",
    "cli.run_self_s": "s",
    "cli.write_reports_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = None
                if info is not None and result is not None:
                    try:
                        extra = info(args, result)
                    except (AttributeError, IndexError, OSError, TypeError):
                        pass  # a changed signature loses the count, not the run
                spans.append((sid, parent, threading.get_ident(), name, t0, t1, extra))

        return traced

    def in_layer(self, prefix: str) -> bool:
        return any(n.startswith(prefix) for _, n in self._stack())

    def record(self, name: str, t0: float, t1: float, info=None) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        self.spans.append((next(self._ids), parent, threading.get_ident(), name, t0, t1, info))


class _PrecisionBlock:
    """Span around an mpmath ``workdps`` block; ``info`` is the precision."""

    def __init__(self, tracer: Tracer, manager, dps: int) -> None:
        self.tracer, self.manager, self.dps = tracer, manager, dps

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self.manager.__enter__()

    def __exit__(self, *exc):
        out = self.manager.__exit__(*exc)
        self.tracer.record("algebra.mp_block", self.t0, time.perf_counter(), self.dps)
        return out


class _TimedLock:
    """Stands in for ``_MP_LOCK``; records how long each acquire waited."""

    def __init__(self, tracer: Tracer, lock) -> None:
        self.tracer, self.lock = tracer, lock

    def __enter__(self):
        t0 = time.perf_counter()
        self.lock.acquire()
        self.tracer.record("algebra.mp_lock_wait", t0, time.perf_counter())
        return self

    def __exit__(self, *exc):
        self.lock.release()
        return False


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced target; return the targets this expmart lacks."""
    import importlib

    import mpmath

    mods = {name: importlib.import_module(f"expmart.{name}") for name in MODULES}
    namespaces = [importlib.import_module("expmart"), *mods.values()]
    missing = []
    for mod, fname, info in FUNCTIONS:
        orig = getattr(mods[mod], fname, None)
        if orig is None:
            missing.append(f"{mod}.{fname}")
            continue
        wrapped = tracer.wrap(f"{mod}.{fname}", orig, info)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, attr, wrapped)
    for mod, cname, mname, is_classmethod in METHODS:
        cls = getattr(mods[mod], cname, None)
        if cls is None or mname not in vars(cls):
            missing.append(f"{mod}.{cname}.{mname}")
            continue
        orig = vars(cls)[mname]
        fn = orig.__func__ if is_classmethod else orig
        wrapped = tracer.wrap(f"{mod}.{cname}.{mname}", fn)
        setattr(cls, mname, classmethod(wrapped) if is_classmethod else wrapped)

    # A precision block counts as an escalation when it is entered inside an
    # algebra span; verify's PDE stencils enter one too and are not counted.
    workdps = mpmath.workdps

    def counted_workdps(dps, *args, **kwargs):
        manager = workdps(dps, *args, **kwargs)
        if tracer.in_layer("algebra."):
            return _PrecisionBlock(tracer, manager, dps)
        return manager

    mpmath.workdps = counted_workdps
    lock = getattr(mods["algebra"], "_MP_LOCK", None)
    if lock is None:
        missing.append("algebra._MP_LOCK")
    else:
        timed = _TimedLock(tracer, lock)
        for ns in namespaces:
            if getattr(ns, "_MP_LOCK", None) is lock:
                ns._MP_LOCK = timed
    return missing


# ---------------------------------------------------------------------------
# aggregation

def summarize(spans: list) -> dict[str, dict]:
    """Per span name: calls, total time (outermost spans), self time, infos."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1]:
            child_time[s[1]] += s[5] - s[4]
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "info": []})
    for s in spans:
        sid, parent, _, name, t0, t1, info = s
        st = stats[name]
        st["calls"] += 1
        st["self"] += (t1 - t0) - child_time[sid]
        nested = False
        while parent:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor[3] == name:
                nested = True
                break
            parent = ancestor[1]
        if not nested:
            st["total"] += t1 - t0
        if info is not None:
            st["info"].append(info)
    return stats


def layer_metrics(spans: list, overhead_s: float) -> dict[str, float]:
    st = summarize(spans)

    def total(name):
        return st[name]["total"] if name in st else 0.0

    def calls(name):
        return st[name]["calls"] if name in st else 0

    def infos(name):
        return st[name]["info"] if name in st else []

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    gen = infos("processes.generate")
    path_steps = sum(n * m for n, m in gen)
    points = sum(infos("verify.evaluate_element"))
    escalations = calls("algebra.mp_block")
    reductions = sum(calls(f"algebra.{f}")
                     for f in ("inner_product", "expectation", "gaussian_expectation"))
    out = {
        "processes.generate_s": total("processes.generate"),
        "processes.path_steps_per_s": rate(path_steps, total("processes.generate")),
        "processes.path_matrix_mb": sum(n * (m + 1) * 8 for n, m in gen) / MB,
        "verify.evaluate_element_s": total("verify.evaluate_element"),
        "verify.evaluate_element_calls": calls("verify.evaluate_element"),
        "verify.points_per_s": rate(points, total("verify.evaluate_element")),
        "verify.ito_integral_self_s": st["verify.ito_integral"]["self"] if "verify.ito_integral" in st else 0.0,
        "verify.ito_columns": sum(infos("verify.ito_integral")),
        "verify.process_element_at_s": total("verify.ProcessElement.at"),
        "verify.energy_integral_s": total("verify.energy_integral") + total("verify.weighted_energy_integral"),
        "verify.estimate_s": total("verify.Estimate.from_samples"),
        "verify.pde_s": total("verify.verify_pde"),
        "verify.verify_h1_s": total("verify.verify_h1"),
        "algebra.inner_product_s": total("algebra.inner_product"),
        "algebra.inner_product_calls": calls("algebra.inner_product"),
        "algebra.apply_G_s": total("algebra.apply_G"),
        "algebra.apply_G_calls": calls("algebra.apply_G"),
        "algebra.mul_s": total("algebra.mul"),
        "algebra.commutator_residual_s": total("algebra.commutator_residual"),
        "algebra.make_element_s": total("algebra.make_element"),
        "algebra.make_element_calls": calls("algebra.make_element"),
        "algebra.mp_escalations": escalations,
        "algebra.mp_max_dps": max(infos("algebra.mp_block"), default=0),
        "algebra.mp_escalation_ratio": escalations / reductions if reductions else 0.0,
        "algebra.mp_lock_wait_s": total("algebra.mp_lock_wait"),
        "cli.random_element_s": total("cli.random_element"),
        "cli.run_self_s": st["cli.run"]["self"] if "cli.run" in st else 0.0,
        "cli.write_reports_s": total("cli.write_reports"),
        "cli.report_bytes": sum(infos("cli.write_reports")),
        "trace.overhead_s": overhead_s,
    }
    return out


# ---------------------------------------------------------------------------
# traced child process

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run the expmart CLI with span tracing")
    parser.add_argument("--spans", required=True, help="JSON file for the recorded spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args(argv)
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args
    tracer = Tracer()
    missing = install(tracer)
    from expmart import cli

    status = cli.main(cli_args)
    t0 = time.perf_counter()
    with open(ns.spans, "w") as f:
        json.dump({"missing": missing, "spans": tracer.spans}, f)
    # the parent subtracts the time spent writing spans from the traced wall time
    with open(ns.spans + ".dump_s", "w") as f:
        f.write(repr(time.perf_counter() - t0))
    return status


if __name__ == "__main__":
    sys.exit(main())
