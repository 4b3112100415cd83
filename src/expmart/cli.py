"""Batch verification runner.

Each subcommand runs one suite (or ``all`` runs the full battery) against a
single RunConfig, producing ``report.csv`` and ``report.json`` in the output
directory plus one PASS/FAIL console line per check (``report``).

Each report row is one ``verify.Check`` next to its suite's run metadata
(seed, path count, grid steps, horizon, time change).  The suites here only
draw inputs and build tasks; each task returns the finished rows of
``verify_*`` functions, which own every row's shape, pass rule and
tolerance.  A task that raises becomes one failing row (``Check.failed``,
with no sampled metadata) whose note starts with ``overflow:`` or
``error:``.

With ``--workers K > 1`` the tasks run in up to K forked worker processes,
which inherit the built tasks and the sampled sums instead of receiving
them pickled; the sampled sweep itself spreads its path blocks over K
threads.  A task whose worker process dies, and any task lost with the
pool, becomes an ``error:`` row like a task that raises.

Reproducibility contract: with a fixed config and seed, report.csv is
byte-identical across runs and across ``--workers`` values; report.json is
identical outside the ``header`` object (timestamp, worker count, out dir,
paths generated, mpmath escalations, wall time per task, peak RSS).  All
randomness comes from counter-based streams keyed by (seed + channel):
randomized inputs are drawn in the main process before any task starts,
and each path block of the sampled sweep from its own (seed, block) stream,
whichever thread draws it.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import PolyExpElement, make_element, take_mp_stats
from .config import (
    PRESETS,
    SUITES,
    ConfigError,
    RunConfig,
    apply_preset,
    load_ini,
    parse_complex,
    parse_h1_case,
    parse_h2_case,
    parse_isometry_case,
    parse_time_change,
)
from .processes import PathEnsemble, TimeChange, TimeGrid, generate, quadratic_variation_at
from .report import Result, _Meta, print_summary, write_reports
from .verify import (
    Check,
    EvaluationOverflowError,
    ProcessElement,
    format_complex,
    h2_integrands,
    ito_sweep,
    verify_adjointness,
    verify_commutators,
    verify_g_fourth,
    verify_h1_case,
    verify_h1_randomized,
    verify_h2,
    verify_h2_target,
    verify_hermite_diagonal,
    verify_hermite_roundtrip,
    verify_isometry,
    verify_l2_limit,
    verify_lemma2,
    verify_pde,
    verify_unitarity,
)

__all__ = ["main", "run", "random_element"]

# q values cycled through by the randomized algebra family
ALGEBRA_QS = (0.0, 0.5, 1.0, 4.0)
H1_QS = (0.25, 1.0, 4.0)

_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# randomized inputs (all sampled in the main thread, counter-based streams)

def _rng(seed: int, channel: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed + channel) * 2**64))


def random_element(
    rng: np.random.Generator,
    q: float,
    max_degree: int = 8,
    max_terms: int = 3,
    c_bound: float = 3.0,
) -> PolyExpElement:
    """Random element: <= max_terms terms, degree <= max_degree, |c| <= c_bound."""
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_degree + 1))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        rad = c_bound * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        c = complex(rad * math.cos(ang), rad * math.sin(ang))
        terms.append((c, tuple(complex(v) for v in coeffs)))
    return make_element(q, terms)


# ---------------------------------------------------------------------------
# suites: each builder returns [(label, thunk)] with thunk() -> the checks

Task = tuple[str, Callable[[], Iterable[Check]]]


def _check_algebra_tasks(cfg: RunConfig) -> list[Task]:
    n = cfg.algebra_n_random
    rng_f = _rng(cfg.seed, 2)
    rng_g = _rng(cfg.seed, 3)
    fs = [random_element(rng_f, ALGEBRA_QS[i % 4]) for i in range(n)]
    gs = [random_element(rng_g, ALGEBRA_QS[i % 4]) for i in range(n)]
    rng_p = _rng(cfg.seed, 5)
    polys = []
    for i in range(200):
        deg = int(rng_p.integers(0, 9))
        coeffs = rng_p.standard_normal(deg + 1) + 1j * rng_p.standard_normal(deg + 1)
        polys.append(make_element(ALGEBRA_QS[i % 4], [(0.0, tuple(complex(v) for v in coeffs))]))
    return [
        ("check-algebra/commutators", lambda: verify_commutators(fs)),
        ("check-algebra/unitarity", lambda: [verify_unitarity(fs, gs)]),
        ("check-algebra/adjointness", lambda: [verify_adjointness(fs, gs)]),
        ("check-algebra/g-fourth", lambda: [verify_g_fourth(fs)]),
        ("check-algebra/hermite-diagonal", lambda: [verify_hermite_diagonal(ALGEBRA_QS)]),
        ("check-algebra/hermite-roundtrip", lambda: [verify_hermite_roundtrip(polys)]),
    ]


def _lemma2_tasks(cfg: RunConfig, ensemble: PathEnsemble) -> list[Task]:
    q = quadratic_variation_at(ensemble.time_change, ensemble.grid.horizon)
    exps = [parse_complex(s) for s in cfg.lemma2_exponents]
    return [
        (
            f"lemma2/c={format_complex(c)},d={format_complex(d)}",
            lambda c=c, d=d: verify_lemma2(c, d, q, ensemble),
        )
        for c in exps
        for d in exps
    ]


class _MainPaths:
    """The main ensemble's integrands, summed by one ``ito_sweep``.

    Task builders register each integrand with ``integral`` and hand the
    returned callable to their task; ``sweep`` then runs once, before any
    task, so no task ever sees the N x (M+1) path matrix.
    """

    def __init__(self, cfg: RunConfig, h: TimeChange) -> None:
        self.cfg = cfg
        self.time_change = h
        self.grid = TimeGrid.uniform(cfg.horizon, cfg.grid_steps)
        self._integrands: list[ProcessElement] = []
        self._sums: list[Callable[[], np.ndarray]] = []

    def integral(self, z: ProcessElement) -> Callable[[], np.ndarray]:
        i = len(self._integrands)
        self._integrands.append(z)
        return lambda: self._sums[i]()

    def sweep(self) -> int:
        """Sum every registered integrand; return the number of paths drawn."""
        if not self._integrands:
            return 0
        cfg = self.cfg
        self._sums = ito_sweep(
            self._integrands, self.time_change, self.grid, cfg.paths, cfg.seed, cfg.workers
        )
        return cfg.paths


def _isometry_tasks(cfg: RunConfig, main: _MainPaths) -> list[Task]:
    tasks: list[Task] = []
    for case_name in cfg.isometry_cases:
        label, template = parse_isometry_case(case_name)
        z = ProcessElement.from_template(main.time_change, template, label)
        integral = main.integral(z)
        tasks.append(
            (f"isometry/{label}", lambda z=z, i=integral: [verify_isometry(z, main.grid, i)])
        )
    return tasks


def _h1_tasks(cfg: RunConfig) -> list[Task]:
    def named() -> list[Check]:
        checks = []
        for case in map(parse_h1_case, cfg.h1_cases):
            y = make_element(case["q"], case["template"])
            checks += verify_h1_case(
                case["name"], y, case["c"], case["ct"], case["equality"], tol=cfg.h1_tol
            )
        return checks

    rng = _rng(cfg.seed, 4)
    params = []
    for i in range(cfg.h1_n_random):
        y = random_element(rng, H1_QS[i % 3], max_degree=4, max_terms=2, c_bound=2.0)
        params.append((y, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))))
    return [
        ("h1/named", named),
        ("h1/randomized", lambda: [verify_h1_randomized(params, tol=cfg.h1_tol)]),
    ]


def _h2_tasks(cfg: RunConfig, main: _MainPaths) -> list[Task]:
    q = quadratic_variation_at(main.time_change, main.grid.horizon)
    tasks: list[Task] = []
    for case_name in cfg.h2_cases:
        case = parse_h2_case(case_name)
        y = ProcessElement.from_template(main.time_change, case["template"], case["name"])
        integrals = [main.integral(z) for z in h2_integrands(y, case["g"], case["g_tilde"])]

        def task(case=case, y=y, integrals=integrals) -> list[Check]:
            bound = verify_h2(
                y, main.grid, *integrals,
                k_sigma=cfg.h2_k_sigma, disc_factor=cfg.h2_disc_factor,
            )
            if case["target_lhs"] is None:
                return [bound]
            return [bound, verify_h2_target(case["name"], bound, case["target_lhs"](q))]

        tasks.append((f"h2/{case['name']}", task))
    return tasks


def _pde_tasks(cfg: RunConfig) -> list[Task]:
    return [
        (f"pde/{format_complex(c)}", lambda c=c: [verify_pde(c, step=cfg.pde_step)])
        for c in map(parse_complex, cfg.pde_exponents)
    ]


def _l2limit_tasks(cfg: RunConfig) -> list[Task]:
    q = quadratic_variation_at(parse_time_change(cfg.time_change), cfg.horizon)
    return [
        (f"l2limit/{format_complex(c)}", lambda c=c: verify_l2_limit(c, q, cfg.l2_k_max))
        for c in map(parse_complex, cfg.l2_exponents)
    ]


# ---------------------------------------------------------------------------
# orchestration

def _build_tasks(
    cfg: RunConfig, suites: Sequence[str]
) -> tuple[list[tuple[_Meta, Task]], dict[str, int]]:
    """The tasks of the suites, each with its suite's run metadata, and the
    paths drawn per ensemble (main, lemma2).

    The main ensemble is never materialized: its integrands' Ito sums come
    from one ``ito_sweep`` over path blocks, run here before any task.
    """
    h = parse_time_change(cfg.time_change)
    main = _MainPaths(cfg, h)
    lemma2 = None
    if "lemma2" in suites:
        lemma2 = generate(h, TimeGrid.uniform(cfg.horizon, 1), cfg.lemma2_paths, cfg.seed + 1)

    def sampled(suite: str, n_paths: int, grid: TimeGrid) -> _Meta:
        return _Meta(suite, cfg.seed, n_paths, grid.steps, grid.horizon, h.kind)

    tasks = []
    for suite in suites:
        meta = _Meta(suite, cfg.seed)
        if suite == "check-algebra":
            built = _check_algebra_tasks(cfg)
        elif suite == "lemma2":
            meta = sampled(suite, lemma2.n_paths, lemma2.grid)
            built = _lemma2_tasks(cfg, lemma2)
        elif suite == "isometry":
            meta = sampled(suite, cfg.paths, main.grid)
            built = _isometry_tasks(cfg, main)
        elif suite == "h1":
            built = _h1_tasks(cfg)
        elif suite == "h2":
            meta = sampled(suite, cfg.paths, main.grid)
            built = _h2_tasks(cfg, main)
        elif suite == "pde":
            built = _pde_tasks(cfg)
        elif suite == "l2limit":
            meta = _Meta(suite, cfg.seed, horizon=cfg.horizon, h_kind=cfg.time_change)
            built = _l2limit_tasks(cfg)
        else:
            raise ConfigError(f"unknown suite {suite!r}")
        tasks.extend((meta, task) for task in built)
    paths_generated = {
        "main": main.sweep(),
        "lemma2": lemma2.n_paths if lemma2 is not None else 0,
    }
    return tasks, paths_generated


def _failed(meta: _Meta, label: str, note: str) -> list[Result]:
    """The one failing row of a task that did not finish."""
    return [(_Meta(meta.suite, meta.seed), Check.failed(label, note))]


def _guard(meta: _Meta, task: Task) -> Callable[[], list[Result]]:
    """Run a task; an overflow or any other exception becomes one failing row."""
    label, thunk = task

    def run_task() -> list[Result]:
        try:
            checks = list(thunk())
        except (EvaluationOverflowError, OverflowError) as e:
            return _failed(meta, label, f"overflow: {e}")
        except Exception as e:
            # one broken task must not lose the run: record it and go on
            _LOG.error("task %s raised", label, exc_info=True)
            return _failed(meta, label, f"error: {type(e).__name__}: {e}")
        return [(meta, chk) for chk in checks]

    return run_task


# The guarded tasks of the running ``_execute``.  Forked worker processes
# inherit this list, so a worker is sent only a task's index: the closures
# and the data they hold (ensembles, sampled sums) are never pickled.
_TASKS: list[Callable[[], list[Result]]] = []

# what running one task gives back: its rows, the mpmath escalations it made
# (as ``take_mp_stats`` reports them) and its wall time in seconds
Outcome = tuple[list[Result], dict[str, int], float]


def _run_task(i: int) -> Outcome:
    """Run task ``i`` of ``_TASKS`` in the calling process."""
    take_mp_stats()  # a forked worker starts with its parent's counts
    start = time.perf_counter()
    rows = _TASKS[i]()
    return rows, take_mp_stats(), time.perf_counter() - start


def _run_forked(tasks: list[tuple[_Meta, Task]], n_procs: int) -> list[Outcome]:
    """Run ``_TASKS`` in ``n_procs`` forked worker processes, in task order.

    A task whose future raises (its worker died, or the pool broke before
    it ran) becomes a failing ``error:`` row with no escalations and a NaN
    wall time.  Without ``fork`` the tasks run inline.
    """
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [_run_task(i) for i in range(len(tasks))]
    # forking is safe here: the sweep has joined its threads, so no other
    # thread of this program can hold a lock the workers would inherit
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=n_procs, mp_context=context) as pool:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
    outcomes = []
    for (meta, (label, _)), future in zip(tasks, futures):
        try:
            outcomes.append(future.result())
        except Exception as e:
            _LOG.error("task %s was lost with its worker process", label, exc_info=True)
            rows = _failed(meta, label, f"error: {type(e).__name__}: {e}")
            outcomes.append((rows, {"mp_escalations": 0, "mp_max_dps": 0}, math.nan))
    return outcomes


def _execute(tasks: list[tuple[_Meta, Task]], cfg: RunConfig) -> tuple[list[Result], dict]:
    """Run the tasks; return their rows in task order, and the telemetry of
    the run so far: mpmath escalations (summed over processes, highest dps)
    and the wall time per task label (tasks sharing a label add up)."""
    stats = [take_mp_stats()]  # made while building the tasks
    _TASKS[:] = [_guard(*task) for task in tasks]
    n_procs = min(cfg.workers, len(tasks))
    try:
        if n_procs <= 1:
            outcomes = [_run_task(i) for i in range(len(tasks))]
        else:
            outcomes = _run_forked(tasks, n_procs)
    finally:
        _TASKS.clear()
    stats += [st for _, st, _ in outcomes]
    wall: dict[str, float] = {}
    for (_, (label, _)), (_, _, seconds) in zip(tasks, outcomes):
        wall[label] = wall.get(label, 0.0) + seconds
    telemetry = {
        "mp_escalations": sum(st["mp_escalations"] for st in stats),
        "mp_max_dps": max(st["mp_max_dps"] for st in stats),
        "task_wall_s": wall,
    }
    return [row for rows, _, _ in outcomes for row in rows], telemetry


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group()
    source.add_argument(
        "--config", default=argparse.SUPPRESS, metavar="FILE",
        help="INI run configuration",
    )
    source.add_argument(
        "--preset", default=argparse.SUPPRESS, metavar="NAME",
        help=f"named parameterization ({', '.join(sorted(PRESETS))})",
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--paths", type=int, default=argparse.SUPPRESS,
                        help="Monte Carlo path count")
    common.add_argument("--grid", type=int, default=argparse.SUPPRESS,
                        help="time grid steps M")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                        help="worker processes for the tasks and threads for "
                        "the path-block sweep (results are worker-count "
                        "independent)")
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="expmart",
        parents=[common],
        description="Verification suites for the exponential-martingale operator algebra.",
    )
    sub = parser.add_subparsers(dest="suite", metavar="SUITE")
    descriptions = {
        "check-algebra": "commutators, unitarity, adjointness, G^4, Hermite identities",
        "lemma2": "two-point exponential formula, exact and Monte Carlo",
        "isometry": "E|int Z dX|^2 against the exact energy integral",
        "h1": "fixed-time inequality, closed form",
        "h2": "integrated inequality, sampled Ito integrals vs exact RHS",
        "pde": "finite-difference residual of the heat-type equation",
        "l2limit": "difference-quotient convergence to X E(c)",
        "all": "every suite above, in order",
    }
    for name in SUITES + ("all",):
        sub.add_parser(name, parents=[common], help=descriptions[name])
    return parser


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if hasattr(ns, "config"):
        cfg = load_ini(ns.config)
    elif hasattr(ns, "preset"):
        cfg = apply_preset(cfg, ns.preset)
    overrides = {}
    for attr, field_name in (
        ("seed", "seed"), ("paths", "paths"), ("grid", "grid_steps"),
        ("workers", "workers"), ("out_dir", "out_dir"),
    ):
        if hasattr(ns, attr):
            overrides[field_name] = getattr(ns, attr)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg.validated()


def run(cfg: RunConfig, suites: Sequence[str]) -> tuple[list[Result], int, dict]:
    """Run the suites; return the rows, the exit status (0/1/3/4) and the
    run's telemetry: paths drawn per ensemble, the count and highest dps of
    the algebra's mpmath escalations, and the wall time per task."""
    take_mp_stats()  # count this run's escalations only
    tasks, paths_generated = _build_tasks(cfg, suites)
    rows, task_telemetry = _execute(tasks, cfg)
    telemetry = {"paths_generated": paths_generated, **task_telemetry}
    checks = [chk for _, chk in rows]
    if any(chk.note.startswith("error:") for chk in checks):
        status = 4
    elif any(chk.note.startswith("overflow:") for chk in checks):
        status = 3
    else:
        status = 1 if any(not chk.passed for chk in checks) else 0
    return rows, status, telemetry


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _resolve_config(ns)
    except ConfigError as e:
        print(f"expmart: config error: {e}", file=sys.stderr)
        return 2
    if ns.suite == "all":
        suites: tuple[str, ...] = SUITES
    elif ns.suite:
        suites = (ns.suite,)
    elif "all" in cfg.suites:
        suites = SUITES
    else:
        # keep config order but only the first occurrence of each suite
        suites = tuple(dict.fromkeys(cfg.suites))
    if not suites:
        parser.print_usage(sys.stderr)
        print("expmart: no suite selected (give a subcommand or a [run] suites key)",
              file=sys.stderr)
        return 2
    rows, status, telemetry = run(cfg, suites)
    print_summary(rows, *write_reports(rows, cfg, suites, telemetry))
    return status


if __name__ == "__main__":
    sys.exit(main())
