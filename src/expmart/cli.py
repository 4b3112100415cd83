"""Batch verification runner.

Each subcommand runs one suite (or ``all`` runs the full battery) against a
single RunConfig, producing ``report.csv`` and ``report.json`` in the output
directory plus one PASS/FAIL console line per check (``report``).

Each report row is one ``verify.Check`` next to its suite's run metadata
(seed, path count, grid steps, horizon, time change).  Each suite is one
entry of ``_SUITES``, whose builder only draws inputs and builds
``(label, integrands, fn)`` tasks: ``fn`` takes the sampled sums of each
integrand the task reads (most read none) and returns the finished rows of
``verify_*`` functions, which own every row's shape, pass rule and
tolerance.  One function, ``_rows``, gives every task's rows, in this
process or in a worker, and is the one place where an error of the sweep is
raised: a task that raises becomes one failing row (``Check.failed``, with
no sampled metadata) whose note starts with ``overflow:`` or ``error:``.

Every job, a path block of the sampled sweep or a task, is one entry of one
list and runs through one runner and one schedule: the blocks start first,
then the tasks that read no sampled sums; once every block is in, this
process merges their sums and runs the tasks that read them.  With
``--workers K > 1`` starting a job submits it to a pool of up to K forked
worker processes, which inherit the job list (the built tasks and the
integrands' columns) instead of receiving it pickled, and each holds one
chunk of a path block at a time; at one worker it runs the job on the spot.
A task whose worker process dies, any task lost with the pool, and every
task whose sums were lost with a block, becomes an ``error:`` row like a
task that raises.

Reproducibility contract: with a fixed config and seed, report.csv is
byte-identical across runs and across ``--workers`` values; report.json is
identical outside the ``header`` object (timestamp, worker count, out dir,
paths generated, mpmath escalations, wall time per task, the sweep's
blocks, seconds, columns and points, peak RSS).  All randomness comes from
counter-based streams keyed by (seed + channel): randomized inputs are
drawn in the main process before any task starts, and each path block of
the sampled sweep from its own (seed, block) stream, whichever process
draws it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import logging
import math
import sys
import time
from concurrent.futures import Future
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
from .processes import (
    TimeChange,
    TimeGrid,
    block_count,
    generate,
    quadratic_variation_at,
)
from .report import Result, _Meta, make_out_dir, print_summary, write_reports
from .verify import (
    Check,
    ProcessElement,
    SweepBlock,
    format_complex,
    h2_integrands,
    merge_sweep,
    sweep_block,
    sweep_columns,
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
# randomized inputs (all sampled in the main process, counter-based streams)

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
# suites: each builder takes the config, the run's time change h and the main
# ensemble's grid, and returns its suite's run metadata and its tasks.  A task
# is its label, the integrands whose sweep sums it reads, and a function that
# takes the sums of each of those integrands and returns the checks.
Task = tuple[str, tuple[ProcessElement, ...], Callable[..., Iterable[Check]]]
Built = tuple[_Meta, list[Task]]


def _check_algebra_tasks(cfg: RunConfig, h: TimeChange, grid: TimeGrid) -> Built:
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
    return _Meta("check-algebra", cfg.seed), [
        ("check-algebra/commutators", (), lambda: verify_commutators(fs)),
        ("check-algebra/unitarity", (), lambda: [verify_unitarity(fs, gs)]),
        ("check-algebra/adjointness", (), lambda: [verify_adjointness(fs, gs)]),
        ("check-algebra/g-fourth", (), lambda: [verify_g_fourth(fs)]),
        ("check-algebra/hermite-diagonal", (), lambda: [verify_hermite_diagonal(ALGEBRA_QS)]),
        ("check-algebra/hermite-roundtrip", (), lambda: [verify_hermite_roundtrip(polys)]),
    ]


def _lemma2_tasks(cfg: RunConfig, h: TimeChange, grid: TimeGrid) -> Built:
    exps = [parse_complex(s) for s in cfg.lemma2_exponents]
    one_step = TimeGrid.uniform(cfg.horizon, 1)
    # the paths are drawn only if there is a pair to check on them, and the
    # tasks keep a copy of X_T alone, not the N x 2 matrix
    x_t = (
        generate(h, one_step, cfg.lemma2_paths, cfg.seed + 1).paths[:, -1].copy()
        if exps else None
    )
    q = quadratic_variation_at(h, one_step.horizon)
    meta = _Meta("lemma2", cfg.seed, cfg.lemma2_paths, one_step.steps, one_step.horizon, h.kind)
    return meta, [
        (f"lemma2/c={format_complex(c)},d={format_complex(d)}", (),
         lambda c=c, d=d: verify_lemma2(c, d, q, x_t))
        for c in exps
        for d in exps
    ]


def _isometry_tasks(cfg: RunConfig, h: TimeChange, grid: TimeGrid) -> Built:
    tasks: list[Task] = []
    for label, template in map(parse_isometry_case, cfg.isometry_cases):
        z = ProcessElement.from_template(h, template, label)
        tasks.append((f"isometry/{label}", (z,), lambda s, z=z: [verify_isometry(z, grid, s)]))
    return _Meta("isometry", cfg.seed, cfg.paths, grid.steps, grid.horizon, h.kind), tasks


def _h1_tasks(cfg: RunConfig, h: TimeChange, grid: TimeGrid) -> Built:
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
    return _Meta("h1", cfg.seed), [
        ("h1/named", (), named),
        ("h1/randomized", (), lambda: [verify_h1_randomized(params, tol=cfg.h1_tol)]),
    ]


def _h2_tasks(cfg: RunConfig, h: TimeChange, grid: TimeGrid) -> Built:
    q = quadratic_variation_at(h, grid.horizon)
    tasks: list[Task] = []
    for case in map(parse_h2_case, cfg.h2_cases):
        y = ProcessElement.from_template(h, case["template"], case["name"])

        def task(sums1, sums2, case=case, y=y) -> list[Check]:
            bound = verify_h2(
                y, grid, sums1, sums2, k_sigma=cfg.h2_k_sigma, disc_factor=cfg.h2_disc_factor
            )
            if case["target_lhs"] is None:
                return [bound]
            return [bound, verify_h2_target(case["name"], bound, case["target_lhs"](q))]

        tasks.append((f"h2/{case['name']}", h2_integrands(y, case["g"], case["g_tilde"]), task))
    return _Meta("h2", cfg.seed, cfg.paths, grid.steps, grid.horizon, h.kind), tasks


def _pde_tasks(cfg: RunConfig, h: TimeChange, grid: TimeGrid) -> Built:
    return _Meta("pde", cfg.seed), [
        (f"pde/{format_complex(c)}", (), lambda c=c: [verify_pde(c, step=cfg.pde_step)])
        for c in map(parse_complex, cfg.pde_exponents)
    ]


def _l2limit_tasks(cfg: RunConfig, h: TimeChange, grid: TimeGrid) -> Built:
    q = quadratic_variation_at(h, cfg.horizon)
    return _Meta("l2limit", cfg.seed, horizon=cfg.horizon, h_kind=h.kind), [
        (f"l2limit/{format_complex(c)}", (), lambda c=c: verify_l2_limit(c, q, cfg.l2_k_max))
        for c in map(parse_complex, cfg.l2_exponents)
    ]


# every suite, in SUITES order: its builder and its subcommand's help line
_SUITES = {
    "check-algebra": (
        _check_algebra_tasks, "commutators, unitarity, adjointness, G^4, Hermite identities"
    ),
    "lemma2": (_lemma2_tasks, "two-point exponential formula, exact and Monte Carlo"),
    "isometry": (_isometry_tasks, "E|int Z dX|^2 against the exact energy integral"),
    "h1": (_h1_tasks, "fixed-time inequality, closed form"),
    "h2": (_h2_tasks, "integrated inequality, sampled Ito integrals vs exact RHS"),
    "pde": (_pde_tasks, "finite-difference residual of the heat-type equation"),
    "l2limit": (_l2limit_tasks, "difference-quotient convergence to X E(c)"),
}


# ---------------------------------------------------------------------------
# orchestration

def _build_tasks(
    cfg: RunConfig, suites: Sequence[str]
) -> tuple[list[tuple[_Meta, Task]], list[Callable[[], SweepBlock]], Callable]:
    """The tasks of the suites, each with its suite's run metadata; the
    sweep's block jobs; and the merge of the finished blocks, in block order,
    into one (sums, error) pair per integrand the tasks read, in task order.

    The main ensemble is never materialized: each integrand's column
    elements are built here, once, and each block job generates one path
    block and sums every integrand on it.
    """
    h = parse_time_change(cfg.time_change)
    grid = TimeGrid.uniform(cfg.horizon, cfg.grid_steps)
    tasks = []
    for suite in suites:
        if suite not in _SUITES:
            raise ConfigError(f"unknown suite {suite!r}")
        meta, built = _SUITES[suite][0](cfg, h, grid)
        tasks += [(meta, task) for task in built]
    columns = sweep_columns([z for _, (_, zs, _) in tasks for z in zs], grid)
    blocks = [
        functools.partial(sweep_block, columns, h, grid, cfg.paths, cfg.seed, block)
        for block in range(block_count(cfg.paths) if columns else 0)
    ]
    return tasks, blocks, functools.partial(merge_sweep, columns)


def _failed(meta: _Meta, label: str, note: str) -> list[Result]:
    """The one failing row of a task that did not finish."""
    return [(_Meta(meta.suite, meta.seed), Check.failed(label, note))]


def _rows(meta: _Meta, label: str, fn: Callable[..., Iterable[Check]], *swept) -> list[Result]:
    """A task's rows, with its suite's metadata: ``fn``'s checks on the sums of
    ``swept``, its (sums, error) pairs.  The pairs' first error, in integrand
    order, an overflow or any other exception becomes one failing row."""
    try:
        for _, error in swept:
            if error is not None:
                raise error
        return [(meta, chk) for chk in fn(*(sums for sums, _ in swept))]
    except OverflowError as e:
        return _failed(meta, label, f"overflow: {e}")
    except Exception as e:
        # one broken task must not lose the run: record it and go on
        _LOG.error("task %s raised", label, exc_info=True)
        return _failed(meta, label, f"error: {type(e).__name__}: {e}")


# The jobs of the running ``_execute``: the sweep's block jobs, then one
# ``_rows`` job per task, which takes the (sums, error) pairs of the
# integrands the task reads.  Forked worker processes inherit this list, so a
# worker is sent only a job's index: the closures and the data they hold
# (lemma2's X_T, built integrand columns) are never pickled.
_JOBS: list[Callable[..., object]] = []

Outcome = tuple[object, dict[str, int], float]


def _run(i: int, *swept) -> Outcome:
    """Run job ``i`` of ``_JOBS`` on ``swept`` in the calling process; return
    its result, the mpmath escalations it made (as ``take_mp_stats`` reports
    them) and its wall time in seconds."""
    take_mp_stats()  # a forked worker starts with its parent's counts
    start = time.perf_counter()
    result = _JOBS[i](*swept)
    return result, take_mp_stats(), time.perf_counter() - start


def _start(pool, i: int, *swept) -> Future:
    """Job ``i``'s outcome: submitted to ``pool``, or without one run here on
    ``swept``.  What the job raised, or the pool's refusal, is its error."""
    future = Future()
    try:
        if pool is not None:
            return pool.submit(_run, i)
        future.set_result(_run(i, *swept))
    except Exception as e:
        future.set_exception(e)
    return future


def _execute(
    tasks: list[tuple[_Meta, Task]], blocks: list[Callable[[], SweepBlock]],
    merge: Callable, cfg: RunConfig,
) -> tuple[list[Result], dict]:
    """Run the sweep's blocks and the tasks on the one schedule of the module
    docstring; return the tasks' rows in task order, and the telemetry of the
    run so far: mpmath escalations (summed over processes, highest dps), the
    wall time per task label and the sweep's blocks, seconds, columns and
    points.

    The blocks and the tasks that read no sums go to the pool of forked
    workers (at most one per pooled job), or run on the spot without one
    (one worker or one job); the tasks that read sums run here, on their
    merged (sums, error) pairs.  A lost block is the error of every sum, so
    each task that reads sums raises it in ``_rows``.  A pooled job whose
    worker died, or that the pool refused, is lost: its task becomes a
    failing ``error:`` row with no escalations and a NaN wall time.
    """
    n_blocks = len(blocks)
    reads = [len(integrands) for _, (_, integrands, _) in tasks]
    n_procs = min(cfg.workers, n_blocks + reads.count(0))
    pool = None
    if n_procs > 1:
        # imported here, as a run in one process needs neither
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # Forking is safe: this program starts no thread, and a fork pool
        # forks its workers at the first submit, after ``_JOBS`` is set and
        # before its manager thread starts: no thread holds a lock they inherit.
        pool = ProcessPoolExecutor(n_procs, mp_context=multiprocessing.get_context("fork"))
    stats = [take_mp_stats()]  # made while building the tasks
    _JOBS[:] = [
        *blocks, *(functools.partial(_rows, meta, label, fn) for meta, (label, _, fn) in tasks)
    ]
    try:
        got = [_start(pool, i) for i in range(n_blocks)]
        got += [None if n else _start(pool, i) for i, n in enumerate(reads, n_blocks)]
        done, lost = [], None
        for i in range(n_blocks):
            try:
                done.append(got[i].result())
            except Exception as e:
                _LOG.error("a path block of the sweep was lost", exc_info=True)
                lost = lost or e
            got[i] = None  # a future holds its result
        sums = itertools.repeat((None, lost)) if lost else iter(merge([b for b, _, _ in done]))
        swept = {
            "blocks": n_blocks,
            "seconds": sum(seconds for _, _, seconds in done),
            "columns": sum(block.columns for block, _, _ in done),
            "points": sum(block.points for block, _, _ in done),
        }
        stats += [st for _, st, _ in done]
        del done  # merged and counted
        for i, n in enumerate(reads, n_blocks):
            if n:
                got[i] = _start(None, i, *itertools.islice(sums, n))
        outcomes = []
        for (meta, (label, _, _)), future in zip(tasks, got[n_blocks:]):
            try:
                outcomes.append(future.result())
            except Exception as e:
                _LOG.error("task %s was lost: %s", label, e)
                rows = _failed(meta, label, f"error: {type(e).__name__}: {e}")
                outcomes.append((rows, {"mp_escalations": 0, "mp_max_dps": 0}, math.nan))
    finally:
        if pool is not None:
            pool.shutdown()
        _JOBS.clear()
    stats += [st for _, st, _ in outcomes]
    telemetry = {
        "mp_escalations": sum(st["mp_escalations"] for st in stats),
        "mp_max_dps": max(st["mp_max_dps"] for st in stats),
        "task_wall_s": {
            label: seconds for (_, (label, _, _)), (_, _, seconds) in zip(tasks, outcomes)
        },
        "sweep": swept,
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
    common.add_argument("--grid", type=int, dest="grid_steps", metavar="GRID",
                        default=argparse.SUPPRESS, help="time grid steps M")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                        help="worker processes, which run the path blocks of "
                        "the sampled sweep and the tasks (results are "
                        "worker-count independent)")
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="expmart",
        parents=[common],
        description="Verification suites for the exponential-martingale operator algebra.",
    )
    sub = parser.add_subparsers(dest="suite", metavar="SUITE")
    for name, (_, help_line) in _SUITES.items():
        sub.add_parser(name, parents=[common], help=help_line)
    sub.add_parser("all", parents=[common], help="every suite above, in order")
    return parser


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if hasattr(ns, "config"):
        cfg = load_ini(ns.config)
    elif hasattr(ns, "preset"):
        cfg = apply_preset(cfg, ns.preset)
    # each flag's destination is the field it sets
    overrides = {
        f.name: getattr(ns, f.name) for f in dataclasses.fields(cfg) if hasattr(ns, f.name)
    }
    return dataclasses.replace(cfg, **overrides)


def _selected(names: Sequence[str]) -> tuple[str, ...]:
    """Every suite for "all"; otherwise each suite of ``names`` once, in order."""
    return SUITES if "all" in names else tuple(dict.fromkeys(names))


def run(cfg: RunConfig, suites: Sequence[str]) -> tuple[list[Result], int, dict]:
    """Run the ``_selected`` suites; return the rows, the exit status (0/1/3/4)
    and the run's telemetry: paths drawn per ensemble, the count and highest
    dps of the algebra's mpmath escalations, the wall time per task, and the
    sweep's blocks, seconds (summed over the block jobs), columns summed and
    points evaluated."""
    suites = _selected(suites)
    take_mp_stats()  # count this run's escalations only
    tasks, blocks, merge = _build_tasks(cfg, suites)
    rows, task_telemetry = _execute(tasks, blocks, merge, cfg)
    paths_generated = {
        "main": cfg.paths if blocks else 0,
        # a task that reads no sums but has paths drew them: lemma2's ensemble
        "lemma2": max((meta.n_paths for meta, (_, zs, _) in tasks if not zs), default=0),
    }
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
        suites = _selected((ns.suite,) if ns.suite else cfg.suites)
        if suites:
            make_out_dir(cfg.out_dir)
    except ConfigError as e:
        print(f"expmart: config error: {e}", file=sys.stderr)
        return 2
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
