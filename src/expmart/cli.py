"""Batch verification runner.

Each subcommand runs one suite (or ``all`` runs the full battery) against a
single RunConfig, producing ``report.csv`` and ``report.json`` in the output
directory plus one PASS/FAIL console line per check.

Each report row is one ``verify.Check`` next to its suite's run metadata
(seed, path count, grid steps, horizon, time change).  ``bound`` rows pass
when slack = lhs_product - rhs_exact >= -allowance, ``match`` rows when
|slack| <= allowance.  Sampled rows come from ``verify`` with k_sigma
standard errors plus ``verify.MC_FLOOR`` as allowance; the exact suites use
the fixed tolerances below.  A skipped entry is a match of 0 against 0.  A
task that raises becomes one failing match row (lhs inf, rhs 0, allowance 0,
no sampled metadata) whose note starts with ``overflow:`` or ``error:``.

Reproducibility contract: with a fixed config and seed, report.csv is
byte-identical across runs and across ``--workers`` values; report.json is
identical outside the ``header`` object (timestamp, worker count, out dir,
paths generated, mpmath escalations, peak RSS).  All randomness comes from
counter-based streams keyed by (seed + channel): randomized inputs are
drawn in the main thread before any task starts, and each path block of the
sampled sweep from its own (seed, block) stream, whichever thread draws it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import resource
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .algebra import (
    PolyExpElement,
    apply_D,
    apply_D_star,
    apply_G,
    commutator_residual,
    from_hermite,
    hermite_element,
    inner_product,
    make_element,
    norm,
    scale,
    sub,
    take_mp_stats,
    to_hermite,
)
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
from .verify import (
    Check,
    Estimate,
    EvaluationOverflowError,
    ProcessElement,
    format_complex,
    h2_integrands,
    h2_report,
    isometry_report,
    ito_sweep,
    verify_h1,
    verify_l2_limit,
    verify_lemma2,
    verify_pde,
)

__all__ = ["main", "run", "random_element"]

# q values cycled through by the randomized algebra family
ALGEBRA_QS = (0.0, 0.5, 1.0, 4.0)
H1_QS = (0.25, 1.0, 4.0)

UNITARITY_TOL = 1e-9
ADJOINT_TOL = 1e-9
G_FOURTH_TOL = 1e-12
HERMITE_TOL = 1e-12
# basis coefficients grow like n!! q^(n/2); the round trip keeps ~4 digits
# of headroom over the measured worst case at degree 8, q = 4
HERMITE_ROUNDTRIP_TOL = 1e-9
PDE_TOL = 1e-6
L2_FINAL_TOL = 1e-3
L2_RATIO_TOL = 0.05

# (-i)^n without complex powers, so eigenvalue checks stay exact
_MINUS_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)

_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# report rows

@dataclass(frozen=True)
class _Meta:
    """The run metadata written next to each check of a suite."""

    suite: str
    seed: int
    n_paths: int = 0
    grid_steps: int = 0
    horizon: float = 0.0
    h_kind: str = "-"


# one report row: a check and the run metadata of its suite
Result = tuple[_Meta, Check]


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

    def commutators() -> list[Check]:
        checks = []
        for which in ("DX", "DDstar", "DG", "DstarG"):
            worst = max(commutator_residual(which, f).max_abs_coeff() for f in fs)
            checks.append(
                Check(
                    f"commutator[{which}]", "match", worst, 0.0, 0.0,
                    note=f"{n} randomized elements; residual must canonicalize to zero",
                )
            )
        return checks

    def unitarity() -> list[Check]:
        worst = 0.0
        for f, g in zip(fs, gs):
            ref = inner_product(f, g)
            img = inner_product(apply_G(f), apply_G(g))
            cs = max(norm(f) * norm(g), 1e-300)
            worst = max(worst, abs(img - ref) / cs)
        return [
            Check(
                "unitarity", "match", worst, 0.0, UNITARITY_TOL,
                note=f"worst |<Gf,Gg> - <f,g>| over {n} pairs, relative to ||f||*||g||",
            )
        ]

    def adjointness() -> list[Check]:
        worst = 0.0
        for f, g in zip(fs, gs):
            df = apply_D(f)
            dsg = apply_D_star(g)
            left = inner_product(df, g)
            right = inner_product(f, dsg)
            cs = max(norm(df) * norm(g), norm(f) * norm(dsg), 1e-300)
            worst = max(worst, abs(left - right) / cs)
        return [
            Check(
                "adjointness", "match", worst, 0.0, ADJOINT_TOL,
                note=f"worst |<Df,g> - <f,D*g>| over {n} pairs, relative scale",
            )
        ]

    def g_fourth() -> list[Check]:
        worst = 0.0
        cycle_breaks = 0
        for f in fs:
            imgs = [f]
            for _ in range(4):
                imgs.append(apply_G(imgs[-1]))
            back = imgs[4]
            if tuple(c for c, _ in back.terms) != tuple(c for c, _ in f.terms):
                cycle_breaks += 1
                continue
            inter_scale = max(el.max_abs_coeff() for el in imgs)
            if inter_scale > 0.0:
                worst = max(worst, sub(back, f).max_abs_coeff() / inter_scale)
        lhs = math.inf if cycle_breaks else worst
        return [
            Check(
                "g-fourth-power", "match", lhs, 0.0, G_FOURTH_TOL,
                note=(
                    f"exponent cycle exact on all {n} elements; residual relative to "
                    "the largest intermediate image coefficient"
                    if not cycle_breaks
                    else f"exponent cycle broken on {cycle_breaks} of {n} elements"
                ),
            )
        ]

    def hermite_diagonal() -> list[Check]:
        worst = 0.0
        for q in ALGEBRA_QS:
            for order in range(11):
                h_el = hermite_element(order, q)
                dev = sub(apply_G(h_el), scale(h_el, _MINUS_I_POW[order % 4]))
                worst = max(worst, dev.max_abs_coeff() / h_el.max_abs_coeff())
        return [
            Check(
                "hermite-diagonal", "match", worst, 0.0, HERMITE_TOL,
                note="G H_n = (-i)^n H_n for n <= 10, q in {0, 0.5, 1, 4}",
            )
        ]

    def hermite_roundtrip() -> list[Check]:
        rng = _rng(cfg.seed, 5)
        worst = 0.0
        for i in range(200):
            q = ALGEBRA_QS[i % 4]
            deg = int(rng.integers(0, 9))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            el = make_element(q, [(0.0, tuple(complex(v) for v in coeffs))])
            back = from_hermite(to_hermite(el))
            worst = max(worst, sub(back, el).max_abs_coeff() / el.max_abs_coeff())
        return [
            Check(
                "hermite-roundtrip", "match", worst, 0.0, HERMITE_ROUNDTRIP_TOL,
                note="from_hermite(to_hermite(p)) on 200 random polynomials",
            )
        ]

    return [
        ("check-algebra/commutators", commutators),
        ("check-algebra/unitarity", unitarity),
        ("check-algebra/adjointness", adjointness),
        ("check-algebra/g-fourth", g_fourth),
        ("check-algebra/hermite-diagonal", hermite_diagonal),
        ("check-algebra/hermite-roundtrip", hermite_roundtrip),
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

        def task(z=z, integral=integral) -> list[Check]:
            return [isometry_report(z, main.grid, integral)]

        tasks.append((f"isometry/{label}", task))
    return tasks


def _h1_tasks(cfg: RunConfig) -> list[Task]:
    def named() -> list[Check]:
        checks = []
        for case_name in cfg.h1_cases:
            case = parse_h1_case(case_name)
            y = make_element(case["q"], case["template"])
            chk = verify_h1(y, case["c"], case["ct"], tol=cfg.h1_tol)
            checks.append(dataclasses.replace(chk, case=f"h1[{case['name']}]"))
            if case["name"].endswith("equality"):
                checks.append(
                    Check(
                        f"h1-equality[{case['name']}]", "match", chk.lhs, chk.rhs,
                        cfg.h1_tol, note="derived equality case: slack must vanish",
                    )
                )
        return checks

    n = cfg.h1_n_random
    rng = _rng(cfg.seed, 4)
    params = []
    for i in range(n):
        y = random_element(rng, H1_QS[i % 3], max_degree=4, max_terms=2, c_bound=2.0)
        params.append((y, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))))

    def randomized() -> list[Check]:
        checks = [verify_h1(y, c, ct, tol=cfg.h1_tol) for y, c, ct in params]
        worst = min(checks, key=lambda chk: chk.slack)
        failures = sum(not chk.passed for chk in checks)
        return [
            dataclasses.replace(
                worst,
                case=f"h1-random-worst[n={n}]",
                note=(
                    f"minimum slack over {n} randomized cases at {worst.case}; "
                    f"{failures} failed"
                ),
            )
        ]

    return [("h1/named", named), ("h1/randomized", randomized)]


def _h2_tasks(cfg: RunConfig, main: _MainPaths) -> list[Task]:
    q = quadratic_variation_at(main.time_change, main.grid.horizon)
    tasks: list[Task] = []
    for case_name in cfg.h2_cases:
        case = parse_h2_case(case_name)
        y = ProcessElement.from_template(main.time_change, case["template"], case["name"])
        integrals = [main.integral(z) for z in h2_integrands(y, case["g"], case["g_tilde"])]

        def task(case=case, y=y, integrals=integrals) -> list[Check]:
            bound = h2_report(
                y, main.grid, *integrals,
                k_sigma=cfg.h2_k_sigma, disc_factor=cfg.h2_disc_factor,
            )
            if case["target_lhs"] is None:
                return [bound]
            target = Check(
                f"h2-target[{case['name']}]", "match", bound.lhs, case["target_lhs"](q),
                bound.allowance, bound.factor1, bound.factor2,
                note="LHS vs its derived closed-form target",
            )
            return [bound, target]

        tasks.append((f"h2/{case['name']}", task))
    return tasks


def _pde_tasks(cfg: RunConfig) -> list[Task]:
    tasks: list[Task] = []
    for c_str in cfg.pde_exponents:
        c = parse_complex(c_str)

        def task(c=c) -> list[Check]:
            worst = verify_pde(c, step=cfg.pde_step)
            return [
                Check(
                    f"pde[c={format_complex(c)}]", "match", worst, 0.0, PDE_TOL,
                    note=(
                        "max |u_xx/2 + u_y| for both element shapes, central "
                        f"differences at step {cfg.pde_step:g}"
                    ),
                )
            ]

        tasks.append((f"pde/{format_complex(c)}", task))
    return tasks


def _l2limit_tasks(cfg: RunConfig) -> list[Task]:
    h = parse_time_change(cfg.time_change)
    q = quadratic_variation_at(h, cfg.horizon)
    tasks: list[Task] = []
    for c_str in cfg.l2_exponents:
        c = parse_complex(c_str)

        def task(c=c) -> list[Check]:
            label = f"c={format_complex(c)}"
            if q == 0.0:
                return [
                    Check.skipped(
                        f"l2limit[{label}]",
                        "skipped: degenerate time change (q = 0, X identically 0)",
                    )
                ]
            norms = verify_l2_limit(c, q, ks=range(1, cfg.l2_k_max + 1))
            bad = sum(b >= a for a, b in zip(norms, norms[1:]))
            return [
                Check(
                    f"l2limit-final[{label}]", "match", norms[-1], 0.0, L2_FINAL_TOL,
                    note=f"norm at r = 2^-{cfg.l2_k_max}",
                ),
                Check(
                    f"l2limit-ratio[{label}]", "match", norms[-1] / norms[-2], 0.5,
                    L2_RATIO_TOL, note="successive-norm ratio, first-order convergence",
                ),
                Check(
                    f"l2limit-decreasing[{label}]", "match", float(bad), 0.0, 0.0,
                    note="count of non-decreasing steps in the norm sequence",
                ),
            ]

        tasks.append((f"l2limit/{format_complex(c)}", task))
    return tasks


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


def _guard(meta: _Meta, task: Task) -> Callable[[], list[Result]]:
    """Run a task; an overflow or any other exception becomes one failing row."""
    label, thunk = task

    def failed(note: str) -> list[Result]:
        chk = Check(label, "match", math.inf, 0.0, 0.0, note=note)
        return [(_Meta(meta.suite, meta.seed), chk)]

    def run_task() -> list[Result]:
        try:
            checks = list(thunk())
        except (EvaluationOverflowError, OverflowError) as e:
            return failed(f"overflow: {e}")
        except Exception as e:
            # one broken task must not lose the run: record it and go on
            _LOG.error("task %s raised", label, exc_info=True)
            return failed(f"error: {type(e).__name__}: {e}")
        return [(meta, chk) for chk in checks]

    return run_task


def _execute(tasks: list[tuple[_Meta, Task]], cfg: RunConfig) -> list[Result]:
    thunks = [_guard(*task) for task in tasks]
    if cfg.workers <= 1:
        results = [t() for t in thunks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(t) for t in thunks]
            results = [f.result() for f in futures]
    return [row for rows in results for row in rows]


# ---------------------------------------------------------------------------
# report files

_CSV_COLUMNS = (
    "suite", "case", "kind", "seed", "n_paths", "grid_steps", "horizon",
    "h_kind", "factor1_mean", "factor1_stderr", "factor2_mean",
    "factor2_stderr", "lhs_product", "rhs_exact", "slack", "allowance",
    "passed", "note",
)


def _fmt_complex_repr(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


def _csv_cells(meta: _Meta, chk: Check) -> list[str]:
    f1 = chk.factor1
    f2 = chk.factor2
    return [
        meta.suite, chk.case, chk.kind, str(meta.seed), str(meta.n_paths),
        str(meta.grid_steps), repr(meta.horizon), meta.h_kind,
        _fmt_complex_repr(f1.mean) if f1 else "",
        repr(f1.stderr) if f1 else "",
        _fmt_complex_repr(f2.mean) if f2 else "",
        repr(f2.stderr) if f2 else "",
        repr(chk.lhs), repr(chk.rhs), repr(chk.slack),
        repr(chk.allowance), str(chk.passed), chk.note,
    ]


def _json_case(meta: _Meta, chk: Check) -> dict:
    def est(e: Estimate | None):
        if e is None:
            return None
        return {"mean": _fmt_complex_repr(e.mean), "stderr": e.stderr, "n": e.n}

    return {
        "suite": meta.suite,
        "case": chk.case,
        "kind": chk.kind,
        "seed": meta.seed,
        "n_paths": meta.n_paths,
        "grid_steps": meta.grid_steps,
        "horizon": meta.horizon,
        "h_kind": meta.h_kind,
        "factor1": est(chk.factor1),
        "factor2": est(chk.factor2),
        "lhs_product": chk.lhs,
        "rhs_exact": chk.rhs,
        "slack": chk.slack,
        "allowance": chk.allowance,
        "passed": chk.passed,
        "note": chk.note,
        "extra": {k: v for k, v in chk.extra},
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_reports(
    rows: list[Result],
    cfg: RunConfig,
    suites: Sequence[str],
    telemetry: dict,
) -> tuple[str, str]:
    """Write report.csv and report.json; ``telemetry`` (what ``run`` returns
    besides the rows) goes into the JSON header."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "report.csv")
    json_path = os.path.join(cfg.out_dir, "report.json")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for meta, chk in rows:
            writer.writerow(_csv_cells(meta, chk))
    run_echo = dataclasses.asdict(cfg)
    # execution details that may legitimately differ between identical runs
    # live in the header; everything under "run" is semantic configuration
    run_echo.pop("workers")
    run_echo.pop("out_dir")
    run_echo["suites_run"] = list(suites)
    run_echo["version"] = __version__
    doc = {
        "header": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workers": cfg.workers,
            "out_dir": cfg.out_dir,
            **telemetry,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "run": run_echo,
        "cases": [_json_case(meta, chk) for meta, chk in rows],
    }
    with open(json_path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return csv_path, json_path


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
                        help="max concurrent cases and path-block threads "
                        "(results are worker-count independent)")
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
    run's telemetry: paths drawn per ensemble, and the count and highest dps
    of the algebra's mpmath escalations."""
    take_mp_stats()  # count this run's escalations only
    tasks, paths_generated = _build_tasks(cfg, suites)
    rows = _execute(tasks, cfg)
    telemetry = {"paths_generated": paths_generated, **take_mp_stats()}
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
    csv_path, json_path = write_reports(rows, cfg, suites, telemetry)
    for meta, chk in rows:
        flag = "PASS" if chk.passed else "FAIL"
        print(f"[{flag}] {meta.suite:<13} {chk.case:<44} "
              f"slack={chk.slack:<12.4g} allowance={chk.allowance:.4g}")
    failed = [(meta, chk) for meta, chk in rows if not chk.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed; "
          f"reports: {csv_path}, {json_path}")
    for meta, chk in failed:
        print(f"expmart: FAILED {meta.suite}: {chk.case} ({chk.note})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
