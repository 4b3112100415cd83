"""Batch verification runner.

Each subcommand runs one suite (or ``all`` runs the full battery) against a
single RunConfig, producing ``report.csv`` and ``report.json`` in the output
directory plus one PASS/FAIL console line per check.

Report rows come in two kinds.  ``bound`` rows are inequalities: they pass
when slack = lhs_product - rhs_exact >= -allowance.  ``match`` rows are
equalities or residual bounds: they pass when |slack| <= allowance.  Every
statistical allowance is k_sigma standard errors plus a 1e-12 absolute floor;
the floor keeps degenerate cases (constant integrands, exact cancellations)
from failing on pure rounding noise when their sample variance collapses.

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
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .algebra import (
    PolyExpElement,
    apply_D,
    apply_D_star,
    apply_G,
    commutator_residual,
    conjugate,
    from_hermite,
    hermite_element,
    inner_product,
    make_element,
    make_exponential,
    mul,
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
    Estimate,
    EvaluationOverflowError,
    ProcessElement,
    h2_integrands,
    h2_report,
    isometry_report,
    ito_sweep,
    lemma2_case,
    mc_expectation,
    verify_h1,
    verify_l2_limit,
    verify_pde,
)

__all__ = ["main", "run", "random_element", "Row"]

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
LEMMA2_EXACT_TOL = 1e-12
PDE_TOL = 1e-6
L2_FINAL_TOL = 1e-3
L2_RATIO_TOL = 0.05
MC_FLOOR = 1e-12

# (-i)^n without complex powers, so eigenvalue checks stay exact
_MINUS_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)

_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# report rows

@dataclass(frozen=True)
class Row:
    suite: str
    case: str
    kind: str  # "bound" or "match"
    seed: int
    n_paths: int
    grid_steps: int
    horizon: float
    h_kind: str
    factor1: Estimate | None
    factor2: Estimate | None
    lhs_product: float
    rhs_exact: float
    slack: float
    allowance: float
    passed: bool
    note: str = ""
    extra: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class _Meta:
    seed: int
    n_paths: int
    grid_steps: int
    horizon: float
    h_kind: str


def _bound_row(suite, case, meta, f1, f2, lhs, rhs, allowance, note="", extra=()):
    slack = lhs - rhs
    return Row(
        suite, case, "bound", meta.seed, meta.n_paths, meta.grid_steps,
        meta.horizon, meta.h_kind, f1, f2, lhs, rhs, slack, allowance,
        slack >= -allowance, note, tuple(extra),
    )


def _match_row(suite, case, meta, lhs, rhs, allowance, f1=None, f2=None, note="", extra=()):
    slack = lhs - rhs
    return Row(
        suite, case, "match", meta.seed, meta.n_paths, meta.grid_steps,
        meta.horizon, meta.h_kind, f1, f2, lhs, rhs, slack, allowance,
        abs(slack) <= allowance, note, tuple(extra),
    )


def _skip_row(suite, case, meta, note):
    return Row(
        suite, case, "match", meta.seed, meta.n_paths, meta.grid_steps,
        meta.horizon, meta.h_kind, None, None, 0.0, 0.0, 0.0, 0.0, True, note,
    )


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


def _fmt_c(z: complex) -> str:
    z = complex(z)
    re = f"{z.real:g}"
    if z.imag == 0.0:
        return re
    return f"{re}{'+' if z.imag >= 0 else '-'}{abs(z.imag):g}j"


# ---------------------------------------------------------------------------
# suites: each builder returns [(label, thunk)] with thunk() -> list[Row]

Task = tuple[str, Callable[[], "list[Row]"]]


def _check_algebra_tasks(cfg: RunConfig) -> list[Task]:
    meta = _Meta(cfg.seed, 0, 0, 0.0, "-")
    n = cfg.algebra_n_random
    rng_f = _rng(cfg.seed, 2)
    rng_g = _rng(cfg.seed, 3)
    fs = [random_element(rng_f, ALGEBRA_QS[i % 4]) for i in range(n)]
    gs = [random_element(rng_g, ALGEBRA_QS[i % 4]) for i in range(n)]
    suite = "check-algebra"

    def commutators() -> list[Row]:
        rows = []
        for which in ("DX", "DDstar", "DG", "DstarG"):
            worst = max(commutator_residual(which, f).max_abs_coeff() for f in fs)
            rows.append(
                _match_row(
                    suite, f"commutator[{which}]", meta, worst, 0.0, 0.0,
                    note=f"{n} randomized elements; residual must canonicalize to zero",
                )
            )
        return rows

    def unitarity() -> list[Row]:
        worst = 0.0
        for f, g in zip(fs, gs):
            ref = inner_product(f, g)
            img = inner_product(apply_G(f), apply_G(g))
            cs = max(norm(f) * norm(g), 1e-300)
            worst = max(worst, abs(img - ref) / cs)
        return [
            _match_row(
                suite, "unitarity", meta, worst, 0.0, UNITARITY_TOL,
                note=f"worst |<Gf,Gg> - <f,g>| over {n} pairs, relative to ||f||*||g||",
            )
        ]

    def adjointness() -> list[Row]:
        worst = 0.0
        for f, g in zip(fs, gs):
            df = apply_D(f)
            dsg = apply_D_star(g)
            left = inner_product(df, g)
            right = inner_product(f, dsg)
            cs = max(norm(df) * norm(g), norm(f) * norm(dsg), 1e-300)
            worst = max(worst, abs(left - right) / cs)
        return [
            _match_row(
                suite, "adjointness", meta, worst, 0.0, ADJOINT_TOL,
                note=f"worst |<Df,g> - <f,D*g>| over {n} pairs, relative scale",
            )
        ]

    def g_fourth() -> list[Row]:
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
            _match_row(
                suite, "g-fourth-power", meta, lhs, 0.0, G_FOURTH_TOL,
                note=(
                    f"exponent cycle exact on all {n} elements; residual relative to "
                    "the largest intermediate image coefficient"
                    if not cycle_breaks
                    else f"exponent cycle broken on {cycle_breaks} of {n} elements"
                ),
            )
        ]

    def hermite_diagonal() -> list[Row]:
        worst = 0.0
        for q in ALGEBRA_QS:
            for order in range(11):
                h_el = hermite_element(order, q)
                dev = sub(apply_G(h_el), scale(h_el, _MINUS_I_POW[order % 4]))
                worst = max(worst, dev.max_abs_coeff() / h_el.max_abs_coeff())
        return [
            _match_row(
                suite, "hermite-diagonal", meta, worst, 0.0, HERMITE_TOL,
                note="G H_n = (-i)^n H_n for n <= 10, q in {0, 0.5, 1, 4}",
            )
        ]

    def hermite_roundtrip() -> list[Row]:
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
            _match_row(
                suite, "hermite-roundtrip", meta, worst, 0.0, HERMITE_ROUNDTRIP_TOL,
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
    h = ensemble.time_change
    t = ensemble.grid.horizon
    q = quadratic_variation_at(h, t)
    meta = _Meta(cfg.seed, ensemble.n_paths, ensemble.grid.steps, t, h.kind)
    suite = "lemma2"
    tasks: list[Task] = []
    exps = [parse_complex(s) for s in cfg.lemma2_exponents]
    for c in exps:
        for d in exps:
            label = f"c={_fmt_c(c)},d={_fmt_c(d)}"

            def task(c=c, d=d, label=label) -> list[Row]:
                res = lemma2_case(c, d, q)
                rows = [
                    _match_row(
                        suite, f"lemma2-exact[{label}]", meta,
                        res["algebra_deviation"], 0.0, LEMMA2_EXACT_TOL,
                        f1=Estimate.exact(res["algebra"]),
                        f2=Estimate.exact(res["reference"]),
                        note="inner product vs exp(c*conj(d)*q)",
                    )
                ]
                try:
                    element = mul(make_exponential(c, q), conjugate(make_exponential(d, q)))
                    est = mc_expectation(element, ensemble)
                except EvaluationOverflowError as e:
                    rows.append(
                        _skip_row(
                            suite, f"lemma2-mc[{label}]", meta,
                            f"skipped: evaluation overflow ({e.max_real:.3g})",
                        )
                    )
                    return rows
                dev = abs(est.mean - res["reference"])
                allowance = 4.0 * est.stderr + MC_FLOOR
                rows.append(
                    _match_row(
                        suite, f"lemma2-mc[{label}]", meta, dev, 0.0, allowance,
                        f1=est, f2=Estimate.exact(res["reference"]),
                        note="sample mean of E(c)*conj(E(d)) vs exp(c*conj(d)*q)",
                    )
                )
                return rows

            tasks.append((f"lemma2/{label}", task))
    return tasks


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
        self.meta = _Meta(cfg.seed, cfg.paths, self.grid.steps, self.grid.horizon, h.kind)
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
    meta = main.meta
    tasks: list[Task] = []
    for case_name in cfg.isometry_cases:
        label, template = parse_isometry_case(case_name)
        z = ProcessElement.from_template(main.time_change, template, label)
        integral = main.integral(z)

        def task(z=z, integral=integral) -> list[Row]:
            rep = isometry_report(z, main.grid, integral)
            allowance = 4.0 * rep.mc.stderr + MC_FLOOR
            return [
                _match_row(
                    "isometry", rep.case, meta, rep.mc.mean.real, rep.exact,
                    allowance, f1=rep.mc, f2=Estimate.exact(rep.exact),
                    note=f"z={rep.z:.3f}",
                )
            ]

        tasks.append((f"isometry/{label}", task))
    return tasks


def _h1_tasks(cfg: RunConfig) -> list[Task]:
    meta = _Meta(cfg.seed, 0, 0, 0.0, "-")
    suite = "h1"
    tasks: list[Task] = []

    def named() -> list[Row]:
        rows = []
        for case_name in cfg.h1_cases:
            case = parse_h1_case(case_name)
            y = make_element(case["q"], case["template"])
            rep = verify_h1(y, case["c"], case["ct"], tol=cfg.h1_tol)
            rows.append(
                _bound_row(
                    suite, f"h1[{case['name']}]", meta, rep.lhs_factor1,
                    rep.lhs_factor2, rep.lhs_product, rep.rhs, rep.allowance,
                )
            )
            if case["name"].endswith("equality"):
                rows.append(
                    _match_row(
                        suite, f"h1-equality[{case['name']}]", meta,
                        rep.lhs_product, rep.rhs, cfg.h1_tol,
                        note="derived equality case: slack must vanish",
                    )
                )
        return rows

    tasks.append(("h1/named", named))

    n = cfg.h1_n_random
    rng = _rng(cfg.seed, 4)
    params = []
    for i in range(n):
        y = random_element(rng, H1_QS[i % 3], max_degree=4, max_terms=2, c_bound=2.0)
        params.append((y, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))))

    def randomized() -> list[Row]:
        worst = None
        failures = 0
        for y, c, ct in params:
            rep = verify_h1(y, c, ct, tol=cfg.h1_tol)
            failures += not rep.passed
            if worst is None or rep.slack < worst.slack:
                worst = rep
        return [
            _bound_row(
                suite, f"h1-random-worst[n={n}]", meta, worst.lhs_factor1,
                worst.lhs_factor2, worst.lhs_product, worst.rhs, worst.allowance,
                note=(
                    f"minimum slack over {n} randomized cases at {worst.case}; "
                    f"{failures} failed"
                ),
            )
        ]

    tasks.append(("h1/randomized", randomized))
    return tasks


def _h2_tasks(cfg: RunConfig, main: _MainPaths) -> list[Task]:
    meta = main.meta
    tasks: list[Task] = []
    for case_name in cfg.h2_cases:
        case = parse_h2_case(case_name)
        y = ProcessElement.from_template(main.time_change, case["template"], case["name"])
        integrals = [main.integral(z) for z in h2_integrands(y, case["g"], case["g_tilde"])]

        def task(case=case, y=y, integrals=integrals) -> list[Row]:
            rep = h2_report(
                y, main.grid, *integrals,
                k_sigma=cfg.h2_k_sigma, disc_factor=cfg.h2_disc_factor,
                case=f"h2[{case['name']}]",
            )
            allowance = rep.allowance + MC_FLOOR
            rows = [
                _bound_row(
                    "h2", rep.case, meta, rep.lhs_factor1, rep.lhs_factor2,
                    rep.lhs_product, rep.rhs, allowance,
                    note="RHS by trapezoid in t; refinement study in extra",
                    extra=rep.extra,
                )
            ]
            if case["target_lhs"] is not None:
                rows.append(
                    _match_row(
                        "h2", f"h2-target[{case['name']}]", meta, rep.lhs_product,
                        case["target_lhs"], allowance,
                        f1=rep.lhs_factor1, f2=rep.lhs_factor2,
                        note="LHS vs its derived closed-form target",
                    )
                )
            return rows

        tasks.append((f"h2/{case['name']}", task))
    return tasks


def _pde_tasks(cfg: RunConfig) -> list[Task]:
    meta = _Meta(cfg.seed, 0, 0, 0.0, "-")
    tasks: list[Task] = []
    for c_str in cfg.pde_exponents:
        c = parse_complex(c_str)

        def task(c=c) -> list[Row]:
            worst = verify_pde(c, step=cfg.pde_step)
            return [
                _match_row(
                    "pde", f"pde[c={_fmt_c(c)}]", meta, worst, 0.0, PDE_TOL,
                    note=(
                        "max |u_xx/2 + u_y| for both element shapes, central "
                        f"differences at step {cfg.pde_step:g}"
                    ),
                )
            ]

        tasks.append((f"pde/{_fmt_c(c)}", task))
    return tasks


def _l2limit_tasks(cfg: RunConfig) -> list[Task]:
    meta = _Meta(cfg.seed, 0, 0, cfg.horizon, cfg.time_change)
    h = parse_time_change(cfg.time_change)
    q = quadratic_variation_at(h, cfg.horizon)
    tasks: list[Task] = []
    for c_str in cfg.l2_exponents:
        c = parse_complex(c_str)

        def task(c=c) -> list[Row]:
            label = f"c={_fmt_c(c)}"
            if q == 0.0:
                return [
                    _skip_row(
                        "l2limit", f"l2limit[{label}]", meta,
                        "skipped: degenerate time change (q = 0, X identically 0)",
                    )
                ]
            norms = verify_l2_limit(c, q, ks=range(1, cfg.l2_k_max + 1))
            bad = sum(b >= a for a, b in zip(norms, norms[1:]))
            return [
                _match_row(
                    "l2limit", f"l2limit-final[{label}]", meta, norms[-1], 0.0,
                    L2_FINAL_TOL, note=f"norm at r = 2^-{cfg.l2_k_max}",
                ),
                _match_row(
                    "l2limit", f"l2limit-ratio[{label}]", meta,
                    norms[-1] / norms[-2], 0.5, L2_RATIO_TOL,
                    note="successive-norm ratio, first-order convergence",
                ),
                _match_row(
                    "l2limit", f"l2limit-decreasing[{label}]", meta, float(bad),
                    0.0, 0.0, note="count of non-decreasing steps in the norm sequence",
                ),
            ]

        tasks.append((f"l2limit/{_fmt_c(c)}", task))
    return tasks


# ---------------------------------------------------------------------------
# orchestration

def _build_tasks(cfg: RunConfig, suites: Sequence[str]) -> tuple[list[Task], dict[str, int]]:
    """The tasks of the suites, and the paths drawn per ensemble (main, lemma2).

    The main ensemble is never materialized: its integrands' Ito sums come
    from one ``ito_sweep`` over path blocks, run here before any task.
    """
    h = parse_time_change(cfg.time_change)
    main = _MainPaths(cfg, h)
    lemma2 = None
    if "lemma2" in suites:
        lemma2 = generate(h, TimeGrid.uniform(cfg.horizon, 1), cfg.lemma2_paths, cfg.seed + 1)
    tasks: list[Task] = []
    for suite in suites:
        if suite == "check-algebra":
            tasks.extend(_check_algebra_tasks(cfg))
        elif suite == "lemma2":
            tasks.extend(_lemma2_tasks(cfg, lemma2))
        elif suite == "isometry":
            tasks.extend(_isometry_tasks(cfg, main))
        elif suite == "h1":
            tasks.extend(_h1_tasks(cfg))
        elif suite == "h2":
            tasks.extend(_h2_tasks(cfg, main))
        elif suite == "pde":
            tasks.extend(_pde_tasks(cfg))
        elif suite == "l2limit":
            tasks.extend(_l2limit_tasks(cfg))
        else:
            raise ConfigError(f"unknown suite {suite!r}")
    paths_generated = {
        "main": main.sweep(),
        "lemma2": lemma2.n_paths if lemma2 is not None else 0,
    }
    return tasks, paths_generated


def _guard(label: str, thunk: Callable[[], list[Row]], cfg: RunConfig) -> Callable[[], list[Row]]:
    """Run a task; an overflow or any other exception becomes one failing row."""
    suite = label.split("/", 1)[0]

    def failed(note: str) -> list[Row]:
        return [
            Row(
                suite, label, "match", cfg.seed, 0, 0, 0.0, "-", None, None,
                math.inf, 0.0, math.inf, 0.0, False, note,
            )
        ]

    def run_task() -> list[Row]:
        try:
            return thunk()
        except (EvaluationOverflowError, OverflowError) as e:
            return failed(f"overflow: {e}")
        except Exception as e:
            # one broken task must not lose the run: record it and go on
            _LOG.error("task %s raised", label, exc_info=True)
            return failed(f"error: {type(e).__name__}: {e}")

    return run_task


def _execute(tasks: list[Task], cfg: RunConfig) -> list[Row]:
    thunks = [_guard(label, thunk, cfg) for label, thunk in tasks]
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


def _csv_cells(row: Row) -> list[str]:
    f1 = row.factor1
    f2 = row.factor2
    return [
        row.suite, row.case, row.kind, str(row.seed), str(row.n_paths),
        str(row.grid_steps), repr(row.horizon), row.h_kind,
        _fmt_complex_repr(f1.mean) if f1 else "",
        repr(f1.stderr) if f1 else "",
        _fmt_complex_repr(f2.mean) if f2 else "",
        repr(f2.stderr) if f2 else "",
        repr(row.lhs_product), repr(row.rhs_exact), repr(row.slack),
        repr(row.allowance), str(row.passed), row.note,
    ]


def _json_case(row: Row) -> dict:
    def est(e: Estimate | None):
        if e is None:
            return None
        return {"mean": _fmt_complex_repr(e.mean), "stderr": e.stderr, "n": e.n}

    return {
        "suite": row.suite,
        "case": row.case,
        "kind": row.kind,
        "seed": row.seed,
        "n_paths": row.n_paths,
        "grid_steps": row.grid_steps,
        "horizon": row.horizon,
        "h_kind": row.h_kind,
        "factor1": est(row.factor1),
        "factor2": est(row.factor2),
        "lhs_product": row.lhs_product,
        "rhs_exact": row.rhs_exact,
        "slack": row.slack,
        "allowance": row.allowance,
        "passed": row.passed,
        "note": row.note,
        "extra": {k: v for k, v in row.extra},
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_reports(
    rows: list[Row],
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
        for row in rows:
            writer.writerow(_csv_cells(row))
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
        "cases": [_json_case(row) for row in rows],
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


def run(cfg: RunConfig, suites: Sequence[str]) -> tuple[list[Row], int, dict]:
    """Run the suites; return the rows, the exit status (0/1/3/4) and the
    run's telemetry: paths drawn per ensemble, and the count and highest dps
    of the algebra's mpmath escalations."""
    take_mp_stats()  # count this run's escalations only
    tasks, paths_generated = _build_tasks(cfg, suites)
    rows = _execute(tasks, cfg)
    telemetry = {"paths_generated": paths_generated, **take_mp_stats()}
    if any(row.note.startswith("error:") for row in rows):
        status = 4
    elif any(row.note.startswith("overflow:") for row in rows):
        status = 3
    else:
        status = 1 if any(not row.passed for row in rows) else 0
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
    for row in rows:
        flag = "PASS" if row.passed else "FAIL"
        print(f"[{flag}] {row.suite:<13} {row.case:<44} "
              f"slack={row.slack:<12.4g} allowance={row.allowance:.4g}")
    n_failed = sum(not row.passed for row in rows)
    print(f"{len(rows) - n_failed}/{len(rows)} checks passed; "
          f"reports: {csv_path}, {json_path}")
    if n_failed:
        for row in rows:
            if not row.passed:
                print(f"expmart: FAILED {row.suite}: {row.case} ({row.note})",
                      file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
