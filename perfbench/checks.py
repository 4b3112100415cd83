"""Independent correctness checks on expmart's reports.

Every expected value here is computed by the benchmark itself: closed forms
of Gaussian moments, scipy quadrature over t, and Gauss-Hermite quadrature
over x, never a stored copy of an earlier report.  Each check is one
operation in the benchmark's ``attempted``/``failed`` counts.
"""

from __future__ import annotations

import cmath
import csv
import math
import random
import re

import numpy as np
from scipy.integrate import quad

from workloads import DISC_FACTOR, K_SIGMA, L2_K_MAX, Workload

# the suites `expmart all` runs; listed here so the checks import nothing from expmart
SUITES = ("check-algebra", "lemma2", "isometry", "h1", "h2", "pde", "l2limit")
PDE_TOL = 1e-6
# relative tolerance for values the program computes in closed form
EXACT_RTOL = 1e-12
# Gauss-Hermite results agree with the exact algebra to about 1e-13 here
GH_RTOL = 1e-9
L2_RATIO_TOL = 1e-3
# the l2limit norms are ~1e-4 and come from inner products that cancel 16
# digits; the program's escalated sums and the quadrature agree to ~1e-9
L2_RTOL = 1e-6
GH_NODES = 160

# named h1 cases at q = 1: (factor1, factor2, rhs) from Gaussian moments
# one-equality  Y = 1:       ||X|| = 1, ||X G1|| = 1, q||1||^2 = 1
# coordinate    Y = X:       ||X^2|| = sqrt 3, ||X (-iX)|| = sqrt 3, rhs 1
# exp-energy    Y = E(1):    E[X^2 E(1)^2] = 5e, |E(-i)|^2 = e, rhs e
# exp-equality  Y = E(1/2), c = 1: e^(1/8), e^(1/8), rhs e^(1/4)
H1_CLOSED = {
    "one-equality": (1.0, 1.0, 1.0),
    "coordinate": (math.sqrt(3.0), math.sqrt(3.0), 1.0),
    "exp-energy": (math.sqrt(5.0 * math.e), math.sqrt(math.e), math.e),
    "exp-equality": (math.exp(0.125), math.exp(0.125), math.exp(0.25)),
}


class Tally:
    """Counts of attempted and failed checks, with the failures' descriptions."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def read_report(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _cnum(row: dict, key: str) -> complex:
    return complex(row[key])


def _close(got: complex, want: complex, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _suites(wl: Workload) -> tuple[str, ...]:
    if wl.subcommand == "all":
        return SUITES
    return tuple(wl.sections["run"]["suites"].split())


def _exponents(wl: Workload, section: str) -> set[complex]:
    return {complex(s) for s in wl.sections[section]["exponents"].split()}


def _bracket(case: str, prefix: str) -> str | None:
    m = re.fullmatch(re.escape(prefix) + r"\[(.*)\]", case)
    return m.group(1) if m else None


def _parse_pair(label: str) -> tuple[complex, complex]:
    c, d = (part.split("=", 1)[1] for part in label.split(","))
    return complex(c), complex(d)


# ---------------------------------------------------------------------------
# quadrature

def integral(u, horizon: float = 1.0) -> float:
    value, _ = quad(u, 0.0, horizon, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


def trapezoid_error_bound(u, horizon: float, steps: int) -> float:
    """T dt^2 / 12 * max|u''|, with max|u''| from second differences of u."""
    h = 1e-3 * horizon
    ts = np.linspace(h, horizon - h, 999)
    second = max(abs(u(t + h) - 2.0 * u(t) + u(t - h)) / (h * h) for t in ts)
    dt = horizon / steps
    return 1.25 * horizon * dt * dt / 12.0 * second + 1e-12


def gauss_expectation(fn, q: float) -> complex:
    """E[fn(X)] for X ~ N(0, q) by Gauss-Hermite quadrature."""
    z, w = np.polynomial.hermite_e.hermegauss(GH_NODES)
    return complex(np.sum(w * fn(math.sqrt(q) * z)) / math.sqrt(2.0 * math.pi))


def l2_quotient_norm(c: complex, q: float, k: int) -> float:
    """|| (E(r) E(c) - E(c)) / r - X E(c) || at r = 2^-k.

    Pointwise E(r) E(c) = E(c) exp(r x - r^2 q / 2), so the element is
    E(c) (expm1(r x - r^2 q / 2) / r - x), which loses no digits in float64.
    """
    r = 2.0**-k

    def integrand(x):
        weight = np.exp(2.0 * c.real * x - (c * c).real * q)  # |E(c)(x)|^2
        g = np.expm1(r * x - 0.5 * r * r * q) / r - x
        return weight * g * g

    return math.sqrt(gauss_expectation(integrand, q).real)


def _evaluate_terms(terms, q: float, x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape, dtype=complex)
    for c, coeffs in terms:
        out += np.polynomial.polynomial.polyval(x, coeffs) * np.exp(c * x - 0.5 * c * c * q)
    return out


# ---------------------------------------------------------------------------
# report checks

def check_report(rows: list[dict], wl: Workload, tally: Tally) -> None:
    """Apply every check that fits the workload's suites to one report."""
    by_case = {row["case"]: row for row in rows}
    for row in rows:
        tally.check(row["passed"] == "True", f"report row failed: {row['suite']} {row['case']}")
    suites = _suites(wl)
    expected = _expected_rows(wl, suites)
    for suite, n in expected.items():
        got = sum(row["suite"] == suite for row in rows)
        tally.check(got == n, f"{suite}: {got} report rows, expected {n}")
    tally.check(len(rows) == sum(expected.values()), f"{len(rows)} report rows in all")
    if "check-algebra" in suites:
        _check_commutators(by_case, tally)
    if "h1" in suites:
        _check_h1(by_case, wl, tally)
    if "l2limit" in suites:
        _check_l2limit(by_case, wl, tally)
    if "lemma2" in suites:
        _check_lemma2(by_case, wl, tally)
    if "pde" in suites:
        _check_pde(by_case, wl, tally)
    if "isometry" in suites:
        _check_isometry(by_case, wl, tally)
    if "h2" in suites:
        _check_h2(by_case, wl, tally)


def _expected_rows(wl: Workload, suites: tuple[str, ...]) -> dict[str, int]:
    def count(section, key):
        return len(wl.sections[section][key].split())

    rows = {
        "check-algebra": 9,  # 4 commutators, unitarity, adjointness, G^4, 2 Hermite
        "lemma2": 2 * count("lemma2", "exponents") ** 2 if "lemma2" in suites else 0,
        "isometry": len(wl.isometry),
        "h1": 0,
        "h2": len(wl.h2) + sum(case.target is not None for case in wl.h2),
        "pde": count("pde", "exponents") if "pde" in suites else 0,
        "l2limit": 3 * count("l2limit", "exponents") if "l2limit" in suites else 0,
    }
    if "h1" in suites:
        names = wl.sections["h1"]["cases"].split()
        rows["h1"] = len(names) + sum(n.endswith("equality") for n in names) + 1
    return {suite: rows[suite] for suite in suites}


def _check_commutators(by_case: dict, tally: Tally) -> None:
    for which in ("DX", "DDstar", "DG", "DstarG"):
        row = by_case.get(f"commutator[{which}]")
        tally.check(
            row is not None and _num(row, "lhs_product") == 0.0 and _num(row, "slack") == 0.0,
            f"commutator[{which}] residual is not exactly zero",
        )


def _check_h1(by_case: dict, wl: Workload, tally: Tally) -> None:
    for name in wl.sections["h1"]["cases"].split():
        row = by_case.get(f"h1[{name}]")
        want = H1_CLOSED.get(name)
        if want is not None:
            got = None if row is None else (
                _num(row, "factor1_mean"), _num(row, "factor2_mean"), _num(row, "rhs_exact")
            )
            tally.check(
                got is not None and all(_close(g, w, EXACT_RTOL) for g, w in zip(got, want)),
                f"h1[{name}] factors/rhs {got} differ from closed form {want}",
            )
        if name.endswith("equality"):
            eq = by_case.get(f"h1-equality[{name}]")
            tally.check(
                eq is not None
                and _close(_num(eq, "lhs_product"), _num(eq, "rhs_exact"), EXACT_RTOL),
                f"h1-equality[{name}]: lhs != rhs",
            )


def _check_l2limit(by_case: dict, wl: Workload, tally: Tally) -> None:
    q = float(wl.sections["run"]["horizon"])  # identity time change: q = T
    k = int(wl.sections["l2limit"].get("k_max", L2_K_MAX))
    finals = {complex(_bracket(c, "l2limit-final")[2:]): r
              for c, r in by_case.items() if _bracket(c, "l2limit-final")}
    ratios = {complex(_bracket(c, "l2limit-ratio")[2:]): r
              for c, r in by_case.items() if _bracket(c, "l2limit-ratio")}
    expected = _exponents(wl, "l2limit")
    tally.check(set(finals) == expected == set(ratios), "l2limit rows do not match the exponents")
    for c in expected & set(finals) & set(ratios):
        n_k = l2_quotient_norm(c, q, k)
        n_prev = l2_quotient_norm(c, q, k - 1)
        got = _num(finals[c], "lhs_product")
        tally.check(
            abs(got - n_k) <= L2_RTOL * n_k,
            f"l2limit-final[c={c}] {got!r} vs Gauss-Hermite {n_k!r}",
        )
        ratio = _num(ratios[c], "lhs_product")
        tally.check(
            abs(ratio - n_k / n_prev) <= L2_RTOL and abs(ratio - 0.5) <= L2_RATIO_TOL,
            f"l2limit-ratio[c={c}] {ratio!r} vs Gauss-Hermite {n_k / n_prev!r} and 1/2",
        )


def _check_lemma2(by_case: dict, wl: Workload, tally: Tally) -> None:
    q = float(wl.sections["run"]["horizon"])
    exps = [complex(s) for s in wl.sections["lemma2"]["exponents"].split()]
    exact = {_parse_pair(_bracket(c, "lemma2-exact")): r
             for c, r in by_case.items() if _bracket(c, "lemma2-exact")}
    sampled = {_parse_pair(_bracket(c, "lemma2-mc")): r
               for c, r in by_case.items() if _bracket(c, "lemma2-mc")}
    pairs = {(c, d) for c in exps for d in exps}
    tally.check(set(exact) == pairs == set(sampled), "lemma2 rows do not match the exponent pairs")
    for c, d in pairs & set(exact) & set(sampled):
        ref = cmath.exp(c * d.conjugate() * q)
        row = exact[(c, d)]
        tally.check(
            _close(_cnum(row, "factor1_mean"), ref, EXACT_RTOL)
            and _close(_cnum(row, "factor2_mean"), ref, EXACT_RTOL),
            f"lemma2-exact[c={c},d={d}] differs from exp(c conj(d) q) = {ref}",
        )
        row = sampled[(c, d)]
        ok = row["factor1_mean"] != "" and (
            abs(_cnum(row, "factor1_mean") - ref)
            <= K_SIGMA * _num(row, "factor1_stderr") + 1e-12
        )
        tally.check(ok, f"lemma2-mc[c={c},d={d}] sampled mean is not within "
                        f"{K_SIGMA} stderr of exp(c conj(d) q) = {ref}")


def _check_pde(by_case: dict, wl: Workload, tally: Tally) -> None:
    found = {complex(_bracket(c, "pde")[2:]): r for c, r in by_case.items() if _bracket(c, "pde")}
    tally.check(set(found) == _exponents(wl, "pde"), "pde rows do not match the exponents")
    for c, row in found.items():
        res = _num(row, "lhs_product")
        tally.check(0.0 <= res <= PDE_TOL, f"pde[c={c}] residual {res!r} > {PDE_TOL}")


def _disc(wl: Workload) -> float:
    run = wl.sections["run"]
    return DISC_FACTOR * float(run["horizon"]) / int(run["grid_steps"])


def _check_isometry(by_case: dict, wl: Workload, tally: Tally) -> None:
    horizon = float(wl.sections["run"]["horizon"])
    steps = int(wl.sections["run"]["grid_steps"])
    for case in wl.isometry:
        row = by_case.get(f"isometry[{case.label}]")
        if not tally.check(row is not None, f"isometry[{case.label}] row missing"):
            continue
        exact = integral(case.energy, horizon)
        rhs = _num(row, "rhs_exact")
        tally.check(
            abs(rhs - exact) <= trapezoid_error_bound(case.energy, horizon, steps),
            f"isometry[{case.label}] rhs_exact {rhs!r} vs closed form {exact!r}",
        )
        lhs = _num(row, "lhs_product")
        tally.check(
            abs(lhs - exact) <= _num(row, "allowance") + _disc(wl),
            f"isometry[{case.label}] sampled energy {lhs!r} vs closed form {exact!r}",
        )


def _check_h2(by_case: dict, wl: Workload, tally: Tally) -> None:
    horizon = float(wl.sections["run"]["horizon"])
    steps = int(wl.sections["run"]["grid_steps"])
    disc = _disc(wl)
    for case in wl.h2:
        row = by_case.get(f"h2[{case.name}]")
        if not tally.check(row is not None, f"h2[{case.name}] row missing"):
            continue
        exact = integral(case.rhs, horizon)
        rhs = _num(row, "rhs_exact")
        tally.check(
            abs(rhs - exact) <= trapezoid_error_bound(case.rhs, horizon, steps),
            f"h2[{case.name}] rhs_exact {rhs!r} vs closed form {exact!r}",
        )
        for i, energy in ((1, case.energy1), (2, case.energy2)):
            f = _num(row, f"factor{i}_mean")
            s = _num(row, f"factor{i}_stderr")
            want = integral(energy, horizon)
            # the factor is sqrt of a sample mean; its stderr came through the
            # delta method, so the mean's own stderr is 2 f s
            tally.check(
                abs(f * f - want) <= K_SIGMA * 2.0 * f * s + disc + 1e-12,
                f"h2[{case.name}] factor{i}^2 {f * f!r} vs Ito-isometry energy {want!r}",
            )
        if case.target is not None:
            tgt = by_case.get(f"h2-target[{case.name}]")
            tally.check(
                tgt is not None
                and _num(tgt, "rhs_exact") == case.target
                and abs(_num(tgt, "lhs_product") - case.target) <= _num(tgt, "allowance"),
                f"h2-target[{case.name}] does not meet the derived target {case.target}",
            )


# ---------------------------------------------------------------------------
# in-process spot check of the exact inner product

def spot_check_inner_products(algebra, seed: int, tally: Tally, pairs: int = 6) -> None:
    """<f, g> from ``algebra.inner_product`` against Gauss-Hermite quadrature."""
    rng = random.Random(f"spot-check:{seed}")

    def terms():
        out = []
        for _ in range(rng.randint(1, 2)):
            c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            deg = rng.randint(0, 4)
            out.append((c, tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(deg + 1))))
        return out

    for i in range(pairs):
        q = (0.5, 1.0, 2.0)[i % 3]
        ft, gt = terms(), terms()
        got = algebra.inner_product(algebra.make_element(q, ft), algebra.make_element(q, gt))
        want = gauss_expectation(
            lambda x: _evaluate_terms(ft, q, x) * np.conj(_evaluate_terms(gt, q, x)), q
        )
        nf = math.sqrt(gauss_expectation(lambda x: abs(_evaluate_terms(ft, q, x)) ** 2, q).real)
        ng = math.sqrt(gauss_expectation(lambda x: abs(_evaluate_terms(gt, q, x)) ** 2, q).real)
        tally.check(
            abs(got - want) <= GH_RTOL * nf * ng,
            f"inner_product spot check {i}: {got!r} vs Gauss-Hermite {want!r}",
        )
