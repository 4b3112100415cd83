"""Acceptance gate: the ten headline checks at their contract scales.

Each test prints one [PASS]/[FAIL] banner with the measured figure and wall
time, then asserts the documented tolerance and runtime budget.  Sampled
checks use 4 standard errors plus a 1e-12 absolute floor (for degenerate
zero-variance cases); exact checks use the tolerances baked into the
library's own reports.
"""

import cmath
import json
import math
import time

import numpy as np

from expmart import (
    TimeChange,
    TimeGrid,
    apply_G,
    commutator_residual,
    generate,
    inner_product,
    make_exponential,
    mul,
    conjugate,
    norm,
    one_element,
    sub,
)
from expmart.cli import main, random_element
from expmart.verify import (
    Estimate,
    ProcessElement,
    evaluate_element,
    ito_integral,
    verify_h1,
    verify_isometry,
    verify_l2_limit,
    verify_pde,
)

SEED = 20260815
QS = (0.0, 0.5, 1.0, 4.0)


def _banner(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {label} — {detail}")


def test_criterion_01_commutator_residuals():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        f = random_element(rng, QS[i % 4], max_degree=8, max_terms=3, c_bound=3.0)
        scale_ref = max(f.max_abs_coeff(), 1.0)
        for which in ("DX", "DDstar", "DG", "DstarG"):
            res = commutator_residual(which, f)
            worst = max(worst, res.max_abs_coeff() / scale_ref)
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 5.0
    _banner(1, "commutator residuals on 1000 random elements", ok,
            f"worst relative {worst:.3e}, {dt:.2f}s")
    assert worst < 1e-12
    assert dt < 5.0


def test_criterion_02_transform_unitarity_and_order():
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    worst_unitary = 0.0
    worst_fourth = 0.0
    for i in range(1000):
        q = QS[i % 4]
        f = random_element(rng, q, max_degree=8, max_terms=3, c_bound=3.0)
        g = random_element(rng, q, max_degree=8, max_terms=3, c_bound=3.0)
        denom = max(norm(f) * norm(g), 1e-30)
        dev = abs(inner_product(apply_G(f), apply_G(g)) - inner_product(f, g))
        worst_unitary = max(worst_unitary, dev / denom)
        # fourth power returns every exponent bit-exactly; coefficients are
        # compared against the largest intermediate image, which is where
        # the (2|c|q)^degree growth lives
        chain = [f]
        for _ in range(4):
            chain.append(apply_G(chain[-1]))
        assert tuple(c for c, _ in chain[4].terms) == tuple(c for c, _ in f.terms)
        scale_ref = max(el.max_abs_coeff() for el in chain)
        if scale_ref > 0:
            worst_fourth = max(
                worst_fourth, sub(chain[4], f).max_abs_coeff() / scale_ref
            )
    dt = time.perf_counter() - t0
    ok = worst_unitary < 1e-9 and worst_fourth < 1e-12 and dt < 5.0
    _banner(2, "transform unitarity + fourth-power identity", ok,
            f"unitarity {worst_unitary:.3e}, identity {worst_fourth:.3e}, {dt:.2f}s")
    assert worst_unitary < 1e-9
    assert worst_fourth < 1e-12
    assert dt < 5.0


def test_criterion_03_two_point_formula_double_entry():
    t0 = time.perf_counter()
    ens = generate(TimeChange.identity(), TimeGrid.uniform(1.0, 1), 1_000_000, SEED)
    xs = ens.paths[:, -1]
    worst_alg = 0.0
    worst_margin = 0.0
    for c in (1, -1, 1j):
        for d in (1, -1, 1j):
            ref = cmath.exp(c * complex(d).conjugate())
            alg = inner_product(make_exponential(c, 1.0), make_exponential(d, 1.0))
            worst_alg = max(worst_alg, abs(alg - ref) / max(1.0, abs(ref)))
            el = mul(make_exponential(c, 1.0), conjugate(make_exponential(d, 1.0)))
            est = Estimate.from_samples(evaluate_element(el, xs))
            dev = abs(est.mean - ref)
            # 1e-12 floor: constant-product pairs have stderr at rounding level
            assert dev <= 4.0 * est.stderr + 1e-12
            worst_margin = max(worst_margin, dev / (4.0 * est.stderr + 1e-12))
    dt = time.perf_counter() - t0
    ok = worst_alg <= 1e-12 and dt < 30.0
    _banner(3, "two-point exponential formula, exact + sampled", ok,
            f"algebra dev {worst_alg:.3e}, worst sampled margin "
            f"{worst_margin:.2f} of bound, {dt:.2f}s")
    assert worst_alg <= 1e-12
    assert dt < 30.0


def test_criterion_04_difference_quotient_limit():
    t0 = time.perf_counter()
    worst_final = 0.0
    worst_ratio_err = 0.0
    for c in (0.0, 1.0, 1j):
        final, ratio, decreasing = verify_l2_limit(c, 1.0)
        assert decreasing.lhs == 0.0  # every norm below the one before
        worst_final = max(worst_final, final.lhs)
        worst_ratio_err = max(worst_ratio_err, abs(ratio.lhs - 0.5))
    dt = time.perf_counter() - t0
    ok = worst_final < 1e-3 and worst_ratio_err <= 0.05 and dt < 1.0
    _banner(4, "first-order convergence of difference quotients", ok,
            f"final {worst_final:.3e}, ratio dev {worst_ratio_err:.3f}, {dt:.2f}s")
    assert worst_final < 1e-3
    assert worst_ratio_err <= 0.05
    assert dt < 1.0


def test_criterion_05_pde_residuals():
    t0 = time.perf_counter()
    worst = max(verify_pde(c).lhs for c in (0.0, 1.0, 1j, 1 + 1j))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 5.0
    _banner(5, "heat-equation residuals on the sample box", ok,
            f"worst {worst:.3e}, {dt:.2f}s")
    assert worst <= 1e-6
    assert dt < 5.0


def test_criterion_06_fixed_time_inequality_suite():
    t0 = time.perf_counter()
    eq = verify_h1(one_element(1.0), 0.0, 0.0)
    assert abs(eq.lhs - 1.0) <= 1e-9
    assert abs(eq.rhs - 1.0) <= 1e-9
    assert abs(eq.slack) <= 1e-9

    rng = np.random.default_rng(SEED + 4)
    n_pass = n_run = 0
    min_slack = math.inf
    while n_run < 500:
        q = (0.25, 1.0, 4.0)[n_run % 3]
        y = random_element(rng, q, max_degree=4, max_terms=2, c_bound=2.0)
        if y.is_zero:
            continue
        c, ct = rng.uniform(-2.0, 2.0, size=2)
        chk = verify_h1(y, c, ct)
        n_run += 1
        n_pass += chk.passed
        min_slack = min(min_slack, chk.slack)
    dt = time.perf_counter() - t0
    ok = n_pass == 500 and dt < 10.0
    _banner(6, "fixed-time inequality, 500 randomized + equality case", ok,
            f"{n_pass}/500 pass, min slack {min_slack:.3e}, equality "
            f"slack {eq.slack:.1e}, {dt:.2f}s")
    assert n_pass == 500
    assert dt < 10.0


def _run_h2_preset(preset, tmp_path):
    out = tmp_path / preset
    rc = main(["h2", "--preset", preset, "--seed", str(SEED),
               "--out-dir", str(out)])
    doc = json.loads((out / "report.json").read_text())
    cases = {c["case"]: c for c in doc["cases"]}
    return rc, cases


def test_criterion_07_integrated_inequality_equality_case(tmp_path):
    t0 = time.perf_counter()
    rc, cases = _run_h2_preset("brownian-equality", tmp_path)
    dt = time.perf_counter() - t0
    bound = cases["h2[brownian-equality]"]
    target = cases["h2-target[brownian-equality]"]
    ok = (rc == 0 and bound["passed"] and target["passed"]
          and abs(bound["rhs_exact"] - 0.5) <= 1e-12 and dt < 60.0)
    _banner(7, "integrated inequality at its equality configuration", ok,
            f"lhs {bound['lhs_product']:.5f} vs 0.5, allowance "
            f"{target['allowance']:.4f}, {dt:.1f}s")
    assert rc == 0
    assert bound["passed"]
    # LHS and RHS both ~ 1/2: the target row allowance is exactly
    # 4 * propagated stderr + 10/M (+ the 1e-12 floor)
    assert abs(target["lhs_product"] - 0.5) <= target["allowance"]
    assert abs(bound["rhs_exact"] - 0.5) <= 1e-12
    assert dt < 60.0


def test_criterion_08_integrated_inequality_strict_case(tmp_path):
    t0 = time.perf_counter()
    rc, cases = _run_h2_preset("brownian-strict", tmp_path)
    dt = time.perf_counter() - t0
    bound = cases["h2[brownian-strict]"]
    target = cases["h2-target[brownian-strict]"]
    slack_dev = abs(bound["slack"] - 2.0 / 3.0)
    ok = (rc == 0 and bound["passed"]
          and abs(bound["rhs_exact"] - 1.0 / 3.0) <= 1e-6
          and slack_dev <= bound["allowance"] + 1e-6 and dt < 60.0)
    _banner(8, "integrated inequality, strictly separated case", ok,
            f"lhs {bound['lhs_product']:.5f} vs 1, rhs {bound['rhs_exact']:.6f} "
            f"vs 1/3, slack dev {slack_dev:.4f}, {dt:.1f}s")
    assert rc == 0
    assert bound["passed"]
    assert abs(target["lhs_product"] - 1.0) <= target["allowance"]
    # RHS is the exact integral up to trapezoid curvature error (~6.4e-7)
    assert abs(bound["rhs_exact"] - 1.0 / 3.0) <= 1e-6
    assert slack_dev <= bound["allowance"] + 1e-6
    assert dt < 60.0


def test_criterion_09_integral_isometry():
    t0 = time.perf_counter()
    h = TimeChange.identity()
    ens = generate(h, TimeGrid.uniform(1.0, 512), 100_000, SEED)
    chk_one, chk_x = (
        verify_isometry(z, ens.grid, lambda z=z: ito_integral(z, ens))
        for z in (ProcessElement.constant_one(h), ProcessElement.coordinate(h))
    )
    dt = time.perf_counter() - t0
    within = [abs(chk.slack) <= 4.0 * chk.factor1.stderr for chk in (chk_one, chk_x)]
    ok = (all(within)
          and chk_one.rhs == 1.0 and abs(chk_x.rhs - 0.5) <= 1e-12
          and dt < 60.0)
    _banner(9, "sampled vs exact integral energies", ok,
            f"{chk_one.note} (exact 1), {chk_x.note} (exact 1/2), {dt:.1f}s")
    assert chk_one.rhs == 1.0 and within[0]
    assert abs(chk_x.rhs - 0.5) <= 1e-12 and within[1]
    assert dt < 60.0


def test_criterion_10_reports_reproducible_across_workers(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for workers, tag in ((1, "w1"), (3, "w3")):
        out = tmp_path / tag
        rc = main(["all", "--seed", str(SEED), "--workers", str(workers),
                   "--out-dir", str(out)])
        assert rc == 0
        csv_bytes = (out / "report.csv").read_bytes()
        doc = json.loads((out / "report.json").read_text())
        outs.append((csv_bytes, doc))
    (csv1, doc1), (csv3, doc3) = outs
    body1 = {k: v for k, v in doc1.items() if k != "header"}
    body3 = {k: v for k, v in doc3.items() if k != "header"}
    dt = time.perf_counter() - t0
    ok = csv1 == csv3 and body1 == body3
    _banner(10, "byte-identical reports at different worker counts", ok,
            f"{len(csv1)} csv bytes, {len(doc1['cases'])} cases, {dt:.1f}s")
    assert doc1["header"]["workers"] == 1 and doc3["header"]["workers"] == 3
    assert csv1 == csv3
    assert body1 == body3
