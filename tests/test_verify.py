"""Monte-Carlo verification layer tests.

The double-entry rule: everything sampled is compared against the exact
algebra value at 4 standard errors; everything exact is pinned to a closed
form derived independently in the comments.  The telescoping-integral case
asserts bitwise equality — in binary round-to-nearest, fl(a+b) - a is always
exactly representable, so sequential cumulative sums telescope without error.
"""

import math
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from expmart import (
    PiecewiseLinear,
    TimeChange,
    TimeGrid,
    VarianceMismatchError,
    expectation,
    generate,
    inner_product,
    make_element,
    make_exponential,
    mul,
    one_element,
    zero_element,
)
from expmart.cli import random_element
from expmart.verify import (
    Check,
    Estimate,
    EvaluationOverflowError,
    ProcessElement,
    energy_integral,
    evaluate_element,
    MC_FLOOR,
    h2_integrands,
    ito_integral,
    mc_expectation,
    pde_grid,
    verify_h1,
    verify_h2,
    verify_isometry,
    verify_l2_limit,
    verify_lemma2,
    verify_pde,
    weighted_energy_integral,
)

H_ID = TimeChange.identity()


@pytest.fixture(scope="module")
def big_ens():
    """One N=1e5, M=512 Brownian ensemble shared by the integral checks."""
    return generate(H_ID, TimeGrid.uniform(1.0, 512), 100_000, seed=2026)


@pytest.fixture(scope="module")
def flat_ens():
    """1e6 draws of X_1 (single-step grid) for fixed-time expectations."""
    return generate(H_ID, TimeGrid.uniform(1.0, 1), 1_000_000, seed=7)


# ---------------------------------------------------------------------------
# pointwise evaluation

def test_evaluate_constant():
    assert evaluate_element(one_element(1.0), 3.7) == 1.0


def test_evaluate_exponential_martingale():
    got = evaluate_element(make_exponential(1.0, 1.0), 1.0)
    assert got == pytest.approx(math.exp(0.5), rel=1e-14)


def test_evaluate_coordinate():
    f = make_element(1.0, [(0.0, (0.0, 1.0))])
    assert evaluate_element(f, -2.5) == -2.5


def test_evaluate_vectorized_matches_scalar():
    elements = [
        make_element(2.0, [(0.5 - 1j, (1.0, 2.0, 0.5j)), (0.0, (0.0, 1.0))]),
        # a real and a complex exponent: float64 exp, and exp(w) * val on
        # one point must give the bits it gives on many
        make_element(1.5, [(0.7, (1.0, -0.5)), (0.3 + 0.8j, (0.5j, 1.0 + 1j))]),
    ]
    xs = np.linspace(-3, 3, 11)
    for f in elements:
        vec = evaluate_element(f, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == evaluate_element(f, float(x))


@pytest.mark.parametrize(
    "f",
    [make_element(1.0, [(0.0, (1.0, 2.0))]), make_exponential(1.0, 1.0),
     make_exponential(0.5j, 1.0)],
    ids=["polynomial", "real-exponent", "complex-exponent"],
)
def test_evaluate_on_no_points_is_empty(f):
    got = evaluate_element(f, np.empty(0))
    assert got.shape == (0,) and got.dtype == complex


def test_evaluate_overflow_is_flagged():
    f = make_exponential(-40.0, 0.0)
    with pytest.raises(EvaluationOverflowError):
        evaluate_element(f, -20.0)  # exponent real part 800


@pytest.mark.parametrize("points", [[np.nan, 800.0], [np.inf], [1.0, -np.inf], np.nan])
def test_evaluate_rejects_non_finite_points(points):
    # a NaN must not hide the overflow at 800 behind a NaN maximum
    with pytest.raises(ValueError, match="finite"):
        evaluate_element(make_exponential(1.0, 1.0), np.array(points))


# ---------------------------------------------------------------------------
# estimates

def test_estimate_from_samples():
    e = Estimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
    assert e.mean == 2.5 and e.n == 4
    assert e.stderr == pytest.approx(math.sqrt(np.var([1, 2, 3, 4], ddof=1) / 4))
    assert e.z_against(2.5) == 0.0
    assert e.z_against(3.0) == pytest.approx(0.5 / e.stderr)


def test_exact_estimate_sentinel():
    e = Estimate.exact(2 + 1j)
    assert e.n == 0 and e.stderr == 0.0
    assert e.z_against(2 + 1j) == 0.0
    assert e.z_against(2.0) == math.inf


def test_estimate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Estimate(mean=1.0, stderr=0.1, n=1)
    with pytest.raises(ValueError):
        Estimate(mean=1.0, stderr=-0.1, n=5)
    with pytest.raises(ValueError):
        Estimate.from_samples(np.array([1.0]))


def test_estimate_flags_sample_overflow():
    vals = np.full(100, 1e200)
    vals[0] = -1e200
    with pytest.raises(EvaluationOverflowError):
        Estimate.from_samples(vals)  # variance of these overflows float64


@pytest.mark.parametrize(
    "error",
    [EvaluationOverflowError(1 + 0j, 1.0, 800.0), EvaluationOverflowError(message="moments")],
    ids=["exponent", "message"],
)
def test_overflow_error_survives_pickling(error):
    # a forked job that raises it hands it to its parent pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is EvaluationOverflowError
    assert (str(copy), copy.exponent, copy.q, copy.max_real) == (
        str(error), error.exponent, error.q, error.max_real
    )


# ---------------------------------------------------------------------------
# sampled vs exact expectations

def test_mc_expectation_of_martingale_is_one(flat_ens):
    est = mc_expectation(make_exponential(1.0, 1.0), flat_ens)
    assert est.z_against(1.0) <= 4.0


def test_mc_expectation_of_squared_martingale(flat_ens):
    f = mul(make_exponential(1.0, 1.0), make_exponential(1.0, 1.0))
    assert mc_expectation(f, flat_ens).z_against(math.e) <= 4.0


def test_mc_expectation_of_zero_element(flat_ens):
    est = mc_expectation(zero_element(1.0), flat_ens)
    assert est.mean == 0.0 and est.stderr == 0.0 and est.n == flat_ens.n_paths


def test_mc_expectation_checks_variance(flat_ens):
    with pytest.raises(VarianceMismatchError):
        mc_expectation(make_exponential(1.0, 2.0), flat_ens)


def test_mc_matches_exact_expectation_on_random_elements(flat_ens):
    # the central double-entry property, on a tame family (small exponents
    # so the sample estimator has finite-looking tails at this N)
    rng = np.random.default_rng(515)
    for _ in range(12):
        f = random_element(rng, 1.0, max_degree=4, max_terms=2, c_bound=1.0)
        est = mc_expectation(f, flat_ens)
        dev = abs(est.mean - expectation(f))
        assert dev <= 4.0 * est.stderr + 1e-12


# ---------------------------------------------------------------------------
# check records

def test_check_derives_slack_and_passed():
    bound = Check("b", "bound", 1.0, 2.0, 1.0)
    assert bound.slack == -1.0 and bound.passed
    assert not Check("b", "bound", 1.0, 2.0, 0.5).passed
    assert Check("b", "bound", 5.0, 2.0, 0.0).passed
    assert Check("m", "match", 3.0, 2.0, 1.0).passed
    assert not Check("m", "match", 1.0, 2.5, 1.0).passed
    assert not Check("m", "match", math.nan, 0.0, 1.0).passed
    skipped = Check.skipped("s", "skipped: reason")
    assert skipped.passed and skipped.slack == 0.0 and skipped.note == "skipped: reason"
    assert not Check("failed", "match", math.inf, 0.0, 0.0).passed
    with pytest.raises(ValueError):
        Check("x", "equal", 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# stochastic integrals

def test_constant_integrand_telescopes_bitwise(big_ens):
    acc = ito_integral(ProcessElement.constant_one(H_ID), big_ens)
    assert np.array_equal(acc.real, big_ens.paths[:, -1])
    assert not acc.imag.any()


def test_zero_integrand_integrates_to_zero(big_ens):
    z = ProcessElement.from_template(H_ID, [(0.0, (0.0,))])
    assert not ito_integral(z, big_ens).any()


def _isometry(z, ens):
    return verify_isometry(z, ens.grid, ito_integral(z, ens))


def test_isometry_constant_case(big_ens):
    chk = _isometry(ProcessElement.constant_one(H_ID), big_ens)
    assert chk.rhs == 1.0
    assert abs(chk.slack) <= 4.0 * chk.factor1.stderr


def test_isometry_coordinate_case(big_ens):
    chk = _isometry(ProcessElement.coordinate(H_ID), big_ens)
    assert chk.rhs == pytest.approx(0.5, abs=1e-12)  # trapezoid of t is exact
    assert abs(chk.slack) <= 4.0 * chk.factor1.stderr


def test_isometry_zero_case(big_ens):
    z = ProcessElement.from_template(H_ID, [(0.0, (0.0,))])
    chk = _isometry(z, big_ens)
    assert chk.factor1.mean == 0.0 and chk.rhs == 0.0 and chk.slack == 0.0


def test_energy_integrals_pinned():
    grid = TimeGrid.uniform(1.0, 512)
    assert energy_integral(ProcessElement.constant_one(H_ID), grid) == pytest.approx(1.0, abs=1e-13)
    # E|X_t|^2 h(t) = t^2: composite trapezoid error is h''/12 * T * step^2
    got = weighted_energy_integral(ProcessElement.constant_one(H_ID), grid)
    assert got == pytest.approx(0.5, abs=1e-13)
    got = weighted_energy_integral(ProcessElement.coordinate(H_ID), grid)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-6)


# ---------------------------------------------------------------------------
# time-indexed elements

def test_process_element_factories():
    assert ProcessElement.constant_one(H_ID).at(0.25) == one_element(0.25)
    el = ProcessElement.from_template(H_ID, [(1j, (1.0,))]).at(0.5)
    assert el == make_exponential(1j, 0.5)
    gt = ProcessElement.from_template(H_ID, [(1.0, (1.0,))]).gauss_transform().at(0.5)
    assert gt == make_exponential(-1j, 0.5)


def test_process_element_is_a_value_record():
    y = ProcessElement.from_template(H_ID, [(0.5j, (0.0, 1.0))])
    g = PiecewiseLinear.piecewise_linear([(0.0, 0.3), (1.0, -0.2)])
    z = y.gauss_transform().centered_position(g)
    assert (z.template, z.label, z.transformed, z.centering) == (y.template, y.label, True, g)
    assert z == pickle.loads(pickle.dumps(z))
    assert hash(z) == hash(y.gauss_transform().centered_position(g))
    assert y.centered_position(None).centering == PiecewiseLinear.zero()
    for compose in (
        lambda: y.gauss_transform().gauss_transform(),
        lambda: y.centered_position(g).gauss_transform(),
        lambda: y.centered_position(g).centered_position(None),
    ):
        with pytest.raises(ValueError):
            compose()


def test_centered_position_shape():
    y = ProcessElement.constant_one(H_ID).centered_position(PiecewiseLinear.constant(2.0))
    el = y.at(1.0)  # X - 2 at q = 1
    assert el == make_element(1.0, [(0.0, (-2.0, 1.0))])


def test_centering_function_values():
    assert PiecewiseLinear.zero()(0.3) == 0.0
    assert PiecewiseLinear.constant(1.5)(0.3) == 1.5
    pw = PiecewiseLinear.piecewise_linear([(0.0, 0.0), (1.0, 2.0)])
    assert pw(0.25) == 0.5
    # a single knot is a constant
    assert PiecewiseLinear.piecewise_linear([(0.5, 0.7)])(3.0) == 0.7
    for bad in ([], [(0.0, 0.0), (0.0, 1.0)], [(0.0, float("nan"))]):
        with pytest.raises(ValueError):
            PiecewiseLinear.piecewise_linear(bad)


# ---------------------------------------------------------------------------
# fixed-time inequality (exact factors)

def test_h1_equality_case():
    # Y = 1, zero centerings: both factors are ||X|| = sqrt(q), so
    # LHS = q = RHS exactly
    chk = verify_h1(one_element(1.0), 0.0, 0.0)
    assert chk.passed and chk.lhs == 1.0 and chk.rhs == 1.0
    assert chk.slack == 0.0


def test_h1_coordinate_case():
    # Y = X: factors sqrt(E[X^4]) = sqrt(3) twice, LHS 3 against RHS 1
    y = make_element(1.0, [(0.0, (0.0, 1.0))])
    chk = verify_h1(y, 0.0, 0.0)
    assert chk.lhs == pytest.approx(3.0, rel=1e-12)
    assert chk.rhs == pytest.approx(1.0, rel=1e-12)
    assert chk.passed


def test_h1_exponential_case():
    # Y = E(1), q = 1: LHS = sqrt(5e) * sqrt(e) = e sqrt(5), RHS = e
    chk = verify_h1(make_exponential(1.0, 1.0), 0.0, 0.0)
    assert chk.rhs == pytest.approx(math.e, rel=1e-12)
    assert chk.lhs == pytest.approx(math.e * math.sqrt(5.0), rel=1e-12)
    assert chk.passed


@pytest.mark.parametrize("a, q", [(0.5, 1.0), (1.0, 0.25), (-0.75, 4.0)])
def test_h1_tilted_equality_family(a, q):
    # Y = E(a) with c = 2 a q, c~ = 0 achieves equality: both sides q e^{a^2 q}
    chk = verify_h1(make_exponential(a, q), 2.0 * a * q, 0.0)
    assert abs(chk.slack) <= 1e-9 * max(1.0, chk.rhs)
    assert chk.passed


def test_h1_holds_on_randomized_family():
    rng = np.random.default_rng(1109)
    failures = []
    for i in range(150):
        q = (0.25, 1.0, 4.0)[i % 3]
        y = random_element(rng, q, max_degree=4, max_terms=2, c_bound=2.0)
        if y.is_zero:
            continue
        c, ct = rng.uniform(-2.0, 2.0, size=2)
        chk = verify_h1(y, c, ct)
        if not chk.passed:
            failures.append((i, chk.case, chk.slack))
    assert failures == []


# ---------------------------------------------------------------------------
# integrated inequality (sampled factors)

def _h2(y, g, g_tilde, ens):
    z1, z2 = h2_integrands(y, g, g_tilde)
    return verify_h2(y, ens.grid, ito_integral(z1, ens), ito_integral(z2, ens))


def _h2_budget(chk):
    """The h2 allowance without MC_FLOOR: statistical + discretization."""
    extra = dict(chk.extra)
    return extra["stat_allowance"] + extra["disc_allowance"]


def test_h2_equality_case(big_ens):
    # Y = 1, g = g~ = 0: LHS and RHS both 1/2
    chk = _h2(ProcessElement.constant_one(H_ID), None, None, big_ens)
    assert chk.rhs == pytest.approx(0.5, abs=1e-12)
    assert abs(chk.lhs - 0.5) <= _h2_budget(chk)
    assert chk.slack >= -_h2_budget(chk)


def test_h2_strict_case(big_ens):
    # Y = X: LHS ~ int 3 t^2 dt = 1, RHS = int t^2 dt = 1/3
    chk = _h2(ProcessElement.coordinate(H_ID), None, None, big_ens)
    assert chk.rhs == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert abs(chk.lhs - 1.0) <= _h2_budget(chk)
    assert chk.slack >= -_h2_budget(chk) and chk.slack > 0.5


def test_h2_zero_case(big_ens):
    y = ProcessElement.from_template(H_ID, [(0.0, (0.0,))])
    chk = _h2(y, None, None, big_ens)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.slack >= -_h2_budget(chk)


def test_h2_extra_holds_the_two_parts_of_the_allowance(big_ens):
    chk = _h2(ProcessElement.coordinate(H_ID), None, None, big_ens)
    extra = dict(chk.extra)
    assert [k for k, _ in chk.extra] == ["stat_allowance", "disc_allowance"]
    assert chk.allowance == extra["stat_allowance"] + extra["disc_allowance"] + MC_FLOOR


def _random_centering(rng):
    kind = rng.integers(3)
    if kind == 0:
        return None
    if kind == 1:
        return PiecewiseLinear.constant(rng.uniform(-1.0, 1.0))
    vals = rng.uniform(-1.0, 1.0, size=3)
    return PiecewiseLinear.piecewise_linear([(0.0, vals[0]), (0.5, vals[1]), (1.0, vals[2])])


# the ensemble a forked worker of the randomized h2 test inherits
_INHERITED = {}


def _h2_draw(draw):
    chk = _h2(*draw, _INHERITED["ens"])
    return chk.case, chk.slack, _h2_budget(chk)


def test_h2_holds_on_randomized_configurations(big_ens):
    # 20 tame (Y, g, g~) draws: small exponents keep the sampled factors
    # well inside the 4-sigma + 10/M allowance regime.  The draws are made
    # here, in order, and checked in two forked workers that inherit big_ens;
    # each computes what the serial loop would, bitwise.
    rng = np.random.default_rng(4242)
    draws = []
    for i in range(20):
        n_terms = 1 + int(rng.integers(2))
        terms = []
        for _ in range(n_terms):
            c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            deg = int(rng.integers(3))
            coeffs = np.round(rng.standard_normal(deg + 1), 3)
            coeffs[-1] = coeffs[-1] if coeffs[-1] != 0 else 0.5
            terms.append((c, tuple(coeffs)))
        y = ProcessElement.from_template(H_ID, terms)
        draws.append((y, _random_centering(rng), _random_centering(rng)))
    _INHERITED["ens"] = big_ens
    try:
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            checked = list(pool.map(_h2_draw, draws))
    finally:
        _INHERITED.clear()
    failures = []
    for i, (case, slack, budget) in enumerate(checked):
        if not slack >= -budget:
            failures.append((i, case, slack, budget))
    assert failures == []


GRID_TIME_CHANGES = [
    TimeChange.identity(),
    TimeChange.power(0.5),
    TimeChange.piecewise_linear([(0.0, 0.0), (0.4, 1.2), (0.7, 1.2), (1.0, 2.0)]),
]


def _grid_chain(y, g, g_tilde, grid):
    """Both sides of h2 on the grid: sqrt(sum a_k dh_k) * sqrt(sum b_k dh_k)
    and sum r_k dh_k, with a_k, b_k the energies of the two integrands and
    r_k = q_k ||Y||^2 at the left points t_k, and a few ulps of the sums."""
    z1, z2 = h2_integrands(y, g, g_tilde)
    a, b, r, dh = [], [], [], []
    for t0, t1 in zip(grid.points, grid.points[1:]):
        el1, el2, el = z1.at(t0), z2.at(t0), y.at(t0)
        a.append(inner_product(el1, el1).real)
        b.append(inner_product(el2, el2).real)
        r.append(el.q * inner_product(el, el).real)
        dh.append(y.at(t1).q - el.q)

    def dot(u):
        return math.fsum(x * d for x, d in zip(u, dh))

    lhs, rhs = math.sqrt(dot(a)) * math.sqrt(dot(b)), dot(r)
    return lhs, rhs, 8.0 * np.finfo(float).eps * max(lhs, rhs)


@pytest.mark.parametrize("h", GRID_TIME_CHANGES, ids=lambda h: h.kind)
def test_h2_holds_exactly_on_the_grid(h):
    # h1 at each t_k and Cauchy-Schwarz over k give the grid chain for any
    # (Y, g, g~); no sampling, so no allowance beyond rounding
    grid = TimeGrid.uniform(1.0, 16)
    rng = np.random.default_rng(16)
    for _ in range(67):
        terms = [
            (complex(*rng.uniform(-1.0, 1.0, 2)), tuple(rng.standard_normal(1 + rng.integers(3))))
            for _ in range(1 + rng.integers(2))
        ]
        y = ProcessElement.from_template(h, terms)
        lhs, rhs, tol = _grid_chain(y, _random_centering(rng), _random_centering(rng), grid)
        assert lhs >= rhs - tol


@pytest.mark.parametrize("h", GRID_TIME_CHANGES, ids=lambda h: h.kind)
@pytest.mark.parametrize("a", [None, 0.3, -0.7, 1.2])
def test_h2_grid_chain_equality_cases(h, a):
    # Y = 1 with g = g~ = 0, and Y = E(a) with g = 2a h on the grid knots
    # and g~ = 0: then a_k = b_k = r_k = q_k e^{a^2 q_k} at every t_k
    grid = TimeGrid.uniform(1.0, 16)
    if a is None:
        y, g = ProcessElement.constant_one(h), None
    else:
        y = ProcessElement.from_template(h, [(a, (1.0,))])
        g = PiecewiseLinear.piecewise_linear([(t, 2.0 * a * y.at(t).q) for t in grid.points])
    lhs, rhs, tol = _grid_chain(y, g, None, grid)
    assert rhs > 0.0 and abs(lhs - rhs) <= tol


def test_h2_sums_that_overflow_when_squared_raise_the_sample_moment_error():
    # factor 1's sums are finite but overflow when squared: its Estimate
    # raises a typed overflow instead of forming an infinite factor
    grid = TimeGrid.uniform(1.0, 4)
    y = ProcessElement.constant_one(H_ID)
    with pytest.raises(EvaluationOverflowError, match="sample moments"):
        verify_h2(y, grid, np.full(8, 1e200, dtype=complex), np.ones(8))


# ---------------------------------------------------------------------------
# PDE residual

def test_pde_constant_exponent_residual_is_zero():
    chk = verify_pde(0.0)
    assert chk.case == "pde[c=0]" and chk.kind == "match"
    assert chk.lhs == 0.0 and chk.allowance == 1e-6 and chk.passed


@pytest.mark.parametrize("c", [1.0, 1j, 1 + 1j])
def test_pde_residual_small_on_box(c):
    assert verify_pde(c).lhs <= 1e-6


def test_pde_residual_scales_second_order():
    # genuine central stencil: halving accuracy by 10x step multiplies the
    # residual by ~100
    pt = [(0.5, 1.0)]
    r4 = verify_pde(1.0, points=pt, step=1e-4).lhs
    chk3 = verify_pde(1.0, points=pt, step=1e-3)
    r3 = chk3.lhs
    assert chk3.note.endswith("at step 0.001")
    assert 30.0 <= r3 / r4 <= 300.0


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0])
def test_pde_rejects_bad_step(step):
    with pytest.raises(ValueError):
        verify_pde(1.0, points=[(0.5, 1.0)], step=step)


@pytest.mark.parametrize("c", [complex("inf"), complex("nan"), complex(1.0, float("inf"))])
def test_pde_rejects_non_finite_exponent(c):
    with pytest.raises(ValueError):
        verify_pde(c, points=[(0.5, 1.0)])


def test_pde_nan_residual_is_returned():
    # a NaN residual must not be passed over as smaller than the others
    chk = verify_pde(1.0, points=[(0.5, 1.0), (float("nan"), 1.0), (1.0, 1.0)])
    assert math.isnan(chk.lhs) and not chk.passed


def test_pde_grid_covers_box():
    pts = pde_grid()
    assert len(pts) == 21 * 13
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert min(xs) == -2.0 and max(xs) == 2.0
    assert min(ys) == 0.5 and max(ys) == 2.0


# ---------------------------------------------------------------------------
# L2 difference-quotient limit

@pytest.mark.parametrize("c", [0.0, 1.0, 1j])
def test_l2_limit_converges_first_order(c):
    final, ratio, decreasing = verify_l2_limit(c, 1.0)
    assert decreasing.lhs == 0.0  # every norm below the one before
    assert final.lhs <= 1e-3
    assert ratio.lhs == pytest.approx(0.5, abs=0.05)
    assert final.passed and ratio.passed and decreasing.passed
    assert final.note == "norm at r = 2^-13"


def test_l2_limit_asymptote_matches_taylor():
    # (E(r) - 1)/r E(c) - X E(c) = (r/2)(X^2 - q) E(c) + O(r^2), so the norm
    # at r = 2^-13 is ~ 2^-14 ||(X^2 - q) E(c)||; for c = 0, q = 1 that is
    # 2^-14 sqrt(2), for c = 1 it is 2^-14 sqrt(34 e)
    final0 = verify_l2_limit(0.0, 1.0)[0]
    assert final0.case == "l2limit-final[c=0]"
    assert final0.lhs == pytest.approx(2.0**-14 * math.sqrt(2.0), rel=2e-3)
    final1 = verify_l2_limit(1.0, 1.0)[0]
    assert final1.lhs == pytest.approx(2.0**-14 * math.sqrt(34.0 * math.e), rel=2e-3)


def test_l2_limit_degenerate_variance():
    (skip,) = verify_l2_limit(1.0, 0.0)
    assert skip.case == "l2limit[c=1]" and skip.passed
    assert skip.lhs == skip.rhs == skip.allowance == 0.0
    assert skip.note.startswith("skipped: degenerate time change")


# ---------------------------------------------------------------------------
# two-point exponential formula

EXPONENT_PAIRS = [(c, d) for c in (1, -1, 1j) for d in (1, -1, 1j)]


@pytest.mark.parametrize("c, d", EXPONENT_PAIRS)
def test_lemma2_algebra_entry(c, d):
    (chk,) = verify_lemma2(c, d, 1.0)
    assert chk.lhs <= 1e-12 * max(1.0, abs(chk.factor2.mean))


@pytest.mark.parametrize("c, d", EXPONENT_PAIRS)
def test_lemma2_mc_entry(c, d, flat_ens):
    _, chk = verify_lemma2(c, d, 1.0, ensemble=flat_ens)
    assert chk.lhs <= 4.0 * chk.factor1.stderr + 1e-12
