"""The sampled Ito kernel against a reference copy of the complex loop.

``ito_integral`` reads columns of a column-major path matrix and evaluates
real terms in float64.  The reference below is the plain loop it replaced:
a row-major copy of the paths, every term in complex128 (complex Horner,
complex exponent, complex ``np.exp``) and a complex accumulator.

Polynomial integrands and path generation do the same rounded operations
as the reference, so they must match it bitwise, up to the signs of zero
parts.  An exponent term takes a real exponential from float64 ``np.exp``
and forms a complex one as exp(w) * val, so it agrees with the reference
within rounding.  The stated bound is, per path,

    |new - ref| <= 4 eps sum_k |z_k(X_{t_k})| |X_{t_{k+1}} - X_{t_k}|,

the forward-error form of two evaluations of one sum in one order whose
summands differ by a few ulps.  The largest ratio seen on these integrands
is below 2 eps.  ``evaluate_element`` is held to a 30-digit mpmath value by
the same kind of bound.  Both bounds fail a kernel whose ``exp`` is off by
1e-13 relative or that drops a term (``test_bounds_reject_mutants``).

``ito_sweep`` and ``ito_integral`` run one kernel, so their sums stay
bitwise equal at every path count, and in whatever order the sweep's block
results are merged.
"""

import mpmath as mp
import numpy as np
import pytest

from expmart import TimeChange, TimeGrid, generate, make_element, make_exponential
from expmart import verify
from expmart.algebra import PolyExpElement
from expmart.processes import BLOCK_PATHS, PathEnsemble, PiecewiseLinear, block_count
from expmart.verify import (
    OVERFLOW_LIMIT,
    Estimate,
    EvaluationOverflowError,
    ProcessElement,
    _abs_squared,
    evaluate_element,
    ito_integral,
    ito_sweep,
    merge_sweep,
    sweep_block,
    sweep_columns,
)

EPS = np.finfo(float).eps
# ulps of the rounding scale allowed to an exponent term's result
ROUNDING_ULPS = 4.0


def reference_evaluate(f, xs):
    total = np.zeros(xs.shape, dtype=complex)
    for c, p in f.terms:
        acc = np.full(xs.shape, p[-1], dtype=complex)
        for coeff in p[-2::-1]:
            acc *= xs
            acc += coeff
        if c == 0:
            total += acc
            continue
        w = c * xs - 0.5 * c * c * f.q
        max_real = float(np.max(w.real))
        if max_real > OVERFLOW_LIMIT:
            raise EvaluationOverflowError(c, f.q, max_real)
        total += acc * np.exp(w)
    return total


def reference_ito(z, ensemble):
    """Per path: the complex Ito sum, and sum_k |z_k(X_{t_k})| |dX_k|, its rounding scale."""
    pts = ensemble.grid.points
    x = np.ascontiguousarray(ensemble.paths)
    acc = np.zeros(x.shape[0], dtype=complex)
    scale = np.zeros(x.shape[0])
    for k in range(len(pts) - 1):
        vals = reference_evaluate(z.at(pts[k]), x[:, k])
        dx = x[:, k + 1] - x[:, k]
        acc += vals * dx
        scale += np.abs(vals) * np.abs(dx)
    return acc, scale


def reference_generate(h, grid, n_paths, seed):
    """The row-major generator: same Philox blocks, same per-row cumsum."""
    stds = np.sqrt(np.maximum(np.diff(h(np.asarray(grid.points))), 0.0))
    m = len(stds)
    paths = np.zeros((n_paths, m + 1))
    for start in range(0, n_paths, BLOCK_PATHS):
        stop = min(start + BLOCK_PATHS, n_paths)
        rng = np.random.Generator(np.random.Philox(key=seed * 2**64 + start // BLOCK_PATHS))
        draws = rng.standard_normal((BLOCK_PATHS, m))[: stop - start]
        np.cumsum(draws * stds, axis=1, out=paths[start:stop, 1:])
    return paths


def mp_evaluate(f, x):
    """f(x) at 30 digits, and its rounding scale sum |p|(|x|) |exp(w)| (1 + |w|)."""
    with mp.workdps(30):
        x = mp.mpf(x)
        value, scale = mp.mpf(0), mp.mpf(0)
        for c, p in f.terms:
            w = mp.mpc(c) * x - mp.mpc(c) ** 2 * mp.mpf(f.q) / 2
            e = mp.exp(w)
            value += sum(mp.mpc(v) * x**i for i, v in enumerate(p)) * e
            scale += sum(abs(v) * abs(x) ** i for i, v in enumerate(p)) * abs(e) * (1 + abs(w))
        return complex(value), float(scale)


def has_exponent(z, grid):
    return any(c != 0 for t in grid.points[:-1] for c, _ in z.at(t).terms)


def assert_matches_reference(got, z, ensemble):
    """Bitwise for a polynomial integrand, within the rounding bound otherwise."""
    ref, scale = reference_ito(z, ensemble)
    assert got.dtype == complex
    if has_exponent(z, ensemble.grid):
        assert np.all(np.abs(got - ref) <= ROUNDING_ULPS * EPS * scale)
    else:
        assert np.array_equal(got, ref)
        new_sq, old_sq = _abs_squared(got), _abs_squared(ref)
        assert np.array_equal(new_sq, old_sq)
        assert Estimate.from_samples(new_sq) == Estimate.from_samples(old_sq)


TIME_CHANGES = {
    "identity": TimeChange.identity(),
    "power": TimeChange.power(0.5),
    "pw": TimeChange.piecewise_linear([(0.0, 0.0), (0.4, 1.2), (0.7, 1.2), (1.0, 2.0)]),
}
PW_CENTERING = PiecewiseLinear.piecewise_linear([(0.0, 0.3), (0.5, -0.4), (1.0, 0.2)])


def integrands(h):
    """label -> integrand: polynomial, real/imaginary exponent, mixed, transform."""
    y_complex = ProcessElement.from_template(h, [(0.5j, (0.0, 1.0))])
    return {
        "polynomial": ProcessElement.from_template(h, [(0.0, (1.0, -0.3, 0.7))]),
        "real-exponent": ProcessElement.from_template(h, [(0.4, (1.0, 0.5))]),
        "imaginary-exponent": ProcessElement.exponential(h, 0.7j),
        "mixed-complex": ProcessElement.from_template(
            h, [(0.3 - 0.2j, (1 + 2j, 0.5)), (0.6, (0.25, -1j))]
        ),
        "gauss-transform-pw-centering": y_complex.gauss_transform().centered_position(
            PW_CENTERING
        ),
        "complex-pw-centering": y_complex.centered_position(PW_CENTERING),
    }


@pytest.fixture(scope="module", params=sorted(TIME_CHANGES))
def ensemble(request):
    # not a multiple of BLOCK_PATHS, so the last block is partial
    return generate(TIME_CHANGES[request.param], TimeGrid.uniform(1.0, 24), BLOCK_PATHS + 1234, 99)


@pytest.mark.parametrize("label", sorted(integrands(TimeChange.identity())))
def test_ito_integral_is_bitwise_the_complex_loop(ensemble, label):
    # bitwise for the polynomial integrand, within rounding for the others
    z = integrands(ensemble.time_change)[label]
    assert_matches_reference(ito_integral(z, ensemble), z, ensemble)


@pytest.mark.parametrize("n_paths", [2, 1000, BLOCK_PATHS])
def test_small_and_whole_block_ensembles(n_paths):
    ens = generate(TimeChange.identity(), TimeGrid.uniform(1.0, 16), n_paths, 5)
    for z in integrands(ens.time_change).values():
        assert_matches_reference(ito_integral(z, ens), z, ens)


def test_evaluate_element_is_bitwise_the_complex_loop():
    # bitwise for the polynomial element; exponent terms within rounding of
    # a 30-digit evaluation
    xs = np.random.default_rng(3).normal(0.0, 2.0, 20_000)
    for z in integrands(TimeChange.identity()).values():
        f = z.at(0.6)
        got = evaluate_element(f, xs)
        assert got.dtype == complex
        if all(c == 0 for c, _ in f.terms):
            assert np.array_equal(got, reference_evaluate(f, xs))
            continue
        for x, v in zip(xs[:300], got[:300]):
            exact, scale = mp_evaluate(f, x)
            assert abs(v - exact) <= ROUNDING_ULPS * EPS * scale


class _PerturbedExp:
    """numpy, except that ``exp`` is off by 1e-13 relative."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def exp(w, out=None):
        e = np.exp(w, out=out)
        e *= 1 + 1e-13
        return e


def _drop_last_term(evaluate):
    return lambda f, xs: evaluate(PolyExpElement(f.q, f.terms[:-1]), xs)


@pytest.mark.parametrize("mutant", ["perturbed-exp", "dropped-term"])
def test_bounds_reject_mutants(monkeypatch, mutant):
    if mutant == "perturbed-exp":
        monkeypatch.setattr(verify, "np", _PerturbedExp())
    else:
        monkeypatch.setattr(verify, "_evaluate", _drop_last_term(verify._evaluate))
    ens = generate(TimeChange.identity(), TimeGrid.uniform(1.0, 16), 1000, 5)
    for label, z in integrands(ens.time_change).items():
        if label == "polynomial":
            continue
        with pytest.raises(AssertionError):
            assert_matches_reference(ito_integral(z, ens), z, ens)
        f = z.at(0.6)
        got = evaluate_element(f, np.array([0.3]))[0]
        exact, scale = mp_evaluate(f, 0.3)
        assert abs(got - exact) > ROUNDING_ULPS * EPS * scale


def test_real_integrand_sums_in_float64_and_matches_telescoping():
    ens = generate(TimeChange.identity(), TimeGrid.uniform(1.0, 24), 3000, 8)
    acc = ito_integral(ProcessElement.constant_one(ens.time_change), ens)
    assert np.array_equal(acc.real, ens.paths[:, -1]) and not acc.imag.any()


@pytest.mark.parametrize(
    "element",
    [make_exponential(1.0, 0.5), make_element(0.5, [(1.0 + 0.5j, (1.0, 2.0))])],
    ids=["real-exponent", "complex-exponent"],
)
def test_overflow_guard_raises_on_both_paths(element):
    # X_{t_1} = 800 at q = 0.5: Re(c x - c^2 q/2) is near 800 > OVERFLOW_LIMIT
    grid = TimeGrid.uniform(1.0, 2)
    paths = np.array([[0.0, 800.0, 800.5], [0.0, 1.0, 0.5]])
    ens = PathEnsemble(grid=grid, time_change=TimeChange.identity(), paths=paths, seed=0)
    z = ProcessElement(ens.time_change, lambda t, q: element if t == 0.5 else make_exponential(0.0, q))
    with pytest.raises(EvaluationOverflowError):
        ito_integral(z, ens)
    with pytest.raises(EvaluationOverflowError):
        evaluate_element(element, paths[:, 1])


@pytest.mark.parametrize("label", sorted(TIME_CHANGES))
@pytest.mark.parametrize("n_paths", [7, BLOCK_PATHS + 1234])
def test_generate_columns_are_contiguous_and_values_unchanged(label, n_paths):
    h = TIME_CHANGES[label]
    grid = TimeGrid.uniform(1.0, 24)
    ens = generate(h, grid, n_paths, 17)
    assert ens.paths.flags.f_contiguous
    assert all(ens.paths[:, k].flags.c_contiguous for k in range(grid.steps + 1))
    assert np.array_equal(ens.paths, reference_generate(h, grid, n_paths, 17))


# ---------------------------------------------------------------------------
# the path-blocked sweep: blocks of BLOCK_PATHS and a short tail, summed into
# slices of one N-vector, must give the materialized kernel's bits

# complex polynomial times complex exponent
COMPLEX_PRODUCT = [(0.5 + 0.5j, (1j, 1 + 0.5j)), (-0.3j, (0.2, 1j))]


def swept(zs, h, grid, n_paths, seed, order):
    """``ito_sweep``, or its three pieces with the block results merged last first."""
    if order == "forward":
        return ito_sweep(zs, h, grid, n_paths, seed)
    columns = sweep_columns(zs, grid)
    blocks = [sweep_block(columns, h, grid, n_paths, seed, b) for b in range(block_count(n_paths))]
    return merge_sweep(columns, n_paths, reversed(blocks))


# the ids keep these tests' names from when they ran the sweep at 1 and 2 threads
ORDERS = [pytest.param("forward", id="1"), pytest.param("reverse", id="2")]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n_paths", [2, 1000, BLOCK_PATHS, BLOCK_PATHS + 1234, 40_000])
@pytest.mark.parametrize("h_label", sorted(TIME_CHANGES))
def test_sweep_is_bitwise_the_complex_loop(h_label, n_paths, order):
    # bitwise ito_integral; against the complex loop as ito_integral is
    h = TIME_CHANGES[h_label]
    grid = TimeGrid.uniform(1.0, 8)
    zs = [*integrands(h).values(), ProcessElement.from_template(h, COMPLEX_PRODUCT)]
    ens = generate(h, grid, n_paths, 21)
    for z, sums in zip(zs, swept(zs, h, grid, n_paths, 21, order)):
        got = sums()
        assert got.dtype == complex
        assert np.array_equal(got, ito_integral(z, ens))
        assert_matches_reference(got, z, ens)


def _cut_off(h, t_fail):
    """1@1+45j, whose exponent overflows from t = 0.75 on, failing to build at t_fail."""
    element = ProcessElement.from_template(h, [(1 + 45j, (1.0,))])

    def build(t, q):
        if t >= t_fail:
            raise ValueError(f"no element at t={t!r}")
        return element.build(t, q)

    return ProcessElement(h, build, "cut-off")


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "t_fail, error", [(2.0, EvaluationOverflowError), (0.875, EvaluationOverflowError),
                      (0.5, ValueError)],
    ids=["overflow", "overflow-before-build-error", "build-error-first"],
)
def test_sweep_raises_what_ito_integral_raises(order, t_fail, error):
    # Re(c x - c^2 q/2) = x + 1012 t: every block overflows at t = 0.75 with
    # its own maximum, and the message must carry the whole column's
    h = TimeChange.identity()
    grid = TimeGrid.uniform(1.0, 16)
    n_paths = 40_000
    ens = generate(h, grid, n_paths, 3)
    good, bad = ProcessElement.coordinate(h), _cut_off(h, t_fail)
    with pytest.raises(error) as expected:
        ito_integral(bad, ens)
    swept_good, swept_bad = swept([good, bad], h, grid, n_paths, 3, order)
    with pytest.raises(error) as got:
        swept_bad()
    assert str(got.value) == str(expected.value)
    assert getattr(got.value, "max_real", None) == getattr(expected.value, "max_real", None)
    assert np.array_equal(swept_good(), ito_integral(good, ens))
