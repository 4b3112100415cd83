"""The sampled Ito kernel against a reference copy of the complex loop.

``ito_integral`` reads columns of a column-major path matrix and evaluates
real terms in float64.  The reference below is the plain loop it replaced:
a row-major copy of the paths, every term in complex128 (complex Horner,
complex exponent, complex ``np.exp``) and a complex accumulator.

A polynomial factor is one Horner recurrence in its coefficients' dtype,
bitwise the complex loop, and path generation does the same rounded
operations as the reference, so polynomial integrands, real or complex,
must match it bitwise.  An exponent term takes a real exponential from
float64 ``np.exp`` and forms a complex one as exp(w) * val, so it agrees
with the reference within rounding.  The stated bound is, per path,

    |new - ref| <= 4 eps sum_k |z_k(X_{t_k})| |X_{t_{k+1}} - X_{t_k}|,

the forward-error form of two evaluations of one sum in one order whose
summands differ by a few ulps.  The largest ratio seen on these integrands
is below 2 eps.  ``evaluate_element`` is held to a 30-digit mpmath value by
the same kind of bound.  Both bounds fail a kernel whose ``exp`` is off by
1e-13 relative, that drops a term or that conjugates the coefficients of
its Horner recurrence (``test_bounds_reject_mutants``).

The sweep (``sweep_columns``, ``sweep_block``, ``merge_sweep``) and
``ito_integral`` run one kernel, so the sweep's per-path sums, formed here
from its kernel on its chunks, stay bitwise equal at every path count, and
its merged moments are bitwise the blocks' ``sample_moments`` of |I|^2 from
``ito_integral``, merged in block order, whether the block results come
from this process or pickled from a worker's.
Both decide overflow by one rule from each column's smallest and largest
point, which must give bitwise the maximum exponent the evaluation forms.
"""

import functools
import math
import pickle
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expmart import TimeChange, TimeGrid, generate, make_element, make_exponential
from expmart import verify
from expmart.algebra import PolyExpElement
from expmart.processes import (
    _CHUNK_ROWS,
    BLOCK_PATHS,
    PathEnsemble,
    PiecewiseLinear,
    block_chunks,
    block_count,
    column_ranges,
)
from expmart.verify import (
    OVERFLOW_LIMIT,
    Estimate,
    EvaluationOverflowError,
    ProcessElement,
    _merged,
    evaluate_element,
    ito_integral,
    merge_sweep,
    sample_moments,
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
        new_sq, old_sq = np.abs(got) ** 2, np.abs(ref) ** 2
        assert np.array_equal(new_sq, old_sq)
        assert Estimate.from_samples(new_sq) == Estimate.from_samples(old_sq)


TIME_CHANGES = {
    "identity": TimeChange.identity(),
    "power": TimeChange.power(0.5),
    "pw": TimeChange.piecewise_linear([(0.0, 0.0), (0.4, 1.2), (0.7, 1.2), (1.0, 2.0)]),
}
PW_CENTERING = PiecewiseLinear.piecewise_linear([(0.0, 0.3), (0.5, -0.4), (1.0, 0.2)])


def integrands(h):
    """label -> integrand: real/complex polynomial, real/imaginary exponent,
    mixed, transform."""
    y_complex = ProcessElement.from_template(h, [(0.5j, (0.0, 1.0))])
    return {
        "polynomial": ProcessElement.from_template(h, [(0.0, (1.0, -0.3, 0.7))]),
        # the shape of h2's G(X) = -iX: the complex branch of the recurrence
        "complex-polynomial": ProcessElement.from_template(h, [(0.0, (1j, 0.5 - 2j, 0.25j))]),
        "real-exponent": ProcessElement.from_template(h, [(0.4, (1.0, 0.5))]),
        "imaginary-exponent": ProcessElement.from_template(h, [(0.7j, (1.0,))]),
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


def _conjugated(horner):
    return lambda p, xs: horner([v.conjugate() for v in p], xs)


# mutant -> the integrands whose bounds it must fail
EXPONENT_LABELS = sorted(
    set(integrands(TimeChange.identity())) - {"polynomial", "complex-polynomial"}
)
MUTANTS = {
    "perturbed-exp": EXPONENT_LABELS,
    "dropped-term": EXPONENT_LABELS,
    "conjugated-horner": ["complex-polynomial", "mixed-complex"],
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_bounds_reject_mutants(monkeypatch, mutant):
    if mutant == "perturbed-exp":
        monkeypatch.setattr(verify, "np", _PerturbedExp())
    elif mutant == "dropped-term":
        monkeypatch.setattr(verify, "_evaluate", _drop_last_term(verify._evaluate))
    else:
        monkeypatch.setattr(verify, "_horner", _conjugated(verify._horner))
    ens = generate(TimeChange.identity(), TimeGrid.uniform(1.0, 16), 1000, 5)
    zs = integrands(ens.time_change)
    for z in (zs[label] for label in MUTANTS[mutant]):
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
    # the element's own template: 1 at X_0 = 0, the element at t = 0.5
    z = ProcessElement.from_template(ens.time_change, element.terms)
    assert z.at(0.5) == element
    with pytest.raises(EvaluationOverflowError):
        ito_integral(z, ens)
    with pytest.raises(EvaluationOverflowError):
        evaluate_element(element, paths[:, 1])


def evaluated_max(c, q, xs):
    """The largest real part of the exponent, formed as ``_evaluate`` forms it."""
    if c.imag != 0.0:
        return float(np.max((c * xs - 0.5 * c * c * q).real))
    w = c.real * xs
    w -= (0.5 * c * c * q).real
    return float(np.max(w))


finite = st.floats(-60.0, 60.0)


def overflow_bound_property(rule):
    """Hypothesis test: ``rule``'s bound from a column's range is the evaluated maximum."""

    @given(finite, finite, st.sampled_from([0.0, 0.25, 1.0, 7.5]),
           st.lists(finite, min_size=1, max_size=12))
    @example(-2.0, 0.0, 1.0, [-3.0, 5.0])  # Re c < 0, real branch
    @example(-2.0, 1.5, 1.0, [-3.0, 5.0])  # Re c < 0, complex branch
    @example(0.0, 3.0, 0.5, [-1.0, 2.0])  # Re c = 0
    @example(0.0, 0.0, 1.0, [-1.0, 2.0])  # c = 0: the bound is 0
    @example(1.5, 0.0, 0.0, [-1.0, 2.0])  # q = 0, real branch
    @example(1.5, -0.5, 0.0, [-1.0, 2.0])  # q = 0, complex branch
    @settings(max_examples=300, deadline=None, database=None)
    def check(re, im, q, points):
        c = complex(re, im)
        xs = np.array(points)
        f = make_element(q, [(c, (1.0,))])
        # every exponent "overflows", so the rule reports each bound it forms
        with mock.patch.object(verify, "OVERFLOW_LIMIT", -math.inf):
            column, error = rule([f], [xs.min()], [xs.max()])
        assert column == 0 and error.max_real == evaluated_max(c, f.q, xs)

    return check


def test_overflow_bound_is_the_evaluated_maximum():
    overflow_bound_property(verify._first_overflow)()


def test_overflow_bound_property_rejects_hi_for_a_negative_real_part():
    with pytest.raises(AssertionError):
        overflow_bound_property(lambda els, lo, hi: verify._first_overflow(els, hi, hi))()


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
# the path-blocked sweep: blocks of BLOCK_PATHS and a short tail, each read
# in chunks of _CHUNK_ROWS and reduced to moments per block, must give the
# materialized kernel's bits

# complex polynomial times complex exponent
COMPLEX_PRODUCT = [(0.5 + 0.5j, (1j, 1 + 0.5j)), (-0.3j, (0.2, 1j))]


def swept(zs, h, grid, n_paths, seed, workers):
    """The sweep's three pieces, the block results merged in block order; at
    2 workers each comes through a pickle, as a worker process returns it."""
    columns = sweep_columns(zs, grid)
    blocks = [sweep_block(columns, h, grid, n_paths, seed, b) for b in range(block_count(n_paths))]
    if workers > 1:
        blocks = [pickle.loads(pickle.dumps(done)) for done in blocks]
    return merge_sweep(columns, blocks)


def kernel_sums(zs, h, grid, n_paths, seed):
    """Each integrand's per-path Ito sums as the sweep forms them: its column
    kernel on each chunk that ``block_chunks`` draws, in block order."""
    columns = sweep_columns(zs, grid)
    chunks = [
        [verify._ito_columns(elements, x).astype(complex) for elements, _, _ in columns]
        for b in range(block_count(n_paths)) for x in block_chunks(h, grid, n_paths, seed, b)
    ]
    return [np.concatenate(sums) for sums in zip(*chunks)]


def block_moments(values):
    """The sweep's reduction of per-path values: ``sample_moments`` on each
    block of rows, merged in block order."""
    blocks = [values[start : start + BLOCK_PATHS] for start in range(0, len(values), BLOCK_PATHS)]
    return functools.reduce(_merged, map(sample_moments, blocks))


WORKERS = [pytest.param(1, id="1"), pytest.param(2, id="2")]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize(
    "n_paths", [2, 1000, BLOCK_PATHS, BLOCK_PATHS + 1234, 40_000, BLOCK_PATHS + _CHUNK_ROWS + 7]
)
@pytest.mark.parametrize("h_label", sorted(TIME_CHANGES))
def test_sweep_is_bitwise_the_complex_loop(h_label, n_paths, workers):
    # the kernel's sums bitwise ito_integral's, and against the complex loop
    # as ito_integral is; the moments bitwise those of ito_integral's |I|^2
    h = TIME_CHANGES[h_label]
    grid = TimeGrid.uniform(1.0, 8)
    zs = [*integrands(h).values(), ProcessElement.from_template(h, COMPLEX_PRODUCT)]
    ens = generate(h, grid, n_paths, 21)
    sums = kernel_sums(zs, h, grid, n_paths, 21)
    for z, got, (moments, error) in zip(zs, sums, swept(zs, h, grid, n_paths, 21, workers)):
        expected = ito_integral(z, ens)
        assert np.array_equal(got, expected)
        assert_matches_reference(got, z, ens)
        assert error is None and moments == block_moments(np.abs(expected) ** 2)


@dataclass(frozen=True)
class _CutOff(ProcessElement):
    """A process element that fails to build from ``t_fail`` on."""

    t_fail: float = math.inf

    def at(self, t):
        if t >= self.t_fail:
            raise ValueError(f"no element at t={t!r}")
        return super().at(t)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize(
    "t_fail, error", [(2.0, EvaluationOverflowError), (0.875, EvaluationOverflowError),
                      (0.5, ValueError)],
    ids=["overflow", "overflow-before-build-error", "build-error-first"],
)
def test_sweep_raises_what_ito_integral_raises(workers, t_fail, error):
    # Re(c x - c^2 q/2) = x + 1012 t: every block overflows at t = 0.75 with
    # its own maximum, and the message must carry the whole column's
    h = TimeChange.identity()
    grid = TimeGrid.uniform(1.0, 16)
    n_paths = 40_000
    ens = generate(h, grid, n_paths, 3)
    # 1@1+45j, whose exponent overflows from t = 0.75 on
    good, bad = ProcessElement.coordinate(h), _CutOff(h, ((1 + 45j, (1 + 0j,)),), t_fail=t_fail)
    with pytest.raises(error) as expected:
        ito_integral(bad, ens)
    (good_moments, good_error), (_, got) = swept([good, bad], h, grid, n_paths, 3, workers)
    assert type(got) is error
    assert str(got) == str(expected.value)
    assert getattr(got, "max_real", None) == getattr(expected.value, "max_real", None)
    assert good_error is None
    assert good_moments == block_moments(np.abs(ito_integral(good, ens)) ** 2)


@pytest.mark.parametrize("workers", WORKERS)
def test_sweep_overflow_in_one_chunk_is_what_ito_integral_raises(workers):
    # Re(c x - c^2 q/2) = a x for c = a + ai, so the integrand overflows
    # exactly where a path passes 700 / a before t = T: put that level
    # between the highest chunk's maximum and every other chunk's, so only
    # one chunk of one block stops early
    h = TimeChange.identity()
    grid = TimeGrid.uniform(1.0, 8)
    n_paths = BLOCK_PATHS + _CHUNK_ROWS + 7
    ens = generate(h, grid, n_paths, 5)
    chunks = [
        chunk.copy() for b in range(block_count(n_paths))
        for chunk in block_chunks(h, grid, n_paths, 5, b)
    ]
    tops = sorted(chunk[:, :-1].max() for chunk in chunks)
    a = OVERFLOW_LIMIT / (0.5 * (tops[-1] + tops[-2]))
    good, bad = ProcessElement.coordinate(h), ProcessElement.from_template(h, [(a + a * 1j, (1.0,))])
    columns = sweep_columns([good, bad], grid)
    elements = columns[1][0]
    stops = [verify._first_overflow(elements, *column_ranges(chunk))[0] for chunk in chunks]
    assert len(chunks) == 6 and sorted(stops)[1:] == [len(elements)] * 5
    assert min(stops) < len(elements)
    with pytest.raises(EvaluationOverflowError) as expected:
        ito_integral(bad, ens)
    (good_moments, good_error), (_, got) = swept([good, bad], h, grid, n_paths, 5, workers)
    assert type(got) is EvaluationOverflowError
    assert str(got) == str(expected.value) and got.max_real == expected.value.max_real
    assert good_error is None
    assert good_moments == block_moments(np.abs(ito_integral(good, ens)) ** 2)
    # each block counts the columns its own range allows, overflow included
    for b in range(block_count(n_paths)):
        lo, hi = column_ranges(ens.paths[b * BLOCK_PATHS : (b + 1) * BLOCK_PATHS])
        done = sweep_block(columns, h, grid, n_paths, 5, b)
        assert np.array_equal(done.lo, lo) and np.array_equal(done.hi, hi)
        stops = [verify._first_overflow(els, lo, hi)[0] for els, _, _ in columns]
        rows = done.moments[0][0]
        assert (done.columns, done.points) == (sum(stops), sum(stops) * rows)


def test_sweep_block_holds_one_chunk_not_the_block():
    # numpy reports its buffers to tracemalloc; the whole block would be
    # BLOCK_PATHS x (M+1) floats
    h = TimeChange.identity()
    grid = TimeGrid.uniform(1.0, 128)
    zs = [ProcessElement.coordinate(h), ProcessElement.from_template(h, COMPLEX_PRODUCT)]
    columns = sweep_columns(zs, grid)
    tracemalloc.start()
    try:
        sweep_block(columns, h, grid, BLOCK_PATHS, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BLOCK_PATHS * (grid.steps + 1) * 8 / 2


# ---------------------------------------------------------------------------
# X_T is the sweep's sum of 1: per path, ((0 + d_0) + d_1) + ... with each
# d_k = X_{t_k+1} - X_{t_k} rounded, since the integrand's value is 1.0

@pytest.mark.parametrize("h_label", sorted(TIME_CHANGES))
def test_sweep_of_one_is_bitwise_the_terminal_value_on_one_step(h_label):
    # X_0 = 0, so the one sum 0 + 1.0 (X_T - 0) is X_T exactly; an element
    # read at X_T, here X itself, reads the same values
    h, grid = TIME_CHANGES[h_label], TimeGrid.uniform(1.0, 1)
    [sums] = kernel_sums([ProcessElement.constant_one(h)], h, grid, 40_000, 13)
    x_t = generate(h, grid, 40_000, 13).paths[:, -1]
    assert not sums.imag.any() and np.array_equal(sums.real, x_t)
    x = make_element(float(h(1.0)), [(0.0, (0.0, 1.0))])
    [(moments, error)] = swept([lambda: x], h, grid, 40_000, 13, 1)
    assert error is None and moments == block_moments(x_t)


@pytest.mark.parametrize("steps", [64, 512])
@pytest.mark.parametrize("h_label", sorted(TIME_CHANGES))
def test_sweep_of_one_is_the_terminal_value_within_rounding(h_label, steps):
    # each subtraction and each addition rounds once, by at most eps/2 of its
    # result, so |sum - X_T| <= eps/2 sum_k (|d_k| + |partial sum k+1|) to
    # first order; the bound below takes eps, which leaves a factor 2 for the
    # partial sums' own error.  The paths come chunk by chunk, as the sweep
    # draws them, so no N x (M+1) matrix is held.
    h, grid = TIME_CHANGES[h_label], TimeGrid.uniform(1.0, steps)
    n_paths = BLOCK_PATHS + _CHUNK_ROWS + 7
    [sums] = kernel_sums([ProcessElement.constant_one(h)], h, grid, n_paths, 13)
    chunks = [
        (chunk[:, -1].copy(), (np.abs(np.diff(chunk, axis=1)) + np.abs(chunk[:, 1:])).sum(axis=1))
        for b in range(block_count(n_paths)) for chunk in block_chunks(h, grid, n_paths, 13, b)
    ]
    x_t, scale = (np.concatenate(parts) for parts in zip(*chunks))
    assert not sums.imag.any()
    assert np.all(np.abs(sums.real - x_t) <= EPS * scale)
