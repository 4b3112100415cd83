"""Path-generation checks: determinism, block structure, and 4-sigma stats."""

import numpy as np
import pytest

from expmart import (
    InvalidTimeChangeError,
    PathEnsemble,
    TimeChange,
    TimeGrid,
    generate,
    quadratic_variation_at,
)
from expmart.processes import BLOCK_PATHS

GRID = TimeGrid.uniform(1.0, 8)


# ---------------------------------------------------------------------------
# time changes

def test_time_change_values():
    assert TimeChange.identity()(0.7) == 0.7
    assert TimeChange.power(2.0)(0.5) == 0.25
    pw = TimeChange.piecewise_linear([(0, 0), (0.5, 2.0), (1.0, 2.0)])
    assert pw(0.25) == 1.0
    assert pw(0.75) == 2.0   # flat segment
    assert pw(9.0) == 2.0    # held constant beyond the last knot
    assert TimeChange.piecewise_linear([(0, 0)])(0.5) == 0.0  # one knot: constant


def test_time_change_vectorizes():
    ts = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(TimeChange.power(2.0)(ts), ts**2)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: TimeChange.power(0.0),
        lambda: TimeChange.power(float("nan")),
        lambda: TimeChange.piecewise_linear([(0.1, 0.0), (1.0, 1.0)]),
        lambda: TimeChange.piecewise_linear([(0, 0), (0.5, 1.0), (0.5, 2.0)]),
        lambda: TimeChange.piecewise_linear([(0, 0), (0.5, 1.0), (1.0, 0.5)]),
        lambda: TimeChange.piecewise_linear([]),
        lambda: TimeChange.piecewise_linear([(0, 0), (1.0, float("inf"))]),
        lambda: TimeChange("sqrt"),
    ],
)
def test_invalid_time_changes_rejected(bad):
    with pytest.raises(InvalidTimeChangeError):
        bad()


def test_quadratic_variation_at_validates_range():
    h = TimeChange.power(2.0)
    assert quadratic_variation_at(h, 0.5) == 0.25
    with pytest.raises(ValueError):
        quadratic_variation_at(h, -0.1)


# ---------------------------------------------------------------------------
# grids

def test_uniform_grid_shape():
    g = TimeGrid.uniform(2.0, 4)
    assert g.points == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert g.horizon == 2.0 and g.steps == 4
    assert all(type(p) is float for p in g.points)


def test_grid_rejects_bad_points():
    for pts in [(0.0,), (0.5, 1.0), (0.0, 1.0, 1.0), (0.0, float("inf"))]:
        with pytest.raises(ValueError):
            TimeGrid(pts)


# ---------------------------------------------------------------------------
# generation: reproducibility and block independence

def test_generation_is_deterministic():
    a = generate(TimeChange.identity(), GRID, 500, seed=42)
    b = generate(TimeChange.identity(), GRID, 500, seed=42)
    np.testing.assert_array_equal(a.paths, b.paths)
    assert a.seed == 42


def test_seeds_decorrelate():
    a = generate(TimeChange.identity(), GRID, 100, seed=1)
    b = generate(TimeChange.identity(), GRID, 100, seed=2)
    assert not np.array_equal(a.paths, b.paths)


def test_path_prefix_independent_of_ensemble_size():
    # block-keyed streams: path i is the same no matter how many paths follow,
    # including across the block boundary
    small = generate(TimeChange.identity(), GRID, 5, seed=9)
    big = generate(TimeChange.identity(), GRID, BLOCK_PATHS + 10, seed=9)
    np.testing.assert_array_equal(big.paths[:5], small.paths)
    exact_block = generate(TimeChange.identity(), GRID, BLOCK_PATHS, seed=9)
    np.testing.assert_array_equal(big.paths[:BLOCK_PATHS], exact_block.paths)


def test_generation_validates_inputs():
    with pytest.raises(ValueError):
        generate(TimeChange.identity(), GRID, 0, seed=1)
    with pytest.raises(ValueError):
        generate(TimeChange.identity(), GRID, 10, seed=-1)


def test_ensemble_accessors():
    ens = generate(TimeChange.identity(), GRID, 50, seed=3)
    assert ens.n_paths == 50
    assert ens.paths.shape == (50, len(GRID.points))
    np.testing.assert_array_equal(ens.paths[:, 0], np.zeros(50))


def test_ensemble_shape_validation():
    with pytest.raises(ValueError):
        PathEnsemble(grid=GRID, time_change=TimeChange.identity(),
                     paths=np.ones((4, 3)), seed=0)
    bad = np.zeros((4, 9))
    bad[0, 0] = 1.0
    with pytest.raises(ValueError):
        PathEnsemble(grid=GRID, time_change=TimeChange.identity(),
                     paths=bad, seed=0)


# ---------------------------------------------------------------------------
# distributional checks (all at 4 standard errors)

N = 40_000
H_CASES = [
    TimeChange.identity(),
    TimeChange.power(2.0),
    TimeChange.piecewise_linear([(0, 0), (0.25, 0.5), (1.0, 0.75)]),
]


@pytest.mark.parametrize("h", H_CASES, ids=lambda h: h.kind)
def test_marginal_mean_and_variance(h):
    ens = generate(h, TimeGrid.uniform(1.0, 16), N, seed=777)
    for k, t in ((8, 0.5), (16, 1.0)):
        xs = ens.paths[:, k]
        q = quadratic_variation_at(h, t)
        assert abs(xs.mean()) <= 4 * np.sqrt(q / N)
        # var(sample variance) ~ 2 q^2 / N for Gaussians
        assert abs(xs.var() - q) <= 4 * q * np.sqrt(2 / N)


def test_increments_uncorrelated():
    ens = generate(TimeChange.identity(), TimeGrid.uniform(1.0, 2), N, seed=11)
    first = ens.paths[:, 1]
    second = ens.paths[:, 2] - ens.paths[:, 1]
    cov = np.mean(first * second)
    assert abs(cov) <= 4 * np.sqrt(0.25 / N)


@pytest.mark.parametrize("c", [1.0, -1.0, 1j, 1 + 1j])
def test_exponential_martingale_normalizes(c):
    # E[exp(c X_T - c^2 h(T) / 2)] = 1 for every complex exponent
    h = TimeChange.power(2.0)
    ens = generate(h, TimeGrid.uniform(1.0, 16), N, seed=123)
    q = quadratic_variation_at(h, 1.0)
    vals = np.exp(c * ens.paths[:, -1] - c * c * q / 2.0)
    mean = vals.mean()
    stderr = np.sqrt(np.mean(np.abs(vals - mean) ** 2) / N)
    assert abs(mean - 1.0) <= 4 * stderr
