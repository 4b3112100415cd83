"""Path simulation for martingales with a deterministic time change.

The simulated process is X_t = B_{h(t)} on a finite grid 0 = t_0 < ... <
t_M = T: Gaussian increments with variances h(t_{k+1}) - h(t_k), so the
quadratic variation of X on [0, t] is exactly h(t).

Randomness contract: paths are generated in fixed-size blocks of
``BLOCK_PATHS`` rows; block b of seed s uses an independent Philox stream
keyed by (s, b), which fills its rows in order, M normals per row.  Path i
of seed s is therefore a pure function of (s, i) - independent of the total
path count, of how work is distributed across workers, and of everything
generated before or after.

Storage: blocks are column-major (Fortran order), so the grid column
X_{t_k} of a block's paths is one contiguous vector.  Every sampled
consumer reads whole columns (expectations at one time, the Ito sum column
by column), so this is the layout they stream through; row access still
works, only strided.  :func:`block_chunks` yields a block in chunks of
``_CHUNK_ROWS`` paths, each a view of one buffer, which :func:`generate`
stacks into one N x (M+1) ``PathEnsemble``, and ``verify.sweep_block``,
where the CLI draws every path, reads as they come, so a process holds
``_CHUNK_ROWS`` x (M+1) floats.  :func:`column_ranges` checks a chunk or an
ensemble and returns each column's range, from which ``verify`` decides overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "BLOCK_PATHS",
    "InvalidTimeChangeError",
    "PiecewiseLinear",
    "TimeChange",
    "TimeGrid",
    "PathEnsemble",
    "block_chunks",
    "block_count",
    "column_ranges",
    "generate",
    "quadratic_variation_at",
]

BLOCK_PATHS = 16384
# rows per chunk of a block (the buffer its consumers read), and rows drawn
# at a time within a chunk (the draw buffer).  1,024-row chunks made the
# sweep 40-45 % slower, from the extra evaluation calls per column; a
# chunk-sized draw would hold 16 MB beside the chunk at M = 512, against 4 MB.
_CHUNK_ROWS = 4096
_DRAW_ROWS = 1024


class InvalidTimeChangeError(ValueError):
    """Raised when a time change is decreasing or negative on the grid."""


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation of (t, v) knots, held constant outside them.

    The knots are finite with strictly increasing times; a single knot is a
    constant function.  This is the time change's ``piecewise`` kind and the
    centering g(t) of the h2 integrands.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        knots = tuple((float(t), float(v)) for t, v in self.knots)
        object.__setattr__(self, "knots", knots)
        if not knots:
            raise ValueError("needs at least one knot")
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in knots):
            raise ValueError("knots must be finite")
        if any(t1 <= t0 for (t0, _), (t1, _) in zip(knots, knots[1:])):
            raise ValueError("knot times must strictly increase")

    @classmethod
    def zero(cls) -> "PiecewiseLinear":
        return cls.constant(0.0)

    @classmethod
    def constant(cls, v: float) -> "PiecewiseLinear":
        return cls(((0.0, v),))

    @classmethod
    def piecewise_linear(cls, knots: Iterable[tuple[float, float]]) -> "PiecewiseLinear":
        return cls(tuple(knots))

    def __call__(self, t):
        out = np.interp(t, [k[0] for k in self.knots], [k[1] for k in self.knots])
        return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class TimeChange:
    """Deterministic quadratic-variation schedule h with h(0) = 0.

    Kinds: ``identity`` (h(t) = t, standard Brownian motion), ``power``
    (h(t) = t**alpha, alpha > 0) and ``piecewise`` (a ``PiecewiseLinear``
    that starts at (0, 0) and never decreases).
    """

    kind: str
    alpha: float = 1.0
    curve: PiecewiseLinear | None = None

    def __post_init__(self) -> None:
        if self.kind == "identity":
            return
        if self.kind == "power":
            if not (math.isfinite(self.alpha) and self.alpha > 0):
                raise InvalidTimeChangeError(f"power exponent must be > 0, got {self.alpha!r}")
            return
        if self.kind == "piecewise":
            k = self.curve.knots if self.curve is not None else ()
            if k[:1] != ((0.0, 0.0),):
                raise InvalidTimeChangeError("piecewise knots must start at (0, 0)")
            if any(v1 < v0 for (_, v0), (_, v1) in zip(k, k[1:])):
                raise InvalidTimeChangeError("piecewise knot values must be nondecreasing")
            return
        raise InvalidTimeChangeError(f"unknown time change kind {self.kind!r}")

    @classmethod
    def identity(cls) -> "TimeChange":
        return cls("identity")

    @classmethod
    def power(cls, alpha: float) -> "TimeChange":
        return cls("power", alpha=float(alpha))

    @classmethod
    def piecewise_linear(cls, knots: Iterable[tuple[float, float]]) -> "TimeChange":
        try:
            curve = PiecewiseLinear(tuple(knots))
        except ValueError as e:
            raise InvalidTimeChangeError(f"piecewise {e}") from None
        return cls("piecewise", curve=curve)

    def __call__(self, t):
        if self.kind == "identity":
            return np.asarray(t, dtype=float) + 0.0 if np.ndim(t) else float(t)
        if self.kind == "power":
            return np.asarray(t, dtype=float) ** self.alpha if np.ndim(t) else float(t) ** self.alpha
        return self.curve(t)


def quadratic_variation_at(h: TimeChange, t: float) -> float:
    """q = h(t) for a time t >= 0."""
    t = float(t)
    if t < 0:
        raise ValueError(f"time {t!r} is negative")
    q = float(h(t))
    if q < 0:
        raise InvalidTimeChangeError(f"time change is negative at t={t!r}")
    return q


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid 0 = t_0 < t_1 < ... < t_M = T."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        # plain floats: grid values feed reports and comparisons, where numpy
        # scalars would leak (np.bool_ is not JSON-serializable)
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        pts = self.points
        if len(pts) < 2:
            raise ValueError("grid needs at least two points (M >= 1)")
        if pts[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must strictly increase")
        if any(not math.isfinite(p) for p in pts):
            raise ValueError("grid points must be finite")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1 or not math.isfinite(horizon) or horizon <= 0:
            raise ValueError("need steps >= 1 and horizon > 0")
        return cls(tuple(np.linspace(0.0, float(horizon), steps + 1)))

    @property
    def horizon(self) -> float:
        return self.points[-1]

    @property
    def steps(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """N sampled paths of X on a grid; paths[i, k] = X_{t_k} of path i."""

    grid: TimeGrid
    time_change: TimeChange
    paths: np.ndarray = field(repr=False)
    seed: int

    def __post_init__(self) -> None:
        if self.paths.ndim != 2 or self.paths.shape[1] != len(self.grid.points):
            raise ValueError("paths must be N x (M+1)")
        if self.paths.shape[0] < 1:
            raise ValueError("ensemble needs at least one path")
        column_ranges(self.paths)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def _grid_variances(h: TimeChange, grid: TimeGrid) -> np.ndarray:
    hv = np.asarray(h(np.asarray(grid.points)), dtype=float)
    if hv[0] != 0.0:
        raise InvalidTimeChangeError("time change must satisfy h(0) = 0")
    dv = np.diff(hv)
    if np.any(dv < -1e-12):
        raise InvalidTimeChangeError("time change must be nondecreasing on the grid")
    return np.maximum(dv, 0.0)


def column_ranges(paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's min and max, checked to start at X_0 = 0 and be finite."""
    lo, hi = paths.min(axis=0), paths.max(axis=0)
    if lo[0] != 0.0 or hi[0] != 0.0:
        raise ValueError("paths must start at X_0 = 0")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("paths must be finite")
    return lo, hi


def _check_size(n_paths: int, seed: int) -> int:
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


def block_count(n_paths: int) -> int:
    """Number of ``BLOCK_PATHS`` blocks that hold n_paths paths."""
    return -(-n_paths // BLOCK_PATHS)


def block_chunks(
    h: TimeChange, grid: TimeGrid, n_paths: int, seed: int, block: int
) -> Iterable[np.ndarray]:
    """Yield block ``block`` of an n_paths ensemble as successive chunks.

    The block is paths block * BLOCK_PATHS onward, at most BLOCK_PATHS of
    them: the same rows as ``generate(h, grid, n_paths, seed)``.  Each chunk
    is its next at most ``_CHUNK_ROWS`` rows, a rows x (M+1) column-major
    view of one buffer, valid until the next chunk is drawn.  Block b draws
    from Philox keyed by seed * 2**64 + b, so any path index maps to the same
    numbers regardless of n_paths, chunking or scheduling.
    """
    seed = _check_size(n_paths, seed)
    start = block * BLOCK_PATHS
    if not 0 <= start < n_paths:
        raise ValueError(f"block {block!r} outside the {block_count(n_paths)} blocks")
    rows = min(BLOCK_PATHS, n_paths - start)
    stds = np.sqrt(_grid_variances(h, grid))
    m = len(stds)
    buffer = np.empty((min(_CHUNK_ROWS, rows), m + 1), order="F")
    buffer[:, 0] = 0.0
    rng = np.random.Generator(np.random.Philox(key=seed * 2**64 + block))
    # The stream fills a (BLOCK_PATHS, M) draw row by row, so drawing the
    # rows in chunks reads the same numbers, without a block-sized buffer.
    for first in range(0, rows, _CHUNK_ROWS):
        chunk = buffer[: rows - first]
        for lo in range(0, len(chunk), _DRAW_ROWS):
            hi = min(lo + _DRAW_ROWS, len(chunk))
            draws = rng.standard_normal((hi - lo, m))
            draws *= stds
            # per-row running sums in k order, whatever the layout of the output
            np.cumsum(draws, axis=1, out=chunk[lo:hi, 1:])
        yield chunk


def generate(h: TimeChange, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Sample n_paths independent paths of X_t = B_{h(t)} on the grid.

    The N x (M+1) matrix is the stack of :func:`block_chunks` chunks, stored
    column-major (see the module docstring).
    """
    seed = _check_size(n_paths, seed)
    paths = np.empty((n_paths, len(grid.points)), dtype=float, order="F")
    start = 0
    for block in range(block_count(n_paths)):
        for chunk in block_chunks(h, grid, n_paths, seed, block):
            paths[start : start + len(chunk)] = chunk
            start += len(chunk)
    return PathEnsemble(grid=grid, time_change=h, paths=paths, seed=seed)
