"""Monte Carlo and closed-form verification of the operator inequalities.

This module connects the exact algebra (fixed-time elements) to sampled
paths: elements are evaluated on path columns, expectations are estimated
with standard errors, Ito integrals are formed as left-endpoint sums, and
the two uncertainty inequalities

  (h1)  ||(X - c) Y|| * ||(X - ct) G Y||  >=  q ||Y||^2          (fixed time)
  (h2)  sqrt(E|I1|^2) * sqrt(E|I2|^2)     >=  int E|Y_t|^2 h dh  (integrated)

with I1 = int (X - g) Y dX and I2 = int (X - gt) GY dX are checked against
their exact right-hand sides.

Each check has one ``verify_*`` function, which returns its finished
``Check`` records, one per report row, tolerance included; the tolerances
are the ``*_TOL`` constants below.  check-algebra's rows come from
``verify_commutators``, ``verify_unitarity``, ``verify_adjointness``,
``verify_g_fourth``, ``verify_hermite_diagonal`` and
``verify_hermite_roundtrip``; the rows derived from other checks from
``verify_h1_case`` (``h1-equality``), ``verify_h1_randomized``
(``h1-random-worst``) and ``verify_h2_target`` (``h2-target``).  A
``bound`` check is an inequality: it passes when slack = lhs - rhs >=
-allowance.  A ``match`` check is an equality or a residual bound: it passes
when |slack| <= allowance.  Exact checks carry a fixed tolerance.  Sampled
checks carry k_sigma standard errors (delta-method propagated through
square roots for h2) plus ``MC_FLOOR``, an absolute floor that keeps
degenerate cases (constant integrands, exact cancellations) from failing on
rounding noise when their sample variance collapses; h2 adds a
discretization allowance for the Ito sums.  A skipped entry is a match of 0
against 0 with its reason in the note.

The integrands are ``ProcessElement`` records with the fields, in order,
time change h, ``template`` ((exponent, coefficients) pairs, constant in
time: ((c, (1,)),) is the exponential martingale E(c)), ``label``,
``transformed`` (G applied) and ``centering`` g (None for none).  ``at(t)``
builds the template at q = h(t), applies G if transformed, then forms
(X - g(t)) * Y as ``verify_h1`` forms its factors; so the h2 integrands
(X - g) Y and (X - gt) GY are ``centered_position(g)`` and
``gauss_transform().centered_position(gt)``.  G comes at most once, and
before the one centering.

Sampled memory: the sampled checks take the ``Moments`` of a *statistic*, a
per-path value on one ensemble: |I|^2 of an integrand's Ito sum, or an
element at X_T.  ``ito_integral`` reads a materialized ``PathEnsemble``; the
sweep holds one chunk of a block, ``_CHUNK_ROWS`` x (M+1) floats, at a time:
``sweep_columns`` builds each statistic's elements once, ``sweep_block``
reads every statistic on each chunk it draws and reduces it to its moments
on the whole block, so they depend on the block layout alone, and
``merge_sweep`` merges those in block order (Chan, Golub & LeVeque, Amer.
Statist. 37(3), 1983) into one (moments, error) pair per statistic, an
integrand's error being the one ``ito_integral`` raises: one kernel.

Sampled evaluation has one rule for every input and path count: a
polynomial factor is one Horner recurrence in its coefficients' dtype,
bitwise the complex loop; a real exponent is formed and exponentiated in
float64, and a complex exponent's term is exp(w) * val in complex128.  An
exponent term agrees with an all-complex evaluation within rounding, not
bitwise.  Overflow is decided by column ranges.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import (
    PolyExpElement,
    apply_D,
    apply_D_star,
    apply_G,
    apply_X,
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
    to_hermite,
)
from .processes import (
    PathEnsemble,
    PiecewiseLinear,
    TimeChange,
    TimeGrid,
    block_chunks,
    column_ranges,
    quadratic_variation_at,
)

__all__ = [
    "OVERFLOW_LIMIT",
    "EvaluationOverflowError",
    "Estimate",
    "ProcessElement",
    "Check",
    "MC_FLOOR",
    "evaluate_element",
    "ito_integral",
    "sample_moments",
    "sweep_columns",
    "sweep_block",
    "merge_sweep",
    "SweepBlock",
    "lemma2_element",
    "energy_integral",
    "weighted_energy_integral",
    "verify_commutators",
    "verify_unitarity",
    "verify_adjointness",
    "verify_g_fourth",
    "verify_hermite_diagonal",
    "verify_hermite_roundtrip",
    "verify_isometry",
    "verify_h1",
    "verify_h1_case",
    "verify_h1_randomized",
    "verify_h2",
    "verify_h2_target",
    "h2_integrands",
    "verify_pde",
    "verify_l2_limit",
    "verify_lemma2",
]

# exp() overflows near 709.78; refuse anything whose exponent real part
# could silently saturate well before that.
OVERFLOW_LIMIT = 700.0

UNITARITY_TOL = 1e-9
ADJOINT_TOL = 1e-9
G_FOURTH_TOL = 1e-12
HERMITE_TOL = 1e-12
# basis coefficients grow like n!! q^(n/2); the round trip keeps ~4 digits
# of headroom over the measured worst case at degree 8, q = 4
HERMITE_ROUNDTRIP_TOL = 1e-9
H1_TOL = 1e-9
LEMMA2_EXACT_TOL = 1e-12
PDE_TOL = 1e-6
# central-difference step of the PDE stencils
PDE_STEP = 1e-4
L2_FINAL_TOL = 1e-3
L2_RATIO_TOL = 0.05
# the difference quotient's offsets r = 2^-1 .. 2^-k_max
L2_K_MAX_DEFAULT = 13

# standard errors allowed to a sampled check, and the absolute floor added
# to its allowance (module docstring)
K_SIGMA = 4.0
MC_FLOOR = 1e-12
# an h2 check's discretization allowance, in units of T/M
DISC_FACTOR = 10.0

# (-i)^n without complex powers, so eigenvalue checks stay exact
_MINUS_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)


class EvaluationOverflowError(OverflowError):
    """A term's exponent c at variance q reaches Re(c x - c^2 q/2) = max_real
    past OVERFLOW_LIMIT.  Its args are these three, so a pickled copy is
    rebuilt by the default rule."""

    def __init__(self, exponent: complex, q: float, max_real: float):
        super().__init__(exponent, q, max_real)
        self.exponent, self.q, self.max_real = exponent, q, max_real

    def __str__(self) -> str:
        return (
            f"exp overflow: term with exponent {self.exponent!r} at q={self.q!r} reaches "
            f"Re(c*x - c^2 q/2) = {self.max_real:.3g} > {OVERFLOW_LIMIT}"
        )


def _horner(p: Sequence[complex], xs: np.ndarray) -> np.ndarray:
    """Polynomial p (low degree first) at real points by one Horner recurrence
    in its coefficients' dtype: float64 if all are real, else complex128."""
    if all(v.imag == 0.0 for v in p):
        p = [v.real for v in p]
    acc = np.full(xs.shape, p[-1])
    for coeff in p[-2::-1]:
        acc *= xs
        acc += coeff
    return acc


def _first_overflow(
    elements: Sequence[PolyExpElement], lo: Sequence[float], hi: Sequence[float]
) -> tuple[int, EvaluationOverflowError | None]:
    """The first column k of ``elements`` on whose points, in [lo[k], hi[k]],
    a term's exponent passes OVERFLOW_LIMIT, and its error; else
    (len(elements), None).  Re(c x - c^2 q/2) is affine in x and rounds
    monotonically, so its maximum, at lo (Re c < 0) or hi, is bitwise what
    ``_evaluate`` forms, up to the sign of a zero (0 for c = 0)."""
    for k, f in enumerate(elements):
        for c, _ in f.terms:
            x = lo[k] if c.real < 0 else hi[k]
            max_real = float(c.real * x - (0.5 * c * c * f.q).real)
            if max_real > OVERFLOW_LIMIT:
                return k, EvaluationOverflowError(c, f.q, max_real)
    return len(elements), None


def _evaluate(f: PolyExpElement, xs: np.ndarray) -> np.ndarray:
    """f at real points xs: float64 when every term is real, else complex128.

    A polynomial factor is one Horner recurrence in its coefficients'
    dtype, bitwise the complex loop.  A real exponent is formed and
    exponentiated in float64 (about 0.16 ms per 10^5 points, against 4.7 ms
    for a complex ``np.exp``); a complex exponent's term is exp(w) * val.
    The terms are summed in order.  The caller has ruled out overflow with
    ``_first_overflow``.
    """
    total = None
    for c, p in f.terms:
        val = _horner(p, xs)
        if c.imag != 0.0:
            e = np.exp(c * xs - 0.5 * c * c * f.q)
            val = e * val  # not in place: on 1 point that can change the last bit
        elif c.real != 0.0:
            w = c.real * xs
            w -= (0.5 * c * c * f.q).real
            val *= np.exp(w, out=w)
        total = val if total is None else total + val
    return np.zeros(xs.shape) if total is None else total


def evaluate_element(f: PolyExpElement, x):
    """Evaluate f at scalar x or a numpy array of finite points (complex result).

    Guards against silent saturation: if any term's exponent real part
    exceeds OVERFLOW_LIMIT on the points, EvaluationOverflowError is raised.
    """
    arr = np.asarray(x, dtype=float)
    xs = np.atleast_1d(arr)
    if xs.size:
        lo, hi = xs.min(), xs.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("points must be finite")
        overflow = _first_overflow([f], [lo], [hi])[1]
        if overflow:
            raise overflow
    total = _evaluate(f, xs)
    if arr.ndim == 0:
        return complex(total[0])
    return total.astype(complex, copy=False)


# ---------------------------------------------------------------------------
# estimates

Moments = tuple[int, complex, float]  # a sample's n, mean and sum of |v - mean|^2


def sample_moments(values: np.ndarray) -> Moments:
    """A sample's moments by ufuncs, over the deviations' real and imaginary
    parts side by side; an inf is kept quietly for ``Estimate.from_moments``."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(values)
        dev = (values - mean).view(float)
        return len(values), mean, np.sum(dev * dev)


def _merged(a: Moments, b: Moments) -> Moments:
    """Two samples' moments together, by Chan, Golub & LeVeque's pairwise update."""
    (na, ma, sa), (nb, mb, sb) = a, b
    n = na + nb
    with np.errstate(over="ignore", invalid="ignore"):
        delta = mb - ma
        return n, ma + delta * (nb / n), sa + sb + (delta.real**2 + delta.imag**2) * (na * nb / n)


@dataclass(frozen=True)
class Estimate:
    """A value with a standard error.

    ``n`` is the sample count; n = 0 marks an exactly computed value
    (stderr 0), used when closed-form factors share report plumbing with
    sampled ones.  Sampled estimates require n >= 2.
    """

    mean: complex
    stderr: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.n == 1:
            raise ValueError("sample count must be 0 (exact) or >= 2")
        if self.stderr < 0 or not math.isfinite(self.stderr):
            raise ValueError("stderr must be finite and >= 0")

    @classmethod
    def from_moments(cls, n: int, mean: complex, m2: float) -> "Estimate":
        """From a sample's count, mean and sum of |v - mean|^2."""
        if n < 2:
            raise ValueError("need at least 2 samples")
        mean, var = complex(mean), float(m2) / (n - 1)
        if not (cmath.isfinite(mean) and math.isfinite(var)):
            raise OverflowError(
                "sample moments exceed the float64 range (values overflow when squared)"
            )
        return cls(mean=mean, stderr=math.sqrt(var / n), n=n)

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "Estimate":
        return cls.from_moments(*sample_moments(np.asarray(values)))

    @classmethod
    def exact(cls, value: complex) -> "Estimate":
        return cls(mean=complex(value), stderr=0.0, n=0)

    def z_against(self, target: complex) -> float:
        dev = abs(self.mean - complex(target))
        if dev == 0.0:
            return 0.0
        return dev / self.stderr if self.stderr > 0 else math.inf


# ---------------------------------------------------------------------------
# time-indexed elements

# the former name of PiecewiseLinear as an h2 centering; exported nowhere,
# and kept only because perfbench/tests/test_checks.py still imports it
CenteringFunction = PiecewiseLinear


@dataclass(frozen=True)
class ProcessElement:
    """A time-indexed element Y_t: a record of values (module docstring)."""

    time_change: TimeChange
    template: tuple[tuple[complex, tuple[complex, ...]], ...]
    label: str = ""
    transformed: bool = False
    centering: PiecewiseLinear | None = None

    def at(self, t: float) -> PolyExpElement:
        y = make_element(quadratic_variation_at(self.time_change, t), self.template)
        if self.transformed:
            y = apply_G(y)
        return y if self.centering is None else _centered(y, self.centering(t))

    @classmethod
    def from_template(
        cls,
        h: TimeChange,
        terms: Iterable[tuple[complex, Sequence[complex]]],
        label: str = "",
    ) -> "ProcessElement":
        tpl = tuple((complex(c), tuple(complex(v) for v in p)) for c, p in terms)
        return cls(h, tpl, label or " + ".join(f"{','.join(map(str, p))}@{c}" for c, p in tpl))

    @classmethod
    def constant_one(cls, h: TimeChange) -> "ProcessElement":
        return cls.from_template(h, [(0.0, (1.0,))], "1")

    @classmethod
    def coordinate(cls, h: TimeChange) -> "ProcessElement":
        return cls.from_template(h, [(0.0, (0.0, 1.0))], "X")

    def gauss_transform(self) -> "ProcessElement":
        if self.transformed or self.centering is not None:
            raise ValueError("G applies once, before the centering")
        return replace(self, transformed=True)

    def centered_position(self, g: PiecewiseLinear | None) -> "ProcessElement":
        """(X - g(t)) * Y_t, the integrand shape of both inequality factors."""
        if self.centering is not None:
            raise ValueError("a process element is centered once")
        return replace(self, centering=PiecewiseLinear.zero() if g is None else g)


def _centered(y: PolyExpElement, c: float) -> PolyExpElement:
    """(X - c) * y: a factor of h1, and of h2 at each time."""
    return sub(apply_X(y), scale(y, c))


# ---------------------------------------------------------------------------
# Ito integrals and exact integral energies

def _ito_columns(elements: Iterable[PolyExpElement], x: np.ndarray) -> np.ndarray:
    """The column kernel: per row of x, sum_k elements[k](x_k) (x_{k+1} - x_k).

    Each element is evaluated on its column in place (contiguous for
    column-major paths).  Every path sums its terms left to right over k, in
    float64 while the integrand is real and in complex128 from its first
    complex column on, which equals a complex accumulation throughout up to
    the sign of zero parts (a complex accumulator throughout raised the
    peak RSS of a 10^5-path, 512-step run from 73.9 to 76.6 MB).  The
    elements end before their first overflow.
    """
    acc = np.zeros(x.shape[0])
    for k, el in enumerate(elements):
        vals = _evaluate(el, x[:, k])
        if vals.dtype.kind == "c" and acc.dtype.kind != "c":
            acc = acc.astype(complex)
        vals *= x[:, k + 1] - x[:, k]
        acc += vals
    return acc


def ito_integral(z: ProcessElement, ensemble: PathEnsemble) -> np.ndarray:
    """Left-endpoint Ito sums: per path, sum_k z(t_k, X_{t_k}) (X_{t_k+1} - X_{t_k}).

    Raises, as the sweep does, an overflow before the first column whose
    element fails to build, else that build error.  The result is complex128.
    """
    [(elements, error, _)] = sweep_columns([z], ensemble.grid)
    error = _first_overflow(elements, *column_ranges(ensemble.paths))[1] or error
    if error:
        raise error
    return _ito_columns(elements, ensemble.paths).astype(complex, copy=False)


# (elements, build error or None, grid column of the first: 0, or -1 at X_T)
Column = tuple[list[PolyExpElement], BaseException | None, int]


def sweep_columns(
    statistics: Sequence[ProcessElement | Callable[[], PolyExpElement]], grid: TimeGrid
) -> list[Column]:
    """Each statistic's elements for the sweep, built once: an integrand z at
    each left grid point up to the first that fails, or the element that a
    function of no arguments builds, read at X_T; and that failure (or None)."""
    columns = []
    for what in statistics:
        first = 0 if isinstance(what, ProcessElement) else -1
        builds = [what] if first else [functools.partial(what.at, t) for t in grid.points[:-1]]
        elements, error = [], None
        for build in builds:
            try:
                elements.append(build())
            except Exception as e:  # handed to the statistic's reader, in order
                error = e
                break
        columns.append((elements, error, first))
    return columns


def _values(column: Column, end: int, x: np.ndarray) -> np.ndarray:
    """A statistic's values on the paths ``x`` from its first ``end`` elements:
    |I|^2 of the Ito sum, or the element at X_T (0 past an overflow).  An
    inf or NaN is kept quietly for ``Estimate.from_moments``."""
    els, _, first = column
    with np.errstate(over="ignore", invalid="ignore"):
        if not first:
            return np.abs(_ito_columns(els[:end], x)) ** 2
        return _evaluate(els[0], x[:, -1]) if end else np.zeros(len(x))


@dataclass(frozen=True)
class SweepBlock:
    """One path block's share of the sweep: per statistic, its moments on the
    block's rows, each chunk read up to its first overflowing column there;
    each column's range (lo, hi) on the block; and the columns and points up
    to each statistic's first overflowing column on the block."""

    moments: list[Moments]
    lo: np.ndarray
    hi: np.ndarray
    columns: int
    points: int


def sweep_block(
    columns: Sequence[Column],
    h: TimeChange,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    block: int,
) -> SweepBlock:
    """Block ``block`` of an n_paths ensemble, drawn chunk by chunk, and each
    statistic of ``sweep_columns`` read on each chunk, then reduced to its
    moments on the block.  A chunk's stop is never before the block's;
    moments past it are an overflow's, whose error ``merge_sweep`` returns."""
    rows, ranges, parts = 0, [], []
    for x in block_chunks(h, grid, n_paths, seed, block):
        rows += len(x)
        lo, hi = column_ranges(x)
        ranges.append((lo, hi))
        ends = [_first_overflow(els, lo[first:], hi[first:])[0] for els, _, first in columns]
        parts.append([_values(column, end, x) for column, end in zip(columns, ends)])
    los, his = zip(*ranges)
    lo, hi = np.min(los, axis=0), np.max(his, axis=0)
    stops = [_first_overflow(els, lo[first:], hi[first:])[0] for els, _, first in columns]
    moments = [sample_moments(np.concatenate(values)) for values in zip(*parts)]
    return SweepBlock(moments, lo, hi, sum(stops), sum(stops) * rows)


def merge_sweep(
    columns: Sequence[Column], blocks: Sequence[SweepBlock]
) -> list[tuple[Moments, BaseException | None]]:
    """One (moments, error) pair per statistic from the ``sweep_block``
    results of every block, merged in block order, and the error its
    elements raise on the ensemble's column ranges, the element-wise
    extremes of the blocks' ranges, else the one that ended their build."""
    if not blocks:
        return []
    lo = np.min([done.lo for done in blocks], axis=0)
    hi = np.max([done.hi for done in blocks], axis=0)
    return [
        (functools.reduce(_merged, ms), _first_overflow(els, lo[first:], hi[first:])[1] or error)
        for (els, error, first), *ms in zip(columns, *(done.moments for done in blocks))
    ]


def _trapezoid_energy(z: ProcessElement, grid: TimeGrid, weighted: bool) -> float:
    """Exact trapezoid of E|z_t|^2 * w(t) against dh, w = h when weighted, else 1."""
    els = [z.at(t) for t in grid.points]
    u = [inner_product(el, el).real * (el.q if weighted else 1.0) for el in els]
    return math.fsum(
        0.5 * (u[k] + u[k + 1]) * (els[k + 1].q - els[k].q) for k in range(len(u) - 1)
    )


def energy_integral(z: ProcessElement, grid: TimeGrid) -> float:
    """Exact trapezoid of E|z_t|^2 against dh on the grid."""
    return _trapezoid_energy(z, grid, weighted=False)


def weighted_energy_integral(y: ProcessElement, grid: TimeGrid) -> float:
    """Exact trapezoid of E|Y_t|^2 * h(t) against dh (the h2 right-hand side)."""
    return _trapezoid_energy(y, grid, weighted=True)


# ---------------------------------------------------------------------------
# checks

@dataclass(frozen=True)
class Check:
    """One verified claim: one row of the reports (module docstring).

    ``factor1``/``factor2`` are the estimates behind ``lhs`` (sampled, or
    exact with n = 0); ``extra`` carries auxiliary diagnostics, such as the
    two parts of the h2 allowance.  ``slack`` and ``passed`` are derived.
    """

    case: str
    kind: str  # "bound" or "match"
    lhs: float
    rhs: float
    allowance: float
    factor1: Estimate | None = None
    factor2: Estimate | None = None
    note: str = ""
    extra: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("bound", "match"):
            raise ValueError(f"unknown check kind {self.kind!r}")

    @classmethod
    def skipped(cls, case: str, note: str) -> "Check":
        return cls(case, "match", 0.0, 0.0, 0.0, note=note)

    @classmethod
    def failed(cls, case: str, note: str) -> "Check":
        """The row of a task that raised: a match of inf against 0."""
        return cls(case, "match", math.inf, 0.0, 0.0, note=note)

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        if self.kind == "bound":
            return self.slack >= -self.allowance
        return abs(self.slack) <= self.allowance


def format_complex(z: complex) -> str:
    """Short label form of a complex number: 1, -0.5, 0+1j, 1-2j."""
    z = complex(z)
    re = f"{z.real:g}"
    if z.imag == 0.0:
        return re
    return f"{re}{'+' if z.imag >= 0 else '-'}{abs(z.imag):g}j"


def _sampled_allowance(stderr: float, k_sigma: float = K_SIGMA, disc: float = 0.0) -> float:
    """The allowance of a sampled check: k_sigma standard errors, plus a
    discretization allowance, plus ``MC_FLOOR``."""
    return k_sigma * stderr + disc + MC_FLOOR


def _worst_row(case: str, residuals: Sequence[float], tol: float, note: str) -> Check:
    """A match of the largest residual against 0 within ``tol``: 0 when there
    are none, and NaN, which ``np.max`` propagates, when any is NaN."""
    return Check(case, "match", float(np.max(residuals, initial=0.0)), 0.0, tol, note=note)


# ---------------------------------------------------------------------------
# operator identities of the exact algebra (check-algebra)

def verify_commutators(fs: Sequence[PolyExpElement]) -> list[Check]:
    """[D, X], [D, D*], [D, G] and [D*, G] on each element: four match rows
    of the worst residual coefficient against 0, exactly."""
    return [
        _worst_row(
            f"commutator[{which}]",
            [commutator_residual(which, f).max_abs_coeff() for f in fs], 0.0,
            note=f"{len(fs)} randomized elements; residual must canonicalize to zero",
        )
        for which in ("DX", "DDstar", "DG", "DstarG")
    ]


def verify_unitarity(fs: Sequence[PolyExpElement], gs: Sequence[PolyExpElement]) -> Check:
    """<Gf, Gg> = <f, g> on each pair, relative to ||f|| ||g||."""
    residuals = []
    for f, g in zip(fs, gs):
        ref = inner_product(f, g)
        img = inner_product(apply_G(f), apply_G(g))
        residuals.append(abs(img - ref) / max(norm(f) * norm(g), 1e-300))
    return _worst_row(
        "unitarity", residuals, UNITARITY_TOL,
        note=f"worst |<Gf,Gg> - <f,g>| over {len(fs)} pairs, relative to ||f||*||g||",
    )


def verify_adjointness(fs: Sequence[PolyExpElement], gs: Sequence[PolyExpElement]) -> Check:
    """<Df, g> = <f, D*g> on each pair, relative to the larger norm product."""
    residuals = []
    for f, g in zip(fs, gs):
        df = apply_D(f)
        dsg = apply_D_star(g)
        cs = max(norm(df) * norm(g), norm(f) * norm(dsg), 1e-300)
        residuals.append(abs(inner_product(df, g) - inner_product(f, dsg)) / cs)
    return _worst_row(
        "adjointness", residuals, ADJOINT_TOL,
        note=f"worst |<Df,g> - <f,D*g>| over {len(fs)} pairs, relative scale",
    )


def verify_g_fourth(fs: Sequence[PolyExpElement]) -> Check:
    """G^4 f = f: the exponents must cycle back exactly, and the coefficient
    residual is taken relative to the largest intermediate image coefficient.
    A broken exponent cycle makes the row inf."""
    n = len(fs)
    residuals = []
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
            residuals.append(sub(back, f).max_abs_coeff() / inter_scale)
    return _worst_row(
        "g-fourth-power", [math.inf] if cycle_breaks else residuals, G_FOURTH_TOL,
        note=(
            f"exponent cycle exact on all {n} elements; residual relative to "
            "the largest intermediate image coefficient"
            if not cycle_breaks
            else f"exponent cycle broken on {cycle_breaks} of {n} elements"
        ),
    )


def verify_hermite_diagonal(qs: Sequence[float]) -> Check:
    """G H_n = (-i)^n H_n for n <= 10 at each variance, relative to H_n."""
    residuals = []
    for q in qs:
        for order in range(11):
            h_el = hermite_element(order, q)
            dev = sub(apply_G(h_el), scale(h_el, _MINUS_I_POW[order % 4]))
            residuals.append(dev.max_abs_coeff() / h_el.max_abs_coeff())
    return _worst_row(
        "hermite-diagonal", residuals, HERMITE_TOL,
        note=f"G H_n = (-i)^n H_n for n <= 10, q in {{{', '.join(f'{q:g}' for q in qs)}}}",
    )


def verify_hermite_roundtrip(polys: Sequence[PolyExpElement]) -> Check:
    """from_hermite(to_hermite(p)) = p on each polynomial element."""
    return _worst_row(
        "hermite-roundtrip",
        [sub(from_hermite(to_hermite(p)), p).max_abs_coeff() / p.max_abs_coeff() for p in polys],
        HERMITE_ROUNDTRIP_TOL,
        note=f"from_hermite(to_hermite(p)) on {len(polys)} random polynomials",
    )


# ---------------------------------------------------------------------------
# the isometry and the two inequalities

def verify_isometry(z: ProcessElement, grid: TimeGrid, moments: Moments) -> Check:
    """E[|int z dX|^2] from sampling vs the exact integral int E|z|^2 dh.

    ``moments`` are those of |I|^2 over z's per-path Ito sums I.  A match
    check: factor1 is the sampled E|I|^2, factor2 the exact integral, and
    the note gives the deviation in standard errors.
    """
    mc = Estimate.from_moments(*moments)
    exact = energy_integral(z, grid)
    return Check(
        f"isometry[{z.label}]", "match", mc.mean.real, exact,
        _sampled_allowance(mc.stderr), mc, Estimate.exact(exact),
        note=f"z={mc.z_against(exact):.3f}",
    )


def _sqrt_estimate(e: Estimate) -> Estimate:
    """Delta-method square root of a nonnegative-mean sampled estimate."""
    m = max(e.mean.real, 0.0)
    f = math.sqrt(m)
    stderr = e.stderr / (2.0 * f) if f > 0 else math.sqrt(e.stderr)
    return Estimate(mean=f, stderr=stderr, n=e.n)


def verify_h1(
    y: PolyExpElement,
    c: float,
    c_tilde: float,
    tol: float = H1_TOL,
) -> Check:
    """Fixed-time inequality, all factors in closed form.

    ||(X - c) Y|| * ||(X - ct) G Y|| >= q ||Y||^2 at the element's q, with
    real centerings: a bound check with allowance ``tol``.
    """
    q = y.q
    c = float(c)
    c_tilde = float(c_tilde)
    f1 = norm(_centered(y, c))
    f2 = norm(_centered(apply_G(y), c_tilde))
    rhs = q * inner_product(y, y).real
    return Check(
        f"h1[c={c:g},ct={c_tilde:g},q={q:g}]", "bound", f1 * f2, rhs, tol,
        Estimate.exact(f1), Estimate.exact(f2),
    )


def verify_h1_case(
    name: str,
    y: PolyExpElement,
    c: float,
    c_tilde: float,
    equality: bool = False,
    tol: float = H1_TOL,
) -> list[Check]:
    """The ``h1[name]`` row of ``verify_h1``, and for an equality case an
    ``h1-equality[name]`` match row: its slack must vanish within ``tol``."""
    chk = replace(verify_h1(y, c, c_tilde, tol=tol), case=f"h1[{name}]")
    if not equality:
        return [chk]
    return [
        chk,
        Check(
            f"h1-equality[{name}]", "match", chk.lhs, chk.rhs, tol,
            note="derived equality case: slack must vanish",
        ),
    ]


def verify_h1_randomized(
    cases: Sequence[tuple[PolyExpElement, float, float]], tol: float = H1_TOL
) -> Check:
    """``verify_h1`` on each (Y, c, ct): the row of the smallest slack, or of
    the first NaN, as ``h1-random-worst[n=...]``; its note counts failures."""
    n = len(cases)
    checks = [verify_h1(y, c, ct, tol=tol) for y, c, ct in cases]
    worst = checks[int(np.argmin([chk.slack for chk in checks]))]
    failures = sum(not chk.passed for chk in checks)
    return replace(
        worst,
        case=f"h1-random-worst[n={n}]",
        note=f"minimum slack over {n} randomized cases at {worst.case}; {failures} failed",
    )


def h2_integrands(
    y: ProcessElement, g: PiecewiseLinear | None, g_tilde: PiecewiseLinear | None
) -> tuple[ProcessElement, ProcessElement]:
    """(X - g) Y and (X - gt) GY: the integrands of the two h2 factors."""
    return y.centered_position(g), y.gauss_transform().centered_position(g_tilde)


def verify_h2(
    y: ProcessElement,
    grid: TimeGrid,
    moments1: Moments,
    moments2: Moments,
    k_sigma: float = K_SIGMA,
    disc_factor: float = DISC_FACTOR,
) -> Check:
    """Integrated inequality via sampled Ito integrals vs the exact RHS.

    ``moments1``/``moments2`` are those of |I1|^2 and |I2|^2 over the
    per-path Ito sums of the two ``h2_integrands``.  The statistical
    allowance is k_sigma times the propagated standard error of the factor
    product (delta method through each square root, then the conservative
    f2*s1 + f1*s2 for the product); the discretization allowance is
    disc_factor * (T/M) for the left-endpoint sums.  The right side is
    ``weighted_energy_integral`` on the grid; the bound check's ``extra``
    holds the two parts of the allowance.
    """
    f1 = _sqrt_estimate(Estimate.from_moments(*moments1))
    f2 = _sqrt_estimate(Estimate.from_moments(*moments2))
    stderr = f1.mean.real * f2.stderr + f2.mean.real * f1.stderr
    disc = disc_factor * (grid.horizon / grid.steps)
    return Check(
        f"h2[{y.label}]", "bound", f1.mean.real * f2.mean.real,
        weighted_energy_integral(y, grid),
        _sampled_allowance(stderr, k_sigma, disc), f1, f2,
        note="RHS by trapezoid in t",
        extra=(("stat_allowance", k_sigma * stderr), ("disc_allowance", disc)),
    )


def verify_h2_target(name: str, bound: Check, target: float) -> Check:
    """The ``h2-target[name]`` row: the sampled left side of the ``h2`` row
    ``bound`` against its closed form, with the bound row's allowance."""
    return Check(
        f"h2-target[{name}]", "match", bound.lhs, target, bound.allowance,
        bound.factor1, bound.factor2, note="LHS vs its derived closed-form target",
    )


# ---------------------------------------------------------------------------
# PDE and L2-limit checks

def pde_grid() -> tuple[tuple[float, float], ...]:
    """The (x, y) sample points of the PDE residual check: a 21 x 13 lattice
    of [-2, 2] x [0.5, 2]."""
    xs = np.linspace(-2.0, 2.0, 21)
    ys = np.linspace(0.5, 2.0, 13)
    return tuple((float(a), float(b)) for a in xs for b in ys)


def verify_pde(
    c: complex,
    points: Iterable[tuple[float, float]] | None = None,
    step: float = PDE_STEP,
) -> Check:
    """Max |0.5 u_xx + u_y| over the sample points, central differences.

    Checked for u = exp(c x - c^2 y / 2) and its companion (x - c y) u, with
    second-order stencils at step d.  Each neighbour is u times exp(+-c d)
    or exp(-+c^2 d / 2), so with s = x - c y the residuals are |u a| and
    |u (s a + b)| for

        a = 2 sinh(c d / 2)^2 / d^2 - sinh(c^2 d / 2) / d,
        b = sinh(c d) / d - c cosh(c^2 d / 2),

    and no two nearly equal values of u are subtracted: float64 holds them
    within a few eps |u| (1 + |s|) max(1, |c|)^2 (tests/test_pde_kernel.py).
    A match of the worst residual against 0 within ``PDE_TOL``; a step whose
    shifts overflow gives an inf or NaN residual, and NaN is the worst.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, not {step!r}")
    if not cmath.isfinite(c):
        raise ValueError(f"exponent must be finite, not {c!r}")
    pts = tuple(points) if points is not None else pde_grid()
    x, y = np.array(pts, dtype=float).reshape(-1, 2).T
    cc, d = np.complex128(c), np.float64(step)
    cc2 = cc * cc
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.sinh(cc * d / 2)
        a = 2 * half * half / (d * d) - np.sinh(cc2 * d / 2) / d
        b = np.sinh(cc * d) / d - cc * np.cosh(cc2 * d / 2)
        u = np.exp(cc * x - cc2 * y / 2)
        r = np.abs(np.concatenate((u * a, u * ((x - cc * y) * a + b))))
    return _worst_row(
        f"pde[c={format_complex(complex(c))}]", r, PDE_TOL,
        note=(
            "max |u_xx/2 + u_y| for both element shapes, central "
            f"differences at step {step:g}"
        ),
    )


def verify_l2_limit(c: complex, q: float, k_max: int = L2_K_MAX_DEFAULT) -> list[Check]:
    """First-order convergence of the difference quotient to X E(c), exactly.

    The norms || (E(r) - 1)/r * E(c) - X E(c) || along r = 2^-k, k = 1..k_max,
    give three match rows: the last norm within ``L2_FINAL_TOL`` of 0, the
    last ratio within ``L2_RATIO_TOL`` of 1/2 (the quotient's second
    derivative at r = 0 is (X^2 - q) E(c)), and no step that fails to
    decrease, a NaN norm among them.  A ratio whose last-but-one norm
    underflowed to 0 reads inf and fails.  At q = 0, one skip row instead.
    """
    label = f"c={format_complex(c)}"
    if q == 0.0:
        return [
            Check.skipped(
                f"l2limit[{label}]", "skipped: degenerate time change (q = 0, X identically 0)"
            )
        ]
    e_c = make_exponential(c, q)
    target = apply_X(e_c)
    norms = []
    for k in range(1, k_max + 1):
        r = 2.0 ** (-k)
        quotient = scale(sub(mul(make_exponential(r, q), e_c), e_c), 1.0 / r)
        norms.append(norm(sub(quotient, target)))
    bad = sum(not b < a for a, b in zip(norms, norms[1:]))
    return [
        Check(
            f"l2limit-final[{label}]", "match", norms[-1], 0.0, L2_FINAL_TOL,
            note=f"norm at r = 2^-{k_max}",
        ),
        Check(
            f"l2limit-ratio[{label}]", "match",
            norms[-1] / norms[-2] if norms[-2] else math.inf, 0.5,
            L2_RATIO_TOL, note="successive-norm ratio, first-order convergence",
        ),
        Check(
            f"l2limit-decreasing[{label}]", "match", float(bad), 0.0, 0.0,
            note="count of non-decreasing steps in the norm sequence",
        ),
    ]


# ---------------------------------------------------------------------------
# two-point exponential formula (double entry)

def lemma2_element(c: complex, d: complex, q: float) -> PolyExpElement:
    """E(c) conj(E(d)) at variance q, which lemma2's sampled row reads at X_T."""
    return mul(make_exponential(c, q), conjugate(make_exponential(d, q)))


def verify_lemma2(c: complex, d: complex, q: float, moments: Moments | None = None) -> list[Check]:
    """The two-point formula <E(c), E(d)> = exp(c conj(d) q), double entry.

    The first check compares the algebra's inner product with the closed
    form.  Given the ``moments`` of ``lemma2_element`` on samples of X_T,
    where h(T) = q, a second compares their mean with it; where those
    moments overflow float64, it raises an ``OverflowError``.
    """
    c = complex(c)
    d = complex(d)
    label = f"c={format_complex(c)},d={format_complex(d)}"
    reference = Estimate.exact(cmath.exp(c * d.conjugate() * q))
    algebra = inner_product(make_exponential(c, q), make_exponential(d, q))
    checks = [
        Check(
            f"lemma2-exact[{label}]", "match", abs(algebra - reference.mean), 0.0,
            LEMMA2_EXACT_TOL, Estimate.exact(algebra), reference,
            note="inner product vs exp(c*conj(d)*q)",
        )
    ]
    if moments is None:
        return checks
    est = Estimate.from_moments(*moments)
    checks.append(
        Check(
            f"lemma2-mc[{label}]", "match", abs(est.mean - reference.mean), 0.0,
            _sampled_allowance(est.stderr), est, reference,
            note="sample mean of E(c)*conj(E(d)) vs exp(c*conj(d)*q)",
        )
    )
    return checks
