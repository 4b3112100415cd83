"""Exact algebra of polynomial-times-exponential functionals of a Gaussian.

At a fixed time, a continuous martingale with deterministic quadratic
variation q has value X ~ N(0, q).  The elements handled here are finite
sums

    f(X) = sum_k p_k(X) * E(c_k),        E(c) = exp(c*X - c^2*q/2),

with complex exponents c_k and complex polynomial factors p_k.  This family
is closed under products (E(c)E(d) = exp(c*d*q) E(c+d)), complex
conjugation, multiplication by X, the lowering/raising pair

    D = q * d/dx,        D* = X - D,

and the unitary transform G determined by G E(c) = E(-i c).  Expectations
under N(0, q) are evaluated by an exact moment recursion, so every routine
in this module is closed-form; nothing is sampled.

Canonical form
--------------
Every operation returns a normalized element: terms sorted by exponent
(real part, then imaginary part), exponents equal to within 1e-12 per
component merged, trailing zero coefficients trimmed, zero polynomials
dropped.  Where terms merge (addition, subtraction, colliding exponents,
commutator residuals) and in products that convolve, coefficients at or
below 1e-12 relative to the pre-cancellation coefficient scale are dropped,
so that f - f collapses to the literal zero element (no terms).  A term
copied unchanged keeps every coefficient, and exact unary maps (conjugation,
X, D, D*, G, scalar multiples, products with a constant polynomial) never
drop small coefficients: a legitimate element may mix coefficient magnitudes
across many orders.  Canonicalization is therefore a projection:
make_element(f.q, f.terms) == f.
"""

from __future__ import annotations

import cmath
import math
import threading

import mpmath as mp
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from mpmath.libmp import (
    fone,
    from_float,
    fzero,
    mpc_add,
    mpc_mul,
    mpc_mul_mpf,
    mpc_pow,
    mpc_to_complex,
    mpf_e,
    mpf_mul_int,
)

__all__ = [
    "CANONICAL_TOL",
    "PolyExpElement",
    "HermiteExpansion",
    "VarianceMismatchError",
    "NonPolynomialElementError",
    "make_element",
    "make_exponential",
    "zero_element",
    "one_element",
    "monomial",
    "add",
    "sub",
    "scale",
    "mul",
    "conjugate",
    "gaussian_expectation",
    "expectation",
    "inner_product",
    "norm",
    "apply_X",
    "apply_D",
    "apply_D_star",
    "apply_G",
    "hermite_coefficients",
    "hermite_element",
    "to_hermite",
    "from_hermite",
    "commutator_residual",
]

# Relative tolerance of the canonical form: exponent components closer than
# this merge, and cancelling operations drop coefficients below this fraction
# of the pre-cancellation scale.
CANONICAL_TOL = 1e-12

Term = tuple[complex, tuple[complex, ...]]


class VarianceMismatchError(ValueError):
    """Raised when two elements with different variance parameters are combined."""


class NonPolynomialElementError(ValueError):
    """Raised when a Hermite conversion is applied to an element with exponentials."""


def _require_finite_complex(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


def _pair_factor(c: complex, d: complex, q: float) -> complex:
    """exp(c*d*q), the factor of E(c)E(d); OverflowError if c*d*q is not finite."""
    if not cmath.isfinite(c * d * q):
        raise OverflowError(f"exponent product c*d*q = {c * d * q!r} is not finite")
    return cmath.exp(c * d * q)


def _require_variance(q: float) -> float:
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise ValueError(f"variance parameter must be finite and >= 0, got {q!r}")
    return q


def _check_same_q(f: "PolyExpElement", g: "PolyExpElement") -> float:
    if f.q != g.q:
        raise VarianceMismatchError(
            f"elements live at different variance parameters: {f.q!r} vs {g.q!r}"
        )
    return f.q


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, low degree first)

def _poly_trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _poly_add(a: Sequence[complex], b: Sequence[complex]) -> tuple[complex, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return tuple(out)


def _poly_scale(a: Sequence[complex], s: complex) -> tuple[complex, ...]:
    return tuple(s * v for v in a)


def _poly_mul(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    if not a or not b:
        return []
    out = [0j] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _poly_diff(a: Sequence[complex]) -> tuple[complex, ...]:
    return tuple(k * a[k] for k in range(1, len(a)))


def _poly_shift(a: Sequence[complex]) -> tuple[complex, ...]:
    # multiply by x
    return (0j, *a) if a else ()


def _max_abs(coeffs: Iterable[complex]) -> float:
    m = 0.0
    for v in coeffs:
        av = abs(v)
        if av > m:
            m = av
    return m


# ---------------------------------------------------------------------------
# canonicalization

def _canonical_terms(
    raw: Sequence[Term], scale: float, computed: bool | Sequence[bool] = False
) -> tuple[Term, ...]:
    """Sort, merge near-equal exponents, drop sub-scale coefficients.

    An exponent joins the first cluster, latest first, whose representative
    (its smallest member in (re, im) order) lies within CANONICAL_TOL in both
    components; every representative in that real-part window is tried, so
    the clusters depend only on the exponents, and the representatives of
    the output are pairwise apart, which makes this a projection.

    ``scale`` is the pre-cancellation coefficient magnitude of the operation
    that produced ``raw``; coefficients at or below CANONICAL_TOL * scale are
    set to zero in merged terms, which are sums.  Unmerged terms are copied
    unchanged and keep every coefficient, unless ``computed`` (one flag, or
    one per term of ``raw``) says that sums computed them, as in a product.
    """
    flags = [computed] * len(raw) if isinstance(computed, bool) else computed
    # v + 0j turns -0.0 components into +0.0: they break nothing but make
    # reprs and golden files unstable
    items = sorted(
        ((c + 0j, [v + 0j for v in p], flag) for (c, p), flag in zip(raw, flags)),
        key=lambda t: (t[0].real, t[0].imag),
    )
    clusters: list[list] = []  # [representative, coefficients, droppable]
    for c, p, flag in items:
        k = len(clusters) - 1
        while k >= 0 and c.real - clusters[k][0].real <= CANONICAL_TOL:
            if abs(c.imag - clusters[k][0].imag) <= CANONICAL_TOL:
                break
            k -= 1
        else:
            clusters.append([c, p, flag])
            continue
        cluster = clusters[k]
        cluster[1] = _poly_add(cluster[1], p)
        cluster[2] = True

    drop = CANONICAL_TOL * scale
    out: list[Term] = []
    for c, p, droppable in clusters:
        if droppable:
            p = [0j if abs(v) <= drop else v for v in p]
        p = _poly_trim(p)
        if p:
            out.append((c, p))
    return tuple(out)


@dataclass(frozen=True)
class PolyExpElement:
    """A finite sum  sum_k p_k(X) * exp(c_k X - c_k^2 q / 2)  at fixed q.

    ``terms`` maps each exponent c_k to the coefficient tuple of p_k (low
    degree first).  The zero element has an empty ``terms``.  Instances are
    immutable; build them with :func:`make_element` / :func:`make_exponential`.
    """

    q: float
    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        _require_variance(self.q)
        keys: list[tuple[float, float]] = []
        for c, p in self.terms:
            if not cmath.isfinite(c):
                _require_finite_complex(c, "exponent")
            if not p or p[-1] == 0:
                raise ValueError("canonical terms must have trimmed, nonzero polynomials")
            if not all(map(cmath.isfinite, p)):
                for v in p:
                    _require_finite_complex(v, "coefficient")
            key = (c.real, c.imag)
            if keys and key <= keys[-1]:
                raise ValueError("canonical terms must be strictly ordered by exponent")
            for re, im in reversed(keys):
                if c.real - re > CANONICAL_TOL:
                    break
                if abs(c.imag - im) <= CANONICAL_TOL:
                    raise ValueError(
                        "canonical exponents must differ by more than CANONICAL_TOL "
                        f"in some component, got {complex(re, im)!r} and {c!r}"
                    )
            keys.append(key)

    # -- convenience ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        return max((_max_abs(p) for _, p in self.terms), default=0.0)


# ---------------------------------------------------------------------------
# constructors

def make_element(q: float, terms: Iterable[tuple[complex, Sequence[complex]]]) -> PolyExpElement:
    """Build a canonical element from (exponent, coefficient-tuple) pairs."""
    raw = [(complex(c), tuple(complex(v) for v in p)) for c, p in terms]
    for c, p in raw:
        _require_finite_complex(c, "exponent")
        for v in p:
            _require_finite_complex(v, "coefficient")
    scale_ = max((_max_abs(p) for _, p in raw), default=0.0)
    return PolyExpElement(_require_variance(q), _canonical_terms(raw, scale_))


def make_exponential(c: complex, q: float) -> PolyExpElement:
    """The exponential element E(c) = exp(c*X - c^2 q/2), unit coefficient."""
    c = _require_finite_complex(c, "exponent")
    return PolyExpElement(_require_variance(q), (((c), (1 + 0j,)),))


def zero_element(q: float) -> PolyExpElement:
    return PolyExpElement(_require_variance(q), ())


def one_element(q: float) -> PolyExpElement:
    return make_exponential(0.0, q)


def monomial(n: int, q: float) -> PolyExpElement:
    """The element X^n (exponent zero)."""
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    return PolyExpElement(_require_variance(q), ((0j, (0j,) * n + (1 + 0j,)),))


# ---------------------------------------------------------------------------
# linear structure and products

def add(f: PolyExpElement, g: PolyExpElement) -> PolyExpElement:
    q = _check_same_q(f, g)
    raw = list(f.terms) + list(g.terms)
    scale_ = max(f.max_abs_coeff(), g.max_abs_coeff())
    return PolyExpElement(q, _canonical_terms(raw, scale_))


def sub(f: PolyExpElement, g: PolyExpElement) -> PolyExpElement:
    return add(f, scale(g, -1.0))


def scale(f: PolyExpElement, s: complex) -> PolyExpElement:
    s = _require_finite_complex(s, "scalar")
    if s == 0:
        return zero_element(f.q)
    raw = [(c, _poly_scale(p, s)) for c, p in f.terms]
    return PolyExpElement(f.q, _canonical_terms(raw, 0.0))


def mul(f: PolyExpElement, g: PolyExpElement) -> PolyExpElement:
    """Pointwise product.

    Exponential parts combine as E(c)E(d) = exp(c*d*q) E(c+d); polynomial
    parts multiply by convolution.  A constant polynomial sums nothing, so
    its pair's term is a scaled copy and keeps every coefficient.
    """
    q = _check_same_q(f, g)
    pairs = [(c, p, d, r) for c, p in f.terms for d, r in g.terms]
    raw = [(c + d, _poly_scale(_poly_mul(p, r), _pair_factor(c, d, q))) for c, p, d, r in pairs]
    scale_ = max((_max_abs(p) for _, p in raw), default=0.0)
    convolved = [len(p) > 1 and len(r) > 1 for _, p, _, r in pairs]
    return PolyExpElement(q, _canonical_terms(raw, scale_, computed=convolved))


def conjugate(f: PolyExpElement) -> PolyExpElement:
    """Complex conjugation: exponents and coefficients conjugate."""
    raw = [(c.conjugate(), tuple(v.conjugate() for v in p)) for c, p in f.terms]
    return PolyExpElement(f.q, _canonical_terms(raw, 0.0))


# ---------------------------------------------------------------------------
# expectations
#
# Moment sums can cancel catastrophically: a G-image at q = 4 carries
# coefficients ~1e11 while its norm stays O(1)-relative, so the float64 sum
# can lose every digit.  inner_product is the one scalar reduction (the
# expectations are <f, 1>), and it falls back to mpmath at a
# cancellation-adapted precision whenever more than _ESCALATE_DIGITS decimal
# digits cancel; coefficients stay exact float64 inputs either way.
#
# The escalated sums need 27-35 digits on check-algebra's families, beyond
# double-double's ~32.  They run on libmp value tuples, not mpf/mpc objects,
# whose conversion and allocation per operation cost more than the arithmetic.
#
# The kernels below obey one rule: every rounded float, complex or mpmath
# operation of the plain object-level formulation runs with the same
# operands in the same order; only the operands of a single + or * may be
# swapped (both commute bitwise).  Nothing is reassociated, fused or
# vectorized, so results are bit-identical to that formulation by
# construction (tests/test_algebra_kernels.py keeps it as the oracle).  An
# escalated block reads its precision from mpmath's global context inside
# ``mp.workdps``, so the blocks keep holding _MP_LOCK.

_ESCALATE_DIGITS = 2
_MAX_DPS = 70

# Nothing contends for this lock: the program starts no thread, and each
# worker process has its own precision.  It stays for perfbench/tracer.py,
# which swaps in a timed lock and wraps ``mpmath.workdps``, and for
# tests/test_api.py, which pins the name; it goes with the tracer.
_MP_LOCK = threading.Lock()

# [escalated reductions, highest dps used], process-wide like the precision
# they describe and updated under _MP_LOCK; cli.run resets and reads them
_MP_STATS = [0, 0]


def take_mp_stats() -> dict[str, int]:
    """The escalation count and highest dps since the last call; resets both."""
    with _MP_LOCK:
        out = {"mp_escalations": _MP_STATS[0], "mp_max_dps": _MP_STATS[1]}
        _MP_STATS[:] = [0, 0]
    return out


def _csum(values: Sequence[complex]) -> complex:
    return complex(
        math.fsum([v.real for v in values]),
        math.fsum([v.imag for v in values]),
    )


def _moment_addends(
    out: list[complex], p: Sequence[complex], a: complex, q: float, factor: complex
) -> None:
    """Append the addends factor * (p[k] * m_k) to ``out``.

    m_k = E[X^k exp(aX - a^2 q/2)], X ~ N(0, q), follows the tilted moment
    recursion m_0 = 1, m_1 = a q, m_k = a q m_{k-1} + (k-1) q m_{k-2}.
    """
    if not p:
        return
    out.append(factor * p[0])
    m_prev2 = 1 + 0j
    m_prev1 = aq = a * q
    for k in range(1, len(p)):
        out.append(factor * (p[k] * m_prev1))
        m_prev2, m_prev1 = m_prev1, aq * m_prev1 + k * q * m_prev2


def _needs_escalation(addends: Sequence[complex], total: complex) -> tuple[bool, int]:
    amax = _max_abs(addends)
    if amax == 0.0:
        return False, 0
    if not (math.isfinite(amax) and math.isfinite(total.real) and math.isfinite(total.imag)):
        return True, _MAX_DPS
    ratio = amax / max(abs(total), amax * 1e-45)
    if ratio < 10.0**_ESCALATE_DIGITS:
        return False, 0
    return True, min(_MAX_DPS, 25 + int(math.log10(ratio)))


def _reduce(addends: list[complex], exact: Callable[[int, str], tuple]) -> complex:
    """The compensated float sum of the addends, or, when it cancels more
    than ``_ESCALATE_DIGITS`` digits, ``exact(prec, rnd)`` (an mpc value
    tuple) at the escalated precision, counted in the escalation stats.

    ``_MP_LOCK`` and ``mp.workdps`` are looked up when called, not bound.
    """
    if not addends:
        return 0j
    total = _csum(addends)
    escalate, dps = _needs_escalation(addends, total)
    if not escalate:
        return total
    with _MP_LOCK, mp.workdps(dps):
        _MP_STATS[0] += 1
        _MP_STATS[1] = max(_MP_STATS[1], dps)
        prec, rnd = mp.mp._prec_rounding
        return mpc_to_complex(exact(prec, rnd), rnd=rnd)


def _mpc(z: complex) -> tuple:
    """A complex double as an exact libmp (re, im) pair."""
    return from_float(z.real), from_float(z.imag)


def _mp_moment_sum(p: Sequence[tuple], a: tuple, q: tuple, prec: int, rnd: str) -> tuple:
    """sum_k p[k] m_k on libmp values: p and a are mpc pairs, q an mpf; p nonempty."""
    total = p[0]
    m_prev2 = (fone, fzero)
    m_prev1 = aq = mpc_mul_mpf(a, q, prec, rnd)
    for k in range(1, len(p)):
        total = mpc_add(total, mpc_mul(p[k], m_prev1, prec, rnd), prec, rnd)
        m_prev2, m_prev1 = m_prev1, mpc_add(
            mpc_mul(aq, m_prev1, prec, rnd),
            mpc_mul_mpf(m_prev2, mpf_mul_int(q, k, prec, rnd), prec, rnd),
            prec,
            rnd,
        )
    return total


def gaussian_expectation(p: Sequence[complex], a: complex, q: float) -> complex:
    """E[p(X) exp(a X - a^2 q/2)] for X ~ N(0, q): the expectation of p(X) E(a)."""
    return expectation(make_element(q, [(a, p)]))


def expectation(f: PolyExpElement) -> complex:
    """E[f(X)] = <f, 1> for X ~ N(0, q); each exponential term has expectation one."""
    return inner_product(f, one_element(f.q))


def inner_product(f: PolyExpElement, g: PolyExpElement) -> complex:
    """<f, g> = E[f(X) * conj(g(X))].

    For pure exponentials this reduces to exp(c * conj(d) * q).  Terms are
    paired directly (no intermediate canonicalized product), so the adaptive
    precision sees the complete cancellation structure: the pair (c, p),
    (d, r) adds exp(c conj(d) q) E[p(X) conj(r)(X) E(c + conj(d))].
    """
    q = _check_same_q(f, g)
    g_conj = [(d.conjugate(), [v.conjugate() for v in r]) for d, r in g.terms]
    addends: list[complex] = []
    for c, p in f.terms:
        for dd, rr in g_conj:
            factor = _pair_factor(c, dd, q)
            _moment_addends(addends, _poly_mul(p, rr), c + dd, q, factor)
    return _reduce(addends, lambda prec, rnd: _mp_inner_product(f, g, prec, rnd))


def _mp_inner_product(f: PolyExpElement, g: PolyExpElement, prec: int, rnd: str) -> tuple:
    """<f, g> on libmp values: the pair sum of :func:`inner_product`, with the
    factor evaluated as e ** (c conj(d) q)."""
    e = (mpf_e(prec, rnd), fzero)
    q = from_float(f.q)
    g_mp = [(_mpc(d.conjugate()), [_mpc(v.conjugate()) for v in r]) for d, r in g.terms]
    acc = (fzero, fzero)
    for c, p in f.terms:
        cc = _mpc(c)
        pp = [_mpc(u) for u in p]
        for dd, rr in g_mp:
            conv = [(fzero, fzero)] * (len(pp) + len(rr) - 1)
            for i, u in enumerate(pp):
                for j, v in enumerate(rr):
                    conv[i + j] = mpc_add(conv[i + j], mpc_mul(u, v, prec, rnd), prec, rnd)
            factor = mpc_pow(e, mpc_mul_mpf(mpc_mul(cc, dd, prec, rnd), q, prec, rnd), prec, rnd)
            moment = _mp_moment_sum(conv, mpc_add(cc, dd, prec, rnd), q, prec, rnd)
            acc = mpc_add(acc, mpc_mul(factor, moment, prec, rnd), prec, rnd)
    return acc


def norm(f: PolyExpElement) -> float:
    v = inner_product(f, f).real
    return math.sqrt(v) if v > 0.0 else 0.0


# ---------------------------------------------------------------------------
# operators

def apply_X(f: PolyExpElement) -> PolyExpElement:
    """Multiplication by X: shifts every polynomial factor up one degree."""
    raw = [(c, _poly_shift(p)) for c, p in f.terms]
    return PolyExpElement(f.q, _canonical_terms(raw, 0.0))


def _lowered(c: complex, p: Sequence[complex], q: float) -> tuple[complex, ...]:
    """q (p' + c p): the polynomial factor of D(p(x) E(c))."""
    return _poly_add(_poly_scale(_poly_diff(p), q), _poly_scale(p, c * q))


def apply_D(f: PolyExpElement) -> PolyExpElement:
    """Lowering operator D = q * d/dx.

    On a term p(x) E(c) the derivative acts as q (p' + c p) E(c); in
    particular D E(c) = c q E(c).
    """
    raw = [(c, _lowered(c, p, f.q)) for c, p in f.terms]
    return PolyExpElement(f.q, _canonical_terms(raw, 0.0))


def apply_D_star(f: PolyExpElement) -> PolyExpElement:
    """Raising operator D* = X - D, the adjoint of D.

    On exponentials: D* E(c) = (x - c q) E(c).
    """
    q = f.q
    raw = [(c, _poly_add(_poly_shift(p), _poly_scale(_lowered(c, p, q), -1.0))) for c, p in f.terms]
    return PolyExpElement(f.q, _canonical_terms(raw, 0.0))


def apply_G(f: PolyExpElement) -> PolyExpElement:
    """The unitary transform G with G E(c) = E(-i c).

    The action on polynomial factors follows from differentiating the
    exponential family in the exponent: with beta(x) = 2 c q - i x,

        G(x^n E(c)) = P_n(x) E(-i c),
        P_0 = 1,  P_1 = beta,  P_{n+1} = beta P_n + 2 q n P_{n-1},

    which reproduces G H_n = (-i)^n H_n on the variance-q Hermite basis.
    """
    q = f.q
    b1 = -1j  # x coefficient of beta
    b1_shift0 = b1 * 0j  # beta's x term times P_n, at degree 0
    raw: list[Term] = []
    for c, p in f.terms:
        b0 = 2.0 * c * q  # constant coefficient of beta
        out: list[complex] = []
        p_nm1: list[complex] = []  # P_{n-1}
        p_n = [1 + 0j]  # P_0
        last = len(p) - 1
        for n, coeff in enumerate(p):
            if coeff != 0:
                # out += coeff * P_n; out is shorter than P_n
                m = len(out)
                for i in range(m):
                    out[i] += coeff * p_n[i]
                out += [coeff * v for v in p_n[m:]]
            if n == last:
                break
            # advance P_n -> P_{n+1} = (b1 x P_n + b0 P_n) + 2 q n P_{n-1}
            s = 2.0 * q * n
            shifted = [b1_shift0] + [b1 * v for v in p_n]
            nxt = [u + b0 * v for u, v in zip(shifted, p_n)]
            nxt.append(shifted[-1])
            for i, v in enumerate(p_nm1):
                nxt[i] += s * v
            p_nm1, p_n = p_n, nxt
        raw.append((-1j * c, out))
    return PolyExpElement(q, _canonical_terms(raw, 0.0))


# ---------------------------------------------------------------------------
# Hermite bridge

@lru_cache(maxsize=None)
def hermite_coefficients(n: int, q: float) -> tuple[complex, ...]:
    """Monomial coefficients of the variance-q Hermite polynomial H_n(x; q).

    H_0 = 1, H_1 = x, H_{n+1} = x H_n - n q H_{n-1}; orthogonal under
    N(0, q) with <H_m, H_n> = delta_mn n! q^n.
    """
    if n < 0:
        raise ValueError("Hermite order must be >= 0")
    h_prev: tuple[complex, ...] = (1 + 0j,)
    if n == 0:
        return h_prev
    h_cur: tuple[complex, ...] = (0j, 1 + 0j)
    for k in range(1, n):
        h_nxt = _poly_add(_poly_shift(h_cur), _poly_scale(h_prev, -k * q))
        h_prev, h_cur = h_cur, h_nxt
    return h_cur


def hermite_element(n: int, q: float) -> PolyExpElement:
    """H_n(X; q) as an element (single term, exponent zero)."""
    return make_element(q, [(0.0, hermite_coefficients(n, _require_variance(q)))])


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients of a pure polynomial element in the H_n(x; q) basis."""

    q: float
    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        _require_variance(self.q)
        for v in self.coeffs:
            _require_finite_complex(v, "Hermite coefficient")


def to_hermite(f: PolyExpElement) -> HermiteExpansion:
    """Expand a pure polynomial element over the Hermite basis.

    Only elements with a single exponent-zero term (or the zero element)
    qualify; anything carrying a genuine exponential raises.
    """
    if f.is_zero:
        return HermiteExpansion(f.q, ())
    if len(f.terms) != 1 or f.terms[0][0] != 0:
        raise NonPolynomialElementError(
            "Hermite expansion requires a pure polynomial element (exponent zero)"
        )
    residual = list(f.terms[0][1])
    out = [0j] * len(residual)
    # peel from the top: H_d is monic of degree d
    for d in range(len(residual) - 1, -1, -1):
        a = residual[d]
        out[d] = a
        if a != 0:
            for k, v in enumerate(hermite_coefficients(d, f.q)):
                residual[k] -= a * v
    return HermiteExpansion(f.q, _poly_trim(out))


def from_hermite(h: HermiteExpansion) -> PolyExpElement:
    """Rebuild the polynomial element sum_n coeffs[n] H_n(X; q)."""
    poly: tuple[complex, ...] = ()
    for n, a in enumerate(h.coeffs):
        if a != 0:
            poly = _poly_add(poly, _poly_scale(hermite_coefficients(n, h.q), a))
    # the sums can cancel, so they drop like a product's coefficients
    scale_ = _max_abs(poly)
    return PolyExpElement(_require_variance(h.q), _canonical_terms([(0j, poly)], scale_, computed=True))


# ---------------------------------------------------------------------------
# commutators

_COMMUTATORS = ("DX", "DDstar", "DG", "DstarG")


def commutator_residual(which: str, f: PolyExpElement) -> PolyExpElement:
    """Residual (LHS - RHS) of one of the four operator identities.

    DX:     D(X f) - X(D f) - q f            ([D, X] = q)
    DDstar: D(D* f) - D*(D f) - q f          ([D, D*] = q)
    DG:     D(G f) + i G(D f)                (D G = -i G D)
    DstarG: D*(G f) - i G(D* f)              (D* G = i G D*)

    For every element the residual canonicalizes to the zero element; the
    subtraction drops coefficients below 1e-12 of the composed images' scale.
    """
    if which == "DX":
        lhs = apply_D(apply_X(f))
        rhs = add(apply_X(apply_D(f)), scale(f, f.q))
    elif which == "DDstar":
        lhs = apply_D(apply_D_star(f))
        rhs = add(apply_D_star(apply_D(f)), scale(f, f.q))
    elif which == "DG":
        lhs = apply_D(apply_G(f))
        rhs = scale(apply_G(apply_D(f)), -1j)
    elif which == "DstarG":
        lhs = apply_D_star(apply_G(f))
        rhs = scale(apply_G(apply_D_star(f)), 1j)
    else:
        raise ValueError(f"unknown commutator {which!r}; expected one of {_COMMUTATORS}")
    return sub(lhs, rhs)
