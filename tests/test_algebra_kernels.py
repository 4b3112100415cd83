"""The exact-algebra kernels against reference copies of their object-level form.

``apply_G`` runs on mutable lists, the float sums of the reductions append
into one list, and the escalated sums run on libmp value tuples.  The
references below are the plain formulations those kernels replaced: tuple
polynomial helpers, a per-pair addend list, and mpmath ``mpc``/``mpf``
objects with ``mp.e ** x`` for the factor.  The kernels perform the same
rounded operations on the same operands in the same order, so every
coefficient and every result must be bitwise equal (``repr``-equal, which
also tells -0.0 from 0.0).
"""

import cmath
import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_float

from expmart import (
    PolyExpElement,
    apply_G,
    expectation,
    gaussian_expectation,
    inner_product,
    make_element,
)
from expmart.algebra import (
    CANONICAL_TOL,
    _MAX_DPS,
    _MP_LOCK,
    _canonical_terms,
    _mp_inner_product,
    _mp_moment_sum,
    _mpc,
    _needs_escalation,
    take_mp_stats,
)
from expmart.cli import ALGEBRA_QS, random_element

# ---------------------------------------------------------------------------
# reference copies: tuple polynomials and canonicalization


def ref_clean_zero(z):
    return complex(z.real + 0.0, z.imag + 0.0)


def ref_poly_trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def ref_poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return tuple(out)


def ref_poly_scale(a, s):
    return tuple(s * v for v in a)


def ref_poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0j] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


def ref_poly_shift(a):
    return (0j, *a) if a else ()


def ref_canonical_terms(raw, scale):
    """Merges each exponent with the last kept one only; drops in every term."""
    items = sorted(
        ((ref_clean_zero(c), tuple(ref_clean_zero(v) for v in p)) for c, p in raw),
        key=lambda t: (t[0].real, t[0].imag),
    )
    merged = []
    for c, p in items:
        if merged:
            rep = merged[-1][0]
            if abs(c.real - rep.real) <= CANONICAL_TOL and abs(c.imag - rep.imag) <= CANONICAL_TOL:
                merged[-1] = (rep, list(ref_poly_add(merged[-1][1], p)))
                continue
        merged.append((c, list(p)))

    drop = CANONICAL_TOL * scale
    out = []
    for c, p in merged:
        cleaned = tuple(0j if abs(v) <= drop else v for v in p)
        cleaned = ref_poly_trim(cleaned)
        if cleaned:
            out.append((c, cleaned))
    return tuple(out)


def ref_apply_G(f):
    q = f.q
    raw = []
    for c, p in f.terms:
        beta = (2.0 * c * q, -1j)  # constant and x coefficient
        out = ()
        p_nm1 = ()  # P_{n-1}
        p_n = (1 + 0j,)  # P_0
        for n, coeff in enumerate(p):
            if coeff != 0:
                out = ref_poly_add(out, ref_poly_scale(p_n, coeff))
            # advance P_{n} -> P_{n+1} = beta P_n + 2 q n P_{n-1}
            nxt = ref_poly_add(
                ref_poly_add(ref_poly_scale(p_n, beta[0]), ref_poly_scale(ref_poly_shift(p_n), beta[1])),
                ref_poly_scale(p_nm1, 2.0 * q * n),
            )
            p_nm1, p_n = p_n, nxt
        raw.append((-1j * c, out))
    return PolyExpElement(q, ref_canonical_terms(raw, 0.0))


# ---------------------------------------------------------------------------
# reference copies: reductions on complex doubles and mpmath objects


def ref_csum(values):
    vals = [complex(v) for v in values]
    return complex(
        math.fsum(v.real for v in vals),
        math.fsum(v.imag for v in vals),
    )


def ref_moment_addends(p, a, q):
    if not p:
        return []
    addends = [complex(p[0])]
    m_prev2 = 1 + 0j
    m_prev1 = a * q
    for k in range(1, len(p)):
        addends.append(complex(p[k]) * m_prev1)
        m_prev2, m_prev1 = m_prev1, a * q * m_prev1 + k * q * m_prev2
    return addends


def ref_mp_moment_sum(p, a, q):
    if not len(p):
        return mp.mpc(0)
    a = mp.mpmathify(a)
    q = mp.mpf(q)
    total = mp.mpc(p[0])
    m_prev2 = mp.mpc(1)
    m_prev1 = a * q
    for k in range(1, len(p)):
        total += mp.mpc(p[k]) * m_prev1
        m_prev2, m_prev1 = m_prev1, a * q * m_prev1 + k * q * m_prev2
    return total


def ref_gaussian_expectation(p, a, q):
    coeffs = [complex(v) for v in p]
    addends = ref_moment_addends(coeffs, a, q)
    if not addends:
        return 0j
    total = ref_csum(addends)
    escalate, dps = _needs_escalation(addends, total)
    if not escalate:
        return total
    with _MP_LOCK, mp.workdps(dps):
        return complex(ref_mp_moment_sum(coeffs, a, q))


def ref_expectation(f):
    addends = []
    for c, p in f.terms:
        addends.extend(ref_moment_addends(p, c, f.q))
    if not addends:
        return 0j
    total = ref_csum(addends)
    escalate, dps = _needs_escalation(addends, total)
    if not escalate:
        return total
    with _MP_LOCK, mp.workdps(dps):
        acc = mp.mpc(0)
        for c, p in f.terms:
            acc += ref_mp_moment_sum(p, c, f.q)
        return complex(acc)


def ref_pair_addends(c, p, d, r, q):
    dd = d.conjugate()
    factor = cmath.exp(c * dd * q)
    conv = ref_poly_mul(p, tuple(v.conjugate() for v in r))
    return [factor * v for v in ref_moment_addends(conv, c + dd, q)]


def ref_mp_inner_product(f, g):
    """The escalated branch's pair sum, in the current mpmath context."""
    q = f.q
    acc = mp.mpc(0)
    for c, p in f.terms:
        for d, r in g.terms:
            cc = mp.mpmathify(c)
            dd = mp.mpmathify(d).conjugate()
            conv = [mp.mpc(0)] * (len(p) + len(r) - 1)
            for i, u in enumerate(p):
                for j, v in enumerate(r):
                    conv[i + j] += mp.mpmathify(u) * mp.mpmathify(v).conjugate()
            acc += mp.e ** (cc * dd * mp.mpf(q)) * ref_mp_moment_sum(conv, cc + dd, q)
    return acc


def ref_inner_product(f, g):
    """Returns the value and the dps of the escalated branch (0 if none)."""
    q = f.q
    addends = []
    for c, p in f.terms:
        for d, r in g.terms:
            addends.extend(ref_pair_addends(c, p, d, r, q))
    if not addends:
        return 0j, 0
    total = ref_csum(addends)
    escalate, dps = _needs_escalation(addends, total)
    if not escalate:
        return total, 0
    with _MP_LOCK, mp.workdps(dps):
        return complex(ref_mp_inner_product(f, g)), dps


# ---------------------------------------------------------------------------
# inputs: every q of check-algebra, coefficients 1e-3..1e3 in size, zero and
# real-only coefficients, real, imaginary and complex exponents, G-images

magnitude = st.floats(min_value=1e-3, max_value=1e3)
coeff_st = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.tuples(magnitude, st.booleans()).map(lambda t: complex(-t[0] if t[1] else t[0])),
)
exponent_st = st.one_of(
    st.just(0j),
    st.floats(min_value=-3.0, max_value=3.0).map(complex),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda y: complex(0.0, y)),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
terms_st = st.lists(
    st.tuples(exponent_st, st.lists(coeff_st, min_size=1, max_size=9)), min_size=1, max_size=3
)


@st.composite
def element_pairs(draw):
    if draw(st.booleans()):
        # check-algebra's own family at q = 4: its G-images carry the large,
        # cancelling coefficients that make the sums escalate
        q = 4.0
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        f, g = random_element(rng, q), random_element(rng, q)
    else:
        q = draw(st.sampled_from(ALGEBRA_QS))
        f, g = make_element(q, draw(terms_st)), make_element(q, draw(terms_st))
    for _ in range(draw(st.integers(0, 2))):
        f = apply_G(f)
    for _ in range(draw(st.integers(0, 2))):
        g = apply_G(g)
    return f, g


def assert_reductions_match(f, g):
    """Compare all three reductions; return the reference inner product's dps."""
    want, dps = ref_inner_product(f, g)
    assert repr(inner_product(f, g)) == repr(want)
    assert repr(expectation(f)) == repr(ref_expectation(f))
    for c, p in f.terms:
        a = c + g.terms[0][0].conjugate() if g.terms else c
        assert repr(gaussian_expectation(p, a, f.q)) == repr(ref_gaussian_expectation(p, a, f.q))
    return dps


@given(element_pairs())
@settings(max_examples=300, deadline=None)
def test_apply_G_is_bitwise_the_tuple_form(pair):
    for f in pair:
        assert repr(apply_G(f).terms) == repr(ref_apply_G(f).terms)


@given(element_pairs())
@settings(max_examples=300, deadline=None)
def test_reductions_are_bitwise_the_object_form(pair):
    assert_reductions_match(*pair)


def test_escalated_reductions_on_the_check_algebra_family():
    # the unitarity check's pairs, <f, g> and <Gf, Gg>, at every q
    rng = np.random.default_rng(2024)
    dps_seen = []
    for i in range(240):
        q = ALGEBRA_QS[i % 4]
        f, g = random_element(rng, q), random_element(rng, q)
        dps_seen.append(assert_reductions_match(f, g))
        dps_seen.append(assert_reductions_match(apply_G(f), apply_G(g)))
        assert repr(apply_G(f).terms) == repr(ref_apply_G(f).terms)
    assert sum(1 for dps in dps_seen if dps) >= 20


def test_escalated_sums_are_bitwise_at_working_precision():
    # rounding to a double hides most last-bit differences of the escalated
    # sums (they carry 25 spare digits), so compare the libmp values
    # themselves: this tells e ** x from exp(x), for one
    rng = np.random.default_rng(7)
    for i in range(60):
        q = ALGEBRA_QS[1 + i % 3]
        f, g = apply_G(random_element(rng, q)), apply_G(random_element(rng, q))
        for dps in (27, 35):
            with _MP_LOCK, mp.workdps(dps):
                prec, rnd = mp.mp._prec_rounding
                assert _mp_inner_product(f, g, prec, rnd) == ref_mp_inner_product(f, g)._mpc_
                c, p = f.terms[0]
                got = _mp_moment_sum([_mpc(v) for v in p], _mpc(c), from_float(q), prec, rnd)
                assert got == ref_mp_moment_sum(p, c, q)._mpc_


def test_escalations_are_counted_with_their_dps():
    f = apply_G(make_element(4.0, [(0.25 - 0.5j, (1, 1, 1, -2))]))
    g = apply_G(make_element(4.0, [(-0.5 - 1.5j, (0, -2, 0, 1))]))
    _, dps = ref_inner_product(f, g)
    assert dps > 0
    take_mp_stats()
    inner_product(f, g)
    inner_product(f, g)
    assert take_mp_stats() == {"mp_escalations": 2, "mp_max_dps": dps}
    assert take_mp_stats() == {"mp_escalations": 0, "mp_max_dps": 0}
    assert dps <= _MAX_DPS


# exponents from a pool spaced far beyond the merge tolerance: duplicates
# merge in both forms, so clustering agrees and only the drop rule differs
separated_exponent_st = st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, 1e-9 + 1e-9j, 2 - 1j, 0.5 + 2j])
raw_terms_st = st.lists(
    st.tuples(
        separated_exponent_st,
        st.lists(st.one_of(coeff_st, st.just(-0.0 + 0j), st.just(1e-12 + 0j)), min_size=1, max_size=6),
    ),
    max_size=6,
)


@given(raw_terms_st, st.sampled_from([0.0, 1.0, 1e3, 1e9]))
@settings(max_examples=300, deadline=None)
def test_canonical_terms_match_on_separated_exponents(raw, scale):
    # a product drops in every term, as the reference does
    assert repr(_canonical_terms(raw, scale, computed=True)) == repr(ref_canonical_terms(raw, scale))
    if scale == 0.0:
        assert repr(_canonical_terms(raw, 0.0)) == repr(ref_canonical_terms(raw, 0.0))
