"""Exact-algebra checks.

Every expectation routine is cross-checked against numerical quadrature of
the same integrand under the N(0, q) density (scipy.integrate.quad, real and
imaginary parts separately) before any closed-form value is trusted.  The
operator identities (product formula, ladder commutators, transform
unitarity) are then asserted on both hand-picked and randomized elements.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from expmart import algebra
from expmart import (
    CANONICAL_TOL,
    NonPolynomialElementError,
    PolyExpElement,
    VarianceMismatchError,
    add,
    apply_D,
    apply_D_star,
    apply_G,
    apply_X,
    commutator_residual,
    conjugate,
    expectation,
    from_hermite,
    gaussian_expectation,
    hermite_coefficients,
    hermite_element,
    inner_product,
    make_element,
    make_exponential,
    monomial,
    mul,
    norm,
    one_element,
    scale,
    sub,
    to_hermite,
    zero_element,
)
from expmart.cli import random_element

RNG = np.random.default_rng(181)


def quad_expectation(p, a, q):
    """Independent oracle: integrate p(x) exp(a x - a^2 q / 2) dN(0, q)."""
    if q == 0.0:
        return complex(p[0]) if p else 0j

    def integrand(x, part):
        # single combined exponent so large |x| underflows instead of overflowing
        expo = a * x - a * a * q / 2.0 - x * x / (2.0 * q)
        if expo.real < -700.0:
            return 0.0
        poly = 0j
        for coeff in reversed(p):
            poly = poly * x + coeff
        val = poly * cmath.exp(expo) / math.sqrt(2.0 * math.pi * q)
        return val.real if part == 0 else val.imag

    re, _ = quad(integrand, -np.inf, np.inf, args=(0,), limit=300)
    im, _ = quad(integrand, -np.inf, np.inf, args=(1,), limit=300)
    return complex(re, im)


@pytest.mark.parametrize(
    "p, a, q",
    [
        ((1,), 0.0, 1.0),
        ((1,), 1.0, 1.0),
        ((0, 1), 0.0, 1.0),
        ((0, 0, 1), 0.0, 1.0),
        ((0, 0, 0, 0, 1), 0.0, 2.0),
        ((1, 2, 3), 0.5, 0.5),
        ((2, 0, -1, 1j), 1 + 1j, 1.0),
        ((1j, 1, 0, 0, 2 - 1j), -0.75 + 0.5j, 4.0),
        ((1, -1, 1, -1, 1, -1, 1, -1, 1), 2.0, 0.25),
        ((0.3, 0, 0, 0, 0, 0, 0, 0, 1.7), -1.5 - 2.0j, 1.0),
    ],
)
def test_gaussian_expectation_against_quadrature(p, a, q):
    exact = gaussian_expectation(p, a, q)
    reference = quad_expectation(p, a, q)
    assert abs(exact - reference) <= 1e-8 * max(1.0, abs(reference))


def test_gaussian_expectation_validates_its_polynomial():
    # p(X) E(a) is built as an element, so a coefficient that is not finite
    # raises instead of summing to inf or nan
    for p, a in (([1.0, math.inf], 0.5), ([math.nan], 0.0)):
        with pytest.raises(ValueError, match="coefficient must be finite"):
            gaussian_expectation(p, a, 1.0)
    assert repr(gaussian_expectation([], 0.5, 1.0)) == "0j"
    p = [1.0, -2j, 0.5]
    assert repr(gaussian_expectation(p + [0.0, 0j], 0.5, 1.0)) == repr(
        gaussian_expectation(p, 0.5, 1.0)
    )


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 4.0])
def test_expectation_matches_per_term_quadrature(q):
    for _ in range(5):
        f = random_element(RNG, q, max_degree=5, max_terms=3, c_bound=2.0)
        reference = sum(quad_expectation(p, c, q) for c, p in f.terms)
        assert abs(expectation(f) - reference) <= 1e-8 * max(1.0, abs(reference))


def test_inner_product_against_quadrature():
    q = 1.5
    f = make_element(q, [(0.5, (1, 2)), (-0.25j, (0, 0, 1))])
    g = make_element(q, [(1j, (3, 0, -1)), (0.0, (1,))])
    # <f, g> = E[f conj(g)]: push the conjugate through term by term
    reference = 0j
    for c, p in f.terms:
        for d, r in g.terms:
            conv = np.convolve(p, np.conjugate(r))
            reference += cmath.exp(c * d.conjugate() * q) * quad_expectation(
                tuple(conv), c + d.conjugate(), q
            )
    assert abs(inner_product(f, g) - reference) <= 1e-8 * max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# pinned closed-form values

def test_exponential_at_origin():
    f = make_exponential(1.0, 1.0)
    (c, p), = f.terms
    assert c == 1.0 and p == (1.0,)
    # value at x = 0 is exp(-q/2)
    assert math.isclose(
        sum(pk[0] * cmath.exp(-ck * ck / 2.0) for ck, pk in f.terms).real,
        math.exp(-0.5),
        rel_tol=1e-12,
    )


def test_constant_exponential_is_one():
    assert make_exponential(0.0, 1.0) == one_element(1.0)


def test_product_formula_instance():
    # E(1) E(2) at q = 0.5 -> e^{1.0} E(3)
    f = mul(make_exponential(1.0, 0.5), make_exponential(2.0, 0.5))
    (c, p), = f.terms
    assert c == 3.0
    assert math.isclose(p[0].real, math.e, rel_tol=1e-14)
    assert p[0].imag == 0.0


def test_product_with_opposite_exponent():
    # E(i) E(-i) at q = 1 -> e^{1} * constant
    f = mul(make_exponential(1j, 1.0), make_exponential(-1j, 1.0))
    (c, p), = f.terms
    assert c == 0.0
    assert abs(p[0] - math.e) <= 1e-14 * math.e


def test_inner_product_of_exponentials():
    for c, d, q in [(1, 1, 1), (1, -1, 1), (1j, 1j, 1), (0.5 + 1j, -0.25j, 2.0)]:
        got = inner_product(make_exponential(c, q), make_exponential(d, q))
        want = cmath.exp(c * complex(d).conjugate() * q)
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("op", [mul, inner_product], ids=["mul", "inner_product"])
def test_pair_factor_with_infinite_exponent_product_raises(op):
    # c*d*q = 1e400 overflows to inf+nanj, which cmath.exp returns without
    # raising; the product must raise like an overflowing exp does
    f = make_exponential(1e200, 1.0)
    with pytest.raises(OverflowError):
        op(f, f)


def test_computed_value_outside_float64_is_an_overflow():
    # G(X^10 E(1e150)) has coefficients of order (1e150)^10; input that is
    # not finite stays a ValueError
    with pytest.raises(OverflowError, match=r"at exponent -1e\+150j"):
        apply_G(make_element(1.0, [(1e150, (0,) * 10 + (1,))]))
    with pytest.raises(OverflowError, match=r"exponent \(inf\+0j\)"):
        PolyExpElement(1.0, ((complex(math.inf, 0.0), (1 + 0j,)),))
    with pytest.raises(ValueError, match="exponent must be finite"):
        make_exponential(math.inf, 1.0)
    with pytest.raises(ValueError, match="coefficient must be finite"):
        make_element(1.0, [(1.0, (math.nan,))])


def test_normalization_and_low_moments():
    q = 1.7
    assert expectation(make_exponential(0.8 - 0.3j, q)) == pytest.approx(1.0, abs=1e-13)
    assert expectation(monomial(1, q)) == 0.0
    assert expectation(monomial(2, q)) == pytest.approx(q, rel=1e-14)
    assert expectation(monomial(4, q)) == pytest.approx(3 * q * q, rel=1e-14)


def test_norm_keeps_nan_and_clips_a_rounded_negative_square(monkeypatch):
    def norm_of(squared: float) -> float:
        monkeypatch.setattr(algebra, "inner_product", lambda f, g: complex(squared))
        return norm(one_element(1.0))

    assert norm_of(4.0) == 2.0
    assert math.isnan(norm_of(math.nan))
    # repr tells -0.0 from 0.0
    assert repr(norm_of(-0.0)) == repr(norm_of(-1e-300)) == "0.0"


def test_ladder_action_on_exponentials():
    c, q = 0.75 - 0.5j, 2.0
    e_c = make_exponential(c, q)
    assert apply_D(e_c) == scale(e_c, c * q)
    # D* E(c) = (x - c q) E(c)
    (cc, p), = apply_D_star(e_c).terms
    assert cc == c and p == (-c * q, 1.0)


def test_transform_rotates_exponents():
    c, q = 1.5 + 0.25j, 0.5
    assert apply_G(make_exponential(c, q)) == make_exponential(-1j * c, q)


def test_x_splits_into_ladder_sum():
    for q in (0.0, 1.0, 4.0):
        f = random_element(RNG, q)
        assert sub(apply_X(f), add(apply_D(f), apply_D_star(f))).is_zero


# ---------------------------------------------------------------------------
# canonical form and dataclass contracts

coeff_st = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)
exponent_st = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)
terms_st = st.lists(
    st.tuples(exponent_st, st.lists(coeff_st, min_size=1, max_size=6)),
    min_size=0,
    max_size=4,
)


@given(terms_st, st.sampled_from([0.0, 0.5, 1.0, 4.0]))
@settings(max_examples=150, deadline=None)
def test_canonical_form_invariants(terms, q):
    f = make_element(q, terms)
    exps = [c for c, _ in f.terms]
    # sorted by (re, im), pairwise distinct beyond the merge tolerance
    assert exps == sorted(exps, key=lambda z: (z.real, z.imag))
    for a, b in zip(exps, exps[1:]):
        assert abs(a.real - b.real) > CANONICAL_TOL or abs(a.imag - b.imag) > CANONICAL_TOL
    for _, p in f.terms:
        assert p[-1] != 0  # no trailing zeros, no empty polynomials


# A zero polynomial at 8e-245 - 1j sorts between the exponents 0 and 8e-245
# and then vanishes: clustering that compared each exponent only with the
# last kept one left 0 and 8e-245 apart, and a later re-sort merged them.
SPLIT_BY_VANISHED_TERM = [(0j, [1 + 0j]), (8e-245 - 1j, [0j]), (8e-245 + 0j, [1 + 0j])]


@given(terms_st, st.sampled_from([0.5, 1.0]))
@settings(max_examples=100, deadline=None)
@example(SPLIT_BY_VANISHED_TERM, 0.5)
def test_self_subtraction_cancels(terms, q):
    f = make_element(q, terms)
    assert sub(f, f).is_zero
    assert conjugate(conjugate(f)) == f  # exact unary op, any dynamic range


# identity laws for the cancelling binary ops hold bit-exactly only inside
# the canonical drop tolerance, so bound the coefficient dynamic range
tame_coeff_st = st.one_of(
    st.just(0j),
    st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    ),
)
tame_terms_st = st.lists(
    st.tuples(exponent_st, st.lists(tame_coeff_st, min_size=1, max_size=6)),
    min_size=0,
    max_size=4,
)


# tame coefficients whose merge leaves dust just above 1e-12 of the raw
# scale, and at 1e-12 of the merged one
MERGED_DUST = [
    (0j, [0j, 272j, 0j, 0j, -1 + 2.722211087271196e-10j]),
    (0j, [0j, 273j, 0j, 0j, 1 + 2.722211087271196e-10j]),
]


@given(tame_terms_st, st.sampled_from([0.5, 1.0]))
@settings(max_examples=100, deadline=None)
@example(SPLIT_BY_VANISHED_TERM, 0.5)
@example(MERGED_DUST, 0.5)
def test_additive_and_multiplicative_identities(terms, q):
    f = make_element(q, terms)
    assert add(f, zero_element(q)) == f
    assert mul(f, one_element(q)) == f


def test_canonicalization_drops_relative_dust():
    # coefficients <= 1e-12 of the producing operation's scale are dropped
    # where terms merge (construction measures the raw inputs, binary ops the
    # operands) and in products that convolve; a term copied unchanged, or
    # scaled by a constant polynomial, keeps them all
    f = make_element(0.5, [(0.0, (0.0, 1e6, 1e-7))])
    assert f.terms[0][1] == (0.0, 1e6, 1e-7)
    merged = make_element(0.5, [(0.0, (0.0, 1e6)), (0.0, (0.0, 0.0, 1e-7))])
    assert merged.terms[0][1] == (0.0, 1e6)
    g = make_element(0.5, [(0.0, (0.0, 5e5)), (0.0, (0.0, 5e5, 1e-6))])
    assert g.terms[0][1] == (0.0, 1e6, 1e-6)  # raw scale 5e5 keeps the dust
    assert add(g, zero_element(0.5)) == g     # nothing merges, nothing drops
    one = one_element(0.5)
    assert add(g, one).terms[0][1] == (1.0, 1e6)  # operand scale 1e6 drops it
    assert mul(g, monomial(1, 0.5)).terms[0][1] == (0.0, 0.0, 1e6)  # so does a convolution's
    assert mul(g, one) == g  # a constant factor sums nothing
    kept = make_element(0.5, [(0.0, (0.0, 1e6, 1e-4))])
    assert add(kept, one).terms[0][1] == (1.0, 1e6, 1e-4)


def test_exponents_cluster_independently_of_sort_neighbours():
    f = make_element(0.5, SPLIT_BY_VANISHED_TERM)
    assert f.terms == ((0j, (2 + 0j,)),)
    # a cluster's members may straddle an exponent of another cluster
    g = make_element(1.0, [(0j, [1]), (5e-13 - 1j, [1]), (5e-13 + 5e-13j, [1])])
    assert [c for c, _ in g.terms] == [0j, 5e-13 - 1j]
    assert g.terms[0][1] == (2 + 0j,)


def test_constructor_rejects_exponents_within_tolerance():
    with pytest.raises(ValueError, match="CANONICAL_TOL"):
        PolyExpElement(1.0, ((0j, (1 + 0j,)), (5e-13j, (1 + 0j,))))
    # not adjacent in (re, im) order, still within tolerance of each other
    with pytest.raises(ValueError, match="CANONICAL_TOL"):
        PolyExpElement(1.0, ((0j, (1 + 0j,)), (5e-13 - 1j, (1 + 0j,)), (5e-13 + 0j, (1 + 0j,))))
    PolyExpElement(1.0, ((0j, (1 + 0j,)), (2e-12 + 0j, (1 + 0j,))))


@given(terms_st, terms_st, st.sampled_from([0.0, 0.5, 1.0, 4.0]), coeff_st)
@settings(max_examples=100, deadline=None)
@example(SPLIT_BY_VANISHED_TERM, [], 0.5, 1 + 0j)
def test_canonical_form_is_a_projection(terms_f, terms_g, q, s):
    f = make_element(q, terms_f)
    g = make_element(q, terms_g)
    results = [
        f, make_exponential(terms_f[0][0] if terms_f else 0j, q), monomial(3, q),
        zero_element(q), one_element(q), hermite_element(4, q),
        add(f, g), sub(f, g), mul(f, g), scale(f, s), conjugate(f),
        apply_X(f), apply_D(f), apply_D_star(f), apply_G(f),
        commutator_residual("DG", f), commutator_residual("DstarG", f),
    ]
    if len(f.terms) == 1 and f.terms[0][0] == 0:
        results.append(from_hermite(to_hermite(f)))
    for el in results:
        assert make_element(el.q, el.terms) == el


def test_doubling_is_exact():
    f = random_element(RNG, 1.0)
    assert add(f, f) == scale(f, 2.0)


def test_variance_mismatch_rejected():
    with pytest.raises(VarianceMismatchError):
        add(one_element(1.0), one_element(2.0))
    with pytest.raises(VarianceMismatchError):
        inner_product(make_exponential(1, 1.0), make_exponential(1, 1.5))


def test_nonfinite_inputs_rejected():
    with pytest.raises(ValueError):
        make_exponential(complex("nan"), 1.0)
    with pytest.raises(ValueError):
        make_exponential(1.0, -0.5)
    with pytest.raises(ValueError):
        make_element(1.0, [(0.0, (float("inf"),))])


# ---------------------------------------------------------------------------
# operators on randomized elements

@pytest.mark.parametrize("which", ["DX", "DDstar", "DG", "DstarG"])
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 4.0])
def test_commutator_residuals_vanish(which, q):
    for _ in range(25):
        f = random_element(RNG, q)
        assert commutator_residual(which, f).is_zero


def test_transform_is_unitary_on_random_pairs():
    for q in (0.0, 0.5, 1.0, 4.0):
        for _ in range(10):
            f = random_element(RNG, q)
            g = random_element(RNG, q)
            ref = inner_product(f, g)
            got = inner_product(apply_G(f), apply_G(g))
            assert abs(got - ref) <= 1e-9 * max(norm(f) * norm(g), 1e-30)


def test_unitarity_survives_heavy_cancellation():
    # worst corner of the randomized family: large q, large |c|, high degree;
    # the float64 moment sums cancel ~45 digits here
    q = 4.0
    f = make_element(q, [(3.0, tuple(range(1, 10))), (-3.0, (1, 0, 0, 0, 0, 0, 0, 0, 1))])
    g = make_element(q, [(2.9 + 0.2j, (1, 1, 1, 1, 1, 1, 1, 1, 1))])
    ref = inner_product(f, g)
    got = inner_product(apply_G(f), apply_G(g))
    assert abs(got - ref) <= 1e-9 * norm(f) * norm(g)


def test_ladder_adjointness_on_random_pairs():
    for q in (0.5, 1.0, 4.0):
        for _ in range(10):
            f = random_element(RNG, q)
            g = random_element(RNG, q)
            left = inner_product(apply_D(f), g)
            right = inner_product(f, apply_D_star(g))
            cs = max(norm(apply_D(f)) * norm(g), norm(f) * norm(apply_D_star(g)))
            assert abs(left - right) <= 1e-9 * max(cs, 1e-30)


def test_fourth_power_of_transform_is_identity():
    for q in (0.0, 1.0, 4.0):
        for _ in range(10):
            f = random_element(RNG, q)
            imgs = [f]
            for _ in range(4):
                imgs.append(apply_G(imgs[-1]))
            assert tuple(c for c, _ in imgs[4].terms) == tuple(c for c, _ in f.terms)
            scale_ref = max(el.max_abs_coeff() for el in imgs)
            assert sub(imgs[4], f).max_abs_coeff() <= 1e-12 * scale_ref


# ---------------------------------------------------------------------------
# Hermite basis

def test_hermite_recurrence_start():
    assert hermite_coefficients(0, 1.0) == (1,)
    assert hermite_coefficients(1, 1.0) == (0, 1)
    assert hermite_coefficients(2, 1.0) == (-1, 0, 1)   # x^2 - q
    assert hermite_coefficients(3, 2.0) == (0, -6, 0, 1)  # x^3 - 3 q x


def test_hermite_orthogonality():
    q = 1.5
    for m in range(6):
        for n in range(6):
            got = inner_product(hermite_element(m, q), hermite_element(n, q))
            want = math.factorial(n) * q**n if m == n else 0.0
            assert abs(got - want) <= 1e-10 * max(1.0, want)


def test_hermite_diagonalizes_transform():
    eig = (1, -1j, -1, 1j)
    for q in (0.0, 0.5, 1.0, 4.0):
        for n in range(11):
            h = hermite_element(n, q)
            dev = sub(apply_G(h), scale(h, eig[n % 4]))
            assert dev.max_abs_coeff() <= 1e-12 * h.max_abs_coeff()


def test_ladder_shifts_hermite_order():
    q = 0.75
    for n in range(1, 8):
        h = hermite_element(n, q)
        assert sub(apply_D(h), scale(hermite_element(n - 1, q), n * q)).is_zero
        assert sub(apply_D_star(h), hermite_element(n + 1, q)).is_zero


def test_hermite_round_trip():
    for i in range(40):
        q = (0.0, 0.5, 1.0, 4.0)[i % 4]
        coeffs = tuple(complex(a, b) for a, b in RNG.standard_normal((RNG.integers(1, 10), 2)))
        el = make_element(q, [(0.0, coeffs)])
        back = from_hermite(to_hermite(el))
        assert sub(back, el).max_abs_coeff() <= 1e-9 * el.max_abs_coeff()


def test_hermite_conversion_at_zero_variance_is_identity():
    el = make_element(0.0, [(0.0, (1, 2, 3, 4))])
    assert to_hermite(el).coeffs == (1, 2, 3, 4)


def test_hermite_conversion_rejects_exponentials():
    with pytest.raises(NonPolynomialElementError):
        to_hermite(make_exponential(1.0, 1.0))
