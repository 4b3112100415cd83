"""The rows that ``verify`` builds for check-algebra and the rows derived
from h1 and h2.

Each check-algebra row passes on the exact operators and fails when
``verify``'s binding of the operator it checks is perturbed by one part in
a million; the golden reports pin only passing values.  The exact rows of
the h1, l2limit and lemma2 suites have a table of such mutants: each entry
names the rows it must fail, and a row that it cannot fail is recorded with
the reason.  Two mutants that scale nothing, an inner product that returns
NaN and G replaced by its inverse, run over both the check-algebra rows and
these exact rows.  The sampled rows (isometry, h2, h2-target and lemma2-mc)
have a table too, run through ``cli.run``: its mutants are the sampler's
paths, and so its increments, scaled by a constant, the Ito sum taken at
the right end of each step, and lemma2's sampled product without its
conjugate.  h1's right side with q scaled has no binding of its own: the
inner-product entry is that mutant on the h1 rows.  The pde rows have one
mutant, a scaled ``np.cosh``, and the h2 rows one more, a right side
weighted by t in place of h(t).
"""

import dataclasses
import math

import numpy as np
import pytest

from expmart import (
    PolyExpElement, cli, conjugate, inner_product, make_element, one_element, scale, sub, verify,
)
from expmart.cli import ALGEBRA_QS, random_element
from expmart.config import (
    RunConfig,
    parse_complex,
    parse_h1_case,
    parse_time_change,
)
from expmart.processes import TimeGrid, quadratic_variation_at
from expmart.verify import (
    Check,
    Estimate,
    ProcessElement,
    verify_adjointness,
    verify_commutators,
    verify_g_fourth,
    verify_h1,
    verify_h1_case,
    verify_h1_randomized,
    verify_h2_target,
    verify_hermite_diagonal,
    verify_hermite_roundtrip,
    verify_lemma2,
    verify_unitarity,
)


def _elements(seed: int, n: int = 12):
    rng = np.random.default_rng(seed)
    return [random_element(rng, ALGEBRA_QS[i % 4]) for i in range(n)]


FS = _elements(1)
GS = _elements(2)
POLYS = [
    make_element(ALGEBRA_QS[i % 4], [(0.0, tuple(complex(v) for v in range(1, i + 2)))])
    for i in range(9)
]


def _algebra_rows() -> dict[str, Check]:
    rows = [
        *verify_commutators(FS),
        verify_unitarity(FS, GS),
        verify_adjointness(FS, GS),
        verify_g_fourth(FS),
        verify_hermite_diagonal(ALGEBRA_QS),
        verify_hermite_roundtrip(POLYS),
    ]
    return {chk.case: chk for chk in rows}


def _scaled(op, factor=1 + 1e-6):
    """``op`` with its result, an element or a scalar, times ``factor``."""
    def mutant(*args):
        out = op(*args)
        return scale(out, factor) if isinstance(out, PolyExpElement) else out * factor
    return mutant


def _failing(rows: dict[str, Check]) -> set[str]:
    return {case for case, chk in rows.items() if not chk.passed}


def _assert_failed_or_gap(rows: dict[str, Check], fails: set[str], gaps) -> None:
    assert _failing(rows) == fails
    for passing, reason in gaps:
        assert passing <= set(rows) - fails, reason
    # every row is either failed or recorded as a gap
    assert fails | set().union(*(passing for passing, _ in gaps)) == set(rows)


def test_algebra_rows_pass_on_the_exact_operators():
    rows = _algebra_rows()
    assert list(rows) == [
        "commutator[DX]", "commutator[DDstar]", "commutator[DG]", "commutator[DstarG]",
        "unitarity", "adjointness", "g-fourth-power", "hermite-diagonal",
        "hermite-roundtrip",
    ]
    assert _failing(rows) == set()
    assert rows["unitarity"].allowance == verify.UNITARITY_TOL
    assert rows["g-fourth-power"].note.startswith("exponent cycle exact on all 12 elements")
    assert rows["hermite-diagonal"].note.endswith("q in {0, 0.5, 1, 4}")
    assert rows["hermite-roundtrip"].note == (
        "from_hermite(to_hermite(p)) on 9 random polynomials"
    )


def test_scaled_gauss_transform_fails_its_rows(monkeypatch):
    monkeypatch.setattr(verify, "apply_G", _scaled(verify.apply_G))
    assert _failing(_algebra_rows()) == {"unitarity", "g-fourth-power", "hermite-diagonal"}


def test_scaled_creation_operator_fails_adjointness(monkeypatch):
    monkeypatch.setattr(verify, "apply_D_star", _scaled(verify.apply_D_star))
    assert _failing(_algebra_rows()) == {"adjointness"}


def test_scaled_hermite_synthesis_fails_the_round_trip(monkeypatch):
    monkeypatch.setattr(verify, "from_hermite", _scaled(verify.from_hermite))
    assert _failing(_algebra_rows()) == {"hermite-roundtrip"}


def test_parse_h1_case_marks_the_equality_cases():
    named = ("one-equality", "coordinate", "exp-energy", "exp-equality")
    assert [parse_h1_case(name)["equality"] for name in named] == [True, False, False, True]
    assert parse_h1_case("template:1@0;c=0;ct=0;q=1")["equality"] is False


def test_h1_case_rows():
    y = one_element(1.0)
    bound, equality = verify_h1_case("one-equality", y, 0.0, 0.0, equality=True, tol=1e-7)
    plain = verify_h1(y, 0.0, 0.0, tol=1e-7)
    assert bound.case == "h1[one-equality]" and bound.kind == "bound"
    assert (bound.lhs, bound.rhs, bound.allowance) == (plain.lhs, plain.rhs, 1e-7)
    assert equality.case == "h1-equality[one-equality]" and equality.kind == "match"
    assert (equality.lhs, equality.rhs, equality.allowance) == (plain.lhs, plain.rhs, 1e-7)
    assert equality.passed
    assert [chk.case for chk in verify_h1_case("c", y, 0.5, 0.0)] == ["h1[c]"]


def test_h1_randomized_row_is_the_smallest_slack(monkeypatch):
    y = one_element(1.0)
    cases = [(y, 0.5, 0.0), (y, 0.0, 0.0), (y, 1.0, 1.0)]
    worst = verify_h1_randomized(cases)
    slacks = [verify_h1(*case).slack for case in cases]
    assert worst.case == "h1-random-worst[n=3]"
    assert worst.slack == min(slacks)
    assert worst.note == (
        "minimum slack over 3 randomized cases at h1[c=0,ct=0,q=1]; 0 failed"
    )
    # a NaN slack is the smallest wherever it stands, not only when first
    y_nan = one_element(2.0)
    real = verify.inner_product
    monkeypatch.setattr(
        verify, "inner_product", lambda f, g: math.nan if f is y_nan else real(f, g)
    )
    worst = verify_h1_randomized([*cases, (y_nan, 0.0, 0.0), (y, 0.0, 0.0)])
    assert math.isnan(worst.slack) and not worst.passed
    assert worst.note == (
        "minimum slack over 5 randomized cases at h1[c=0,ct=0,q=2]; 1 failed"
    )


def test_h2_target_row_carries_the_bound_rows_sampled_side():
    f1 = Estimate(mean=0.7, stderr=0.01, n=100)
    f2 = Estimate(mean=0.8, stderr=0.02, n=100)
    bound = Check("h2[x]", "bound", 0.56, 0.5, 0.03, f1, f2)
    target = verify_h2_target("brownian-equality", bound, 0.5)
    assert target == Check(
        "h2-target[brownian-equality]", "match", 0.56, 0.5, 0.03, f1, f2,
        note="LHS vs its derived closed-form target",
    )
    assert not target.passed
    assert verify_h2_target("b", bound, 0.55).passed


# ---------------------------------------------------------------------------
# the exact suites outside check-algebra, at the default config: the named h1
# cases, 500 randomized h1 cases, l2limit exponents 0 1 1j and lemma2
# exponents 1 -1 1j, all at q = 1

CFG = RunConfig()


def _exact_rows() -> dict[str, Check]:
    rows, _, _ = cli.run(CFG, ("h1", "l2limit"))
    q = quadratic_variation_at(parse_time_change(CFG.time_change), CFG.horizon)
    exps = [parse_complex(s) for s in CFG.lemma2_exponents]
    lemma2 = [chk for c in exps for d in exps for chk in verify_lemma2(c, d, q)]
    return {chk.case: chk for chk in [*(chk for _, chk in rows), *lemma2]}


H1_EQUALITY = {"h1-equality[one-equality]", "h1-equality[exp-equality]"}
H1_EQUALITY_CASES = H1_EQUALITY | {"h1[one-equality]", "h1[exp-equality]"}
H1_ROWS = H1_EQUALITY_CASES | {"h1[coordinate]", "h1[exp-energy]", "h1-random-worst[n=500]"}
L2_EXPONENTS = ("0", "1", "0+1j")
LEMMA2_EXPONENTS = ("1", "-1", "0+1j")
LEMMA2_EXACT = {f"lemma2-exact[c={c},d={d}]" for c in LEMMA2_EXPONENTS for d in LEMMA2_EXPONENTS}
L2LIMIT = {
    f"l2limit-{kind}[c={c}]" for kind in ("final", "ratio", "decreasing") for c in L2_EXPONENTS
}

# (binding in verify, factor, the rows that must fail, the rows that must pass
# with the reason they cannot fail)
EXACT_MUTANTS = [
    ("inner_product", 1 + 1e-6, LEMMA2_EXACT | H1_EQUALITY_CASES, None),
    ("apply_G", 1 + 1e-6, H1_EQUALITY, None),
    ("apply_G", 1 - 1e-6, H1_EQUALITY_CASES, None),
    # apply_X forms the l2limit target X E(c), and the (X - c) factors of h1
    ("apply_X", 1 + 1e-6, H1_EQUALITY, (
        L2LIMIT,
        "gap: the final norms are 8.6e-5 to 5.9e-4 against L2_FINAL_TOL = 1e-3, "
        "so a 1e-6 change to the target moves no row",
    )),
    ("apply_X", 1 + 1e-4, H1_EQUALITY | {f"l2limit-ratio[c={c}]" for c in L2_EXPONENTS}, None),
    ("apply_G", 1 - 1e-3, H1_EQUALITY_CASES, (
        {"h1-random-worst[n=500]"},
        "gap: no randomized case is near equality; the smallest slack is 7.8e-3",
    )),
]


def test_exact_rows_pass_on_the_exact_operators():
    rows = _exact_rows()
    assert set(rows) == H1_ROWS | LEMMA2_EXACT | L2LIMIT
    assert _failing(rows) == set()


@pytest.mark.parametrize(
    "name, factor, fails, gap", EXACT_MUTANTS,
    ids=[f"{name}*(1{factor - 1:+.0e})" for name, factor, _, _ in EXACT_MUTANTS],
)
def test_scaled_operator_fails_its_exact_rows(monkeypatch, name, factor, fails, gap):
    monkeypatch.setattr(verify, name, _scaled(getattr(verify, name), factor))
    rows = _exact_rows()
    assert _failing(rows) == fails
    if gap is not None:
        passing, reason = gap
        assert passing <= set(rows) - fails, reason


def test_scaled_inner_product_scales_only_the_h1_right_side(monkeypatch):
    # h1's right side with q scaled has no seam: q is the element's own
    # attribute.  The right side q <Y, Y> is verify_h1's one call of
    # verify's inner_product, and the norms take the algebra's own, so the
    # inner_product entries above are that mutant on the h1 rows
    cases = [parse_h1_case(name) for name in CFG.h1_cases]
    args = [(make_element(c["q"], c["template"]), c["c"], c["ct"]) for c in cases]
    plain = [verify_h1(*a) for a in args]
    monkeypatch.setattr(verify, "inner_product", _scaled(verify.inner_product))
    for before, after in zip(plain, (verify_h1(*a) for a in args)):
        assert after.lhs == before.lhs
        assert after.rhs == pytest.approx(before.rhs * (1 + 1e-6), rel=1e-15)


def _nan_valued(op):
    """``op`` returning NaN on every call."""
    return _scaled(op, math.nan)


def _inverted(op):
    """G^3 = G^-1 in place of G.  On this span G^-1 = conj G conj too, since
    both send E(c) to E(ic), so the entry covers that mutant as well."""
    return lambda f: op(op(op(f)))


COMMUTATORS = {f"commutator[{which}]" for which in ("DX", "DDstar", "DG", "DstarG")}

# (binding in verify, its mutant, the check-algebra and exact rows that must
# fail, the rows that must pass with the reason they cannot fail)
ALGEBRA_AND_EXACT_MUTANTS = [
    ("inner_product", _nan_valued, {"unitarity", "adjointness"} | H1_ROWS | LEMMA2_EXACT, [
        (COMMUTATORS | {"g-fourth-power", "hermite-diagonal", "hermite-roundtrip"},
         "gap: these rows compare coefficients, not inner products"),
        (L2LIMIT, "gap: l2limit's norms take the algebra's own inner_product, "
                  "which the patch does not reach"),
    ]),
    ("apply_G", _inverted, {"hermite-diagonal"}, [
        ({"unitarity"}, "gap: G^-1 is unitary"),
        ({"g-fourth-power"}, "gap: G^-1 has order 4"),
        ({"commutator[DG]", "commutator[DstarG]"},
         "gap: commutator_residual uses the algebra's own apply_G"),
        ({"commutator[DX]", "commutator[DDstar]", "adjointness", "hermite-roundtrip"},
         "gap: these rows do not use G"),
        (H1_ROWS, "gap: the smallest random slack stays 7.8e-3, and the equality "
                  "cases have real exponents, where G^-1 Y and G Y have equal norms"),
        (L2LIMIT | LEMMA2_EXACT, "gap: the l2limit and lemma2-exact rows do not use G"),
    ]),
]


@pytest.mark.parametrize(
    "name, mutant, fails, gaps", ALGEBRA_AND_EXACT_MUTANTS,
    ids=[f"{name}={mutant.__name__.strip('_')}" for name, mutant, _, _ in ALGEBRA_AND_EXACT_MUTANTS],
)
def test_mutant_fails_its_algebra_and_exact_rows(monkeypatch, name, mutant, fails, gaps):
    monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
    _assert_failed_or_gap({**_algebra_rows(), **_exact_rows()}, fails, gaps)


def test_inverse_gauss_transform_is_its_conjugate():
    for f in FS:
        inverse = _inverted(verify.apply_G)(f)
        conjugated = conjugate(verify.apply_G(conjugate(f)))
        assert [c for c, _ in inverse.terms] == [c for c, _ in conjugated.terms]
        assert sub(inverse, conjugated).max_abs_coeff() <= 1e-12 * inverse.max_abs_coeff()


# ---------------------------------------------------------------------------
# the sampled rows that ``cli.run`` writes at N = 1e5 paths on M = 128 steps,
# with the default isometry and h2 cases and lemma2's default 1e6 one-step
# paths and exponents 1 -1 1j, all at q = 1; each mutant scales both
# ensembles' paths: every chunk the sweep draws, lemma2's included

SAMPLED_CFG = dataclasses.replace(RunConfig(), paths=100_000, grid_steps=128)


def _sampled_rows(monkeypatch, factor: float = 1.0) -> dict[str, Check]:
    """The rows of lemma2, isometry and h2, as the CLI runs them, on paths
    scaled by ``factor``."""
    block_chunks = verify.block_chunks

    def scaled_chunks(*args):
        for chunk in block_chunks(*args):
            chunk *= factor
            yield chunk

    monkeypatch.setattr(verify, "block_chunks", scaled_chunks)
    rows, _, _ = cli.run(SAMPLED_CFG, ("lemma2", "isometry", "h2"))
    return {chk.case: chk for _, chk in rows}


ISOMETRY = {"isometry[one]", "isometry[x]"}
H2_BOUND = {"h2[brownian-equality]", "h2[brownian-strict]"}
H2_TARGET = {"h2-target[brownian-equality]", "h2-target[brownian-strict]"}
LEMMA2_MC = {f"lemma2-mc[c={c},d={d}]" for c in LEMMA2_EXPONENTS for d in LEMMA2_EXPONENTS}
# c + conj(d) = 0: E(c) conj(E(d)) is a constant, so its sample is one value
LEMMA2_CONSTANT = {"lemma2-mc[c=1,d=-1]", "lemma2-mc[c=-1,d=1]", "lemma2-mc[c=0+1j,d=0+1j]"}
LEMMA2_POWERED = LEMMA2_MC - LEMMA2_CONSTANT
SAMPLED_ROWS = ISOMETRY | H2_BOUND | H2_TARGET | LEMMA2_MC | LEMMA2_EXACT
EXACT_REASON = "gap: an exact row reads no paths"
CONSTANT_REASON = "gap: c + conj(d) = 0 samples a constant, which no path scaling moves"
DISC_REASON = (
    "the discretization allowance 10 T/M = 0.078 is most of the h2 allowance "
    "(about 0.10 for brownian-equality, 0.16 to 0.20 for brownian-strict)"
)

# (path factor, the rows that must fail, the rows that must pass with the
# reason they cannot fail), as observed at SAMPLED_CFG
SAMPLED_MUTANTS = [
    (1.02, ISOMETRY | LEMMA2_POWERED, [
        (H2_BOUND, "gap: inflation raises the left side of a lower bound"),
        ({"h2-target[brownian-equality]"}, "gap: the left side moves 0.040; " + DISC_REASON),
        ({"h2-target[brownian-strict]"}, "gap: the left side moves 0.13; " + DISC_REASON),
        (LEMMA2_CONSTANT, CONSTANT_REASON),
    ]),
    (0.95, ISOMETRY | LEMMA2_POWERED | {"h2-target[brownian-strict]"}, [
        ({"h2[brownian-equality]", "h2-target[brownian-equality]"},
         "gap: the left side falls 0.094; " + DISC_REASON),
        ({"h2[brownian-strict]"}, "gap: the strict case's slack, 0.67, outlasts the fall"),
        (LEMMA2_CONSTANT, CONSTANT_REASON),
    ]),
]


def test_sampled_rows_pass_on_the_sampler(monkeypatch):
    rows = _sampled_rows(monkeypatch)
    assert set(rows) == SAMPLED_ROWS
    assert _failing(rows) == set()


@pytest.mark.parametrize(
    "factor, fails, gaps", SAMPLED_MUTANTS,
    ids=[f"paths*{factor:g}" for factor, _, _ in SAMPLED_MUTANTS],
)
def test_scaled_sampler_fails_its_sampled_rows(monkeypatch, factor, fails, gaps):
    rows = _sampled_rows(monkeypatch, factor)
    _assert_failed_or_gap(rows, fails, gaps + [(LEMMA2_EXACT, EXACT_REASON)])


def _right_endpoint_columns(elements, x: np.ndarray) -> np.ndarray:
    """``_ito_columns`` with each integrand evaluated at the right end of its
    step, x[:, k + 1], in place of the left."""
    acc = np.zeros(x.shape[0], dtype=complex)
    for k, el in enumerate(elements):
        acc += verify._evaluate(el, x[:, k + 1]) * (x[:, k + 1] - x[:, k])
    return acc


def test_right_endpoint_sum_fails_its_sampled_rows(monkeypatch):
    # measured slacks: isometry[x] 1.01 against an allowance of 0.040,
    # h2-target[brownian-equality] 1.01 against 0.118 and
    # h2-target[brownian-strict] 2.08 against 0.267
    monkeypatch.setattr(verify, "_ito_columns", _right_endpoint_columns)
    rows = _sampled_rows(monkeypatch)
    _assert_failed_or_gap(rows, {"isometry[x]"} | H2_TARGET, [
        ({"isometry[one]"}, "gap: the sum of the increments does not depend on the "
                            "endpoint (slack -0.0023 against 0.018)"),
        (H2_BOUND, "gap: the mutant raises the left side of a lower bound "
                   "(slack 1.01 and 2.74)"),
        (LEMMA2_MC | LEMMA2_EXACT, "gap: lemma2 reads no Ito sum"),
    ])


def test_unconjugated_lemma2_fails_its_sampled_rows(monkeypatch):
    # E(c) E(d) in place of E(c) conj(E(d)); measured slacks 1.683 against
    # an allowance of 0.0101 (c = 1), 1.686 against 0.0102 (c = -1) and
    # 2.354 against 0.0108 (c = 1j).  Only lemma2 calls verify.conjugate.
    monkeypatch.setattr(verify, "conjugate", lambda f: f)
    rows, _, _ = cli.run(SAMPLED_CFG, ("lemma2",))
    fails = {f"lemma2-mc[c={c},d=0+1j]" for c in LEMMA2_EXPONENTS}
    _assert_failed_or_gap({chk.case: chk for _, chk in rows}, fails, [
        (LEMMA2_MC - fails, "gap: conjugation fixes E(d) for a real d"),
        (LEMMA2_EXACT, "gap: inner_product conjugates inside the algebra, "
                       "which the patch does not reach"),
    ])


# ---------------------------------------------------------------------------
# the pde rows at the default exponents 0 1 1j 1+1j and step.  np.cosh
# appears only in b's c cosh(c^2 d / 2) term, so scaling it perturbs b alone.
# The sign of u_y inside a and b has no binding to patch: the 30-digit
# stencils of tests/test_pde_kernel.py hold it instead.

PDE_ROWS = {f"pde[c={c}]" for c in ("0", "1", "0+1j", "1+1j")}


def _pde_rows() -> dict[str, Check]:
    rows, _, _ = cli.run(CFG, ("pde",))
    return {chk.case: chk for _, chk in rows}


def test_pde_rows_pass_on_the_exact_stencils():
    rows = _pde_rows()
    assert set(rows) == PDE_ROWS
    assert _failing(rows) == set()


def test_scaled_cosh_fails_the_pde_rows(monkeypatch):
    # measured residuals 5.75e-6, 2.73e-6 and 1.04e-5 against PDE_TOL = 1e-6
    monkeypatch.setattr(np, "cosh", _scaled(np.cosh))
    rows = _pde_rows()
    assert _failing(rows) == PDE_ROWS - {"pde[c=0]"}
    assert rows["pde[c=0]"].passed, "gap: at c = 0, u = 1, so b = 0 at any scale"


# ---------------------------------------------------------------------------
# the h2 rows at the default config under three time changes, with the right
# side's weight h(t) replaced by t

def _t_weighted_energy_integral(y: ProcessElement, grid: TimeGrid) -> float:
    """``weighted_energy_integral`` with the weight t in place of q = h(t)."""
    els = [y.at(t) for t in grid.points]
    u = [inner_product(el, el).real * t for el, t in zip(els, grid.points)]
    return math.fsum(
        0.5 * (u[k] + u[k + 1]) * (els[k + 1].q - els[k].q) for k in range(len(u) - 1)
    )


TARGET_REASON = "gap: an h2-target row compares only the left side"

# (time change, the rows that must fail, the rows that must pass with the
# reason they cannot fail), as observed at the default config
H2_WEIGHT_MUTANTS = [
    ("identity", set(), [
        (H2_BOUND | H2_TARGET, "gap: at the identity h(t) = t, so the mutant changes nothing"),
    ]),
    # h <= t: the right side grows; brownian-equality reads slack -0.181
    # against an allowance of 0.090
    ("power:2", {"h2[brownian-equality]"}, [
        ({"h2[brownian-strict]"}, "gap: the strict case reads slack 0.557 against 0.278"),
        (H2_TARGET, TARGET_REASON),
    ]),
    ("power:0.5", set(), [
        (H2_BOUND, "gap: h >= t, so the right side only falls, and a lower bound "
                   "cannot see it; brownian-equality's slack rises to 0.140"),
        (H2_TARGET, TARGET_REASON),
    ]),
]


@pytest.mark.parametrize(
    "time_change, fails, gaps", H2_WEIGHT_MUTANTS,
    ids=[tc for tc, _, _ in H2_WEIGHT_MUTANTS],
)
def test_t_weighted_right_side_fails_its_h2_rows(monkeypatch, time_change, fails, gaps):
    monkeypatch.setattr(verify, "weighted_energy_integral", _t_weighted_energy_integral)
    rows, _, _ = cli.run(dataclasses.replace(CFG, time_change=time_change), ("h2",))
    _assert_failed_or_gap({chk.case: chk for _, chk in rows}, fails, gaps)
