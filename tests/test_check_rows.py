"""The rows that ``verify`` builds for check-algebra and the rows derived
from h1 and h2.

Each check-algebra row passes on the exact operators and fails when
``verify``'s binding of the operator it checks is perturbed by one part in
a million; the golden reports pin only passing values.  The exact rows of
the h1, l2limit and lemma2 suites have a table of such mutants: each entry
names the rows it must fail, and a row that it cannot fail is recorded with
the reason.  The sampled rows (isometry, h2, h2-target and lemma2-mc) have
one too, whose mutants are the sampler's paths, and so its increments,
scaled by a constant.
"""

import dataclasses

import numpy as np
import pytest

from expmart import PolyExpElement, cli, make_element, one_element, scale, verify
from expmart.cli import ALGEBRA_QS, random_element
from expmart.config import (
    RunConfig,
    parse_complex,
    parse_h1_case,
    parse_h2_case,
    parse_isometry_case,
    parse_time_change,
)
from expmart.processes import TimeGrid, generate, quadratic_variation_at
from expmart.verify import (
    Check,
    Estimate,
    ProcessElement,
    h2_integrands,
    ito_integral,
    verify_adjointness,
    verify_commutators,
    verify_g_fourth,
    verify_h1,
    verify_h1_case,
    verify_h1_randomized,
    verify_h2,
    verify_h2_target,
    verify_hermite_diagonal,
    verify_hermite_roundtrip,
    verify_isometry,
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


def test_h1_randomized_row_is_the_smallest_slack():
    y = one_element(1.0)
    cases = [(y, 0.5, 0.0), (y, 0.0, 0.0), (y, 1.0, 1.0)]
    worst = verify_h1_randomized(cases)
    slacks = [verify_h1(*case).slack for case in cases]
    assert worst.case == "h1-random-worst[n=3]"
    assert worst.slack == min(slacks)
    assert worst.note == (
        "minimum slack over 3 randomized cases at h1[c=0,ct=0,q=1]; 0 failed"
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
    assert set(rows) == (
        H1_EQUALITY_CASES | LEMMA2_EXACT | L2LIMIT
        | {"h1[coordinate]", "h1[exp-energy]", "h1-random-worst[n=500]"}
    )
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


# ---------------------------------------------------------------------------
# the sampled rows at N = 1e5 paths on M = 128 steps, with the default
# isometry and h2 cases and lemma2's default 1e6 one-step paths and
# exponents 1 -1 1j, all at q = 1; each mutant scales both ensembles' paths

SAMPLED_CFG = dataclasses.replace(RunConfig(), paths=100_000, grid_steps=128)


@pytest.fixture(scope="module")
def ensembles():
    cfg = SAMPLED_CFG
    h = parse_time_change(cfg.time_change)
    grid = TimeGrid.uniform(cfg.horizon, cfg.grid_steps)
    one_step = TimeGrid.uniform(cfg.horizon, 1)
    return (
        generate(h, grid, cfg.paths, cfg.seed),
        generate(h, one_step, cfg.lemma2_paths, cfg.seed + 1),
    )


def _sampled_rows(ensembles, factor: float) -> dict[str, Check]:
    """The sampled rows, as the CLI builds them, on paths scaled by ``factor``."""
    main, one_step = (dataclasses.replace(ens, paths=ens.paths * factor) for ens in ensembles)
    h, grid = main.time_change, main.grid
    q = quadratic_variation_at(h, grid.horizon)
    rows = []
    for label, template in map(parse_isometry_case, SAMPLED_CFG.isometry_cases):
        z = ProcessElement.from_template(h, template, label)
        rows.append(verify_isometry(z, grid, ito_integral(z, main)))
    for case in map(parse_h2_case, SAMPLED_CFG.h2_cases):
        y = ProcessElement.from_template(h, case["template"], case["name"])
        z1, z2 = h2_integrands(y, case["g"], case["g_tilde"])
        bound = verify_h2(y, grid, ito_integral(z1, main), ito_integral(z2, main))
        rows += [bound, verify_h2_target(case["name"], bound, case["target_lhs"](q))]
    exps = [parse_complex(s) for s in SAMPLED_CFG.lemma2_exponents]
    rows += [verify_lemma2(c, d, q, one_step)[1] for c in exps for d in exps]
    return {chk.case: chk for chk in rows}


ISOMETRY = {"isometry[one]", "isometry[x]"}
H2_BOUND = {"h2[brownian-equality]", "h2[brownian-strict]"}
LEMMA2_MC = {f"lemma2-mc[c={c},d={d}]" for c in LEMMA2_EXPONENTS for d in LEMMA2_EXPONENTS}
# c + conj(d) = 0: E(c) conj(E(d)) is a constant, so its sample is one value
LEMMA2_CONSTANT = {"lemma2-mc[c=1,d=-1]", "lemma2-mc[c=-1,d=1]", "lemma2-mc[c=0+1j,d=0+1j]"}
LEMMA2_POWERED = LEMMA2_MC - LEMMA2_CONSTANT
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


def test_sampled_rows_pass_on_the_sampler(ensembles):
    rows = _sampled_rows(ensembles, 1.0)
    assert set(rows) == ISOMETRY | H2_BOUND | LEMMA2_MC | {
        "h2-target[brownian-equality]", "h2-target[brownian-strict]"
    }
    assert _failing(rows) == set()


@pytest.mark.parametrize(
    "factor, fails, gaps", SAMPLED_MUTANTS,
    ids=[f"paths*{factor:g}" for factor, _, _ in SAMPLED_MUTANTS],
)
def test_scaled_sampler_fails_its_sampled_rows(ensembles, factor, fails, gaps):
    rows = _sampled_rows(ensembles, factor)
    assert _failing(rows) == fails
    for passing, reason in gaps:
        assert passing <= set(rows) - fails, reason
    # every row is either failed or recorded as a gap
    assert fails | set().union(*(passing for passing, _ in gaps)) == set(rows)
