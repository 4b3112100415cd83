"""The rows that ``verify`` builds for check-algebra and the rows derived
from h1 and h2.

Each check-algebra row passes on the exact operators and fails when
``verify``'s binding of the operator it checks is perturbed by one part in
a million; the golden reports pin only passing values.
"""

import numpy as np

from expmart import make_element, one_element, scale, verify
from expmart.cli import ALGEBRA_QS, random_element
from expmart.config import parse_h1_case
from expmart.verify import (
    Check,
    Estimate,
    verify_adjointness,
    verify_commutators,
    verify_g_fourth,
    verify_h1,
    verify_h1_case,
    verify_h1_randomized,
    verify_h2_target,
    verify_hermite_diagonal,
    verify_hermite_roundtrip,
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


def _scaled(op):
    return lambda f: scale(op(f), 1 + 1e-6)


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

