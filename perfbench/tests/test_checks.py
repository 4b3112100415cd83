"""The independent checks pass on real reports and catch perturbed ones.

Reports come from expmart runs of the benchmark's own workload configs,
shrunk (fewer paths and random elements, the same grid) so the tests
take seconds; the checks read sizes from the config, so their tolerances
follow the shrunk grid.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

import checks
import workloads
from expmart import cli
from expmart.processes import TimeChange
from expmart.verify import CenteringFunction, ProcessElement
from expmart.algebra import inner_product
from expmart.config import parse_element_template

SHRINK = {
    "run": {"paths": "4000"},
    "algebra": {"n_random": "40"},
    "h1": {"n_random": "20"},
    "lemma2": {"paths": "40000"},
}


def _shrunk(wl):
    sections = copy.deepcopy(wl.sections)
    for section, keys in SHRINK.items():
        if section in sections:
            sections[section].update(keys)
    return replace(wl, sections=sections)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """report(name) -> (workload, rows) of one shrunk run, made once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            wl = _shrunk(workloads.WORKLOADS[name](3))
            out = tmp_path_factory.mktemp(name)
            ini = out / "workload.ini"
            ini.write_text(wl.ini_text(str(out / "reports"), workers=1))
            assert cli.main(wl.cli_args(str(ini))) == 0
            cache[name] = wl, checks.read_report(str(out / "reports" / "report.csv"))
        return cache[name]

    return get


def _tally(rows, wl):
    tally = checks.Tally()
    checks.check_report(rows, wl, tally)
    return tally


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_real_report_passes_every_check(report, name):
    wl, rows = report(name)
    tally = _tally(rows, wl)
    assert tally.failed == 0, tally.failures
    assert tally.attempted > len(rows)


# (workload, case, column, new value as a function of the old one)
PERTURBATIONS = [
    ("sampled-ito", "h2[brownian-equality]", "rhs_exact", lambda v: v + 1e-6),
    ("sampled-ito", "h2[brownian-strict]", "rhs_exact", lambda v: v + 1e-6),
    ("sampled-ito", "h2[brownian-strict]", "factor1_mean", lambda v: v * 1.5),
    ("sampled-ito", "h2-target[brownian-equality]", "rhs_exact", lambda v: v + 1e-6),
    ("sampled-ito", "h2[template[0,1@0.5j]]", "factor2_mean", lambda v: v * 2.0),
    ("acceptance", "isometry[x]", "rhs_exact", lambda v: v + 1e-6),
    ("acceptance", "pde[c=1]", "lhs_product", lambda v: 2e-6),
    ("acceptance", "lemma2-exact[c=0.5,d=-0.5]", "factor1_mean", lambda v: v * (1 + 1e-9)),
    ("acceptance", "lemma2-mc[c=0.5,d=0.5]", "factor1_mean", lambda v: v + 1.0),
    ("exact-algebra", "commutator[DG]", "lhs_product", lambda v: 1e-300),
    ("exact-algebra", "h1[exp-energy]", "rhs_exact", lambda v: v + 1e-9),
    ("exact-algebra", "h1-equality[exp-equality]", "lhs_product", lambda v: v + 1e-9),
    ("exact-algebra", "l2limit-ratio[c=1]", "lhs_product", lambda v: v + 1e-4),
    ("exact-algebra", "l2limit-final[c=0+1j]", "lhs_product", lambda v: v * (1 + 1e-5)),
]


@pytest.mark.parametrize("workload,case,column,change", PERTURBATIONS)
def test_perturbed_report_counts_a_failure(report, workload, case, column, change):
    wl, rows = report(workload)
    rows = copy.deepcopy(rows)
    (row,) = [r for r in rows if r["case"] == case]
    old = complex(row[column]) if "j" in row[column] else float(row[column])
    row[column] = repr(change(old))
    assert _tally(rows, wl).failed >= 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_missing_row_counts_a_failure(report, name):
    wl, rows = report(name)
    assert _tally(rows[:-1], wl).failed >= 1


def test_brownian_energies_give_the_derived_targets():
    for case in (workloads.BROWNIAN_EQUALITY, workloads.BROWNIAN_STRICT):
        e1 = checks.integral(case.energy1)
        e2 = checks.integral(case.energy2)
        assert math.sqrt(e1 * e2) == pytest.approx(case.target, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
def test_closed_form_energies_match_the_exact_algebra(seed):
    """The benchmark's hand-derived integrands agree with expmart's algebra."""
    wl = workloads.sampled_ito(seed)
    g0, v = wl.params["g0"], wl.params["v"]
    h = TimeChange.identity()
    y = ProcessElement.from_template(h, parse_element_template(workloads.COMPLEX_TEMPLATE))
    z1 = y.centered_position(CenteringFunction.constant(g0))
    z2 = y.gauss_transform().centered_position(CenteringFunction.piecewise_linear([(0, 0), (1, v)]))
    case = wl.h2[-1]
    for t in (0.1, 0.5, 1.0):
        assert inner_product(z1.at(t), z1.at(t)).real == pytest.approx(case.energy1(t), rel=1e-12)
        assert inner_product(z2.at(t), z2.at(t)).real == pytest.approx(case.energy2(t), rel=1e-12)
        assert inner_product(y.at(t), y.at(t)).real * t == pytest.approx(case.rhs(t), rel=1e-12)
    a = wl.params["a"]
    iso = ProcessElement.from_template(h, parse_element_template(f"1@{a}"))
    assert inner_product(iso.at(0.7), iso.at(0.7)).real == pytest.approx(
        wl.isometry[0].energy(0.7), rel=1e-12
    )


def test_l2_quotient_norm_decays_at_first_order():
    norms = [checks.l2_quotient_norm(1j, 1.0, k) for k in (12, 13)]
    assert norms[1] / norms[0] == pytest.approx(0.5, abs=1e-3)


def test_spot_check_fails_on_a_wrong_inner_product():
    from expmart import algebra

    class Wrong:
        make_element = staticmethod(algebra.make_element)

        @staticmethod
        def inner_product(f, g):
            return algebra.inner_product(f, g) * (1 + 1e-6)

    good, bad = checks.Tally(), checks.Tally()
    checks.spot_check_inner_products(algebra, 5, good)
    checks.spot_check_inner_products(Wrong, 5, bad)
    assert good.failed == 0 and good.attempted > 0
    assert bad.failed == bad.attempted


def test_gauss_expectation_of_moments():
    assert checks.gauss_expectation(lambda x: x**4, 2.0).real == pytest.approx(12.0, rel=1e-13)
    assert checks.gauss_expectation(lambda x: np.exp(x), 1.0).real == pytest.approx(
        math.exp(0.5), rel=1e-13
    )
