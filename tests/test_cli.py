"""Command-line runner: config handling, exit codes, report artifacts."""

import concurrent.futures.process
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

import pytest

from expmart.cli import main
from expmart import cli, processes, verify
from expmart.processes import TimeChange, TimeGrid, generate
from expmart.verify import (
    H1_TOL, EvaluationOverflowError, ProcessElement, ito_integral, verify_isometry,
)
from expmart.config import (
    L2_K_MAX,
    PRESETS,
    SUITES,
    ConfigError,
    RunConfig,
    apply_preset,
    load_ini,
    parse_centering,
    parse_complex,
    parse_element_template,
    parse_h1_case,
    parse_h2_case,
    parse_isometry_case,
    parse_time_change,
)


# ---------------------------------------------------------------------------
# spec-string parsers

def test_parse_complex():
    assert parse_complex("1+2j") == 1 + 2j
    assert parse_complex(" -1 ") == -1
    with pytest.raises(ConfigError):
        parse_complex("one")


def test_parse_element_template():
    got = parse_element_template("1,2@0.5 + 3@1j")
    assert got == ((0.5 + 0j, (1 + 0j, 2 + 0j)), (1j, (3 + 0j,)))


def test_parse_element_template_rejects_garbage():
    for bad in ("", "1,2", "nope@1 + @"):
        with pytest.raises(ConfigError):
            parse_element_template(bad)


def test_parse_centering():
    assert parse_centering("zero") == parse_centering("const:0")
    assert parse_centering("zero")(0.7) == 0.0
    assert parse_centering("const:1.5")(0.0) == 1.5
    pw = parse_centering("pw:0:0,1:2")
    assert pw(0.5) == 1.0
    with pytest.raises(ConfigError):
        parse_centering("linear")


def test_parse_time_change():
    assert parse_time_change("identity").kind == "identity"
    assert parse_time_change("power:2")(0.5) == 0.25
    assert parse_time_change("pw:0:0,1:1").kind == "piecewise"
    with pytest.raises(ConfigError):
        parse_time_change("sqrt")


def test_parse_h1_cases():
    named = parse_h1_case("exp-equality")
    assert named["c"] == 1.0 and named["q"] == 1.0
    tpl = parse_h1_case("template:0,1@0;c=0.5;q=4")
    assert tpl["c"] == 0.5 and tpl["q"] == 4.0 and tpl["ct"] == 0.0
    with pytest.raises(ConfigError):
        parse_h1_case("template:1@0;k=2")
    with pytest.raises(ConfigError):
        parse_h1_case("template:1@0;q=-1")


def test_parse_h2_cases():
    # the named targets are the closed forms at q = h(T): q^2/2 and q^3
    eq = parse_h2_case("brownian-equality")
    assert eq["target_lhs"](1.0) == 0.5 and eq["target_lhs"](2.0) == 2.0
    strict = parse_h2_case("brownian-strict")
    assert strict["target_lhs"](1.0) == 1.0 and strict["target_lhs"](2.0) == 8.0
    tpl = parse_h2_case("template:1@0.25;g=const:1;gt=zero")
    assert tpl["g"](0.0) == 1.0 and tpl["target_lhs"] is None
    with pytest.raises(ConfigError):
        parse_h2_case("template:1@0;width=3")


def test_parse_isometry_cases():
    assert parse_isometry_case("one")[0] == "one"
    assert parse_isometry_case("x")[1] == ((0j, (0j, 1 + 0j)),)
    with pytest.raises(ConfigError):
        parse_isometry_case("spiral")


# ---------------------------------------------------------------------------
# config objects

def test_presets_cover_documented_names():
    assert set(PRESETS) == {
        "default", "acceptance", "brownian-equality", "brownian-strict",
    }
    cfg = apply_preset(RunConfig(), "acceptance")
    assert cfg.paths == 100_000 and cfg.grid_steps == 512
    with pytest.raises(ConfigError):
        apply_preset(RunConfig(), "nope")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=-1),
        dict(workers=0),
        dict(paths=1),
        dict(horizon=0.0),
        dict(h1_tol=0.0),
        dict(suites=("h3",)),
        dict(time_change="sqrt"),
        dict(h2_cases=("lognormal",)),
        dict(time_change="pw:0:0,1:-1"),
        dict(time_change="pw:0:0,1:inf"),
        dict(h2_cases=("template:1@0;g=pw:0:0,0.5:1,0.5:2",)),
        dict(h2_cases=("template:1@0;g=const:nan",)),
        dict(l2_k_max=L2_K_MAX + 1),
        dict(l2_k_max=45),
        dict(horizon=float("nan")),
        dict(horizon=float("inf")),
        dict(pde_step=float("nan")),
        dict(h1_n_random=0),
        dict(h1_n_random=-3),
        dict(algebra_n_random=0),
        dict(h1_tol=float("nan")),
        dict(h1_tol=float("inf")),
        dict(h2_k_sigma=float("nan")),
        dict(h2_k_sigma=-1.0),
        dict(h2_disc_factor=float("inf")),
        dict(h2_disc_factor=-0.5),
        # exponents whose labels collide would run one task twice under one label
        dict(lemma2_exponents=("1", "1.0")),
        dict(pde_exponents=("1", "1.0", "1+0j")),
        dict(l2_exponents=("1j", "0+1j")),
    ],
)
def test_validated_rejects_bad_configs(kwargs):
    import dataclasses
    with pytest.raises(ConfigError):
        dataclasses.replace(RunConfig(), **kwargs)


def test_load_ini(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(
        "[run]\nseed = 5\nsuites = l2limit pde\n\n[l2limit]\nk_max = 10\n"
        "\n[pde]\nstep = 1e-3\n"
    )
    cfg = load_ini(str(p))
    assert cfg.seed == 5 and cfg.suites == ("l2limit", "pde")
    assert cfg.l2_k_max == 10 and cfg.pde_step == 1e-3


def test_h1_tolerance_has_one_owner(tmp_path):
    # the default is verify's constant itself, not a copy of its value, and
    # so is the default of the verify function that the field feeds
    import dataclasses
    import inspect
    from expmart import verify
    [field] = [f for f in dataclasses.fields(RunConfig) if f.name == "h1_tol"]
    assert field.default is H1_TOL and RunConfig().h1_tol == H1_TOL
    for name, constant, function, parameter in [
        ("h2_k_sigma", verify.K_SIGMA, verify.verify_h2, "k_sigma"),
        ("h2_disc_factor", verify.DISC_FACTOR, verify.verify_h2, "disc_factor"),
        ("pde_step", verify.PDE_STEP, verify.verify_pde, "step"),
        ("l2_k_max", verify.L2_K_MAX_DEFAULT, verify.verify_l2_limit, "k_max"),
    ]:
        [field] = [f for f in dataclasses.fields(RunConfig) if f.name == name]
        assert field.default is constant
        assert inspect.signature(function).parameters[parameter].default is constant
    ini = tmp_path / "run.ini"
    ini.write_text("[h1]\ntol = 1e-6\n")
    assert load_ini(str(ini)).h1_tol == 1e-6


TWO_TERM_CASE = "template:1@1+45j + 1@45+1j"


def test_case_list_keeps_a_multi_term_template_whole(tmp_path, capsys):
    # the template's terms are joined by " + "; the list splits on whitespace
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nsuites = h2\npaths = 2000\ngrid_steps = 16\n\n"
        f"[h2]\ncases = brownian-equality {TWO_TERM_CASE}\n"
    )
    assert load_ini(str(ini)).h2_cases == ("brownian-equality", TWO_TERM_CASE)
    out = tmp_path / "out"
    assert main(["--config", str(ini), "--out-dir", str(out)]) == 3
    cases = [c["case"] for c in _read_reports(out)[1]["cases"]]
    assert cases == [
        "h2[brownian-equality]", "h2-target[brownian-equality]",
        "h2/template[1@1+45j + 1@45+1j]",
    ]
    # a "+" with no term on one side is still no case
    ini.write_text("[run]\nsuites = h2\n\n[h2]\ncases = brownian-equality +\n")
    assert main(["--config", str(ini), "--out-dir", str(out)]) == 2
    assert "unknown h2 case '+'" in capsys.readouterr().err


def test_load_ini_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[run]\nspeed = 5\n")
    with pytest.raises(ConfigError):
        load_ini(str(p))
    p.write_text("[warp]\nfactor = 9\n")
    with pytest.raises(ConfigError):
        load_ini(str(p))
    with pytest.raises(ConfigError):
        load_ini(str(tmp_path / "missing.ini"))


# ---------------------------------------------------------------------------
# end-to-end runs (in-process main)

def _read_reports(out_dir):
    csv_text = (out_dir / "report.csv").read_text()
    doc = json.loads((out_dir / "report.json").read_text())
    return csv_text, doc


def test_single_suite_run_passes(tmp_path, capsys):
    rc = main(["l2limit", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    csv_text, doc = _read_reports(tmp_path)
    header = csv_text.splitlines()[0].split(",")
    assert header[:4] == ["suite", "case", "kind", "seed"]
    assert {"passed", "slack", "allowance", "lhs_product", "rhs_exact"} <= set(header)
    assert doc["run"]["suites_run"] == ["l2limit"]
    assert all(c["passed"] for c in doc["cases"])


def test_l2limit_at_a_vanishing_variance_fails_its_ratio_rows(tmp_path):
    # at q = 1e-30 the norms underflow to 0: the ratio has no denominator,
    # so its row fails, and the run neither crashes nor writes an error row
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsuites = l2limit\nhorizon = 1e-30\n")
    rc = main(["--config", str(ini), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    csv_text, doc = _read_reports(tmp_path / "out")
    assert "error:" not in csv_text
    failed = [c["case"] for c in doc["cases"] if not c["passed"]]
    assert failed and all(case.startswith("l2limit-") for case in failed)
    ratios = [c for c in doc["cases"] if c["case"].startswith("l2limit-ratio[")]
    assert len(ratios) == len(RunConfig().l2_exponents)
    assert all(c["passed"] is False and c["lhs_product"] == math.inf for c in ratios)


def test_no_suite_selected_prints_usage(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path)])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_run_selects_suites_as_main_does(monkeypatch):
    # "all" is every suite; otherwise each named suite runs once, in order
    def cases(suites):
        return [chk.case for _, chk in cli.run(RunConfig(), suites)[0]]

    assert cases(("l2limit", "l2limit")) == cases(("l2limit",))
    built = []

    def no_tasks(cfg, suites):
        built.append(suites)
        return [], {}, lambda done: []

    monkeypatch.setattr(cli, "_build_tasks", no_tasks)
    cli.run(RunConfig(), ("all",))
    cli.run(RunConfig(), ("pde", "h1", "pde"))
    assert built == [SUITES, ("pde", "h1")]


def test_bad_preset_is_config_error(tmp_path, capsys):
    assert main(["all", "--preset", "warp", "--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name",
    ["commutators", "lemma2-grid", "h1-random", "pde-box", "l2limit-dyadic", "isometry-basic"],
)
def test_removed_preset_exits_2(tmp_path, capsys, name):
    # the first five equalled "default", and "isometry-basic" equalled
    # "acceptance"; all six were removed
    assert main(["all", "--preset", name, "--out-dir", str(tmp_path)]) == 2
    assert f"unknown preset {name!r}" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["all", "--config", str(tmp_path / "none.ini")]) == 2


def test_negative_seed_rejected(tmp_path):
    assert main(["l2limit", "--seed", "-3", "--out-dir", str(tmp_path)]) == 2


def test_unknown_subcommand_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["fly", "--out-dir", str(tmp_path)])
    assert e.value.code == 2


def test_config_and_preset_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["all", "--config", "a.ini", "--preset", "default"])
    assert e.value.code == 2


def test_flag_overrides_config_seed(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 11\n")
    rc = main(["l2limit", "--config", str(ini), "--seed", "99",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, doc = _read_reports(tmp_path)
    assert doc["run"]["seed"] == 99


def test_failing_check_exits_1(tmp_path, capsys):
    # k_max = 12 leaves the final difference-quotient norm above the 1e-3
    # bar (it is ~2^-13 sqrt(34 e) for exponent 1), an honest red
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsuites = l2limit\n\n[l2limit]\nk_max = 12\n")
    rc = main(["--config", str(ini), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err
    _, doc = _read_reports(tmp_path)
    assert any(not c["passed"] for c in doc["cases"])


@pytest.mark.parametrize(
    "ini_text",
    [
        "[run]\nsuites = isometry\ntime_change = pw:0:0,1:-1\n",
        "[run]\nsuites = h2\n\n[h2]\ncases = template:1@0;g=pw:0:0,0.5:1,0.5:2\n",
    ],
    ids=["time-change", "h2-centering"],
)
def test_malformed_pw_knots_exit_2(tmp_path, capsys, ini_text):
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text)
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "ini_text",
    [
        "[run]\nsuites = isometry\nhorizon = nan\n",
        "[run]\nsuites = pde\n\n[pde]\nstep = nan\n",
        "[run]\nsuites = h1\n\n[h1]\nn_random = 0\n",
        "[run]\nsuites = check-algebra\n\n[algebra]\nn_random = 0\n",
        "[run]\nsuites = h1\n\n[h1]\ncases = template:1@0;q=nan\n",
        "[run]\nsuites = h1\n\n[h1]\ncases = template:1@0;c=inf\n",
        "[run]\nsuites = isometry\n\n[isometry]\ncases = template:nan@0\n",
        "[run]\nsuites = h2\n\n[h2]\ncases = template:1@inf\n",
        "[run]\nsuites = lemma2\n\n[lemma2]\nexponents = nan\n",
        "[run]\nsuites = pde\n\n[pde]\nexponents = inf\n",
        # files that are not valid INI
        "[run]\nsuites = l2limit\nseed = 7%\n",
        "[run]\nsuites = l2limit\nseed = 1\nseed = 2\n",
        "[run]\nsuites = l2limit\n[run]\nseed = 2\n",
        "suites = l2limit\n",
        "[run]\nsuites = l2limit\nout_dir = caf\xe9\n",
        # [DEFAULT] is an unknown section, not defaults for the others
        "[run]\nsuites = l2limit\n\n[DEFAULT]\nspeed = 5\n",
        "[DEFAULT]\nseed = 5\n\n[run]\nsuites = h1\n\n[h1]\nn_random = 2\n",
        # valid-looking values that no run can use
        "[run]\nsuites = isometry\nhorizon = 1e-320\ngrid_steps = 100000\n",
        "[run]\nsuites = h2\nhorizon = 2\ntime_change = power:1e300\n",
        f"[run]\nsuites = h1\nseed = {2**64 - 5}\n",
        "[run]\nsuites = pde\n\n[pde]\nexponents = 1 1.0 1+0j\n",
    ],
    ids=[
        "horizon-nan", "pde-step-nan", "h1-n-random-0", "algebra-n-random-0",
        "h1-q-nan", "h1-c-inf", "isometry-coefficient-nan", "h2-exponent-inf",
        "lemma2-exponent-nan", "pde-exponent-inf",
        "percent", "repeated-key", "repeated-section", "no-section-header", "not-utf8",
        "default-section", "default-section-seed",
        "grid-too-fine", "time-change-overflows-at-horizon", "seed-beyond-philox-keys",
        "pde-exponent-labels-collide",
    ],
)
def test_values_that_cannot_run_exit_2(tmp_path, capsys, ini_text):
    ini = tmp_path / "run.ini"
    # latin-1 leaves the ASCII files as they are and makes \xe9 a byte that
    # is not UTF-8
    ini.write_bytes(ini_text.encode("latin-1"))
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("expmart: config error:")
    assert not (tmp_path / "report.csv").exists()


def test_largest_seed_runs(tmp_path):
    # the inputs' Philox streams are keyed by (seed + channel) * 2**64 with
    # channels up to 5: every suite that draws one runs at the last seed
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[run]\nsuites = check-algebra lemma2 isometry h1\nseed = {2**64 - 6}\n"
        "paths = 2000\ngrid_steps = 8\n[algebra]\nn_random = 4\n[h1]\nn_random = 3\n"
        "[lemma2]\npaths = 2000\n"
    )
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 0


def test_percent_in_out_dir_is_literal(tmp_path):
    out = tmp_path / "x%y"
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nsuites = l2limit\nout_dir = {out}\n")
    assert main(["--config", str(ini)]) == 0
    assert (out / "report.csv").exists()


@pytest.mark.parametrize("k_max, status", [(L2_K_MAX, 0), (L2_K_MAX + 1, 2)])
def test_l2limit_k_max_bound(tmp_path, k_max, status):
    # the largest accepted k_max still passes every row for the default
    # exponents; the next one is refused before anything runs
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nsuites = l2limit\n\n[l2limit]\nk_max = {k_max}\n")
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == status


@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
def test_out_dir_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, below):
    # refused before any suite runs, not after every row is computed
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a suite ran"))
    assert main(["l2limit", "--out-dir", str(blocker / below)]) == 2
    assert capsys.readouterr().err.startswith("expmart: config error:")
    assert blocker.read_text() == "kept"


def _record_draws(monkeypatch, check=lambda *args: None) -> list:
    """Every (steps, paths, seed, block) that ``block_chunks`` is asked to
    draw, through either binding of it, after ``check`` on its arguments."""
    drawn, real = [], processes.block_chunks

    def recorded(h, grid, n_paths, seed, block):
        check(h, grid, n_paths, seed, block)
        drawn.append((grid.steps, n_paths, seed, block))
        return real(h, grid, n_paths, seed, block)

    monkeypatch.setattr(processes, "block_chunks", recorded)
    monkeypatch.setattr(verify, "block_chunks", recorded)
    return drawn


def test_lemma2_without_exponents_draws_no_ensemble(tmp_path, monkeypatch):
    drawn = _record_draws(monkeypatch)
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsuites = lemma2 l2limit\n\n[lemma2]\nexponents =\n")
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 0
    _, doc = _read_reports(tmp_path)
    assert drawn == [] and {c["suite"] for c in doc["cases"]} == {"l2limit"}
    assert doc["header"]["paths_generated"] == {"main": 0, "lemma2": 0}


def test_h2_targets_follow_the_horizon(tmp_path):
    # at T = 2 the named cases' left sides are h(T)^2/2 = 2 and h(T)^3 = 8;
    # their T = 1 values, 0.5 and 1, fail both h2-target rows here
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nhorizon = 2.0\npaths = 4000\ngrid_steps = 32\nsuites = h2\n")
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 0
    _, doc = _read_reports(tmp_path)
    targets = {c["case"]: c["rhs_exact"] for c in doc["cases"] if c["case"].startswith("h2-target")}
    assert targets == {
        "h2-target[brownian-equality]": 2.0,
        "h2-target[brownian-strict]": 8.0,
    }
    assert all(c["passed"] for c in doc["cases"])


def _add_pde_task(monkeypatch, make_task):
    """Put ``make_task(h, grid)`` before the pde suite's own tasks."""
    build, help_line = cli._SUITES["pde"]

    def with_task(cfg, h, grid):
        meta, tasks = build(cfg, h, grid)
        return meta, [make_task(h, grid)] + tasks

    monkeypatch.setitem(cli._SUITES, "pde", (with_task, help_line))


@pytest.mark.parametrize("workers", [1, 2])
def test_crashing_task_becomes_failing_row(tmp_path, monkeypatch, workers):
    def boom():
        raise RuntimeError("boom")

    _add_pde_task(monkeypatch, lambda h, grid: ("pde/boom", (), boom))
    rc = main(["pde", "--workers", str(workers), "--out-dir", str(tmp_path)])
    assert rc == 4
    _, doc = _read_reports(tmp_path)
    crashed = [c for c in doc["cases"] if c["case"] == "pde/boom"]
    assert len(crashed) == 1
    assert crashed[0]["note"] == "error: RuntimeError: boom"
    assert crashed[0]["passed"] is False
    # the other tasks still ran and reported
    assert sum(c["passed"] for c in doc["cases"]) == len(doc["cases"]) - 1 > 0


def test_dead_worker_becomes_failing_row(tmp_path, monkeypatch):
    _add_pde_task(monkeypatch, lambda h, grid: ("pde/dies", (), lambda: os._exit(9)))
    rc = main(["pde", "--workers", "2", "--out-dir", str(tmp_path)])
    assert rc == 4
    _, doc = _read_reports(tmp_path)
    cases = {c["case"]: c for c in doc["cases"]}
    dead = cases["pde/dies"]
    assert dead["passed"] is False and dead["note"].startswith("error: BrokenProcessPool: ")
    # every other task finished, or was lost with the pool and says so
    lost = [c for c in doc["cases"] if not c["passed"]]
    assert all(c["note"].startswith("error: BrokenProcessPool: ") for c in lost)
    tasks, _, _ = cli._build_tasks(RunConfig(), ("pde",))
    assert len(doc["cases"]) == len(tasks) == 1 + len(RunConfig().pde_exponents)
    wall = doc["header"]["task_wall_s"]
    assert list(wall) == [label for _, (label, _, _) in tasks]
    assert math.isnan(wall["pde/dies"])


# 40000 paths are three blocks; five integrands of 16 columns each
SWEPT_INI = (
    "[run]\nsuites = isometry h2 pde\npaths = 40000\ngrid_steps = 16\n\n"
    "[isometry]\ncases = one\n[h2]\ncases = brownian-equality brownian-strict\n"
)


def _swept_run(out_dir, workers):
    out_dir.mkdir()
    ini = out_dir / "run.ini"
    ini.write_text(SWEPT_INI)
    rc = main(["--config", str(ini), "--workers", str(workers), "--out-dir", str(out_dir)])
    return rc, _read_reports(out_dir)


def test_header_counts_the_sweep(tmp_path):
    docs = []
    for workers in (1, 2):
        rc, (_, doc) = _swept_run(tmp_path / f"w{workers}", workers)
        assert rc == 0
        sweep = doc["header"]["sweep"]
        assert set(sweep) == {"blocks", "seconds", "columns", "points"}
        assert (sweep["blocks"], sweep["columns"], sweep["points"]) == (3, 3 * 80, 40000 * 80)
        assert 0.0 < sweep["seconds"] < 60.0
        cfg = load_ini(str(tmp_path / f"w{workers}" / "run.ini"))
        tasks, _, _ = cli._build_tasks(cfg, cfg.suites)
        assert list(doc["header"]["task_wall_s"]) == [label for _, (label, _, _) in tasks]
        docs.append(_strip_json_header(doc))
    assert docs[0] == docs[1]
    # no sampled suite, no blocks
    assert main(["pde", "--out-dir", str(tmp_path / "pde")]) == 0
    assert _read_reports(tmp_path / "pde")[1]["header"]["sweep"] == {
        "blocks": 0, "seconds": 0.0, "columns": 0, "points": 0,
    }


def _assert_sums_lost(doc, note):
    # one failing row per isometry and h2 task, each with the block's error
    readers = [c for c in doc["cases"] if c["suite"] in ("isometry", "h2")]
    assert [c["case"] for c in readers] == [
        "isometry/one", "h2/brownian-equality", "h2/brownian-strict",
    ]
    assert all(c["passed"] is False and c["note"].startswith(note) for c in readers)
    # each reader ran, and raised the block's error, in the main process
    wall = doc["header"]["task_wall_s"]
    assert all(math.isfinite(wall[c["case"]]) and wall[c["case"]] >= 0.0 for c in readers)


@pytest.mark.parametrize("workers", [1, 2])
def test_crashing_block_fails_the_tasks_that_read_its_sums(tmp_path, monkeypatch, workers):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "sweep_block", boom)
    rc, (_, doc) = _swept_run(tmp_path / "out", workers)
    assert rc == 4
    _assert_sums_lost(doc, "error: RuntimeError: boom")
    # the pde tasks read no sums and still ran
    pde = [c for c in doc["cases"] if c["suite"] == "pde"]
    assert len(pde) == len(RunConfig().pde_exponents) and all(c["passed"] for c in pde)


def test_dead_worker_in_a_block_becomes_failing_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "sweep_block", lambda *args: os._exit(9))
    rc, (csv_text, doc) = _swept_run(tmp_path / "out", 2)
    assert rc == 4 and csv_text.count("\n") == len(doc["cases"]) + 1
    _assert_sums_lost(doc, "error: BrokenProcessPool: ")
    # every pde task finished, or was lost with the pool and says so
    pde = [c for c in doc["cases"] if c["suite"] == "pde"]
    assert len(pde) == len(RunConfig().pde_exponents)
    assert all(c["passed"] or c["note"].startswith("error: BrokenProcessPool: ") for c in pde)
    assert doc["header"]["sweep"]["blocks"] == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_any_task_that_names_an_integrand_reads_its_sums(tmp_path, monkeypatch, workers):
    # the schedule reads which tasks wait for the moments from the tasks, not
    # from their suites: a pde task that names X gets the isometry[x] row
    def isometry_of_x(h, grid):
        z = dataclasses.replace(ProcessElement.coordinate(h), label="x")
        return "pde/x", (("main", z),), lambda moments: [verify_isometry(z, grid, moments)]

    _add_pde_task(monkeypatch, isometry_of_x)
    out = tmp_path / "out"
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsuites = isometry pde\npaths = 40000\ngrid_steps = 16\n"
                   "[isometry]\ncases = x\n")
    rc = main(["--config", str(ini), "--workers", str(workers), "--out-dir", str(out)])
    # no task was lost; isometry[x] may fail on its left-sum bias at M = 16
    assert rc in (0, 1)
    _, doc = _read_reports(out)
    meta = ("suite", "seed", "n_paths", "grid_steps", "horizon", "h_kind")
    rows = [
        {k: v for k, v in c.items() if k not in meta}
        for c in doc["cases"] if c["case"] == "isometry[x]"
    ]
    assert [c["suite"] for c in doc["cases"] if c["case"] == "isometry[x]"] == ["isometry", "pde"]
    assert rows[0] == rows[1] and rows[0]["factor1"]["n"] == 40000
    # two integrands of 16 columns each, on each of three blocks
    sweep = doc["header"]["sweep"]
    assert (sweep["blocks"], sweep["columns"], sweep["points"]) == (3, 3 * 32, 40000 * 32)


@pytest.mark.parametrize("error", [concurrent.futures.process.BrokenProcessPool, RuntimeError])
def test_jobs_a_broken_pool_refuses_become_failing_rows(tmp_path, monkeypatch, error):
    class BreaksAfterOneJob(concurrent.futures.process.ProcessPoolExecutor):
        def submit(self, *args):
            if getattr(self, "took_one", False):
                raise error("broke")
            self.took_one = True
            return super().submit(*args)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", BreaksAfterOneJob)
    rc, (_, doc) = _swept_run(tmp_path / "out", 2)
    assert rc == 4
    # the first block ran; the others and every pde task never went in
    note = f"error: {error.__name__}: broke"
    _assert_sums_lost(doc, note)
    pde = [c for c in doc["cases"] if c["suite"] == "pde"]
    assert len(pde) == len(RunConfig().pde_exponents)
    assert all(c["note"] == note for c in pde)


@pytest.mark.parametrize("workers", [1, 2])
def test_header_times_every_task(tmp_path, workers):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nsuites = check-algebra h1 pde l2limit\n[algebra]\nn_random = 20\n"
        "[h1]\nn_random = 10\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(ini), "--workers", str(workers), "--out-dir", str(out)]) == 0
    wall = _read_reports(out)[1]["header"]["task_wall_s"]
    cfg = load_ini(str(ini))
    tasks, _, _ = cli._build_tasks(cfg, cfg.suites)
    assert list(wall) == [label for _, (label, _, _) in tasks]
    assert all(0.0 < seconds < 60.0 for seconds in wall.values())


def test_peak_rss_covers_worker_processes(tmp_path):
    # lemma2's block jobs draw and read its 1e6 paths in the workers, which
    # peak above the main process; wait4 gives the whole tree's peak
    proc = subprocess.Popen(
        [sys.executable, "-m", "expmart.cli", "lemma2", "--workers", "2",
         "--out-dir", str(tmp_path)],
        stdout=subprocess.DEVNULL,
    )
    timer = threading.Timer(120.0, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    tree_mb = usage.ru_maxrss / 1024.0
    assert _read_reports(tmp_path)[1]["header"]["peak_rss_mb"] >= tree_mb


def test_worker_pool_is_capped_at_the_task_count(tmp_path, monkeypatch):
    sizes = []

    class Recording(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
    for exponents, tag in (("0 1", "two"), ("", "none")):
        ini = tmp_path / f"{tag}.ini"
        ini.write_text(f"[pde]\nexponents = {exponents}\n")
        out = tmp_path / tag
        assert main(["pde", "--config", str(ini), "--workers", "3", "--out-dir", str(out)]) == 0
        assert len(_read_reports(out)[1]["cases"]) == len(exponents.split())
    # two tasks get two processes; no tasks run inline, with no pool at all
    assert sizes == [2]


def test_overflowing_case_exits_3_with_report(tmp_path):
    # exponent 40j: every evaluation is finite but |.|^2 leaves float64
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nsuites = isometry\npaths = 2000\ngrid_steps = 32\n\n"
        "[isometry]\ncases = template:1@40j\n"
    )
    rc = main(["--config", str(ini), "--out-dir", str(tmp_path)])
    assert rc == 3
    _, doc = _read_reports(tmp_path)
    assert any(c["note"].startswith("overflow:") for c in doc["cases"])


def test_h1_case_with_infinite_addends_fails_its_row(tmp_path, caplog):
    # the case's norms reduce addends of both signs at inf: they take the
    # exact sum, which leaves float64, so the row reads inf against inf and
    # fails on its NaN slack, and no task crashes
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nsuites = h1\n\n[h1]\nn_random = 5\n"
        "cases = template:1e200,0.5,1,0.5@-2 + -1,3,1e200,1j@25j\n"
    )
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 1
    _, doc = _read_reports(tmp_path)
    [failed] = [c for c in doc["cases"] if not c["passed"]]
    assert failed["case"].startswith("h1[template[1e200,0.5,1,0.5@-2")
    assert math.isnan(failed["slack"]) and failed["note"] == ""
    assert not [r for r in caplog.records if r.exc_info]


def test_h2_image_whose_coefficients_overflow_exits_3(tmp_path, caplog):
    # G(X^10 E(1e150)) has coefficients of order (1e150)^10: they leave
    # float64 while the sweep builds the second integrand's columns, which
    # is the task's overflow, as in h1 and isometry, and no crash
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nsuites = h2\npaths = 2000\ngrid_steps = 8\n\n"
        "[h2]\ncases = template:0,0,0,0,0,0,0,0,0,0,1@1e150\n"
    )
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 3
    _, doc = _read_reports(tmp_path)
    [row] = doc["cases"]
    assert row["passed"] is False and row["note"].startswith("overflow:")
    assert "1e+150j" in row["note"]
    assert not [r for r in caplog.records if r.exc_info]


def test_lemma2_overflowing_exponent_product_exits_3(tmp_path):
    # c*d*q = 1e400 is not finite; cmath.exp would return inf+nanj for it
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsuites = lemma2\n\n[lemma2]\nexponents = 1e200\n")
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 3
    _, doc = _read_reports(tmp_path)
    [row] = doc["cases"]
    assert row["passed"] is False and row["note"].startswith("overflow:")


def test_pde_step_whose_shifts_overflow_fails_its_rows(tmp_path):
    # at step 1000 the stencils' shifts reach exp(500) and beyond: every
    # c != 0 reads a residual of 1.9e217, inf or NaN, which fails its row
    # and is no overflow error; c = 0 has no shift and still passes
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsuites = pde\n\n[pde]\nstep = 1000\n")
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 1
    _, doc = _read_reports(tmp_path)
    passed = {c["case"]: c["passed"] for c in doc["cases"]}
    assert passed == {
        "pde[c=0]": True, "pde[c=1]": False, "pde[c=0+1j]": False, "pde[c=1+1j]": False
    }
    assert not any(c["note"].startswith(("overflow:", "error:")) for c in doc["cases"])


def test_l2limit_rows_carry_the_time_change_kind(tmp_path):
    # every suite's rows name the time change by its kind, not its spec
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nsuites = lemma2 l2limit\ntime_change = power:0.5\n\n"
        "[lemma2]\npaths = 100\nexponents = 1\n\n[l2limit]\nexponents = 1\n"
    )
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 0
    _, doc = _read_reports(tmp_path)
    assert {c["suite"] for c in doc["cases"]} == {"lemma2", "l2limit"}
    assert {c["h_kind"] for c in doc["cases"]} == {"power"}


def _lemma2_rows(tmp_path, exponents: str) -> tuple[int, dict]:
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nsuites = lemma2\n\n[lemma2]\npaths = 10000\nexponents = {exponents}\n")
    rc = main(["--config", str(ini), "--out-dir", str(tmp_path)])
    _, doc = _read_reports(tmp_path)
    return rc, {c["case"]: c for c in doc["cases"]}


SAMPLE_MOMENTS = "overflow: sample moments exceed the float64 range"


def test_lemma2_sample_overflow_fails_its_pair(tmp_path):
    # E(1) conj(E(1+30j)) reaches about exp(460) on the samples: finite, but
    # its square is not, so each mixed pair's task fails, exact entry and
    # all.  For c = d = 1+30j the closed form exp(901) itself overflows.
    rc, cases = _lemma2_rows(tmp_path, "1 1+30j")
    assert rc == 3
    assert {case for case, c in cases.items() if c["passed"]} == {
        "lemma2-exact[c=1,d=1]", "lemma2-mc[c=1,d=1]"
    }
    for pair in ("c=1,d=1+30j", "c=1+30j,d=1"):
        assert cases[f"lemma2/{pair}"]["note"].startswith(SAMPLE_MOMENTS)
    assert cases["lemma2/c=1+30j,d=1+30j"]["note"] == "overflow: math range error"


def test_lemma2_squared_sample_overflow_exits_3(tmp_path):
    # |E(1+20j)|^2 = exp(2 X_T + 399) is finite on the samples, and so is
    # the closed form exp(401), but its square is not: the one overflow of
    # the run is in the sample moments of c = d = 1+20j
    rc, cases = _lemma2_rows(tmp_path, "1 1+20j")
    assert rc == 3
    [failed] = [c for c in cases.values() if not c["passed"]]
    assert failed["case"] == "lemma2/c=1+20j,d=1+20j"
    assert failed["note"].startswith(SAMPLE_MOMENTS)
    assert len(cases) == 7


def _strip_json_header(doc):
    return {k: v for k, v in doc.items() if k != "header"}


def test_reports_identical_across_worker_counts(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nsuites = check-algebra isometry h1 pde l2limit\npaths = 2000\n"
        "grid_steps = 64\n[algebra]\nn_random = 60\n"
    )
    outs = []
    for workers, tag in ((1, "a"), (3, "b")):
        out = tmp_path / tag
        rc = main(["--config", str(ini), "--workers", str(workers),
                   "--out-dir", str(out)])
        assert rc == 0
        outs.append(_read_reports(out))
    (csv_a, doc_a), (csv_b, doc_b) = outs
    assert csv_a == csv_b
    assert _strip_json_header(doc_a) == _strip_json_header(doc_b)
    assert doc_a["header"]["workers"] == 1 and doc_b["header"]["workers"] == 3
    for doc in (doc_a, doc_b):
        assert doc["header"]["paths_generated"] == {"main": 2000, "lemma2": 0}
        assert doc["header"]["peak_rss_mb"] > 0
    # each worker process hands back its tasks' escalations, so none are lost
    escalations = [(doc["header"]["mp_escalations"], doc["header"]["mp_max_dps"])
                   for doc in (doc_a, doc_b)]
    assert escalations[0] == escalations[1]
    assert escalations[0][0] > 0 and 25 <= escalations[0][1] <= 70


OVERFLOW_CASE = "template:1@1+45j"


def _isometry_h2_run(out_dir, workers, extra_case=""):
    # the real part of 1@1+45j's exponent is x + 1012 q: it overflows from
    # t = 0.75 on, in all three blocks; at seed 8 the column maximum lies in
    # the last block and reads 763 there against 762 in the first
    out_dir.mkdir()
    ini = out_dir / "run.ini"
    ini.write_text(
        "[run]\nsuites = isometry h2\npaths = 40000\ngrid_steps = 16\nseed = 8\n\n"
        f"[isometry]\ncases = one x {extra_case}\n"
    )
    rc = main(["--config", str(ini), "--workers", str(workers), "--out-dir", str(out_dir)])
    return rc, _read_reports(out_dir)


@pytest.mark.parametrize("workers", [1, 2])
def test_overflowing_integrand_fails_only_its_own_task(tmp_path, workers):
    rc, (csv_text, doc) = _isometry_h2_run(tmp_path / "with", workers, OVERFLOW_CASE)
    assert rc == 3
    _, (csv_clean, doc_clean) = _isometry_h2_run(tmp_path / "without", workers)
    label = f"isometry/{OVERFLOW_CASE}"
    failed = [c for c in doc["cases"] if c["case"] == label]
    assert len(failed) == 1 and failed[0]["passed"] is False

    h = TimeChange.identity()
    ens = generate(h, TimeGrid.uniform(1.0, 16), 40000, 8)
    z = ProcessElement.from_template(h, [(1 + 45j, (1.0,))])
    with pytest.raises(EvaluationOverflowError) as e:
        ito_integral(z, ens)
    assert failed[0]["note"] == f"overflow: {e.value}"

    assert [c for c in doc["cases"] if c["case"] != label] == doc_clean["cases"]
    assert [line for line in csv_text.splitlines() if f",{label}," not in line] == (
        csv_clean.splitlines()
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_overflowing_integrand_is_summed_up_to_its_overflow_column(tmp_path, workers):
    # 7 integrands of 16 columns on 3 blocks; 1@1+45j stops at t = 0.75,
    # column 12, in every block: 3 * (7 * 16 - 4) columns over 40000 rows
    _, (_, doc) = _isometry_h2_run(tmp_path / "out", workers, OVERFLOW_CASE)
    sweep = doc["header"]["sweep"]
    assert (sweep["blocks"], sweep["columns"], sweep["points"]) == (3, 324, 40000 * 108)


def _h2_run(out_dir, workers, extra_case=""):
    out_dir.mkdir()
    ini = out_dir / "run.ini"
    ini.write_text(
        "[run]\nsuites = isometry h2\npaths = 2000\ngrid_steps = 16\n\n"
        f"[h2]\ncases = brownian-equality brownian-strict {extra_case}\n"
    )
    rc = main(["--config", str(ini), "--workers", str(workers), "--out-dir", str(out_dir)])
    return rc, _read_reports(out_dir)


@pytest.mark.parametrize("workers", [1, 2])
def test_task_reports_its_first_integrands_error(tmp_path, workers):
    # both h2 integrands of Y = E(1+45j) + E(45+1j) overflow from q = 0.75
    # on: the first on exponent 1+45j, the second, through G, on 1-45j
    rc, (_, doc) = _h2_run(tmp_path / "with", workers, TWO_TERM_CASE)
    assert rc == 3
    _, (_, doc_clean) = _h2_run(tmp_path / "without", workers)
    label = "h2/template[1@1+45j + 1@45+1j]"
    [failed] = [c for c in doc["cases"] if c["case"] == label]
    assert failed["passed"] is False
    assert failed["note"].startswith("overflow: exp overflow: term with exponent (1+45j)")
    assert [c for c in doc["cases"] if c["case"] != label] == doc_clean["cases"]


def _one_engine_run(out_dir, workers):
    out_dir.mkdir()
    ini = out_dir / "run.ini"
    ini.write_text(
        "[run]\nsuites = lemma2 isometry h2\npaths = 20000\ngrid_steps = 32\n\n"
        "[lemma2]\npaths = 20000\n"
    )
    assert main(["--config", str(ini), "--workers", str(workers), "--out-dir", str(out_dir)]) == 0
    _, doc = _read_reports(out_dir)
    assert doc["header"]["paths_generated"] == {"main": 20000, "lemma2": 20000}
    assert {c["suite"] for c in doc["cases"]} == {"lemma2", "isometry", "h2"}
    # two blocks of each ensemble
    assert doc["header"]["sweep"]["blocks"] == 4


def test_main_ensemble_is_never_materialized(tmp_path, monkeypatch):
    # no N x (M+1) matrix: each block of each ensemble is drawn once, chunk
    # by chunk, in job order, and nothing calls generate
    def materialized(*args):
        raise AssertionError("an ensemble's path matrix was built")

    monkeypatch.setattr(processes, "generate", materialized)
    drawn = _record_draws(monkeypatch)
    _one_engine_run(tmp_path / "out", 1)
    assert drawn == [(32, 20000, 20260815, 0), (32, 20000, 20260815, 1),
                     (1, 20000, 20260816, 0), (1, 20000, 20260816, 1)]


def test_every_path_is_drawn_in_a_block_job(tmp_path, monkeypatch):
    # at two workers the block jobs, lemma2's included, run in the workers,
    # so the main process never draws a path
    parent = os.getpid()

    def in_a_worker(*args):
        assert os.getpid() != parent, "the main process drew paths"

    _record_draws(monkeypatch, in_a_worker)
    _one_engine_run(tmp_path / "out", 2)


def test_seed_changes_sampled_rows(tmp_path):
    rows = []
    for seed, tag in ((1, "a"), (2, "b")):
        out = tmp_path / tag
        assert main(["isometry", "--seed", str(seed), "--paths", "2000",
                     "--grid", "64", "--out-dir", str(out)]) == 0
        rows.append(_read_reports(out)[0].splitlines()[1])
    assert rows[0] != rows[1]


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "expmart.cli", "pde", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout
