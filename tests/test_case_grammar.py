"""The one case grammar of h1, h2 and isometry: a named case, or
'template:<element>[;key=value]...' with each kind's option keys.

Every kind rejects the same six mistakes, five in one case and two cases
with one label, as a ``ConfigError`` from the parser or the config and as
exit status 2 from an INI file, and every case keeps the fields and the
label it has always had.
"""

import pytest

from expmart.cli import main
from expmart.config import (
    ConfigError,
    RunConfig,
    parse_centering,
    parse_element_template,
    parse_h1_case,
    parse_h2_case,
    parse_isometry_case,
)

PARSERS = {"h1": parse_h1_case, "h2": parse_h2_case, "isometry": parse_isometry_case}

# (kind, mistake, cases, start of the message); the isometry kind has no
# options, so any option is an unknown one and none has a bad value or is
# repeated
BAD_CASES = [
    ("h1", "unknown-name", "spiral", "unknown h1 case 'spiral'"),
    ("h1", "unknown-option", "template:1@0;k=2", "unknown h1 case option 'k=2'"),
    ("h1", "bad-value", "template:1@0;c=x", "bad h1 case option 'c=x'"),
    ("h1", "empty-element", "template:;c=1", "empty element template"),
    ("h2", "unknown-name", "lognormal", "unknown h2 case 'lognormal'"),
    ("h2", "unknown-option", "template:1@0;width=3", "unknown h2 case option 'width=3'"),
    ("h2", "bad-value", "template:1@0;g=linear", "bad h2 case option 'g=linear'"),
    ("h2", "empty-element", "template:;gt=zero", "empty element template"),
    ("isometry", "unknown-name", "spiral", "unknown isometry case 'spiral'"),
    ("isometry", "unknown-option", "template:1@0;g=zero", "unknown isometry case option 'g=zero'"),
    ("isometry", "empty-element", "template:", "empty element template"),
    ("h1", "duplicate-label", "template:1@0;c=0.5 template:1@0;c=5e-1",
     "two h1 cases share the label 'template[1@0;c=0.5;ct=0;q=1]'"),
    ("h2", "duplicate-label", "template:1@0;g=const:1 template:1@0",
     "two h2 cases share the label 'template[1@0]'"),
    ("isometry", "duplicate-label", "one x one", "two isometry cases share the label 'one'"),
    ("h1", "repeated-option", "template:1@0;c=1;c=2", "repeated h1 case option 'c=2'"),
    ("h2", "repeated-option", "template:1@0;g=zero;g=const:1",
     "repeated h2 case option 'g=const:1'"),
]


bad_cases = pytest.mark.parametrize(
    "kind, case, message", [(k, c, m) for k, _, c, m in BAD_CASES],
    ids=[f"{k}-{mistake}" for k, mistake, _, _ in BAD_CASES],
)


@bad_cases
def test_bad_case_is_config_error(kind, case, message):
    # each case on its own, then the list
    with pytest.raises(ConfigError) as e:
        for one in case.split():
            PARSERS[kind](one)
        RunConfig(**{f"{kind}_cases": tuple(case.split())})
    assert str(e.value).startswith(message)


@bad_cases
def test_bad_case_in_ini_exits_2(tmp_path, capsys, kind, case, message):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nsuites = {kind}\n\n[{kind}]\ncases = {case}\n")
    assert main(["--config", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"expmart: config error: {message}")
    assert not (tmp_path / "report.csv").exists()


ZERO = parse_centering("zero")
ONE = parse_element_template("1@0")
X = parse_element_template("0,1@0")


@pytest.mark.parametrize(
    "name, template, c, ct, q, equality",
    [
        ("one-equality", ONE, 0.0, 0.0, 1.0, True),
        ("coordinate", X, 0.0, 0.0, 1.0, False),
        ("exp-energy", parse_element_template("1@1"), 0.0, 0.0, 1.0, False),
        ("exp-equality", parse_element_template("1@0.5"), 1.0, 0.0, 1.0, True),
    ],
)
def test_named_h1_cases_are_pinned(name, template, c, ct, q, equality):
    assert parse_h1_case(name) == dict(
        name=name, template=template, c=c, ct=ct, q=q, equality=equality
    )


@pytest.mark.parametrize(
    "name, template, target",
    [("brownian-equality", ONE, lambda q: q * q / 2), ("brownian-strict", X, lambda q: q**3)],
)
def test_named_h2_cases_are_pinned(name, template, target):
    case = parse_h2_case(name)
    assert set(case) == {"name", "template", "g", "g_tilde", "target_lhs"}
    assert (case["name"], case["template"], case["g"], case["g_tilde"]) == (
        name, template, ZERO, ZERO
    )
    assert [case["target_lhs"](q) for q in (0.5, 1.0, 3.0)] == [target(q) for q in (0.5, 1.0, 3.0)]


def test_named_isometry_cases_are_pinned():
    assert parse_isometry_case("one") == ("one", ONE)
    assert parse_isometry_case(" x ") == ("x", X)


def test_template_cases_keep_their_labels():
    assert parse_h1_case(" template:0,1@0;c=0.5;q=4 ") == dict(
        name="template[0,1@0;c=0.5;ct=0;q=4]", template=X, c=0.5, ct=0.0, q=4.0,
        equality=False,
    )
    tpl = parse_h2_case("template:1@0.25;gt=const:1")
    assert tpl["name"] == "template[1@0.25]" and tpl["target_lhs"] is None
    assert tpl["g"] == ZERO and tpl["g_tilde"](0.3) == 1.0
    assert parse_isometry_case("template:0,1@0") == ("template:0,1@0", X)
