"""Every config the validator accepts runs: a bounded config fuzzer.

An INI file drawn from the grammar of ``[lemma2] exponents``, the isometry,
h1 and h2 template cases and the time changes, at extreme magnitudes
(coefficients up to 1e200, exponents up to 1e3 and 25j, horizons from 1e-30
to 700, ``power:0.01`` to ``power:20``, piecewise values up to 400), has two
outcomes: ``load_ini`` refuses it with a ``ConfigError``, or ``cli.run``
exits 0, 1 or 3 with no ``error:`` row and its reports are written.  Runs
stay small (at most 500 paths on at most 16 steps), so the examples below
take a few seconds; ``CONFIGS`` also serves a longer campaign outside the
test suite.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from expmart import cli
from expmart.config import ConfigError, load_ini
from expmart.report import make_out_dir, write_reports

SIGNS = st.sampled_from([1.0, -1.0])
REALS = st.builds(
    lambda size, sign: size * sign,
    st.sampled_from([0.0, 1e-200, 1e-30, 1e-8, 0.25, 1.0, 3.0, 25.0, 1e3, 1e200]),
    SIGNS,
)
EXPONENTS = st.builds(
    complex,
    st.sampled_from([0.0, 0.5, 1.0, -2.0, 25.0, -25.0, 1e3]),
    st.sampled_from([0.0, 1.0, -1.0, 25.0, -25.0]),
)


def _number(z: complex) -> str:
    """A literal that ``parse_complex`` reads back as z."""
    z = complex(z)
    return repr(z.real) if z.imag == 0.0 else f"{z.real!r}{z.imag:+.17g}j"


TERMS = st.builds(
    lambda coeffs, c: f"{','.join(map(_number, coeffs))}@{_number(c)}",
    st.lists(st.one_of(REALS, st.builds(complex, REALS, REALS)), min_size=1, max_size=4),
    EXPONENTS,
)
ELEMENTS = st.lists(TERMS, min_size=1, max_size=2).map(" + ".join)
CENTERINGS = st.one_of(
    st.builds(lambda v: f"const:{v!r}", REALS),
    st.builds(lambda v: f"pw:0:0,1:{v!r}", REALS),
)
TIME_CHANGES = st.one_of(
    st.just("identity"),
    st.sampled_from(["power:0.01", "power:0.5", "power:2", "power:20"]),
    st.builds(
        lambda a, b: f"pw:0:0,0.5:{a!r},1:{a + b!r}",
        st.sampled_from([0.0, 1e-8, 1.0, 400.0]),
        st.sampled_from([0.0, 0.5, 400.0]),
    ),
)
SUITES = st.lists(st.sampled_from(["lemma2", "isometry", "h1", "h2"]), min_size=1, max_size=3)


@st.composite
def _configs(draw) -> str:
    """The text of one INI file."""
    h1 = draw(st.lists(st.builds(
        lambda el, c, ct, q: f"template:{el};c={c!r};ct={ct!r};q={q!r}",
        ELEMENTS, REALS, REALS, st.sampled_from([0.0, 1e-8, 0.25, 1.0, 700.0]),
    ), min_size=1, max_size=2))
    h2 = draw(st.lists(st.builds(
        lambda el, g, gt: f"template:{el};g={g};gt={gt}", ELEMENTS, CENTERINGS, CENTERINGS,
    ), min_size=1, max_size=2))
    return "\n".join([
        "[run]",
        f"suites = {' '.join(draw(SUITES))}",
        f"paths = {draw(st.integers(2, 500))}",
        f"grid_steps = {draw(st.integers(1, 16))}",
        f"horizon = {draw(st.sampled_from([1e-30, 1e-8, 0.5, 1.0, 2.0, 700.0]))!r}",
        f"time_change = {draw(TIME_CHANGES)}",
        "[lemma2]",
        f"paths = {draw(st.integers(2, 500))}",
        f"exponents = {' '.join(map(_number, draw(st.lists(EXPONENTS, max_size=3))))}",
        "[isometry]",
        f"cases = {' '.join('template:' + el for el in draw(st.lists(ELEMENTS, min_size=1, max_size=2)))}",
        "[h1]",
        "n_random = 2",
        f"cases = {' '.join(h1)}",
        "[h2]",
        f"cases = {' '.join(h2)}",
        "",
    ])


CONFIGS = _configs()
# an h1 case whose norms reduce addends of both signs at inf, which made
# math.fsum raise and the run exit 4
H1_INFINITE_ADDENDS = (
    "[run]\nsuites = h1\n[h1]\nn_random = 2\n"
    "cases = template:1e200,0.5,1,0.5@-2 + -1,3,1e200,1j@25j\n"
)


def run_config(text: str, tmp_path) -> int | None:
    """``text``'s exit status, having checked that its run wrote its reports
    and no ``error:`` row; None when ``load_ini`` refuses it."""
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    try:
        cfg = load_ini(str(ini))
    except ConfigError:
        return None
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"))
    rows, status, telemetry = cli.run(cfg, cfg.suites)
    make_out_dir(cfg.out_dir)
    csv_path, _ = write_reports(rows, cfg, cfg.suites, telemetry)
    errors = [chk.note for _, chk in rows if chk.note.startswith("error:")]
    assert (status, errors) in ((0, []), (1, []), (3, [])), (status, errors, text)
    assert (tmp_path / "out" / "report.csv").is_file() and csv_path.endswith("report.csv")
    return status


@given(CONFIGS)
@example(H1_INFINITE_ADDENDS)
@settings(max_examples=25, deadline=None, database=None)
def test_accepted_configs_run(tmp_path_factory, text):
    run_config(text, tmp_path_factory.mktemp("fuzz"))
