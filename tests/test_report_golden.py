"""report.csv is the behaviour oracle: each run below must reproduce its
stored reference byte for byte, and report.json must match outside its
``header`` (which holds the timestamp, worker count and resource use).

``all --seed 7`` is the default battery, and ``all --preset acceptance`` at
two workers the acceptance scale, run through the worker pool.
``shapes.ini`` reaches every row shape the CLI writes but the skip row:
bound and match rows, exact and sampled factors, and failing overflow rows.
``degenerate.ini`` runs under a time change that stays at 0, where the
l2limit rows are skip rows.  ``piecewise.ini`` runs the isometry and h2
suites under a piecewise-linear time change with a flat piece, with
piecewise-linear and constant h2 centerings.  The
references in ``tests/data/`` change only with a change that alters the
reports on purpose.
"""

import json
from pathlib import Path

import pytest

from expmart.cli import main

DATA = Path(__file__).parent / "data"

# name -> (arguments, exit status)
RUNS = {
    "all-seed7": (["all", "--seed", "7"], 0),
    "acceptance": (["all", "--preset", "acceptance", "--workers", "2"], 0),
    "shapes": (["--config", str(DATA / "shapes.ini")], 3),
    "degenerate": (["--config", str(DATA / "degenerate.ini")], 0),
    "piecewise": (["--config", str(DATA / "piecewise.ini")], 0),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_reference(tmp_path, name):
    args, status = RUNS[name]
    assert main(args + ["--out-dir", str(tmp_path)]) == status
    got_csv = (tmp_path / "report.csv").read_bytes()
    assert got_csv == (DATA / f"{name}.report.csv").read_bytes()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"header", "run", "cases"}
    doc.pop("header")
    assert doc == json.loads((DATA / f"{name}.report.json").read_text())
