"""The reports of a run: ``report.csv``, ``report.json`` and the console.

A row is one ``verify.Check`` next to its suite's run metadata (``_Meta``).
Floats are written with ``repr``, so the CSV is byte-reproducible; the JSON
holds the same rows, the resolved configuration under ``run`` and the run's
telemetry under ``header``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import resource
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

from . import __version__
from .config import ConfigError, RunConfig
from .verify import Check

__all__ = ["Result", "make_out_dir", "write_reports", "print_summary"]


@dataclass(frozen=True)
class _Meta:
    """The run metadata written next to each check of a suite."""

    suite: str
    seed: int
    n_paths: int = 0
    grid_steps: int = 0
    horizon: float = 0.0
    h_kind: str = "-"


# one report row: a check and the run metadata of its suite
Result = tuple[_Meta, Check]

# The reports' fields, in order.  Each is the attribute of the same name of
# the row's _Meta or Check, but lhs_product and rhs_exact hold its lhs and
# rhs.  The CSV spreads each factor (an Estimate or None) over _mean and _stderr.
_FIELDS = (
    "suite", "case", "kind", "seed", "n_paths", "grid_steps", "horizon", "h_kind",
    "factor1", "factor2", "lhs_product", "rhs_exact", "slack", "allowance", "passed", "note",
)
_FACTORS = ("factor1", "factor2")


def _fmt_complex_repr(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


def _fields(meta: _Meta, chk: Check) -> dict:
    """The row's fields, in ``_FIELDS`` order."""
    attrs = {"lhs_product": "lhs", "rhs_exact": "rhs"}
    return {
        name: getattr(meta if hasattr(meta, name) else chk, attrs.get(name, name))
        for name in _FIELDS
    }


def _csv_cells(meta: _Meta, chk: Check) -> list[str]:
    cells = []
    for name, value in _fields(meta, chk).items():
        if name in _FACTORS:
            cells += [_fmt_complex_repr(value.mean), repr(value.stderr)] if value else ["", ""]
        else:
            cells.append(value if isinstance(value, str) else repr(value))
    return cells


def _json_case(meta: _Meta, chk: Check) -> dict:
    case = _fields(meta, chk)
    for name in _FACTORS:
        if (e := case[name]) is not None:
            case[name] = {"mean": _fmt_complex_repr(e.mean), "stderr": e.stderr, "n": e.n}
    return {**case, "extra": dict(chk.extra)}


def _peak_rss_mb() -> float:
    """The peak resident set of this process or of any worker it reaped."""
    # ru_maxrss is in KiB on Linux
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def make_out_dir(out_dir: str) -> None:
    """Create the report directory, before the run: a ConfigError if it cannot be."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out_dir {out_dir!r} cannot be a directory: {e}") from None


def write_reports(
    rows: list[Result],
    cfg: RunConfig,
    suites: Sequence[str],
    telemetry: dict,
) -> tuple[str, str]:
    """Write report.csv and report.json into ``make_out_dir``'s directory;
    ``telemetry`` (what ``cli.run`` returns besides the rows) goes into the JSON header."""
    csv_path = os.path.join(cfg.out_dir, "report.csv")
    json_path = os.path.join(cfg.out_dir, "report.json")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            name + part
            for name in _FIELDS
            for part in (("_mean", "_stderr") if name in _FACTORS else ("",))
        )
        for meta, chk in rows:
            writer.writerow(_csv_cells(meta, chk))
    run_echo = dataclasses.asdict(cfg)
    # execution details that may legitimately differ between identical runs
    # live in the header; everything under "run" is semantic configuration
    run_echo.pop("workers")
    run_echo.pop("out_dir")
    run_echo["suites_run"] = list(suites)
    run_echo["version"] = __version__
    doc = {
        "header": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workers": cfg.workers,
            "out_dir": cfg.out_dir,
            **telemetry,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "run": run_echo,
        "cases": [_json_case(meta, chk) for meta, chk in rows],
    }
    with open(json_path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return csv_path, json_path


def print_summary(rows: list[Result], csv_path: str, json_path: str) -> None:
    """One PASS/FAIL line per row and a count on stdout; each failure on stderr."""
    for meta, chk in rows:
        flag = "PASS" if chk.passed else "FAIL"
        print(f"[{flag}] {meta.suite:<13} {chk.case:<44} "
              f"slack={chk.slack:<12.4g} allowance={chk.allowance:.4g}")
    failed = [(meta, chk) for meta, chk in rows if not chk.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed; "
          f"reports: {csv_path}, {json_path}")
    for meta, chk in failed:
        print(f"expmart: FAILED {meta.suite}: {chk.case} ({chk.note})", file=sys.stderr)
