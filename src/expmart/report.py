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
from .verify import Check, Estimate

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

_CSV_COLUMNS = (
    "suite", "case", "kind", "seed", "n_paths", "grid_steps", "horizon",
    "h_kind", "factor1_mean", "factor1_stderr", "factor2_mean",
    "factor2_stderr", "lhs_product", "rhs_exact", "slack", "allowance",
    "passed", "note",
)


def _fmt_complex_repr(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


def _csv_cells(meta: _Meta, chk: Check) -> list[str]:
    f1 = chk.factor1
    f2 = chk.factor2
    return [
        meta.suite, chk.case, chk.kind, str(meta.seed), str(meta.n_paths),
        str(meta.grid_steps), repr(meta.horizon), meta.h_kind,
        _fmt_complex_repr(f1.mean) if f1 else "",
        repr(f1.stderr) if f1 else "",
        _fmt_complex_repr(f2.mean) if f2 else "",
        repr(f2.stderr) if f2 else "",
        repr(chk.lhs), repr(chk.rhs), repr(chk.slack),
        repr(chk.allowance), str(chk.passed), chk.note,
    ]


def _json_case(meta: _Meta, chk: Check) -> dict:
    def est(e: Estimate | None):
        if e is None:
            return None
        return {"mean": _fmt_complex_repr(e.mean), "stderr": e.stderr, "n": e.n}

    return {
        "suite": meta.suite,
        "case": chk.case,
        "kind": chk.kind,
        "seed": meta.seed,
        "n_paths": meta.n_paths,
        "grid_steps": meta.grid_steps,
        "horizon": meta.horizon,
        "h_kind": meta.h_kind,
        "factor1": est(chk.factor1),
        "factor2": est(chk.factor2),
        "lhs_product": chk.lhs,
        "rhs_exact": chk.rhs,
        "slack": chk.slack,
        "allowance": chk.allowance,
        "passed": chk.passed,
        "note": chk.note,
        "extra": {k: v for k, v in chk.extra},
    }


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
        writer.writerow(_CSV_COLUMNS)
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
