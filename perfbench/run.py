"""End-to-end and per-layer benchmark of the expmart CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is run from ``src/``.
Each round starts one fresh ``python3 -m expmart.cli`` process on the
workload's generated INI file, as a user would, and times it from spawn to
exit.  Every report is checked against values the benchmark computes itself
(``checks.py``).  With ``--trace 1`` one more round runs under the span
tracer (``tracer.py``) and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170.0
MB = 2**20

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# a fresh interpreter imports the CLI and resolves the config; no suite runs
SETUP_PROBE = (
    "import sys, expmart.cli\n"
    "from expmart.config import load_ini\n"
    "load_ini(sys.argv[1])\n"
)


class BenchmarkError(RuntimeError):
    """The program could not be run to the end; no result is printed."""


def _spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run argv to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _csv_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run of one workload: set-up probes, rounds, checks."""

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.dir = OUT / wl.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = _env()
        self.tally = checks.Tally()
        self.digest: str | None = None
        self.ini = self._write_ini("workload.ini", "reports")

    def _write_ini(self, name: str, reports: str, workers: int | None = None) -> Path:
        path = self.dir / name
        rel_reports = (self.dir / reports).relative_to(ROOT)
        path.write_text(self.wl.ini_text(str(rel_reports), workers))
        return path

    def _cli(self, ini: Path) -> list[str]:
        return [sys.executable, "-m", "expmart.cli", *self.wl.cli_args(str(ini.relative_to(ROOT)))]

    def setup_time(self) -> float:
        argv = [sys.executable, "-c", SETUP_PROBE, str(self.ini.relative_to(ROOT))]
        wall, _, rc = _spawn(argv, self.env, self.dir / "setup.log")
        if rc != 0:
            raise BenchmarkError(f"set-up probe exited {rc}; see {self.dir / 'setup.log'}")
        return wall

    def check_reports(self, reports: Path, rc: int, label: str) -> None:
        """Exit status, the CSV's digest against the first round's, the rows."""
        self.tally.check(rc == 0, f"{label}: expmart exited {rc}")
        digest = _csv_digest(reports / "report.csv")
        if self.digest is None:
            self.digest = digest
        else:
            self.tally.check(digest == self.digest, f"{label}: report.csv differs from round 1")
        checks.check_report(checks.read_report(str(reports / "report.csv")), self.wl, self.tally)

    def round(self, i: int) -> tuple[float, float]:
        wall, rss, rc = _spawn(self._cli(self.ini), self.env, self.dir / "expmart.log")
        if rc not in (0, 1):
            raise BenchmarkError(f"expmart exited {rc}; see {self.dir / 'expmart.log'}")
        self.check_reports(self.dir / "reports", rc, f"round {i + 1}")
        return wall, rss

    def compare_workers(self) -> None:
        """The same config at one worker must write the same report.csv."""
        ini = self._write_ini("one-worker.ini", "one-worker", workers=1)
        _, _, rc = _spawn(self._cli(ini), self.env, self.dir / "one-worker.log")
        if rc not in (0, 1):
            raise BenchmarkError(f"expmart exited {rc}; see {self.dir / 'one-worker.log'}")
        same = _csv_digest(self.dir / "one-worker" / "report.csv") == self.digest
        self.tally.check(same, "report.csv at 1 worker differs from the run at 2 workers")

    def spot_checks(self) -> None:
        sys.path.insert(0, str(SRC))
        from expmart import algebra

        checks.spot_check_inner_products(algebra, self.wl.params["seed"], self.tally)

    def traced_round(self, untraced_run_s: float) -> dict[str, float]:
        spans_path = self.dir / "spans.json"
        argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans_path),
                "--", *self.wl.cli_args(str(self.ini.relative_to(ROOT)))]
        wall, _, rc = _spawn(argv, self.env, self.dir / "traced.log")
        if rc not in (0, 1):
            raise BenchmarkError(f"traced expmart exited {rc}; see {self.dir / 'traced.log'}")
        self.check_reports(self.dir / "reports", rc, "traced round")
        dump_s = float(Path(str(spans_path) + ".dump_s").read_text())
        doc = json.loads(spans_path.read_text())
        if doc["missing"]:
            print(f"perfbench: not traced (absent in expmart): {', '.join(doc['missing'])}",
                  file=sys.stderr)
        return tracer.layer_metrics(doc["spans"], wall - dump_s - untraced_run_s)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    run = Run(wl)
    run.setup_time()  # writes the bytecode cache; not timed
    rounds = wl.rounds(seconds)
    setup, walls, rss = [], [], []
    for i in range(rounds):
        # probes are spread over the run, so their median sees the same
        # machine load as the rounds'
        setup.extend(run.setup_time() for _ in range(-(-SETUP_PROBES // rounds)))
        wall, peak = run.round(i)
        walls.append(wall)
        rss.append(peak)
    if wl.spot_check_algebra:
        run.spot_checks()
    run_s = statistics.median(walls)
    if trace:
        # the traced run has time to spare for the one-worker comparison
        if wl.compare_workers:
            run.compare_workers()
        values = run.traced_round(run_s)
        units = tracer.PER_LAYER
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END
    for msg in run.tally.failures[:20]:
        print(f"perfbench: FAILED {name}: {msg}", file=sys.stderr)
    return {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "rounds": walls,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "expmart" / "cli.py").is_file():
        print(f"perfbench: no expmart sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, ns.seed, ns.seconds, bool(ns.trace))
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"{name}: {res['attempted']} checks, {res['failed']} failed; "
              f"rounds (s): {' '.join(f'{w:.3f}' for w in res['rounds'])}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<34} {m['value']:>16.6g} {m['unit']}")
    if len(results) == 1:
        res = next(iter(results.values()))
        metrics = res["metrics"]
    else:
        metrics = {f"{n}:{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
