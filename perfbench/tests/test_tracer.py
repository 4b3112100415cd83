"""The span tracer: self time, wrapping in every namespace, metric names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_children_and_totals_skip_nested_repeats():
    spans = [
        # id, parent, thread, name, start, end, info
        (1, 0, 1, "cli.run", 0.0, 10.0, None),
        (2, 1, 1, "verify.verify_h1", 2.0, 5.0, None),
        (3, 2, 1, "algebra.inner_product", 3.0, 4.0, None),
        (4, 3, 1, "algebra.inner_product", 3.2, 3.6, None),
        (5, 0, 2, "algebra.inner_product", 6.0, 9.0, None),  # worker thread root
    ]
    st = tracer.summarize(spans)
    assert st["cli.run"]["self"] == pytest.approx(7.0)
    assert st["verify.verify_h1"]["self"] == pytest.approx(2.0)
    assert st["algebra.inner_product"]["calls"] == 3
    assert st["algebra.inner_product"]["total"] == pytest.approx(4.0)
    assert st["algebra.inner_product"]["self"] == pytest.approx(0.6 + 0.4 + 3.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tracer.layer_metrics([], 0.0).keys() == tracer.PER_LAYER.keys()


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_cli_run_records_every_layer(tmp_path, workers):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nseed = 5\npaths = 2000\ngrid_steps = 16\n"
        f"workers = {workers}\nout_dir = {tmp_path / 'reports'}\n"
        "[algebra]\nn_random = 30\n[h1]\nn_random = 10\n[lemma2]\npaths = 1000\n"
        "[pde]\nexponents = 1\n"
    )
    spans_path = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(BENCH.parent / "src"), "PATH": ""}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path),
         "--", "all", "--config", str(ini)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text())
    assert doc["missing"] == []
    m = tracer.layer_metrics(doc["spans"], 0.0)
    for name, unit in tracer.PER_LAYER.items():
        if name != "trace.overhead_s":
            assert m[name] > 0, name
    # the isometry and h2 ensembles share one generate call of 2000 x 17
    assert m["processes.path_matrix_mb"] == pytest.approx(
        (2000 * 17 + 1000 * 2) * 8 / 2**20
    )
    assert m["verify.ito_columns"] == 16 * (2 + 2 * 2)
    # verify.py imports inner_product from algebra; its calls are caught too
    names = {s[3] for s in doc["spans"]}
    assert "verify.ProcessElement.at" in names and "verify.Estimate.from_samples" in names
