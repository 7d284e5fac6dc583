"""Tests of the benchmark harness itself, at toy sizes."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import report, tracer
from bench.datagen import Generator
from bench.recorder import Recorder
from bench.workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

TINY = {
    "ingest": {"products": 6, "bulk_rows": 60, "batch_rows": 20, "updates": 10,
               "appends": 2, "append_rows": 8},
    "analytics": {"products": 6, "rows": 120, "pk_group": 10, "pk_offsets": 2},
    "audit": {"products": 6, "rows": 60},
}


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, tmp_path, trace=0, seed=7):
    scratch = tmp_path / "scratch"
    scratch.mkdir(exist_ok=True)
    return report.run_workload(name, seed, 0.2, trace, scratch, SRC, tmp_path, TINY[name])


def test_generator_is_deterministic_per_seed():
    a, b, c = Generator(5), Generator(5), Generator(6)
    rows = a.sales("bulk0", 1, 2000, 40)
    assert rows == b.sales("bulk0", 1, 2000, 40)
    assert rows != c.sales("bulk0", 1, 2000, 40)
    assert a.products(40) == b.products(40)
    assert a.updates("u", rows, 50) == b.updates("u", rows, 50)
    assert a.scheme_seed() == b.scheme_seed() != c.scheme_seed()
    nulls = sum(r["qty"] is None for r in rows)
    assert 40 <= nulls <= 160   # about 5% of 2000
    assert [r["SaleNo"] for r in rows] == list(range(1, 2001))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(name, tmp_path):
    result, _, _ = _run(name, tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result, _, _ = _run("audit", tmp_path, trace=1)
    assert result["correct"], result
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert list(tmp_path.glob("audit-seed7.spans.csv.gz"))


def test_untraced_runs_leave_every_patched_function_identical(tmp_path):
    before = tracer.originals()
    _run("ingest", tmp_path)
    after = tracer.originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # a traced run patches them and puts every original back
    _run("ingest", tmp_path, trace=1)
    after = tracer.originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    t = tracer.Tracer()
    wl = WORKLOADS["ingest"](Generator(3), tmp_path, SRC, TINY["ingest"])
    rec = Recorder(t)
    t.install()
    try:
        wl.setup(rec)
        wl.window(rec, 0.1)
    finally:
        t.uninstall()
    totals = t.totals()
    assert totals["field.lagrange_interpolate"][0] > 0
    self_sum = sum(s for _, s in totals.values())
    assert self_sum == pytest.approx(t.root_seconds(), rel=1e-9)
    # every root span is a benchmark operation, and they cover no more than their wall time
    roots = [i for i in range(len(t.span_start)) if t.span_parent[i] == -1]
    assert all(t.names[t.span_name[i]].startswith("bench.") for i in roots)
    wall = max(t.span_end) - min(t.span_start[i] for i in roots)
    assert t.root_seconds() <= wall


def test_gate_trips_on_a_wrong_expected_answer(tmp_path):
    wl = WORKLOADS["analytics"](Generator(3), tmp_path, SRC, TINY["analytics"])
    rec = Recorder()
    wl.setup(rec)
    wl.prepare()
    (value,) = wl._expected[("q_scalar", None)]
    wl._expected[("q_scalar", None)] = [(value[0] + 1, *value[1:])]
    wl.window(rec, 0.0)
    assert rec.failed == 1
    assert "q_scalar" in rec.failures[0]


def test_benchmark_json_records_each_workloads_sizes():
    bench = _benchmark_json()
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    assert set(whys) == set(SIZES)
    for name, sizes in SIZES.items():
        numbers = set(re.findall(r"\d+", whys[name]))
        assert {str(v) for v in sizes.values()} <= numbers, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
