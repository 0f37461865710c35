"""Tests of the benchmark itself: tiny smoke runs, tracing hygiene, result format.

    python3 -m pytest bench/tests -q
"""

import importlib
import inspect
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from scatterfit import loss

ROOT = run.ROOT


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_of_every_workload(name, trace, tmp_path):
    result = run.run(name, 7, 0, trace, tiny=True, setup_reps=1, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((tmp_path / f"{name}-seed7-trace{int(trace)}.json").read_text())
    fits = [op for op in record["operations"] if op["kind"] == "fit"]
    assert fits and all({"status", "iterations", "final_loss", "residual_db"} <= op.keys() for op in fits)
    assert record["environment"]["blas_threads"] == run.BLAS_THREADS
    assert not list(tmp_path.glob("work-*"))


def _namespace_snapshot():
    owners = [importlib.import_module("scatterfit")]
    owners += [importlib.import_module(f"scatterfit.{layer}") for layer in tracing.LAYERS]
    owners += [obj for mod in owners[1:] for obj in vars(mod).values() if inspect.isclass(obj)]
    return {(id(owner), attr): value for owner in owners for attr, value in list(vars(owner).items())}


def test_tracer_removes_its_wrappers():
    before = _namespace_snapshot()
    original = loss.batch_loss
    with tracing.Tracer():
        assert loss.batch_loss is not original
        assert _namespace_snapshot() != before
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracing_leaves_theta_bit_identical():
    work = workloads.Workload("single-profile", 11, ROOT, tiny=True)
    fit = work.cycle(0)[0]
    plain = fit()
    tracer = tracing.Tracer()
    with tracer:
        traced = fit()
    assert tracer.calls["loss.batch_loss"] > 0 and tracer.spans
    assert plain.ok and traced.ok
    assert plain.theta.tobytes() == traced.theta.tobytes()


def test_spans_link_to_their_parents():
    work = workloads.Workload("monte-carlo", 2, ROOT, tiny=True)
    tracer = tracing.Tracer()
    with tracer:
        work.cycle(0)[0]()
    names = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    parents = {}
    for _, parent, name, _, _ in tracer.spans:
        parents.setdefault(name, set()).add(names.get(parent))
    assert parents["estimate.gradient_descent"] == {None}
    assert parents["estimate.line_search"] == {"estimate.gradient_descent"}
    assert parents["waveform.autocorr"] == {"model.synthesize_profiles", "model.profile_jacobians"}
    assert all(start <= end for *_, start, end in tracer.spans)


def test_a_failed_check_fails_the_run(tmp_path, monkeypatch):
    original = loss.batch_gradient
    monkeypatch.setattr(loss, "batch_gradient", lambda *a, **k: 1.01 * original(*a, **k))
    result = run.run("monte-carlo", 1, 0, False, tiny=True, setup_reps=1, out_dir=tmp_path)
    assert not result["correct"] and result["failed"] >= 2
    problems = json.loads((tmp_path / "monte-carlo-seed1-trace0.json").read_text())["problems"]
    assert any("finite differences" in p for p in problems)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["bench"] and spec["command"][1] == "bench/run.py"


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr
