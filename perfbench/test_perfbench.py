"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

lf = run.import_program()
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY_INFER = dataclasses.replace(wl.WORKLOADS["infer-64"], n_per_class=2, bench_pool=False)
TINY_TRAIN = dataclasses.replace(wl.WORKLOADS["train-64"], n_per_class=2, train_per_class=8,
                                 batch_size=8, epochs=1, acc_floor=0.0)
SECONDS = 0.5


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("w", [TINY_INFER, TINY_TRAIN], ids=lambda w: w.name)
def test_untraced_run_reports_every_end_to_end_metric(w):
    result, lines = run.run_workload(w, seed=3, seconds=SECONDS, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wl.E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines)
    for name in ("ops_attempted", "ops_failed", "infer_samples", "loadavg_1m_before"):
        assert name in text
    samples = int(next(ln.split()[1] for ln in lines if ln.startswith("infer_samples")))
    assert samples >= wl.MIN_INFER_SAMPLES


@pytest.mark.parametrize("w", [dataclasses.replace(TINY_INFER, n_per_class=50, bench_pool=True),
                               TINY_TRAIN], ids=lambda w: w.name)
def test_traced_run_reports_every_per_layer_metric(w):
    result, _ = run.run_workload(w, seed=4, seconds=2 * SECONDS, trace=True)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == tracing.per_layer_units()
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["snet.fwd_calls"] == 1.0 and values["ops.conv1.fwd_ms"] > 0
    if w.trains:
        assert values["ops.conv2.bwd_calls"] == 1.0 and values["optim.step_ms"] > 0
        assert values["model.forward_train_calls"] == 1.0
    else:
        assert values["ops.conv2.bwd_calls"] == 0.0
        assert values["model.infer_graph_nodes"] > 0
        assert values["train.bench_w1_img_per_s"] > 0


def test_self_times_and_step_coverage():
    tracer = tracing.Tracer()
    tracer.spans = [["train.loop", 0.0, 10.0, None, None],
                    ["model.forward_train", 1.0, 3.0, 0, 0],
                    ["ops.conv1.fwd", 1.5, 2.0, 1, 0],
                    ["optim.step", 3.0, 3.5, 0, 0],
                    ["model.forward_train", 4.0, 6.0, 0, 1]]
    assert tracer.self_times() == [5.5, 1.5, 0.5, 0.5, 2.0]
    assert tracer.step_coverage() == pytest.approx(100.0 * 2.5 / 3.0)


def test_corrupted_score_counts_as_failed(monkeypatch):
    model_cls = lf.LfmModel
    orig = model_cls.score
    monkeypatch.setattr(model_cls, "score", lambda self, image: orig(self, image) + 1e-3)
    result, _ = run.run_workload(TINY_INFER, seed=5, seconds=SECONDS, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_corrupted_loss_counts_as_failed(monkeypatch):
    model_cls = lf.LfmModel
    orig = model_cls.forward_train

    def corrupt(self, *args, **kwargs):
        scores, star, report = orig(self, *args, **kwargs)
        return scores, star, dataclasses.replace(report, total=report.total + 1e-6)

    monkeypatch.setattr(model_cls, "forward_train", corrupt)
    result, lines = run.run_workload(TINY_TRAIN, seed=6, seconds=SECONDS, trace=False)
    steps = TINY_TRAIN.epochs * 2 * TINY_TRAIN.train_per_class // TINY_TRAIN.batch_size
    assert not result["correct"]
    assert result["failed"] % steps == 0 and result["failed"] >= steps


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer-64",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
