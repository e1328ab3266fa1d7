"""The benchmark's tracer (perfbench/spans.py) wraps bridgekit functions by
name. These tests run its hooks over a short training, eval-mode network
calls and a `sample` command of several waves, so a change that moves what
it hooks fails here rather than as a skipped row in a benchmark run. The
tracer is read and executed from its source file; nothing is written next
to it."""

import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import bridgekit as bk

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_hooks_record_every_net_span(monkeypatch):
    from bridgekit import _workers

    monkeypatch.setattr(_workers, "_BLAS_CAP", None)  # training in process: both nets traced
    tracer = load_spans().Tracer()
    tracer.install_bridgekit_hooks()
    try:
        data = bk.generate_moon(20, rng=np.random.default_rng(0))
        result = bk.train(data, bk.TrainConfig(batch_size=8, n_iters=3))
        x = data.x0[:5]
        result.doob(0.5, x, b_value=result.drift(0.5, x))
    finally:
        tracer.uninstall()
    assert tracer.skipped_hooks == []
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    # Three iterations of both nets, and one eval call of each.
    assert len(by_name["nets.forward_train"]) == 6
    assert len(by_name["nets.backward"]) == 6
    assert len(by_name["nets.forward_eval"]) == 2
    for name in ("nets.forward_train", "nets.forward_eval", "nets.backward"):
        assert all(span["flops"] > 0 for span in by_name[name]), name
    assert "forward" not in vars(bk.DriftNet)  # the hooks are gone again


@pytest.mark.skipif(not sys.platform.startswith("linux") or os.uname().machine != "x86_64",
                    reason="the forked correction process runs on x86-64 Linux only")
def test_tracer_hooks_record_the_drift_net_spans_of_forked_training(monkeypatch):
    from bridgekit import _workers

    # The correction net steps in a child process, whose spans the tracer
    # does not see; the drift net's still come to 3 iterations' worth.
    monkeypatch.setattr(_workers, "workers", lambda n_tasks: n_tasks)
    tracer = load_spans().Tracer()
    tracer.install_bridgekit_hooks()
    try:
        data = bk.generate_moon(20, rng=np.random.default_rng(0))
        result = bk.train(data, bk.TrainConfig(batch_size=8, n_iters=3))
    finally:
        tracer.uninstall()
    assert result.workers == 2
    assert tracer.skipped_hooks == []
    names = [span["name"] for span in tracer.spans]
    assert names.count("nets.forward_train") == 3
    assert names.count("nets.backward") == 3
    assert names.count("training.loss_batch") == 3
    assert all(span["flops"] > 0 for span in tracer.spans
               if span["name"] in ("nets.forward_train", "nets.backward"))


def test_tracer_hooks_record_every_sample_span(tmp_path, monkeypatch):
    from bridgekit import _workers, cli, sde
    from bridgekit.training import save_train_result

    # One worker and chunks of 8 rows: 20 starts x 2 poses run in 5 waves.
    monkeypatch.setattr(sde, "_SIM_CHUNK", 8)
    monkeypatch.setattr(_workers, "_BLAS_CAP", None)
    data = bk.generate_moon(20, rng=np.random.default_rng(0))
    model = tmp_path / "model.bkt"
    save_train_result(model, bk.train(data, bk.TrainConfig(batch_size=8, n_iters=3)))
    starts = tmp_path / "starts.csv"
    bk.write_cloud(starts, data.x0)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install_bridgekit_hooks()
    try:
        code = cli.main(["sample", "--model", str(model), "--data", str(starts), "--steps", "4",
                         "--n-poses", "2", "--seed", "1", "--out", str(tmp_path / "traj.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.skipped_hooks == []
    names = [span["name"] for span in tracer.spans]
    assert names.count("sde.simulate") == 5
    rows = [span["rows"] for span in tracer.spans if span["name"] == "sde.write_trajectories"]
    assert len(rows) == 5 and sum(rows) == 20 * 2 * (4 + 1)
    values, skipped = spans.layer_metrics(tracer.spans, 1.0)
    sample_metrics = {"cli.self_s", "datasets.read_s", "datasets.bytes_read", "datasets.write_s",
                      "datasets.bytes_written", "serialize.load_ms", "sde.simulate_s",
                      "sde.simulate_self_s", "nets.forward_eval_ms", "nets.forward_eval_calls",
                      "nets.forward_eval_gflop_per_s", "sde.write_trajectories_s",
                      "sde.traj_rows_written", "trace.coverage_pct"}
    assert sample_metrics.isdisjoint(skipped), sorted(sample_metrics & set(skipped))
    assert values["sde.traj_rows_written"] == sum(rows)
