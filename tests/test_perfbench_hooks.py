"""The benchmark's tracer (perfbench/spans.py) wraps bridgekit functions by
name. These tests run its hooks over a short training and eval-mode network
calls, so a change that moves what it hooks fails here rather than as a
skipped row in a benchmark run. The tracer is read and executed from its
source file; nothing is written next to it."""

import types
from pathlib import Path

import numpy as np

import bridgekit as bk

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_hooks_record_every_net_span():
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
