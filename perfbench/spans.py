"""Span tracing for the traced run, and the per-layer metrics derived from it.

The tracer wraps public functions and methods of bridgekit on the names their
callers look up (``cli.py`` imports ``simulate_sde`` into its own namespace,
so the hook goes on ``bridgekit.cli.simulate_sde``), records one span per call
-- name, start, end, parent span and a few attributes -- in memory, and
removes every wrapper again when the timed pass ends. A hook whose target no
longer exists is skipped and reported, so a refactor loses one row of the
breakdown instead of the whole run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (name, unit) of every per-layer metric, in report order. BENCHMARK.json
# lists the same names; the self-test keeps the two in step.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("datasets.read_s", "s"),
    ("datasets.bytes_read", "bytes"),
    ("datasets.write_s", "s"),
    ("datasets.bytes_written", "bytes"),
    ("training.train_s", "s"),
    ("training.self_s", "s"),
    ("training.iters", "count"),
    ("training.sample_batch_ms", "ms/it"),
    ("training.loss_batch_ms", "ms/it"),
    ("sde.bridge_sample_ms", "ms/it"),
    ("sde.drift_target_ms", "ms/it"),
    ("nets.forward_train_ms", "ms/it"),
    ("nets.backward_ms", "ms/it"),
    ("nets.train_gflop_per_s", "GFLOP/s"),
    ("optim.adamw_ms", "ms/it"),
    ("optim.ema_ms", "ms/it"),
    ("serialize.save_ms", "ms"),
    ("serialize.load_ms", "ms"),
    ("sde.simulate_s", "s"),
    ("sde.simulate_self_s", "s"),
    ("nets.forward_eval_ms", "ms"),
    ("nets.forward_eval_calls", "count"),
    ("nets.forward_eval_gflop_per_s", "GFLOP/s"),
    ("sde.write_trajectories_s", "s"),
    ("sde.traj_rows_written", "count"),
    ("metrics.mmd_s", "s"),
    ("metrics.sinkhorn_s", "s"),
    ("metrics.sinkhorn_iters", "count"),
    ("metrics.sinkhorn_sweep_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.coverage_pct", "%"),
)

def _resolve(target: str):
    """'pkg.module' or 'pkg.module.Class' -> the object, or None if gone."""
    module_name, _, tail = target.rpartition(".")
    try:
        return importlib.import_module(target)
    except ImportError:
        pass
    try:
        return getattr(importlib.import_module(module_name), tail, None)
    except ImportError:
        return None


class Tracer:
    """Records spans from wrapped callables; ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.skipped_hooks: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._macs: dict = {}

    def hook(self, target: str, attr: str, name, attrs=None) -> None:
        """Wrap ``target.attr``. ``name`` is a span name or a function of
        (args, kwargs) returning one; ``attrs(args, kwargs, result)`` returns
        extra span fields."""
        owner = _resolve(target)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.skipped_hooks.append(f"{target}.{attr}")
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = {"name": name(args, kwargs) if callable(name) else name,
                    "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        self._undo.append((owner, attr, orig if attr in vars(owner) else None))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is None:  # the wrapped method was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- bridgekit hooks ----------------------------------------------------

    def _net_macs(self, net) -> int:
        """Multiply-accumulates per row of one forward pass, from the shapes of
        the network's weight matrices."""
        if net.spec not in self._macs:
            self._macs[net.spec] = sum(
                shape[0] * shape[1] for _, shape in net.params().shape_table if len(shape) == 2
            )
        return self._macs[net.spec]

    def install_bridgekit_hooks(self) -> None:
        def forward_name(args, kwargs):
            train = kwargs.get("train", args[4] if len(args) > 4 else False)
            return "nets.forward_train" if train else "nets.forward_eval"

        def forward_flops(args, kwargs, result):
            return {"flops": 2 * len(args[2]) * self._net_macs(args[0])}

        def backward_flops(args, kwargs, result):
            # Each layer computes dW and the input gradient: twice the forward.
            grad_out = args[2] if len(args) > 2 else kwargs["grad_out"]
            return {"flops": 4 * len(grad_out) * self._net_macs(args[0])}

        def path_bytes(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0])}

        def traj_rows(args, kwargs, result):
            batch = args[1]
            return {"rows": batch.n_traj * (batch.n_steps + 1)}

        def sinkhorn_iters(args, kwargs, result):
            return {"iters": result.n_iters}

        self.hook("bridgekit.cli", "main", "cli.main")
        self.hook("bridgekit.cli", "read_pairs", "datasets.read", path_bytes)
        self.hook("bridgekit.cli", "read_cloud", "datasets.read", path_bytes)
        self.hook("bridgekit.cli", "write_cloud", "datasets.write", path_bytes)
        self.hook("bridgekit.cli", "train", "training.train")
        self.hook("bridgekit.training", "sample_training_batch", "training.sample_batch")
        self.hook("bridgekit.training", "loss_batch", "training.loss_batch")
        self.hook("bridgekit.training", "bridge_marginal_sample", "sde.bridge_sample")
        self.hook("bridgekit.training", "bridge_drift_target", "sde.drift_target")
        for net in ("DriftNet", "DoobNet"):
            self.hook(f"bridgekit.nets.{net}", "forward", forward_name, forward_flops)
            self.hook(f"bridgekit.nets.{net}", "backward", "nets.backward", backward_flops)
        self.hook("bridgekit.optim.AdamW", "step", "optim.adamw")
        self.hook("bridgekit.optim.EmaTracker", "update", "optim.ema")
        self.hook("bridgekit.training", "save_model", "serialize.save")
        self.hook("bridgekit.cli", "load_model", "serialize.load")
        self.hook("bridgekit.cli", "simulate_sde", "sde.simulate")
        self.hook("bridgekit.cli", "write_trajectories", "sde.write_trajectories", traj_rows)
        self.hook("bridgekit.cli", "mmd", "metrics.mmd")
        self.hook("bridgekit.cli", "sinkhorn_w", "metrics.sinkhorn", sinkhorn_iters)


def layer_metrics(spans: list[dict], wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced timed pass, and the names of those
    skipped because the workload recorded no span they need."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    summed = defaultdict(float)  # (span name, attribute) -> sum
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        self_time[s["name"]] += dur - child_time[i]
        count[s["name"]] += 1
        for key in ("flops", "bytes", "rows", "iters"):
            if key in s:
                summed[(s["name"], key)] += s[key]

    iters = count["training.loss_batch"]

    def per_iter_ms(name):
        return 1000.0 * total[name] / iters if iters else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    train_nets_s = total["nets.forward_train"] + total["nets.backward"]
    cli_s = total["cli.main"]
    values = {
        "cli.self_s": self_time["cli.main"],
        "datasets.read_s": total["datasets.read"],
        "datasets.bytes_read": summed[("datasets.read", "bytes")],
        "datasets.write_s": total["datasets.write"],
        "datasets.bytes_written": summed[("datasets.write", "bytes")],
        "training.train_s": total["training.train"],
        "training.self_s": self_time["training.train"],
        "training.iters": iters,
        "training.sample_batch_ms": per_iter_ms("training.sample_batch"),
        "training.loss_batch_ms": per_iter_ms("training.loss_batch"),
        "sde.bridge_sample_ms": per_iter_ms("sde.bridge_sample"),
        "sde.drift_target_ms": per_iter_ms("sde.drift_target"),
        "nets.forward_train_ms": per_iter_ms("nets.forward_train"),
        "nets.backward_ms": per_iter_ms("nets.backward"),
        "nets.train_gflop_per_s": ratio(
            summed[("nets.forward_train", "flops")] + summed[("nets.backward", "flops")],
            1e9 * train_nets_s,
        ),
        "optim.adamw_ms": per_iter_ms("optim.adamw"),
        "optim.ema_ms": per_iter_ms("optim.ema"),
        "serialize.save_ms": 1000.0 * total["serialize.save"],
        "serialize.load_ms": 1000.0 * total["serialize.load"],
        "sde.simulate_s": total["sde.simulate"],
        "sde.simulate_self_s": self_time["sde.simulate"],
        "nets.forward_eval_ms": ratio(1000.0 * total["nets.forward_eval"],
                                      count["nets.forward_eval"]),
        "nets.forward_eval_calls": count["nets.forward_eval"],
        "nets.forward_eval_gflop_per_s": ratio(summed[("nets.forward_eval", "flops")],
                                               1e9 * total["nets.forward_eval"]),
        "sde.write_trajectories_s": total["sde.write_trajectories"],
        "sde.traj_rows_written": summed[("sde.write_trajectories", "rows")],
        "metrics.mmd_s": total["metrics.mmd"],
        "metrics.sinkhorn_s": total["metrics.sinkhorn"],
        "metrics.sinkhorn_iters": summed[("metrics.sinkhorn", "iters")],
        "metrics.sinkhorn_sweep_ms": ratio(1000.0 * total["metrics.sinkhorn"],
                                           summed[("metrics.sinkhorn", "iters")]),
        "trace.wall_s": wall_s,
        # Share of the timed pass inside a layer span below the CLI command.
        "trace.coverage_pct": ratio(100.0 * (cli_s - self_time["cli.main"]), wall_s),
    }
    # Every metric reads exactly 0 when no span it needs was recorded.
    skipped = [name for name, value in values.items() if value == 0]
    return values, skipped
