"""The three workloads: inputs made from a seed, the timed CLI pass, checks.

One round of a workload runs in one fresh process (see ``worker.py``): it
makes the inputs (set-up), runs the workload's ``bridgekit`` commands
in-process through ``bridgekit.cli.main`` (the timed pass), and checks the
outputs afterwards, outside the timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bridgekit
import bridgekit.cli

import checks

# MOON_CONFIG of tests/conftest.py: 2-D moons, batch 64, hidden width 64
# (the network default), dropout 0.1, g = 0.05, learning rate 2e-3.
MOON_SETTINGS = {
    "batch_size": 64,
    "lr_drift": 0.002,
    "lr_doob": 0.002,
    "lambda_mode": "constant",
    "lambda_value": 1.0,
    "t_clip": 0.001,
    "times_per_pair": 1,
    "g": 0.05,
    "ema_decay": 0.9,
}
HELDOUT_OFFSET = 10_000  # held-out moon pairs use seed + HELDOUT_OFFSET
CHECK_SIM_OFFSET = 20_000  # the train check simulates with seed + CHECK_SIM_OFFSET


@dataclass(frozen=True)
class Size:
    train_pairs: int = 400
    # 5000 iterations keep the held-out endpoint RMSD below 0.3 on every seed
    # tried (0-16, largest 0.273); 3000 and 4000 exceed it on seed 3.
    train_iters: int = 5000
    heldout_pairs: int = 100
    # The sample workload's model only has to put endpoints on the right arm;
    # learning rate 1e-2 gets there in 800 iterations (held-out correct-arm
    # fraction at least 0.99 on seeds 0-69; it is 0.91 at 600 iterations).
    sample_model_iters: int = 800
    sample_model_lr: float = 0.01
    sample_starts: int = 410  # x 10 poses = 4100 trajectories > _SIM_CHUNK (4096)
    sample_poses: int = 10
    steps: int = 100
    ks_trajectories: int = 256
    mmd_points: int = 3000
    sinkhorn_points: int = 800
    min_arm: float = 0.9
    max_rmsd: float = 0.3


FULL = Size()
# Toy sizes run every check in seconds. A few dozen training iterations cannot
# reach the quality thresholds, so the toy size drops them; the self-test
# checks the alignment check on its own.
TOY = Size(train_pairs=40, train_iters=40, heldout_pairs=20, sample_model_iters=40,
           sample_starts=20, sample_poses=3, steps=10, ks_trajectories=60,
           mmd_points=150, sinkhorn_points=60, min_arm=0.0, max_rmsd=math.inf)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _moon(n: int, seed: int) -> bridgekit.AlignedDataset:
    return bridgekit.generate_moon(n, rng=np.random.default_rng(seed))


def _write_config(path, n_iters: int, seed: int, **overrides) -> None:
    values = dict(MOON_SETTINGS, n_iters=n_iters, seed=seed, eval_every=500, **overrides)
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


class Workload:
    """Set-up, timed commands and checks of one round in directory ``work``."""

    def __init__(self, seed: int, work: Path, size: Size):
        self.seed = seed
        self.work = work
        self.size = size
        self.outputs: list[tuple[int, str, str]] = []  # (exit code, stdout, stderr)

    def setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def artifacts(self) -> list[dict[str, Path]]:
        """Per command, the files that must be byte-identical on every round."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def run(self) -> None:
        """The timed pass: each command through the CLI entry point."""
        self.outputs = []
        for argv in self.commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = bridgekit.cli.main(argv)
                except Exception:  # a traceback where the CLI promises an exit code
                    traceback.print_exc()
                    code = 1
            self.outputs.append((code, out.getvalue(), err.getvalue()))

    def p(self, name: str) -> str:
        return str(self.work / name)


class Train(Workload):
    def setup(self):
        data = _moon(self.size.train_pairs, self.seed)
        bridgekit.write_pairs(self.p("moon.csv"), data)
        _write_config(self.p("train.cfg"), self.size.train_iters, self.seed)

    def commands(self):
        return [["train", "--data", self.p("moon.csv"), "--config", self.p("train.cfg"),
                 "--out", self.p("run")]]

    def artifacts(self):
        return [{"model.bkt": self.work / "run" / "model.bkt"}]

    def check(self):
        if self.outputs[0][0] != 0:
            return []
        problems = checks.check_loss_trace(self.work / "run" / "loss_trace.csv",
                                           self.size.train_iters)
        model = bridgekit.load_model(self.work / "run" / "model.bkt")
        heldout = _moon(self.size.heldout_pairs, self.seed + HELDOUT_OFFSET)
        ends = bridgekit.simulate_sde(
            heldout.x0, model.drift, model.schedule, bridgekit.TimeGrid(100),
            seed=self.seed + CHECK_SIM_OFFSET,
        ).endpoints
        return problems + checks.check_alignment(ends, heldout.x1, 1, self.size.min_arm,
                                                 self.size.max_rmsd)


class Sample(Workload):
    def setup(self):
        size = self.size
        bridgekit.write_pairs(self.p("moon.csv"), _moon(size.train_pairs, self.seed))
        _write_config(self.p("train.cfg"), size.sample_model_iters, self.seed,
                      lr_drift=size.sample_model_lr, lr_doob=size.sample_model_lr)
        self.starts = _moon(size.sample_starts, self.seed + HELDOUT_OFFSET)
        bridgekit.write_pairs(self.p("starts.csv"), self.starts)
        with contextlib.redirect_stdout(io.StringIO()):
            code = bridgekit.cli.main(["train", "--data", self.p("moon.csv"),
                                       "--config", self.p("train.cfg"), "--out", self.p("run")])
        if code != 0:
            raise RuntimeError(f"training the sample workload's model exited with {code}")

    def commands(self):
        return [["sample", "--model", self.p("run/model.bkt"), "--data", self.p("starts.csv"),
                 "--steps", str(self.size.steps), "--n-poses", str(self.size.sample_poses),
                 "--seed", str(self.seed), "--out", self.p("traj.csv")]]

    def artifacts(self):
        return [{"traj.csv": self.work / "traj.csv",
                 "traj_endpoints.csv": self.work / "traj_endpoints.csv"}]

    def check(self):
        if self.outputs[0][0] != 0:
            return []
        size = self.size
        starts = np.repeat(self.starts.x0, size.sample_poses, axis=0)
        problems, states = checks.check_trajectories(
            self.p("traj.csv"), self.p("traj_endpoints.csv"), starts, size.steps)
        if states is None:
            return problems
        model = bridgekit.load_model(self.p("run/model.bkt"))
        subset = np.linspace(0, len(states) - 1, size.ks_trajectories).astype(int)
        z = checks.em_increments(states[subset], model.drift, MOON_SETTINGS["g"])
        problems += checks.check_increments(z)
        return problems + checks.check_alignment(states[:, -1], self.starts.x1,
                                                 size.sample_poses, size.min_arm)


class Evaluate(Workload):
    def setup(self):
        size = self.size
        ref = _moon(size.mmd_points, self.seed)
        noise = np.random.default_rng(self.seed + HELDOUT_OFFSET).standard_normal(ref.x1.shape)
        bridgekit.write_pairs(self.p("ref.csv"), ref)
        bridgekit.write_cloud(self.p("pred.csv"), ref.x1 + 0.05 * noise)
        # Sinkhorn's sweep count depends on the clouds (102 to 149 sweeps over
        # seeds 1-10 for independent draws), so every seed moves one fixed
        # pair -- rotated-moon sources, moon targets -- by a drawn rotation,
        # translation and point order. The cost matrix, and with it the work,
        # is then the same on every seed up to rounding.
        src = _moon(size.sinkhorn_points, 1).x0
        dst = _moon(size.sinkhorn_points, 2).x1
        rng = np.random.default_rng(self.seed)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        shift = rng.standard_normal(2)
        bridgekit.write_cloud(self.p("src.csv"), (src @ rot.T + shift)[rng.permutation(len(src))])
        bridgekit.write_cloud(self.p("dst.csv"), (dst @ rot.T + shift)[rng.permutation(len(dst))])

    def commands(self):
        return [
            ["evaluate", "--pred", self.p("pred.csv"), "--ref", self.p("ref.csv") + ":x1",
             "--metrics", "mmd,rmsd,ps_l2", "--out", self.p("report_mmd.txt")],
            ["evaluate", "--pred", self.p("src.csv"), "--ref", self.p("dst.csv"),
             "--metrics", "sinkhorn", "--out", self.p("report_sinkhorn.txt")],
        ]

    def artifacts(self):
        return [{"report_mmd.txt": self.work / "report_mmd.txt"},
                {"report_sinkhorn.txt": self.work / "report_sinkhorn.txt"}]

    def check(self):
        problems = []
        if self.outputs[0][0] == 0:
            pred = checks.read_csv(self.p("pred.csv"), checks.cloud_header(2))
            ref = checks.read_csv(self.p("ref.csv"), "x0_0,x0_1,x1_0,x1_1")[:, 2:]
            report = checks.parse_report(self.p("report_mmd.txt"))
            scales = bridgekit.DEFAULT_MMD_SCALES
            problems += checks.check_close(
                "mmd", report.get("mmd", math.nan), checks.mmd_reference(pred, ref, scales),
                checks.mmd_tolerance(pred, ref, scales))
            rmsd = float(np.sqrt(np.mean(np.sum((ref - pred) ** 2, axis=1))))
            problems += checks.check_close("rmsd", report.get("rmsd", math.nan), rmsd,
                                           1e-12 * rmsd)
            ps_l2 = float(np.linalg.norm(ref.mean(axis=0) - pred.mean(axis=0)))
            problems += checks.check_close("ps_l2", report.get("ps_l2", math.nan), ps_l2,
                                           1e-12 * ps_l2 + 1e-15)
        if self.outputs[1][0] == 0:
            src = checks.read_csv(self.p("src.csv"), checks.cloud_header(2))
            dst = checks.read_csv(self.p("dst.csv"), checks.cloud_header(2))
            value = checks.parse_report(self.p("report_sinkhorn.txt")).get("sinkhorn", math.nan)
            # The CLI's defaults: eps 0.1, and sinkhorn_w's marginal tolerance 1e-6.
            low, high = checks.sinkhorn_bounds(src, dst, eps=0.1, tol=1e-6)
            if not low <= value <= high:
                problems.append(f"sinkhorn = {value!r} lies outside the entropic bounds "
                                f"[{low!r}, {high!r}]")
            if "warning" in self.outputs[1][2]:
                problems.append(f"sinkhorn printed {self.outputs[1][2].strip()!r}")
        return problems


WORKLOADS = {"train": Train, "sample": Sample, "evaluate": Evaluate}
