"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at toy sizes through all of its checks, traced and
untraced, and then shows that each check fails when handed a corrupted
output: one altered trajectory row, one altered report value, a non-finite
loss, a rerun that produced different bytes, and so on. It also keeps the
metric names of BENCHMARK.json in step with what the benchmark reports.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["BRIDGEKIT_THREADS"] = "1"  # before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SEED = 3
WORK = run.OUT / "selftest"
_failures: list[str] = []
_shown = 0


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        _failures.append(what)


def expect_caught(problems: list[str], what: str) -> None:
    """A corrupted output must produce at least one problem."""
    global _shown
    _shown += 1
    expect(bool(problems), f"caught: {what} -> {problems[:1]}")


def edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_cell(path: Path, row: int, col: int, edit) -> None:
    def cells(line):
        parts = line.split(",")
        parts[col] = repr(edit(float(parts[col])))
        return ",".join(parts)

    edit_line(path, row, cells)


def fresh(name: str) -> workloads.Workload:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = workloads.WORKLOADS[name](SEED, work, workloads.TOY)
    job.setup()
    job.run()
    expect([code for code, _, _ in job.outputs] == [0] * len(job.outputs),
           f"{name}: every command exits 0")
    expect(job.check() == [], f"{name}: checks pass on the program's output")
    return job


def full_round_path() -> None:
    """worker.run_round, traced and untraced, and run.summarize on the rounds."""
    for name in run.WORKLOAD_NAMES:
        rounds = []
        for i, trace in enumerate((True, False)):
            work = WORK / f"{name}-round{i}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            rounds.append(worker.run_round(name, SEED, work, trace, True, time.time()))
        res = run.summarize(rounds, trace=False)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] == 2 * len(rounds[0]["ops"]),
               f"{name}: two toy rounds agree byte for byte and pass")
        expect(list(rounds[0]["layers"]) == [n for n, _ in LAYER_METRICS],
               f"{name}: the traced round reports every per-layer metric")
        rounds[1]["ops"][0]["hashes"] = {k: "0" * 64 for k in rounds[1]["ops"][0]["hashes"]}
        expect_caught(["failed"] * run.summarize(rounds, trace=False)["failed"],
                      f"{name}: a rerun whose output bytes differ counts as a failed operation")


def train_corruptions(job) -> None:
    trace = job.work / "run" / "loss_trace.csv"
    good = trace.read_text(encoding="utf-8")
    n = job.size.train_iters
    edit_cell(trace, 5, 1, lambda v: float("nan"))
    expect_caught(checks.check_loss_trace(trace, n), "loss trace with a NaN total")
    trace.write_text(good, encoding="utf-8")
    edit_cell(trace, 5, 1, lambda v: v * (1 + 1e-9))
    expect_caught(checks.check_loss_trace(trace, n), "loss total != regression + penalty")
    trace.write_text("".join(good.splitlines(keepends=True)[:-1]), encoding="utf-8")
    expect_caught(checks.check_loss_trace(trace, n), "loss trace missing its last row")
    trace.write_text(good, encoding="utf-8")

    # Quality thresholds need full-length training, so the alignment check is
    # shown on synthetic endpoints around the held-out targets.
    x1 = workloads._moon(100, SEED).x1
    ends = x1 + 0.05 * np.random.default_rng(0).standard_normal(x1.shape)
    expect(checks.check_alignment(ends, x1, 1, 0.9, 0.3) == [],
           "alignment check passes endpoints near their targets")
    swapped = np.concatenate([ends[50:], ends[:50]])
    expect_caught(checks.check_alignment(swapped, x1, 1, 0.9, 0.3), "endpoints on the wrong arm")
    expect_caught(checks.check_alignment(ends + 0.3, x1, 1, 0.9, 0.3), "endpoint RMSD above 0.3")
    posed = np.repeat(ends, 3, axis=0)
    expect(checks.check_alignment(posed, x1, 3, 0.9) == [], "alignment check handles poses")
    expect_caught(checks.check_alignment(np.repeat(swapped, 3, axis=0), x1, 3, 0.9),
                  "posed endpoints on the wrong arm")


def sample_corruptions(job) -> None:
    traj, ends = job.work / "traj.csv", job.work / "traj_endpoints.csv"
    good_traj, good_ends = traj.read_text(encoding="utf-8"), ends.read_text(encoding="utf-8")
    steps = job.size.steps

    def drop_last_row():
        traj.write_text("".join(good_traj.splitlines(keepends=True)[:-1]), encoding="utf-8")

    def swap_first_rows():
        lines = good_traj.splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        traj.write_text("".join(lines), encoding="utf-8")

    cases = [
        ("one altered mid-trajectory row", lambda: edit_cell(traj, 1 + 5, 3, lambda v: v + 0.5)),
        ("one altered step-0 row", lambda: edit_cell(traj, 1, 4, lambda v: v + 1e-12)),
        ("one altered last-step row", lambda: edit_cell(traj, 1 + steps, 3, lambda v: v + 1e-12)),
        ("one altered t value", lambda: edit_cell(traj, 1 + 3, 2, lambda v: v + 1e-9)),
        ("one altered endpoint", lambda: edit_cell(ends, 2, 1, lambda v: v + 1e-12)),
        ("a missing trajectory row", drop_last_row),
        ("two swapped trajectory rows", swap_first_rows),
    ]
    for what, corrupt in cases:
        corrupt()
        expect_caught(job.check(), what)
        traj.write_text(good_traj, encoding="utf-8")
        ends.write_text(good_ends, encoding="utf-8")

    model = workloads.bridgekit.load_model(job.p("run/model.bkt"))
    starts = np.repeat(job.starts.x0, job.size.sample_poses, axis=0)
    _, states = checks.check_trajectories(traj, ends, starts, steps)
    z = checks.em_increments(states, model.drift, workloads.MOON_SETTINGS["g"])
    expect(checks.check_increments(z) == [], "increments of the program's paths pass the KS test")
    expect_caught(checks.check_increments(z * 1.5), "increments with 1.5 times the noise")
    expect_caught(checks.check_increments(z + 0.3), "increments with a drift error")


def evaluate_corruptions(job) -> None:
    src = checks.read_csv(job.p("src.csv"), checks.cloud_header(2))
    dst = checks.read_csv(job.p("dst.csv"), checks.cloud_header(2))
    low, high = checks.sinkhorn_bounds(src, dst, eps=0.1, tol=1e-6)
    cases = [
        ("report_mmd.txt", "mmd", lambda v: v + 1e-8),
        ("report_mmd.txt", "rmsd", lambda v: v * (1 + 1e-9)),
        ("report_mmd.txt", "ps_l2", lambda v: v * (1 + 1e-9)),
        ("report_sinkhorn.txt", "sinkhorn", lambda v: low - 1e-3),
        ("report_sinkhorn.txt", "sinkhorn", lambda v: high + 1e-3),
    ]
    for file, name, edit in cases:
        path = job.work / file
        good = path.read_text(encoding="utf-8")
        i = next(k for k, ln in enumerate(good.splitlines()) if ln.startswith(f"{name} = "))
        value = checks.parse_report(path)[name]
        edit_line(path, i, lambda ln: f"{name} = {edit(value):.17g}")
        expect_caught(job.check(), f"report value {name} {value:.6g} -> {edit(value):.6g}")
        path.write_text(good, encoding="utf-8")
    code, out, _ = job.outputs[1]
    job.outputs[1] = (code, out, "warning: sinkhorn stopped at 5000 iterations\n")
    expect_caught(job.check(), "a sinkhorn non-convergence warning")


def benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches the metrics of an untraced run")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS),
           "BENCHMARK.json per_layer matches the metrics of a traced run")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOAD_NAMES),
           "BENCHMARK.json lists the workloads run.py runs")


def main() -> int:
    started = time.monotonic()
    benchmark_json()
    train_corruptions(fresh("train"))
    sample_corruptions(fresh("sample"))
    evaluate_corruptions(fresh("evaluate"))
    full_round_path()
    print(f"{_shown} corrupted outputs shown, {len(_failures)} expectations failed, "
          f"{time.monotonic() - started:.1f} s")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
