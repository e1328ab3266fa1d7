"""bridgekit benchmark: train, sample and evaluate through the CLI entry point.

    python3 perfbench/run.py --workload train|sample|evaluate|all --seed N
        --seconds S --trace 0|1

Each round of a workload runs in a fresh process (``worker.py``) with one BLAS
thread, fixed in its environment before numpy is imported. Rounds repeat until
their timed passes add up to ``--seconds``, and at least twice, so that set-up
is measured more than once and reruns can be compared: every round of one
invocation must produce byte-identical model, trajectory and report files and
console output. The first round's outputs go through every check; the later
rounds' outputs are checked by being identical to them.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over rounds); with ``--trace 1`` the rounds run
with span hooks installed and the object holds the per-layer metrics instead.
Run outputs go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("train", "sample", "evaluate")
MIN_ROUNDS = 2
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # a run must end within 180 s
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def _worker_env() -> dict:
    env = dict(os.environ)
    env["BRIDGEKIT_THREADS"] = BLAS_THREADS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_sha():
    """The commit of a git checkout, or None (benchmark checkouts have no .git)."""
    if not (ROOT / ".git").exists():
        return None
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return git.stdout.strip() if git.returncode == 0 else None


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               deadline: float) -> list[dict]:
    """Fresh-process rounds until the timed passes reach ``seconds``."""
    base = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    rounds, measured = [], 0.0
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        work = base / f"round{len(rounds)}"
        work.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--work", str(work), "--trace", str(int(trace)),
                "--started-at", repr(time.time()), "--check", str(int(not rounds))]
        with open(work / "worker.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(argv, env=_worker_env(), stdout=log, stderr=log,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:  # run() kills and reaps the worker
                raise SystemExit(f"{workload} round {len(rounds)} passed the deadline")
        if proc.returncode != 0:
            sys.stderr.write((work / "worker.log").read_text(encoding="utf-8")[-4000:])
            raise SystemExit(f"{workload} round {len(rounds)} failed; see {work / 'worker.log'}")
        rounds.append(json.loads((work / "result.json").read_text(encoding="utf-8")))
        measured += rounds[-1]["wall_s"]
    return rounds


def summarize(rounds: list[dict], trace: bool) -> dict:
    """The result object: medians over rounds, operations and problems.

    An operation is one CLI command of a round. It fails when it exits with a
    non-zero code or when its files differ from those of the first round.
    """
    attempted = failed = 0
    first = rounds[0]["ops"]
    for r in rounds:
        for op, ref in zip(r["ops"], first):
            attempted += 1
            if op["code"] != 0 or op["hashes"] != ref["hashes"]:
                failed += 1
    problems = [f"round {i}: {p}" for i, r in enumerate(rounds) for p in r["problems"]]
    if trace:
        metrics = {n: {"value": statistics.median(r["layers"][n] for r in rounds),
                       "unit": unit} for n, unit in LAYER_METRICS}
    else:
        metrics = {n: {"value": statistics.median(r[n] for r in rounds), "unit": unit}
                   for n, unit in END_TO_END}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems,
            "skipped": rounds[0].get("skipped", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bridgekit benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bridgekit" / "cli.py").is_file():
        print(f"error: no bridgekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        # Each workload of "all" gets the full deadline of a single run.
        rounds = run_rounds(name, args.seed, args.seconds, bool(args.trace),
                            time.monotonic() + DEADLINE_S)
        results[name] = summarize(rounds, bool(args.trace))
        res = results[name]
        # Python, numpy, BLAS and thread count as the worker saw them.
        print(f"{name} env " + json.dumps(dict(rounds[0]["env"], git_sha=git_sha())))
        for i, r in enumerate(rounds):
            print(f"{name} round {i}: setup_s {r['setup_s']:.4f} s, wall_s {r['wall_s']:.4f} s, "
                  f"peak_rss_mb {r['peak_rss_mb']:.1f} MB (checks {r['check_s']:.1f} s)")
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for p in res["problems"]:
            print(f"{name} problem: {p}")
        if res["skipped"]:
            print(f"{name} skipped: {', '.join(res['skipped'])}")
    print(f"total {time.monotonic() - started:.1f} s")

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:  # one object for all workloads, metric names prefixed by workload
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
