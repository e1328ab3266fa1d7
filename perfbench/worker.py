"""One round of one workload, in a fresh process started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR
        --trace 0|1 --started-at UNIX_SECONDS [--check 0|1]

``run.py`` fixes the BLAS thread count in this process's environment, so it
holds before numpy is first imported. ``--started-at`` is the wall-clock time
at which ``run.py`` launched this process, so ``setup_s`` counts interpreter
start-up and imports. The round's result is written to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy

import workloads
from spans import Tracer, layer_metrics


def run_round(workload: str, seed: int, work: Path, trace: bool, toy: bool,
              started_at: float, check: bool = True) -> dict:
    """Set-up, timed pass and, when ``check`` is set, the output checks."""
    size = workloads.TOY if toy else workloads.FULL
    job = workloads.WORKLOADS[workload](seed, work, size)
    job.setup()
    setup_s = time.time() - started_at

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install_bridgekit_hooks()
    try:
        t0 = time.perf_counter()
        job.run()
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = []
    for argv, (code, out, err), files in zip(job.commands(), job.outputs, job.artifacts()):
        hashes = {name: workloads.sha256(path) for name, path in files.items()} if code == 0 else {}
        console = (out + err).replace(str(work), "<round dir>")  # rounds run in their own dirs
        hashes["console"] = hashlib.sha256(console.encode()).hexdigest()
        ops.append({"argv": argv[0], "code": code, "hashes": hashes})
        with open(work / f"{argv[0]}.log", "a", encoding="utf-8") as log:
            log.write(out + err)
    t_check = time.perf_counter()
    problems = job.check() if check else []
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "check_s": time.perf_counter() - t_check,
        "ops": ops,
        "problems": problems,
    }
    if tracer is not None:
        layers, skipped = layer_metrics(tracer.spans, wall_s)
        result["layers"] = layers
        result["skipped"] = sorted(set(skipped) | {f"hook {h}" for h in tracer.skipped_hooks})
        (work / "trace.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    result = run_round(args.workload, args.seed, args.work, bool(args.trace), False,
                       args.started_at, bool(args.check))
    (args.work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
