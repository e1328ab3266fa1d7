"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Every command takes a --seed where randomness is involved and is run-to-run
deterministic; each run writes exactly one JSON manifest next to its outputs
recording the command, its full configuration, input file hashes, the tool
version, the wall-clock duration (for train, sample and evaluate also that
of each phase), and the environment (Python, numpy and BLAS versions, the
BLAS thread cap, peak RSS). Commands never mutate their inputs: ``_outputs``
refuses an output that names an input, before any file is read. Outputs go to
part files beside them; when the command returns, ``main`` has ``_write_manifest``
write the manifest and move each part into place, the manifest last, and prints
the command's success line. It removes the parts of a failed run.
``sample`` simulates and writes one wave of trajectories at a time, one chunk
per simulation worker (``sde.simulation_waves``); only the endpoints are kept
across waves.

The BRIDGEKIT_THREADS environment variable caps the BLAS worker threads
(default: all cores); set it to 1 for bit-identical results across machines.
``import bridgekit`` applies it before numpy loads BLAS. With a cap,
simulation runs on cores // cap worker threads, one chunk of trajectories
at a time each, and evaluate's MMD runs its tile stripes the same way;
outputs do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _workers
from .csvio import (
    is_pair_file,
    parse_row,
    read_cloud,
    read_pairs,
    read_trajectories,
    write_cloud,
    write_csv,
    write_pairs,
    write_trajectories,
)
from .datasets import (MOON_DEFAULT_NOISE, T_DEFAULT_NOISE, generate_gauss_pairs, generate_moon,
                       generate_t)
from .errors import BridgekitError, DataError, NumericsError, UsageError
from .metrics import _mmd_workers, mmd, ps_l2, rmsd, sinkhorn_w
from .plotting import write_svg
from .sde import TimeGrid, simulate_sde, simulation_waves
from .serialize import load_model
from .training import export_drift, read_config, save_train_result, train, write_loss_trace

DATASETS = ("moon", "t", "gauss-pairs")
METRICS = ("mmd", "sinkhorn", "rmsd", "ps_l2")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _environment() -> dict:
    """What a run's numbers depend on besides its inputs: versions, the BLAS
    thread cap that set the worker count, and this process's peak RSS. An
    entry that cannot be read (a numpy without ``show_config(mode=...)``, no
    cap, or one that is not a non-negative integer) is None."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy builds before the mode argument
        blas = {}
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_cap": _workers._BLAS_CAP,
        "peak_rss_mb": max_rss / (2**20 if sys.platform == "darwin" else 2**10),
    }


def _end_phase(args, name: str) -> None:
    """Mark the end of phase ``name``, which began where the previous phase,
    or the command, did. Timed on the calling thread, so a phase that runs a
    worker pool counts its wall time."""
    args.marks.append((name, time.monotonic()))


def _outputs(args, inputs: dict, outputs: dict) -> dict:
    """Part files of the ``outputs`` not None and of their manifest, kept in
    ``args.outputs`` (nonempty ``inputs`` in ``args.inputs``). An output at the
    real path of an input or another output exits 2; at a directory or under a file, 3."""
    args.inputs = [path for path in inputs.values() if path]
    outputs = {flag: path for flag, path in outputs.items() if path is not None}
    if outputs:
        outputs["the manifest"] = f"{next(iter(outputs.values()))}.manifest.json"
    seen = {os.path.realpath(path): flag for flag, path in inputs.items() if path}
    parts = {}
    for flag, path in outputs.items():
        where = os.path.realpath(path)  # Path.resolve raises on a symbolic link loop
        if where in seen:
            raise UsageError(f"{args.command}: {seen[where]} and {flag} name the same file {path}")
        if os.path.isdir(where):
            raise DataError(f"{args.command}: {flag} names a directory: {path}")
        above = os.path.dirname(where)
        while not os.path.lexists(above):  # up to the nearest existing ancestor
            above = os.path.dirname(above)
        if not os.path.isdir(above):
            raise DataError(f"{args.command}: {flag} is not in a directory: {path}")
        seen[where] = flag
        path = Path(path)
        parts[flag] = path.parent / f".{path.name}.{os.getpid()}.part"
        args.outputs[parts[flag]] = path
    return parts


def _write_manifest(args, config=None, **results):
    """The run record of ``args.command``, if it has outputs; then every part
    goes onto its path, the manifest last. ``config`` defaults to the parsed
    flags other than ``--seed``; ``results`` are further top-level entries,
    such as solver diagnostics, and may set ``seed``. The phases marked by
    ``_end_phase`` are recorded as ``phase_seconds``, summed by name."""
    if not args.outputs:
        return
    if config is None:
        config = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "seed", "marks", "inputs", "outputs")}
    if len(args.marks) > 1:
        phases = results["phase_seconds"] = {}
        for (_, start), (name, end) in zip(args.marks, args.marks[1:]):
            phases[name] = phases.get(name, 0.0) + end - start
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "input_hashes": {str(p): _sha256(p) for p in args.inputs},
        "tool_version": __version__,
        "duration_seconds": time.monotonic() - args.marks[0][1],
        "environment": _environment(),
        **results,
    }
    *_, manifest_part = args.outputs
    with open(manifest_part, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for part, path in args.outputs.items():
        os.replace(part, path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> tuple[str | None, dict]:
    parts = _outputs(args, {}, {"--out": args.out})
    rng = np.random.default_rng(args.seed)
    if args.dataset != "gauss-pairs":
        given = [flag for flag, value in (("--dim", args.dim), ("--shift", args.shift))
                 if value is not None]
        if given:
            raise UsageError(f"generate --dataset {args.dataset}: {' and '.join(given)} "
                             f"only apply to --dataset gauss-pairs")
    elif args.dim is None:
        args.dim = 2
    # Bad --shift cells, and pair counts or shift lengths a generator rejects.
    try:
        if args.dataset == "gauss-pairs":
            shift = None if args.shift is None else parse_row(args.shift, "--shift")
            ds = generate_gauss_pairs(args.n, d=args.dim, shift=shift, rng=rng)
        else:
            noise = {} if args.noise_std is None else {"noise_std": args.noise_std}
            generate = generate_moon if args.dataset == "moon" else generate_t
            ds = generate(args.n, rng=rng, **noise)
    except ValueError as exc:
        raise UsageError(f"generate --dataset {args.dataset}: {exc}") from None
    write_pairs(parts["--out"], ds)
    return f"wrote {len(ds)} pairs (d = {ds.d}) to {args.out}", {}


def cmd_train(args) -> tuple[str | None, dict]:
    out_dir = Path(args.out)
    parts = _outputs(args, {"--data": args.data, "--config": args.config},
                     {name: out_dir / name for name in ("model.bkt", "loss_trace.csv")})
    config = read_config(args.config)
    dataset = read_pairs(args.data)
    _end_phase(args, "read")

    def progress(it, breakdown):
        print(f"iter {it}: total = {breakdown.total:.6g} "
              f"(regression {breakdown.regression:.6g}, "
              f"penalty {breakdown.regularization:.6g})")

    result = train(dataset, config, progress=progress)
    _end_phase(args, "train")
    out_dir.mkdir(parents=True, exist_ok=True)  # only now, so a failed run leaves none
    save_train_result(parts["model.bkt"], result)
    write_loss_trace(parts["loss_trace.csv"], result.trace)
    _end_phase(args, "write")
    return (f"trained {config.n_iters} iterations; model at {out_dir / 'model.bkt'}",
            {"config": config.to_dict(), "seed": config.seed,
             "training_workers": result.workers,
             "correction_wait_seconds": result.wait_seconds,
             "correction_idle_seconds": result.correction_idle_seconds,
             "correction_peak_rss_mb": result.correction_peak_rss_mb})


def _side(spec: str) -> tuple[str, str | None]:
    """(path, side) of 'file.csv:x0' or 'file.csv:x1' if file.csv exists, else (spec, None)."""
    path, sep, side = spec.rpartition(":")
    if sep and side in ("x0", "x1") and Path(path).exists():
        return path, side
    return spec, None


def _read_points(path: str, side=None, *, bare=None, arg=None) -> np.ndarray:
    """Side ``side`` of pair file ``path``, or with ``side`` None the cloud
    ``path``; a pair file there gives its ``bare`` side, or is a data error."""
    if side is None and is_pair_file(path):
        if bare is None:
            raise DataError(f"{arg}: {path} is a pair file; append ':x0' or ':x1' to select a side")
        side = bare
    return read_cloud(path) if side is None else getattr(read_pairs(path), side)


def cmd_sample(args) -> tuple[str | None, dict]:
    out = Path(args.out)
    if args.endpoints_out is None:
        args.endpoints_out = str(out.parent / f"{out.stem}_endpoints.csv")
    parts = _outputs(args, {"--model": args.model, "--data": args.data},
                     {"--out": args.out, "--endpoints-out": args.endpoints_out})
    model = load_model(args.model)
    x0 = _read_points(args.data, bare="x0")
    if x0.shape[1] != model.drift.spec.input_dim:
        raise DataError(
            f"data dimension {x0.shape[1]} does not match model dimension "
            f"{model.drift.spec.input_dim}"
        )
    n_traj = len(x0) * args.n_poses  # trajectory i starts at x0[i // n_poses]
    grid = TimeGrid(args.steps)
    n_workers, waves = simulation_waves(n_traj)
    endpoints = np.empty((n_traj, x0.shape[1]))
    _end_phase(args, "read")
    for lo, hi in waves:
        starts = x0[np.arange(lo, hi) // args.n_poses]
        batch = simulate_sde(starts, model.drift, model.schedule, grid,
                             seed=args.seed, traj_offset=lo)
        _end_phase(args, "simulate")
        write_trajectories(parts["--out"], batch, first_id=lo)
        endpoints[lo:hi] = batch.endpoints
        del batch  # before the next wave's states are allocated
        _end_phase(args, "write")
    write_cloud(parts["--endpoints-out"], endpoints)
    _end_phase(args, "write")
    return (f"simulated {n_traj} trajectories x {args.steps} steps -> {args.out}",
            {"simulation_workers": n_workers})


def cmd_evaluate(args) -> tuple[str | None, dict]:
    (pred_path, pred_side), (ref_path, ref_side) = _side(args.pred), _side(args.ref)
    parts = _outputs(args, {"--pred": pred_path, "--ref": ref_path},
                     {"--out": args.out, "--csv-out": args.csv_out})
    if pred_side and ref_side and os.path.realpath(pred_path) == os.path.realpath(ref_path):
        pairs = read_pairs(pred_path)  # both sides of one pair file, read once
        pred, ref = getattr(pairs, pred_side), getattr(pairs, ref_side)
    else:
        pred = _read_points(pred_path, pred_side, arg="--pred")
        ref = _read_points(ref_path, ref_side, arg="--ref")
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not names:
        raise DataError(f"--metrics names no metric; valid metrics: {', '.join(METRICS)}")
    for i, name in enumerate(names):
        if name not in METRICS:
            raise DataError(f"unknown metric {name!r}; valid metrics: {', '.join(METRICS)}")
        if name in names[:i]:
            raise DataError(f"metric {name!r} is named twice in --metrics")
    _end_phase(args, "read")

    lines, values, diagnostics = [], [], {}
    for name in names:
        try:  # a metric refuses clouds it cannot compare, e.g. of unequal dimensions
            if name == "mmd":
                value = mmd(pred, ref)
                diagnostics["mmd_workers"] = _mmd_workers(len(pred), len(ref))
            elif name == "sinkhorn":
                result = sinkhorn_w(pred, ref, eps=args.eps)
                if not result.converged:
                    print(
                        f"warning: sinkhorn stopped at {result.n_iters} iterations with "
                        f"marginal violation {result.marginal_violation:g}",
                        file=sys.stderr,
                    )
                value = result.value
                diagnostics["sinkhorn"] = {"n_iters": result.n_iters,
                                           "marginal_violation": result.marginal_violation,
                                           "converged": result.converged,
                                           "log_sweeps": result.log_sweeps,
                                           "relaxation": result.relaxation}
            elif name == "rmsd":
                value = rmsd(pred, ref)
            else:
                value = ps_l2(pred, ref)
        except ValueError as exc:
            raise DataError(f"{name}: {exc} (first cloud: --pred, second: --ref)") from None
        lines.append(f"{name} = {value:.17g}")
        values.append(value)
    _end_phase(args, "metrics")

    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        parts["--out"].write_text(report, encoding="utf-8")
    if args.csv_out:
        write_csv(parts["--csv-out"], names, np.array([values], dtype=float))
    _end_phase(args, "write")
    args.metrics = names
    return None, diagnostics  # the report is already on stdout


def cmd_export_drift(args) -> tuple[str | None, dict]:
    parts = _outputs(args, {"--model": args.model}, {"--out": args.out})
    export_drift(args.model, parts["--out"])
    return f"exported drift-only model to {args.out}", {}


def _is_blank(path) -> bool:
    """True when the file holds only whitespace; reads it in blocks only up to
    the first other character."""
    with open(path, "r", encoding="utf-8") as fh:
        return not any(block.strip() for block in iter(lambda: fh.read(1 << 16), ""))


def cmd_plot(args) -> tuple[str | None, dict]:
    parts = _outputs(args, {"--traj": args.traj, "--pairs": args.pairs}, {"--out": args.out})
    trajectories = None
    if args.traj and not _is_blank(args.traj):
        trajectories = read_trajectories(args.traj)
    pairs = None
    if args.pairs:
        pairs = read_pairs(args.pairs)
    write_svg(parts["--out"], trajectories, pairs)
    return f"wrote {args.out}", {}


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _number(cast, low, strict: bool = False):
    """argparse type: ``cast(text)``, finite and at least ``low`` (above it if ``strict``)."""
    bound = f"above {low}" if strict else f"at least {low}"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {cast.__name__}, got {text!r}") from None
        # Written so that NaN fails too.
        if not ((low < value) if strict else (low <= value)) or not value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite value {bound}, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgekit",
        description="Learn SDE drifts from aligned pairs, simulate, and evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"bridgekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an aligned-pair dataset CSV")
    p.add_argument("--dataset", required=True, choices=DATASETS)
    p.add_argument("--n", type=_number(int, 1), required=True, help="number of pairs")
    p.add_argument("--noise-std", type=_number(float, 0.0), default=None,
                   help=f"noise level (defaults: moon {MOON_DEFAULT_NOISE}, t {T_DEFAULT_NOISE})")
    p.add_argument("--dim", type=_number(int, 1), default=None,
                   help="dimension for gauss-pairs (default 2)")
    p.add_argument("--shift", type=str, default=None,
                   help="comma-separated shift vector for gauss-pairs")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a drift + correction model on pairs")
    p.add_argument("--data", required=True, help="pair CSV")
    p.add_argument("--config", required=True, help="key = value training config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="simulate trajectories from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="starting points: cloud CSV or pair CSV (x0 side)")
    p.add_argument("--steps", type=_number(int, 1), default=100)
    p.add_argument("--n-poses", type=_number(int, 1), default=1)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--endpoints-out", default=None,
                   help="endpoints cloud CSV (default: <out>_endpoints.csv)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="compute metrics between two point clouds")
    p.add_argument("--pred", required=True,
                   help="cloud CSV, or pair CSV with ':x0'/':x1' side selector")
    p.add_argument("--ref", required=True)
    p.add_argument("--metrics", default="mmd,sinkhorn,rmsd,ps_l2",
                   help=f"comma-separated subset of: {', '.join(METRICS)}")
    p.add_argument("--eps", type=_number(float, 0.0, strict=True), default=0.1,
                   help="sinkhorn regularization")
    p.add_argument("--out", default=None, help="write the report to this file")
    p.add_argument("--csv-out", default=None, help="also write a one-row CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-drift", help="strip a trained model to its drift network")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_drift)

    p = sub.add_parser("plot", help="render trajectories and matchings to SVG")
    p.add_argument("--traj", default=None, help="trajectory CSV")
    p.add_argument("--pairs", default=None, help="pair CSV for matchings")
    p.add_argument("--out", required=True, help="SVG path")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.marks = [("start", time.monotonic())]
    args.outputs = {}  # part file -> output path, filled by _outputs
    try:
        line, entries = args.func(args)
        _write_manifest(args, **entries)
        if line:
            print(line)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes from the command line too large to allocate
        print(f"usage error: {args.command}: out of memory ({exc})", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError, UnicodeDecodeError) as exc:  # OSError: a path not usable
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except BridgekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:  # parts of a failed run; unlink fails on moved parts and on names too long
        for part in args.outputs:
            with contextlib.suppress(OSError):
                part.unlink()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
