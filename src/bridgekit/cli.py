"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Every command takes a --seed where randomness is involved and is run-to-run
deterministic; each run writes exactly one JSON manifest next to its outputs
recording the command, its full configuration, input file hashes, the tool
version, the wall-clock duration (for train, sample and evaluate also that
of each phase), and the environment (Python, numpy and BLAS versions, the
BLAS thread cap, peak RSS). Commands never mutate their inputs.

``sample`` simulates and writes one wave of trajectories at a time, one
chunk per simulation worker (``sde.simulation_wave``), so it holds one
wave's states in memory, not every trajectory's; only the endpoints are
kept across waves. Its trajectory file is written beside ``--out`` and
moved onto it at the end, so a failed run leaves no partial file.

The BRIDGEKIT_THREADS environment variable caps the BLAS worker threads
(default: all cores); set it to 1 for bit-identical results across machines.
``import bridgekit`` applies it before numpy loads BLAS. With a cap,
simulation runs on cores // cap worker threads, one chunk of trajectories
at a time each, and evaluate's MMD runs its tile stripes the same way;
outputs do not depend on the worker count.
"""

from __future__ import annotations

import argparse
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
from .datasets import generate_gauss_pairs, generate_moon, generate_t
from .errors import BridgekitError, DataError, NumericsError, UsageError
from .metrics import _mmd_workers, mmd, ps_l2, rmsd, sinkhorn_w
from .plotting import write_svg
from .sde import TimeGrid, simulate_sde, simulation_wave
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


def _manifest_path(anchor_path) -> str:
    return str(anchor_path) + ".manifest.json"


def _write_manifest(args, anchor_path, inputs: list, config=None, **results):
    """The run record of ``args.command``, next to ``anchor_path``. ``config``
    defaults to the parsed flags other than ``--seed``; ``results`` are further
    top-level entries, such as solver diagnostics, and may set ``seed``. The
    phases marked by ``_end_phase`` are recorded as ``phase_seconds``, the
    times of a phase marked more than once summed under its name."""
    if config is None:
        config = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "seed", "marks")}
    marks = args.marks
    if len(marks) > 1:
        phases = results["phase_seconds"] = {}
        for (_, start), (name, end) in zip(marks, marks[1:]):
            phases[name] = phases.get(name, 0.0) + end - start
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "duration_seconds": time.monotonic() - marks[0][1],
        "environment": _environment(),
        **results,
    }
    with open(_manifest_path(anchor_path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
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
        if args.dataset == "moon":
            noise = 0.05 if args.noise_std is None else args.noise_std
            ds = generate_moon(args.n, noise_std=noise, rng=rng)
        elif args.dataset == "t":
            noise = 2.0 if args.noise_std is None else args.noise_std
            ds = generate_t(args.n, noise_std=noise, rng=rng)
        else:
            shift = None if args.shift is None else parse_row(args.shift, "--shift")
            ds = generate_gauss_pairs(args.n, d=args.dim, shift=shift, rng=rng)
    except ValueError as exc:
        raise UsageError(f"generate --dataset {args.dataset}: {exc}") from None
    write_pairs(args.out, ds)
    _write_manifest(args, args.out, [])
    print(f"wrote {len(ds)} pairs (d = {ds.d}) to {args.out}")
    return 0


def _distinct_outputs(command: str, paths: dict) -> None:
    """Usage error when two entries of ``paths``, which maps output flags and
    the manifest to paths (or None), name the same file: the second write
    would overwrite the first."""
    seen = {}
    for flag, path in paths.items():
        if path is None:
            continue
        where = Path(path).resolve()
        if where in seen:
            raise UsageError(f"{command}: {seen[where]} and {flag} name the same file {path}")
        seen[where] = flag


def cmd_train(args) -> int:
    config = read_config(args.config)
    dataset = read_pairs(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _end_phase(args, "read")

    def progress(it, breakdown):
        print(f"iter {it}: total = {breakdown.total:.6g} "
              f"(regression {breakdown.regression:.6g}, "
              f"penalty {breakdown.regularization:.6g})")

    result = train(dataset, config, progress=progress)
    _end_phase(args, "train")
    model_path = out_dir / "model.bkt"
    save_train_result(model_path, result)
    write_loss_trace(out_dir / "loss_trace.csv", result.trace)
    _end_phase(args, "write")
    _write_manifest(args, model_path, [args.data, args.config], config=config.to_dict(),
                    seed=config.seed)
    print(f"trained {config.n_iters} iterations; model at {model_path}")
    return 0


def _load_x0(path) -> np.ndarray:
    """Starting points from either a point-cloud CSV or the x0 side of pairs."""
    return read_pairs(path).x0 if is_pair_file(path) else read_cloud(path)


def cmd_sample(args) -> int:
    out = Path(args.out)
    if args.endpoints_out is None:
        args.endpoints_out = str(out.with_name(out.stem + "_endpoints.csv"))
    _distinct_outputs("sample", {"--out": args.out, "--endpoints-out": args.endpoints_out,
                                 "the manifest": _manifest_path(args.out)})
    model = load_model(args.model)
    x0 = _load_x0(args.data)
    if x0.shape[1] != model.drift.spec.input_dim:
        raise DataError(
            f"data dimension {x0.shape[1]} does not match model dimension "
            f"{model.drift.spec.input_dim}"
        )
    n_traj = len(x0) * args.n_poses  # trajectory i starts at x0[i // n_poses]
    grid = TimeGrid(args.steps)
    n_workers, wave = simulation_wave(n_traj)
    endpoints = np.empty((n_traj, x0.shape[1]))
    part = out.with_name(f".{out.name}.{os.getpid()}.part")  # replaces --out once complete
    _end_phase(args, "read")
    try:
        for lo in range(0, n_traj, wave):
            starts = x0[np.arange(lo, min(lo + wave, n_traj)) // args.n_poses]
            batch = simulate_sde(starts, model.drift, model.schedule, grid,
                                 seed=args.seed, traj_offset=lo)
            _end_phase(args, "simulate")
            write_trajectories(part, batch, first_id=lo)
            endpoints[lo:lo + wave] = batch.endpoints
            del batch  # before the next wave's states are allocated
            _end_phase(args, "write")
        write_cloud(args.endpoints_out, endpoints)
        os.replace(part, out)
    finally:
        part.unlink(missing_ok=True)
    _end_phase(args, "write")
    _write_manifest(args, args.out, [args.model, args.data], simulation_workers=n_workers)
    print(f"simulated {n_traj} trajectories x {args.steps} steps -> {args.out}")
    return 0


def _load_cloud_arg(spec: str, what: str) -> tuple[np.ndarray, str]:
    """A cloud argument is 'file.csv', or 'file.csv:x0' / 'file.csv:x1' to
    pick one side of a pair file. Returns the cloud and the path it read."""
    path, sep, side = spec.rpartition(":")
    if sep and side in ("x0", "x1") and Path(path).exists():
        ds = read_pairs(path)
        return (ds.x0 if side == "x0" else ds.x1), path
    if is_pair_file(spec):
        raise DataError(
            f"{what}: {spec} is a pair file; append ':x0' or ':x1' to select a side"
        )
    return read_cloud(spec), spec


def cmd_evaluate(args) -> int:
    anchor = args.out or args.csv_out
    _distinct_outputs("evaluate", {"--out": args.out, "--csv-out": args.csv_out,
                                   "the manifest": anchor and _manifest_path(anchor)})
    pred, pred_path = _load_cloud_arg(args.pred, "--pred")
    ref, ref_path = _load_cloud_arg(args.ref, "--ref")
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
                                           "converged": result.converged}
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    if args.csv_out:
        write_csv(args.csv_out, names, np.array([values], dtype=float))
    _end_phase(args, "write")
    if anchor:  # stdout-only runs produce no files for a manifest to sit next to
        args.metrics = names
        _write_manifest(args, anchor, [pred_path, ref_path], **diagnostics)
    return 0


def cmd_export_drift(args) -> int:
    export_drift(args.model, args.out)
    _write_manifest(args, args.out, [args.model])
    print(f"exported drift-only model to {args.out}")
    return 0


def _is_blank(path) -> bool:
    """True when the file holds only whitespace; reads it in blocks only up to
    the first other character."""
    with open(path, "r", encoding="utf-8") as fh:
        return not any(block.strip() for block in iter(lambda: fh.read(1 << 16), ""))


def cmd_plot(args) -> int:
    trajectories = None
    if args.traj and not _is_blank(args.traj):
        trajectories = read_trajectories(args.traj)
    pairs = None
    if args.pairs:
        pairs = read_pairs(args.pairs)
    write_svg(args.out, trajectories, pairs)
    _write_manifest(args, args.out, [p for p in (args.traj, args.pairs) if p])
    print(f"wrote {args.out}")
    return 0


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
                   help="noise level (defaults: moon 0.05, t 2.0)")
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
    try:
        return args.func(args)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
