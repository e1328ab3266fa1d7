import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import tempfile
import tracemalloc
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bridgekit import (AlignedDataset, TrainConfig, load_model, read_cloud, read_pairs,
                       save_model, write_pairs)
from bridgekit.cli import METRICS, main
from bridgekit.training import format_config


def run_cli(*argv):
    return main([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tiny_config_text(**overrides):
    base = dict(batch_size=8, n_iters=40, seed=3, eval_every=20)
    base.update(overrides)
    return format_config(TrainConfig(**base))


@pytest.fixture
def moon_csv(tmp_path):
    out = tmp_path / "moon.csv"
    assert run_cli("generate", "--dataset", "moon", "--n", 40, "--seed", 7, "--out", out) == 0
    return out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(
            "generate", "--dataset", "moon", "--n", 400, "--seed", 7, "--out", out
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_unknown_dataset(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--dataset", "bogus", "--n", 10, "--out", tmp_path / "x.csv")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "moon" in err and "gauss-pairs" in err


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "model.bkt", "--data", "starts.csv", "--out", "t.csv", "--steps", "0"],
    ["sample", "--model", "model.bkt", "--data", "starts.csv", "--out", "t.csv",
     "--n-poses", "-1"],
    ["generate", "--dataset", "moon", "--n", "0", "--out", "g.csv"],
    ["generate", "--dataset", "gauss-pairs", "--n", "5", "--shift", "a,b", "--out", "g.csv"],
    ["evaluate", "--pred", "p.csv", "--ref", "r.csv", "--metrics", "sinkhorn", "--eps", "-1"],
    ["evaluate", "--pred", "p.csv", "--ref", "r.csv", "--metrics", "sinkhorn", "--eps", "0"],
    ["evaluate", "--pred", "p.csv", "--ref", "r.csv", "--metrics", "sinkhorn", "--eps", "nan"],
    ["generate", "--dataset", "moon", "--n", "10", "--seed", "-1", "--out", "g.csv"],
    ["generate", "--dataset", "moon", "--n", "10", "--noise-std", "-1", "--out", "g.csv"],
    ["generate", "--dataset", "t", "--n", "10", "--noise-std", "nan", "--out", "g.csv"],
    ["generate", "--dataset", "moon", "--n", "10", "--noise-std", "inf", "--out", "g.csv"],
    ["evaluate", "--pred", "p.csv", "--ref", "r.csv", "--control", "c.csv"],
    ["sample", "--model", "model.bkt", "--data", "starts.csv", "--out", "t.csv", "--seed", "-1"],
], ids=["sample-steps-0", "sample-n-poses-negative", "generate-n-0", "generate-bad-shift",
        "evaluate-eps-negative", "evaluate-eps-zero", "evaluate-eps-nan",
        "generate-seed-negative", "generate-noise-std-negative", "generate-noise-std-nan",
        "generate-noise-std-inf", "evaluate-control", "sample-seed-negative"])
def test_bad_arguments_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse rejects the value before the command runs
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_non_integer_steps_are_a_usage_error_naming_the_value(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sample", "--model", "m.bkt", "--data", "s.csv", "--out", tmp_path / "t.csv",
                "--steps", "abc")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --steps: expected int, got 'abc'" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_generate_dimension_too_large_to_allocate_is_a_usage_error(tmp_path, capsys,
                                                                   monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    # Stands in for the real allocation, which this test must never attempt.
    monkeypatch.setattr("bridgekit.cli.generate_gauss_pairs", out_of_memory)
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--dataset", "gauss-pairs", "--n", 2,
                   "--dim", 100000000000, "--out", out) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_generate_moon_has_four_coordinate_columns(moon_csv):
    header = moon_csv.read_text().splitlines()[0]
    assert header == "x0_0,x0_1,x1_0,x1_1"


def test_generate_writes_manifest(moon_csv):
    manifest = json.loads((moon_csv.parent / "moon.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 7
    assert manifest["tool_version"]


def test_package_version_matches_pyproject():
    import bridgekit

    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == bridgekit.__version__


def test_manifest_records_the_environment(moon_csv, monkeypatch, tmp_path):
    import platform

    env = json.loads((moon_csv.parent / "moon.csv.manifest.json").read_text())["environment"]
    assert sorted(env) == ["blas", "blas_thread_cap", "numpy", "peak_rss_mb", "python"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["peak_rss_mb"] > 1.0
    # The cap recorded is the one that sets the worker count, read once at
    # import; the environment when the manifest is written does not count.
    from bridgekit import _workers

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "5")
    monkeypatch.setenv("BRIDGEKIT_THREADS", "6")
    for i, cap in enumerate((None, 0, 1, 3)):
        monkeypatch.setattr(_workers, "_BLAS_CAP", cap)
        out = tmp_path / f"g{i}.csv"
        assert run_cli("generate", "--dataset", "moon", "--n", 5, "--seed", 1, "--out", out) == 0
        manifest = json.loads((tmp_path / f"g{i}.csv.manifest.json").read_text())
        assert manifest["environment"]["blas_thread_cap"] == cap
    # A value that is not a non-negative integer is read as no cap.
    assert _workers._parse_cap("2") == 2
    for bad in (None, "", " 2", "auto", "-1", "\u00b2"):
        assert _workers._parse_cap(bad) is None


def test_manifest_without_show_config_modes_records_null_blas(monkeypatch, tmp_path):
    def show_config():  # numpy builds before the mode argument take none
        return None

    monkeypatch.setattr(np, "show_config", show_config)
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--dataset", "moon", "--n", 5, "--seed", 1, "--out", out) == 0
    env = json.loads((tmp_path / "g.csv.manifest.json").read_text())["environment"]
    assert env["blas"] == {"name": None, "version": None}
    assert env["numpy"] == np.__version__


def test_generate_gauss_with_shift(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli(
        "generate", "--dataset", "gauss-pairs", "--n", 50, "--dim", 2,
        "--shift", "3.0,4.0", "--seed", 1, "--out", out,
    ) == 0
    ds = read_pairs(out)
    np.testing.assert_allclose(ds.x1 - ds.x0, np.tile([3.0, 4.0], (50, 1)))


@pytest.mark.parametrize("shift", ["1_0,2", "\u0661,2", "0x1p3,2", "inf,2", "1,nan"])
def test_generate_shift_outside_the_number_grammar_is_a_usage_error(tmp_path, capsys, shift):
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--dataset", "gauss-pairs", "--n", 3, "--dim", 2,
                   "--shift", shift, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and "--shift" in err[0]
    assert not out.exists()


def test_generate_shift_takes_exponents_and_signs(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--dataset", "gauss-pairs", "--n", 4, "--dim", 2,
                   "--shift", "1e-3,-2", "--out", out) == 0
    ds = read_pairs(out)
    np.testing.assert_allclose(ds.x1 - ds.x0, np.tile([1e-3, -2.0], (4, 1)))


@pytest.mark.parametrize("dataset", ["moon", "t"])
@pytest.mark.parametrize("flag", [["--shift", "1,2"], ["--dim", "3"]], ids=["shift", "dim"])
def test_generate_gauss_only_flag_on_other_dataset_is_a_usage_error(tmp_path, capsys, dataset,
                                                                     flag):
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--dataset", dataset, "--n", 5, *flag, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and flag[0] in err[0]
    assert not out.exists()


def test_generate_gauss_dimension_defaults_to_two(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--dataset", "gauss-pairs", "--n", 3, "--out", out) == 0
    assert read_pairs(out).d == 2
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["config"]["dim"] == 2 and manifest["config"]["shift"] is None


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_and_rerun_same_hash(tmp_path, moon_csv):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    hashes = []
    for sub in ("m1", "m2"):
        out = tmp_path / sub
        assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 0
        hashes.append(sha(out / "model.bkt"))
        assert (out / "loss_trace.csv").exists()
        assert (out / "model.bkt.manifest.json").exists()
    assert hashes[0] == hashes[1]


def test_train_missing_config_key_names_it(tmp_path, moon_csv, capsys):
    cfg = tmp_path / "cfg.txt"
    text = "\n".join(
        ln for ln in tiny_config_text().splitlines() if not ln.startswith("lr_drift")
    )
    cfg.write_text(text)
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", tmp_path / "m") == 3
    assert "lr_drift" in capsys.readouterr().err


def test_train_unknown_config_key_names_it(tmp_path, moon_csv, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text() + "warp_factor = 9\n")
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", tmp_path / "m") == 3
    assert "warp_factor" in capsys.readouterr().err


def test_train_t_clip_reaching_the_singularity_guard_is_a_config_error(tmp_path, capsys):
    # With t_clip = 1e-9 this config drew, within 20 iterations, a time whose
    # bridge-drift target hit the singularity guard: an uncaught error after
    # training had begun. The config is refused before any training instead.
    pairs = tmp_path / "moon.csv"
    assert run_cli("generate", "--dataset", "moon", "--n", 50, "--seed", 0, "--out", pairs) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text(batch_size=4000, n_iters=40, seed=4)
                   .replace("t_clip = 0.001", "t_clip = 1e-9"))
    out = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("train", "--data", pairs, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {cfg}: t_clip must lie in [2e-06, 1)\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_train_non_finite_activation_exits_4_with_one_line(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    x0 = np.full((20, 2), 1.7e308)
    write_pairs(data, AlignedDataset(x0=x0, x1=x0.copy()))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    out = tmp_path / "m"
    assert run_cli("train", "--data", data, "--config", cfg, "--out", out) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numerical failure: non-finite activation in x_enc layer 0"]
    assert not (out / "model.bkt").exists()


def test_train_that_fails_leaves_no_out_directory(tmp_path):
    data = tmp_path / "huge.csv"
    x0 = np.full((20, 2), 1.7e308)
    write_pairs(data, AlignedDataset(x0=x0, x1=x0.copy()))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    out = tmp_path / "m"
    assert run_cli("train", "--data", data, "--config", cfg, "--out", out) == 4
    assert not out.exists()


# ---------------------------------------------------------------------------
# sample / evaluate / export / plot
# ---------------------------------------------------------------------------


@pytest.fixture
def trained(tmp_path, moon_csv):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    out = tmp_path / "model_dir"
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 0
    return out / "model.bkt"


def test_sample_row_count(tmp_path, trained):
    data = tmp_path / "starts.csv"
    data.write_text(
        "x_0,x_1\n" + "\n".join(f"{i},{i}" for i in range(5)) + "\n"
    )
    traj = tmp_path / "traj.csv"
    assert run_cli(
        "sample", "--model", trained, "--data", data, "--steps", 10,
        "--n-poses", 3, "--seed", 2, "--out", traj,
    ) == 0
    rows = traj.read_text().splitlines()
    assert len(rows) - 1 == 3 * 5 * 11
    endpoints = read_cloud(tmp_path / "traj_endpoints.csv")
    assert endpoints.shape == (15, 2)


def test_sample_output_does_not_depend_on_the_worker_count(tmp_path, trained, monkeypatch):
    from bridgekit import TimeGrid, _workers, cli, load_model, sde, simulate_sde
    from bridgekit import write_cloud, write_trajectories

    # Chunks of 8 rows: 7 starts x 11 poses are 10 chunks, in at least 4
    # waves of one chunk per worker at every worker count below.
    monkeypatch.setattr(sde, "_SIM_CHUNK", 8)
    offsets = []
    monkeypatch.setattr(cli, "simulate_sde",
                        lambda *a, **k: offsets.append(k["traj_offset"]) or simulate_sde(*a, **k))
    data = tmp_path / "starts.csv"
    write_cloud(data, np.random.default_rng(5).normal(size=(7, 2)))
    n_poses = 11
    runs = []
    for cap, cores in ((None, {0, 1, 2}), (2, {0, 1, 2, 3}), (1, {0, 1, 2})):
        monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid, c=cores: c,
                            raising=False)
        monkeypatch.setattr(_workers, "_BLAS_CAP", cap)
        traj = tmp_path / f"traj{len(runs)}.csv"
        offsets.clear()
        assert run_cli("sample", "--model", trained, "--data", data, "--steps", 3,
                       "--n-poses", n_poses, "--seed", 4, "--out", traj) == 0
        manifest = json.loads(Path(f"{traj}.manifest.json").read_text())
        workers = manifest["simulation_workers"]
        assert offsets == list(range(0, 7 * n_poses, 8 * workers))
        runs.append((workers, traj.read_bytes(),
                     (tmp_path / f"traj{len(runs)}_endpoints.csv").read_bytes()))
    assert [workers for workers, *_ in runs] == [1, 2, 3]
    # One library call on every start at once writes the same bytes.
    model = load_model(trained)
    starts = np.repeat(read_cloud(data), n_poses, axis=0)
    batch = simulate_sde(starts, model.drift, model.schedule, TimeGrid(3), seed=4)
    write_trajectories(tmp_path / "one.csv", batch)
    write_cloud(tmp_path / "one_endpoints.csv", batch.endpoints)
    one = ((tmp_path / "one.csv").read_bytes(), (tmp_path / "one_endpoints.csv").read_bytes())
    assert all(run[1:] == one for run in runs)


def test_sample_memory_does_not_grow_with_the_trajectory_count(tmp_path, trained, monkeypatch):
    from bridgekit import _workers, sde

    # One worker and chunks of 256 rows: a wave's states take 0.2 MB, those
    # of all 3,072 trajectories of the second run would take 2.5 MB.
    monkeypatch.setattr(sde, "_SIM_CHUNK", 256)
    monkeypatch.setattr(_workers, "_BLAS_CAP", None)
    data = tmp_path / "starts.csv"
    data.write_text("x_0,x_1\n0.5,-0.25\n")
    peaks = []
    for n_poses in (3 * 256, 12 * 256):
        tracemalloc.start()
        try:
            assert run_cli("sample", "--model", trained, "--data", data, "--steps", 50,
                           "--n-poses", n_poses, "--seed", 4,
                           "--out", tmp_path / f"traj{n_poses}.csv") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**19, peaks


def test_failed_sample_leaves_no_partial_output(tmp_path, trained, capsys, monkeypatch):
    from bridgekit import _workers, cli, sde
    from bridgekit.errors import NumericsError

    monkeypatch.setattr(sde, "_SIM_CHUNK", 8)
    monkeypatch.setattr(_workers, "_BLAS_CAP", None)  # one worker: waves of 8 trajectories
    data = tmp_path / "starts.csv"
    data.write_text("x_0,x_1\n0.5,-0.25\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    traj, ends = out_dir / "traj.csv", out_dir / "ends.csv"
    simulate = cli.simulate_sde
    calls = []

    def fail_second_wave(*args, **kwargs):
        calls.append(sorted(p.name for p in out_dir.iterdir()))
        if len(calls) == 2:
            raise NumericsError("non-finite state at step 1 (t = 0.333333)")
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_sde", fail_second_wave)
    for before in (None, b"traj_id,step,t,x_0,x_1\n0,0,0,1,2\n"):
        if before is not None:
            traj.write_bytes(before)
            ends.write_bytes(before)
        calls.clear()
        capsys.readouterr()
        assert run_cli("sample", "--model", trained, "--data", data, "--steps", 3,
                       "--n-poses", 20, "--seed", 4, "--out", traj,
                       "--endpoints-out", ends) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("numerical failure: non-finite state at step 1")
        # The first wave had been written beside --out when the second failed.
        assert len(calls) == 2
        assert [name for name in calls[1] if name.endswith(".part")]
        left = sorted(p.name for p in out_dir.iterdir())
        if before is None:
            assert left == []
        else:
            assert left == ["ends.csv", "traj.csv"]
            assert traj.read_bytes() == before and ends.read_bytes() == before


# Runs the CLI as the console script does, importing bridgekit first, then
# prints its exit code and OpenBLAS's own thread count (null when no OpenBLAS
# library is found in the process's memory map).
_CLI_THEN_BLAS_THREADS = """
import ctypes, json, sys
from bridgekit.cli import main

code = main(sys.argv[1:])
threads = None
try:
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
except OSError:
    libs = []
for path in libs:
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get = getattr(ctypes.CDLL(path), name, None)
        if get is not None:
            threads = get()
print(json.dumps({"code": code, "blas_threads": threads}))
"""


def test_bridgekit_threads_alone_caps_blas_for_the_cli(tmp_path, trained):
    import os
    import subprocess
    import sys

    import bridgekit
    from bridgekit.sde import _SIM_CHUNK

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "GOTO_NUM_THREADS")}
    env["BRIDGEKIT_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(bridgekit.__file__).parents[1])
    data = tmp_path / "starts.csv"
    data.write_text("x_0,x_1\n0.5,-0.25\n")
    traj = tmp_path / "traj.csv"
    argv = ["sample", "--model", trained, "--data", data, "--steps", 2,
            "--n-poses", 2 * _SIM_CHUNK, "--seed", 1, "--out", traj]
    proc = subprocess.run([sys.executable, "-c", _CLI_THEN_BLAS_THREADS, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    manifest = json.loads(Path(f"{traj}.manifest.json").read_text())
    assert manifest["environment"]["blas_thread_cap"] == 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert manifest["simulation_workers"] == min(2, cores)
    if result["blas_threads"] is None:
        pytest.skip("no OpenBLAS library found to ask for its thread count")
    assert result["blas_threads"] == 1


def test_sample_accepts_pair_file_for_starts(tmp_path, trained, moon_csv):
    traj = tmp_path / "traj.csv"
    assert run_cli(
        "sample", "--model", trained, "--data", moon_csv, "--steps", 5,
        "--seed", 2, "--out", traj,
    ) == 0
    assert len(traj.read_text().splitlines()) - 1 == 40 * 6


def test_sample_dimension_mismatch(tmp_path, trained, capsys):
    data = tmp_path / "starts.csv"
    data.write_text("x_0,x_1,x_2\n0,0,0\n")
    assert run_cli(
        "sample", "--model", trained, "--data", data, "--out", tmp_path / "t.csv"
    ) == 3
    assert "dimension" in capsys.readouterr().err


def test_evaluate_identical_clouds(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x_0,x_1\n1,2\n3,4\n5,6\n")
    report = tmp_path / "report.txt"
    assert run_cli(
        "evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "rmsd,ps_l2",
        "--out", report,
    ) == 0
    text = report.read_text()
    assert "rmsd = 0" in text
    assert "ps_l2 = 0" in text


def test_evaluate_unknown_metric(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x_0\n1\n2\n")
    assert run_cli("evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "vibes") == 3
    err = capsys.readouterr().err
    assert "vibes" in err and "rmsd" in err


@pytest.mark.parametrize("metrics, expected", [
    ("", "names no metric"), (" , ", "names no metric"),
    ("mmd,mmd", "'mmd' is named twice"), ("rmsd, ps_l2,rmsd", "'rmsd' is named twice"),
])
def test_evaluate_empty_or_repeated_metrics_is_a_data_error(tmp_path, capsys, metrics, expected):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x_0\n1\n2\n")
    report = tmp_path / "report.txt"
    assert run_cli("evaluate", "--pred", cloud, "--ref", cloud, "--metrics", metrics,
                   "--out", report) == 3
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not report.exists()


def test_evaluate_gauss_shift_mean_distance(tmp_path, capsys):
    out = tmp_path / "g.csv"
    n = 400
    assert run_cli(
        "generate", "--dataset", "gauss-pairs", "--n", n, "--dim", 2,
        "--shift", "3.0,4.0", "--seed", 5, "--out", out,
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "evaluate", "--pred", f"{out}:x0", "--ref", f"{out}:x1", "--metrics", "ps_l2"
    ) == 0
    value = float(capsys.readouterr().out.strip().split(" = ")[1])
    assert abs(value - 5.0) < 4 / np.sqrt(n)


def test_evaluate_non_finite_cloud_is_a_data_error(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x_0\n1\ninf\n3\n")
    assert run_cli("evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "mmd") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert f"{cloud}:3" in err


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "0x1p3"])
def test_evaluate_cell_outside_the_number_grammar_is_a_data_error(tmp_path, capsys, cell):
    cloud = tmp_path / "c.csv"
    cloud.write_text(f"x_0\n1\n{cell}\n3\n", encoding="utf-8")
    assert run_cli("evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "mmd") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert f"{cloud}:3: non-numeric cell {cell!r}" in err


def test_evaluate_non_utf8_file_is_a_data_error(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    cloud.write_bytes(b"x_0\n1\n\xff\xfe\n")
    assert run_cli("evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "mmd") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_evaluate_pair_file_without_side_is_explained(tmp_path, capsys):
    pairs = tmp_path / "p.csv"
    pairs.write_text("x0_0,x1_0\n1,2\n")
    assert run_cli("evaluate", "--pred", pairs, "--ref", pairs, "--metrics", "rmsd") == 3
    assert ":x0" in capsys.readouterr().err


def test_evaluate_reads_a_cloud_file_whose_name_ends_in_a_side_selector(tmp_path):
    # No "c.csv" exists, so "c.csv:x0" is the name of a cloud file, and the
    # manifest hashes that file.
    cloud, ref = tmp_path / "c.csv:x0", tmp_path / "r.csv"
    cloud.write_text("x_0\n1\n2\n")
    ref.write_text("x_0\n1\n3\n")
    report = tmp_path / "rep.txt"
    assert run_cli("evaluate", "--pred", cloud, "--ref", ref, "--metrics", "rmsd",
                   "--out", report) == 0
    hashes = json.loads(Path(f"{report}.manifest.json").read_text())["input_hashes"]
    assert hashes == {str(cloud): sha(cloud), str(ref): sha(ref)}


def test_evaluate_reads_both_sides_of_one_pair_file_once(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    pairs, copy = tmp_path / "c.csv", tmp_path / "d.csv"
    write_pairs(pairs, AlignedDataset(rng.normal(size=(30, 2)), rng.normal(size=(30, 2))))
    shutil.copy(pairs, copy)
    assert run_cli("evaluate", "--pred", f"{pairs}:x0", "--ref", f"{copy}:x1") == 0
    expected = capsys.readouterr().out
    calls = []

    def counted(path):
        calls.append(path)
        return read_pairs(path)

    monkeypatch.setattr("bridgekit.cli.read_pairs", counted)
    assert run_cli("evaluate", "--pred", f"{pairs}:x0", "--ref", f"{pairs}:x1") == 0
    assert capsys.readouterr().out == expected
    assert calls == [str(pairs)]


def test_evaluate_rmsd_shape_mismatch_is_explained(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x_0\n1\n2\n3\n")
    b.write_text("x_0\n1\n2\n")
    assert run_cli("evaluate", "--pred", a, "--ref", b, "--metrics", "rmsd") == 3
    assert "index-aligned" in capsys.readouterr().err


@pytest.mark.parametrize("metric", METRICS)
def test_evaluate_dimension_mismatch_is_a_data_error(tmp_path, capsys, metric):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x_0,x_1\n1,2\n3,4\n5,6\n")
    b.write_text("x_0,x_1,x_2\n1,2,3\n4,5,6\n7,8,9\n")
    assert run_cli("evaluate", "--pred", a, "--ref", b, "--metrics", metric) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "equal dimensions; got 2 vs 3" in err


@pytest.mark.parametrize("side", ["pred", "ref"])
def test_evaluate_mmd_on_a_one_point_cloud_is_a_data_error(tmp_path, capsys, side):
    one = tmp_path / "one.csv"
    many = tmp_path / "many.csv"
    one.write_text("x_0\n1\n")
    many.write_text("x_0\n1\n2\n3\n")
    pred, ref = (one, many) if side == "pred" else (many, one)
    report = tmp_path / "report.txt"
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "ps_l2,mmd",
                   "--out", report) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "mmd needs at least 2 points" in err
    assert not report.exists()
    # The row count matters to mmd only.
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "ps_l2") == 0


@pytest.mark.parametrize("command", ["generate", "sample", "evaluate"])
def test_out_naming_a_directory_is_a_data_error(tmp_path, capsys, request, command):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x_0,x_1\n1,2\n3,4\n")
    if command == "generate":
        argv = ["generate", "--dataset", "moon", "--n", 10]
    elif command == "sample":
        argv = ["sample", "--model", request.getfixturevalue("trained"), "--data", cloud,
                "--steps", 2]
    else:
        argv = ["evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "ps_l2"]
    out = tmp_path / "taken"
    out.mkdir()
    capsys.readouterr()
    assert run_cli(*argv, "--out", out) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("data error:") and str(out) in err


def test_train_out_naming_an_existing_file_exits_3_before_reading(tmp_path, moon_csv, capsys,
                                                                   monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError(f"an input was read: {args}")

    for reader in ("read_config", "read_pairs"):
        monkeypatch.setattr(f"bridgekit.cli.{reader}", no_read)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    capsys.readouterr()
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 3
    assert capsys.readouterr().err == (f"data error: train: model.bkt is not in a directory: "
                                       f"{out / 'model.bkt'}\n")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("below", ["sub", "sub/deeper"])
def test_train_out_under_an_existing_file_exits_3_before_reading(tmp_path, moon_csv, capsys,
                                                                  monkeypatch, below):
    def no_read(*args, **kwargs):
        raise AssertionError(f"an input was read: {args}")

    for reader in ("read_config", "read_pairs"):
        monkeypatch.setattr(f"bridgekit.cli.{reader}", no_read)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    taken = tmp_path / "f.txt"
    taken.write_text("not a directory\n")
    out = taken / below
    capsys.readouterr()
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 3
    assert capsys.readouterr().err == (f"data error: train: model.bkt is not in a directory: "
                                       f"{out / 'model.bkt'}\n")
    assert taken.read_text() == "not a directory\n"


def test_train_out_naming_an_existing_file_is_a_data_error(tmp_path, moon_csv, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert out.read_text() == "not a directory\n"


def _edited_model(trained, path, edit):
    """A copy at ``path`` of the model ``trained`` whose drift's x_enc layer
    weights ``edit`` has changed in place."""
    model = load_model(trained)
    edit(model.drift.x_enc.weights)
    save_model(path, model.drift, model.doob, model.schedule, config=model.config)
    return path


def test_sample_with_a_nan_drift_weight_names_the_layer(tmp_path, trained, capsys):
    def nan_weight(weights):
        weights[0][0, 0] = np.nan

    work = tmp_path / "work"
    work.mkdir()
    model = _edited_model(trained, work / "nan.bkt", nan_weight)
    data = work / "starts.csv"
    data.write_text("x_0,x_1\n0,0\n1,-1\n")
    before = _files(work)
    capsys.readouterr()
    assert run_cli("sample", "--model", model, "--data", data, "--steps", 5,
                   "--out", work / "t.csv") == 4
    assert capsys.readouterr().err == ("numerical failure: non-finite activation in x_enc "
                                       "layer 0\n")
    assert _files(work) == before  # no --out, endpoint cloud or part file


@pytest.mark.filterwarnings("error")
def test_sample_prints_no_numpy_warnings(tmp_path, trained, capsys):
    # x_enc layer 0 overflows; layer 1's negative weights take that to -inf,
    # which SELU maps to finite values, so the drift stays finite.
    def overflow(weights):
        weights[0][...] = 1e308
        weights[1][...] = -np.abs(weights[1])

    model = _edited_model(trained, tmp_path / "big.bkt", overflow)
    data = tmp_path / "starts.csv"
    data.write_text("x_0,x_1\n1,1\n2,0.5\n")
    capsys.readouterr()
    assert run_cli("sample", "--model", model, "--data", data, "--steps", 5,
                   "--out", tmp_path / "t.csv") == 0
    assert capsys.readouterr().err == ""
    assert np.all(np.isfinite(read_cloud(tmp_path / "t_endpoints.csv")))


def test_sample_too_many_steps_to_allocate_is_a_usage_error(tmp_path, trained, capsys,
                                                            monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape "
                          "(1, 100000000001, 2)")

    # Stands in for the real allocation, which this test must never attempt.
    monkeypatch.setattr("bridgekit.cli.simulate_sde", out_of_memory)
    data = tmp_path / "starts.csv"
    data.write_text("x_0,x_1\n0,0\n")
    out = tmp_path / "t.csv"
    assert run_cli("sample", "--model", trained, "--data", data, "--steps", 100000000000,
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_sample_with_negligible_diffusivity_has_identical_poses(tmp_path, moon_csv):
    # A near-zero g model: endpoints follow the deterministic drift flow, so
    # every pose of the same starting point coincides.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text(g=1e-9, n_iters=10))
    out = tmp_path / "m"
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 0
    traj = tmp_path / "traj.csv"
    data = tmp_path / "starts.csv"
    data.write_text("x_0,x_1\n0.5,0.25\n-1.0,2.0\n")
    assert run_cli(
        "sample", "--model", out / "model.bkt", "--data", data, "--steps", 8,
        "--n-poses", 3, "--seed", 4, "--out", traj,
    ) == 0
    ends = read_cloud(tmp_path / "traj_endpoints.csv").reshape(2, 3, 2)
    for row in ends:
        np.testing.assert_allclose(row - row[0], 0.0, atol=1e-8)


def test_evaluate_csv_out(tmp_path):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x_0,x_1\n1,2\n3,4\n5,6\n")
    csv_out = tmp_path / "metrics.csv"
    assert run_cli(
        "evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "rmsd,ps_l2",
        "--csv-out", csv_out,
    ) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "rmsd,ps_l2"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.0]
    assert (tmp_path / "metrics.csv.manifest.json").exists()


@pytest.mark.parametrize("out, endpoints, clash", [
    ("e.csv", "./e.csv", "--out and --endpoints-out name the same file ./e.csv"),
    ("t.csv", "t.csv.manifest.json",
     "--endpoints-out and the manifest name the same file t.csv.manifest.json"),
])
def test_sample_outputs_naming_one_file_is_a_usage_error(tmp_path, trained, moon_csv, capsys,
                                                        monkeypatch, out, endpoints, clash):
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    assert run_cli("sample", "--model", trained, "--data", moon_csv, "--steps", 2,
                   "--out", out, "--endpoints-out", endpoints) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"usage error: sample: {clash}"]
    assert set(tmp_path.iterdir()) == before  # nothing was simulated or written


@pytest.mark.parametrize("csv_out, clash", [
    ("{tmp}/r.txt", "--out and --csv-out name the same file {tmp}/r.txt"),
    ("r.txt.manifest.json", "--csv-out and the manifest name the same file r.txt.manifest.json"),
])
def test_evaluate_outputs_naming_one_file_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                          csv_out, clash):
    monkeypatch.chdir(tmp_path)
    Path("c.csv").write_text("x_0,x_1\n1,2\n3,4\n")
    assert run_cli("evaluate", "--pred", "c.csv", "--ref", "c.csv", "--out", "r.txt",
                   "--csv-out", csv_out.format(tmp=tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no metric ran
    assert err.strip().splitlines() == [f"usage error: evaluate: {clash.format(tmp=tmp_path)}"]
    assert list(tmp_path.iterdir()) == [tmp_path / "c.csv"]


def test_manifests_record_phase_seconds(tmp_path, moon_csv, monkeypatch):
    from bridgekit import _workers, cli, sde

    # One worker and chunks of 8 rows: sample runs its 40 starts in 5 waves,
    # each adding to the simulate and write phases.
    monkeypatch.setattr(sde, "_SIM_CHUNK", 8)
    monkeypatch.setattr(_workers, "_BLAS_CAP", None)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())

    def run_all(out):
        out.mkdir()
        assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 0
        assert run_cli("sample", "--model", out / "model.bkt", "--data", moon_csv,
                       "--steps", 3, "--seed", 4, "--out", out / "traj.csv") == 0
        assert run_cli("evaluate", "--pred", out / "traj_endpoints.csv", "--ref", f"{moon_csv}:x1",
                       "--out", out / "r.txt", "--csv-out", out / "r.csv") == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if not p.name.endswith(".manifest.json")}

    timed = run_all(tmp_path / "timed")
    for anchor, phases in (("model.bkt", ["read", "train", "write"]),
                           ("traj.csv", ["read", "simulate", "write"]),
                           ("r.txt", ["read", "metrics", "write"])):
        manifest = json.loads((tmp_path / "timed" / f"{anchor}.manifest.json").read_text())
        recorded = manifest["phase_seconds"]
        assert sorted(recorded) == sorted(phases)
        assert all(v >= 0 for v in recorded.values())
        assert sum(recorded.values()) <= manifest["duration_seconds"]
    # On a clock that reads 0, 1, 2, ... a phase takes one unit per mark: five
    # waves of simulate and write, then the endpoint write, are summed.
    clock, real_time = itertools.count(), cli.time
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: float(next(clock))))
    counted = tmp_path / "timed" / "counted.csv"
    assert run_cli("sample", "--model", tmp_path / "timed" / "model.bkt", "--data", moon_csv,
                   "--steps", 3, "--seed", 4, "--out", counted) == 0
    manifest = json.loads(Path(f"{counted}.manifest.json").read_text())
    assert manifest["phase_seconds"] == {"read": 1.0, "simulate": 5.0, "write": 6.0}
    assert manifest["duration_seconds"] == 13.0
    monkeypatch.setattr(cli, "time", real_time)
    # Timing the phases changes no artifact.
    monkeypatch.setattr(cli, "_end_phase", lambda args, name: None)
    assert run_all(tmp_path / "untimed") == timed
    manifest = json.loads((tmp_path / "untimed" / "traj.csv.manifest.json").read_text())
    assert "phase_seconds" not in manifest


def test_evaluate_manifest_records_sinkhorn_diagnostics(tmp_path):
    from bridgekit import sinkhorn_w, write_cloud

    rng = np.random.default_rng(3)
    pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
    write_cloud(pred, rng.normal(size=(30, 2)))
    write_cloud(ref, rng.normal(size=(25, 2)) + 0.5)
    report = tmp_path / "report.txt"
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "sinkhorn,ps_l2",
                   "--eps", 0.05, "--out", report) == 0
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    expected = sinkhorn_w(read_cloud(pred), read_cloud(ref), eps=0.05)
    assert manifest["sinkhorn"] == {"n_iters": expected.n_iters,
                                    "marginal_violation": expected.marginal_violation,
                                    "converged": expected.converged,
                                    "log_sweeps": expected.log_sweeps,
                                    "relaxation": expected.relaxation}
    assert expected.converged and expected.n_iters > 0 and expected.relaxation > 1.0
    # The report keeps one "name = value" line per metric.
    assert [line.split(" = ")[0] for line in report.read_text().splitlines()] == [
        "sinkhorn", "ps_l2"]
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "ps_l2",
                   "--out", tmp_path / "r.txt") == 0
    assert "sinkhorn" not in json.loads((tmp_path / "r.txt.manifest.json").read_text())


def _small_eps_clouds(tmp_path):
    """300 points of N(0, I) against 310 of 0.8 N(0, I) + 0.5, as files."""
    from bridgekit import write_cloud

    rng = np.random.default_rng(12)
    pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
    write_cloud(pred, rng.normal(size=(300, 2)))
    write_cloud(ref, 0.8 * rng.normal(size=(310, 2)) + 0.5)
    return pred, ref


def test_evaluate_sinkhorn_beyond_its_sweeps_warns_and_records_it(tmp_path, capsys):
    # eps far below the cost scale: at eps 1e-4 these clouds do not converge
    # within evaluate's 5000 sweeps.
    pred, ref = _small_eps_clouds(tmp_path)
    report = tmp_path / "report.txt"
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "sinkhorn",
                   "--eps", 1e-4, "--out", report) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: sinkhorn stopped at 5000 iterations with marginal "
                             "violation ")
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert manifest["sinkhorn"]["converged"] is False
    assert manifest["sinkhorn"]["n_iters"] == 5000
    assert manifest["sinkhorn"]["marginal_violation"] > 1e-6
    assert report.read_text().startswith("sinkhorn = ")


def test_evaluate_sinkhorn_converges_at_eps_1e_3_on_far_apart_clouds(tmp_path, capsys):
    # The plain loop needs 24,337 sweeps here; the relaxed final stage fits
    # in evaluate's 5000.
    pred, ref = _small_eps_clouds(tmp_path)
    report = tmp_path / "report.txt"
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "sinkhorn",
                   "--eps", 1e-3, "--out", report) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert manifest["sinkhorn"]["converged"] is True
    assert manifest["sinkhorn"]["n_iters"] < 5000
    assert manifest["sinkhorn"]["marginal_violation"] < 1e-6


def test_evaluate_manifest_records_mmd_workers(tmp_path, monkeypatch):
    from bridgekit import _workers, write_cloud

    rng = np.random.default_rng(4)
    pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
    write_cloud(pred, rng.normal(size=(300, 2)))  # two stripes
    write_cloud(ref, rng.normal(size=(20, 2)))  # one stripe
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    reports = []
    # 4 stripes: the smaller cloud's sum and the cross sum 1 each, the larger 2.
    for cap, workers in ((None, 1), (1, 4), (4, 2)):
        monkeypatch.setattr(_workers, "_BLAS_CAP", cap)
        report = tmp_path / f"report{cap}.txt"
        assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "mmd,ps_l2",
                       "--out", report) == 0
        manifest = json.loads(Path(f"{report}.manifest.json").read_text())
        assert manifest["mmd_workers"] == workers
        reports.append(report.read_bytes())
    assert reports == [reports[0]] * 3
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "ps_l2",
                   "--out", tmp_path / "r.txt") == 0
    assert "mmd_workers" not in json.loads((tmp_path / "r.txt.manifest.json").read_text())


@pytest.mark.parametrize("pred_rows, ref_rows, message", [
    ("4e153,0\n" * 3, "-4e153,0\n" * 3, "over eps = 0.1 is not finite"),
    ("0,0\n1e153,0\n", "1,0\n-1e153,0\n", "would use up max_iters = 5000"),
], ids=["cost-over-eps-overflows", "warm-start-outlasts-max-iters"])
def test_evaluate_sinkhorn_beyond_its_range_is_a_data_error(tmp_path, capsys, pred_rows,
                                                            ref_rows, message):
    pred, ref = tmp_path / "p.csv", tmp_path / "r.csv"
    pred.write_text("x_0,x_1\n" + pred_rows)
    ref.write_text("x_0,x_1\n" + ref_rows)
    report = tmp_path / "report.txt"
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "mmd,sinkhorn",
                   "--out", report) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("data error: sinkhorn: ") and message in err
    assert not report.exists()


def test_export_drift_command(tmp_path, trained):
    out = tmp_path / "prior.bkt"
    assert run_cli("export-drift", "--model", trained, "--out", out) == 0
    from bridgekit import load_model

    model = load_model(out)
    assert model.kind == "drift_only"
    assert model.doob is None


def test_plot_empty_trajectory_file_is_valid_svg(tmp_path):
    traj = tmp_path / "empty.csv"
    traj.write_text("")
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--traj", traj, "--out", out) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("blank", ["", "\n\n", " \t\r\n  \n", " " * 70_000 + "\n"])
def test_plot_blank_trajectory_file_draws_no_trajectories(tmp_path, blank):
    traj = tmp_path / "blank.csv"
    traj.write_text(blank)
    no_traj, out = tmp_path / "none.svg", tmp_path / "plot.svg"
    assert run_cli("plot", "--out", no_traj) == 0
    assert run_cli("plot", "--traj", traj, "--out", out) == 0
    assert out.read_bytes() == no_traj.read_bytes()


def test_plot_reads_trajectories_after_a_long_blank_prefix(tmp_path):
    from bridgekit import TrajectoryBatch, write_trajectories

    states = np.random.default_rng(2).normal(size=(3, 5, 2))
    traj = tmp_path / "traj.csv"
    write_trajectories(traj, TrajectoryBatch(times=np.linspace(0, 1, 5), states=states))
    padded = tmp_path / "padded.csv"
    padded.write_text("\n" * 70_000 + traj.read_text())
    plain, out = tmp_path / "plain.svg", tmp_path / "plot.svg"
    assert run_cli("plot", "--traj", traj, "--out", plain) == 0
    assert run_cli("plot", "--traj", padded, "--out", out) == 0
    assert out.read_bytes() == plain.read_bytes()
    assert len([el for el in ET.parse(out).getroot().iter() if el.tag.endswith("polyline")]) == 3


def test_plot_polyline_count_matches_trajectories(tmp_path, trained, moon_csv):
    traj = tmp_path / "traj.csv"
    assert run_cli(
        "sample", "--model", trained, "--data", moon_csv, "--steps", 5,
        "--seed", 1, "--out", traj,
    ) == 0
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--traj", traj, "--pairs", moon_csv, "--out", out) == 0
    root = ET.parse(out).getroot()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 40


def test_plot_rejects_high_dimensional_data(tmp_path, capsys):
    pairs = tmp_path / "p3.csv"
    pairs.write_text("x0_0,x0_1,x0_2,x1_0,x1_1,x1_2\n0,0,0,1,1,1\n")
    assert run_cli("plot", "--pairs", pairs, "--out", tmp_path / "p.svg") == 3
    assert "2-D" in capsys.readouterr().err


def test_plot_rejects_three_dimensional_trajectories(tmp_path, capsys):
    from bridgekit import TrajectoryBatch, write_trajectories

    traj = tmp_path / "t3.csv"
    write_trajectories(traj, TrajectoryBatch(times=np.linspace(0, 1, 3),
                                             states=np.zeros((2, 3, 3))))
    out = tmp_path / "p.svg"
    capsys.readouterr()
    assert run_cli("plot", "--traj", traj, "--out", out) == 3
    err = capsys.readouterr().err
    assert err == "data error: plotting requires 2-D data, trajectories have d = 3\n"
    assert not out.exists()


def test_manifests_record_command_config_seed_and_inputs(tmp_path, moon_csv, trained):
    def record(anchor):
        manifest = json.loads(Path(f"{anchor}.manifest.json").read_text())
        return (manifest["command"], manifest["config"], manifest["seed"],
                sorted(manifest["input_hashes"]))

    moon, model, cfg = str(moon_csv), str(trained), str(tmp_path / "cfg.txt")
    assert record(moon_csv) == ("generate", {"dataset": "moon", "n": 40, "noise_std": None,
                                             "dim": None, "shift": None, "out": moon}, 7, [])
    train_config = json.loads(json.dumps(TrainConfig(batch_size=8, n_iters=40, seed=3,
                                                     eval_every=20).to_dict()))
    assert record(trained) == ("train", train_config, 3, sorted([moon, cfg]))

    traj, ends = str(tmp_path / "traj.csv"), str(tmp_path / "ends.csv")
    for extra, endpoints in (([], str(tmp_path / "traj_endpoints.csv")),
                             (["--endpoints-out", ends], ends)):
        assert run_cli("sample", "--model", model, "--data", moon, "--steps", 2, "--seed", 5,
                       "--out", traj, *extra) == 0
        assert record(traj) == ("sample", {"model": model, "data": moon, "steps": 2,
                                           "n_poses": 1, "out": traj, "endpoints_out": endpoints},
                                5, sorted([model, moon]))

    report, csv_out = str(tmp_path / "r.txt"), str(tmp_path / "r.csv")
    for flag, anchor in (("--out", report), ("--csv-out", csv_out)):
        assert run_cli("evaluate", "--pred", f"{moon}:x1", "--ref", ends,
                       "--metrics", "rmsd, ps_l2", flag, anchor) == 0
        assert record(anchor) == ("evaluate", {
            "pred": f"{moon}:x1", "ref": ends, "metrics": ["rmsd", "ps_l2"], "eps": 0.1,
            "out": report if flag == "--out" else None,
            "csv_out": csv_out if flag == "--csv-out" else None,
        }, None, sorted([moon, ends]))

    drift = str(tmp_path / "drift.bkt")
    assert run_cli("export-drift", "--model", model, "--out", drift) == 0
    assert record(drift) == ("export-drift", {"model": model, "out": drift}, None, [model])

    svg = str(tmp_path / "p.svg")
    assert run_cli("plot", "--traj", traj, "--pairs", moon, "--out", svg) == 0
    assert record(svg) == ("plot", {"traj": traj, "pairs": moon, "out": svg}, None,
                           sorted([traj, moon]))


def test_commands_do_not_mutate_inputs(tmp_path, moon_csv):
    before = sha(moon_csv)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    run_cli("train", "--data", moon_csv, "--config", cfg, "--out", tmp_path / "m")
    assert sha(moon_csv) == before
    assert sha(cfg) == hashlib.sha256(cfg.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# malformed CSV inputs: the exit-code contract
# ---------------------------------------------------------------------------

V1_PAIR = Path(__file__).parent / "data" / "v1_pair.bkt"  # d = 2
_HEADERS = ["x_0,x_1", "x0_0,x0_1,x1_0,x1_1", "x_0", "x0_0,x1_0"]
_WRONG_HEADERS = ["a,b", "x_1,x_0", "x0_0,x0_1,x1_0", "x_0,x_1,x_2", "x_0,,x_1", ""]
_NUMBERS = ["0", "1.5", "-2e-3", "7", "0.25", "1e308", "-0"]
_NOT_NUMBERS = ["abc", "", " ", "1_0", "0x1p3", "1,5", "\u0661"]
_NOT_FINITE = ["nan", "inf", "-inf", "1e999", "NaN"]
_DEFECTS = ["none", "ragged", "non-numeric", "non-finite", "header-only", "one-row",
            "wrong-header"]


@st.composite
def _malformed_csv(draw):
    """A CSV file with at most one defect: ragged rows, a non-numeric or
    non-finite cell, no rows, one row or a wrong header."""
    header = draw(st.sampled_from(_HEADERS))
    width = header.count(",") + 1
    rows = draw(st.lists(st.lists(st.sampled_from(_NUMBERS), min_size=width, max_size=width),
                         min_size=2, max_size=5))
    defect = draw(st.sampled_from(_DEFECTS))
    row = draw(st.integers(0, len(rows) - 1))
    if defect == "ragged":
        rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + ["1"]
    elif defect in ("non-numeric", "non-finite"):
        bad = _NOT_NUMBERS if defect == "non-numeric" else _NOT_FINITE
        rows[row][draw(st.integers(0, width - 1))] = draw(st.sampled_from(bad))
    elif defect == "header-only":
        rows = []
    elif defect == "one-row":
        rows = rows[:1]
    elif defect == "wrong-header":
        header = draw(st.sampled_from(_WRONG_HEADERS))
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


# Seeded by a number, not a digest of this source, so an edit keeps the draws.
@seed(0)
@settings(max_examples=60, deadline=None, database=None)
@given(_malformed_csv())
def test_commands_on_malformed_csv_exit_with_a_documented_code_and_one_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bad = tmp / "bad.csv"
        bad.write_text(text)
        good = tmp / "good.csv"
        good.write_text("x_0,x_1\n0,1\n2,3\n4,5\n")
        cfg = tmp / "cfg.txt"
        cfg.write_text(tiny_config_text(n_iters=2, batch_size=4))
        runs = [
            ["train", "--data", bad, "--config", cfg, "--out", tmp / "m"],
            ["sample", "--model", V1_PAIR, "--data", bad, "--steps", 2, "--out", tmp / "t.csv"],
            ["evaluate", "--pred", bad, "--ref", good, "--out", tmp / "r1.txt"],
            ["evaluate", "--pred", bad, "--ref", bad, "--out", tmp / "r2.txt"],
            ["evaluate", "--pred", f"{bad}:x0", "--ref", f"{bad}:x1", "--out", tmp / "r3.txt"],
        ]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(*argv)
            err = err.getvalue()
            assert code in (0, 2, 3, 4), (argv[0], text, err)
            assert "Traceback" not in err, (argv[0], text, err)
            if code != 0:
                assert len(err.strip().splitlines()) == 1, (argv[0], text, err)


# ---------------------------------------------------------------------------
# outputs: written as part files, moved into place with their manifest
# ---------------------------------------------------------------------------


def test_generate_out_name_leaving_no_room_for_its_manifest_writes_nothing(tmp_path, capsys):
    # The name fits; its manifest's, 14 bytes longer, does not.
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    out = tmp_path / ("g" * (name_max - 15) + ".csv")
    assert run_cli("generate", "--dataset", "moon", "--n", 10, "--out", out) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [".", ".."])
def test_sample_out_naming_a_directory_by_dots_writes_nothing(tmp_path, trained, moon_csv,
                                                             capsys, monkeypatch, out):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli("sample", "--model", trained, "--data", moon_csv, "--steps", 2,
                   "--out", out) in (2, 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before  # no .._endpoints.csv either


@pytest.mark.parametrize("command", ["sample", "evaluate"])
def test_second_output_naming_a_directory_writes_nothing(tmp_path, capsys, request, command):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x_0,x_1\n1,2\n3,4\n")
    if command == "sample":
        argv = ["sample", "--model", request.getfixturevalue("trained"), "--data", cloud,
                "--steps", 2, "--out", tmp_path / "t.csv", "--endpoints-out"]
    else:
        argv = ["evaluate", "--pred", cloud, "--ref", cloud, "--metrics", "ps_l2",
                "--out", tmp_path / "r.txt", "--csv-out"]
    taken = tmp_path / "taken"
    taken.mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli(*argv, taken) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("data error:") and str(taken) in err
    assert sorted(tmp_path.rglob("*")) == before  # the first output did not land alone


def test_train_failing_at_its_loss_trace_leaves_no_model(tmp_path, moon_csv, capsys,
                                                       monkeypatch):
    def disk_full(path, trace):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr("bridgekit.cli.write_loss_trace", disk_full)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    out = tmp_path / "m"
    assert run_cli("train", "--data", moon_csv, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "No space left on device" in err
    assert list(out.iterdir()) == []


def test_complete_runs_land_every_output_and_manifest_and_no_part(tmp_path, moon_csv,
                                                                   trained):
    traj = tmp_path / "traj.csv"
    runs = {
        "generate": ["--dataset", "t", "--n", 6, "--out", tmp_path / "t.csv"],
        "sample": ["--model", trained, "--data", moon_csv, "--steps", 2, "--out", traj],
        "evaluate": ["--pred", tmp_path / "traj_endpoints.csv", "--ref", f"{moon_csv}:x1",
                     "--out", tmp_path / "r.txt", "--csv-out", tmp_path / "r.csv"],
        "export-drift": ["--model", trained, "--out", tmp_path / "d.bkt"],
        "plot": ["--traj", traj, "--pairs", moon_csv, "--out", tmp_path / "p.svg"],
    }
    for command, argv in runs.items():
        assert run_cli(command, *argv) == 0
    # train ran in the fixture
    names = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert not [name for name in names if name.endswith(".part")]
    outputs = ["moon.csv", "model_dir/model.bkt", "t.csv", "traj.csv", "r.txt", "d.bkt",
               "p.svg"]
    assert names == {"cfg.txt", "model_dir/loss_trace.csv", "traj_endpoints.csv", "r.csv",
                     *outputs, *(f"{name}.manifest.json" for name in outputs)}


@pytest.mark.parametrize("argv, flags, path", [
    (["sample", "--model", "m.bkt", "--data", "t_endpoints.csv", "--out", "t.csv"],
     "--data and --endpoints-out", "t_endpoints.csv"),
    (["sample", "--model", "m.bkt", "--data", "s.csv", "--out", "s.csv"], "--data and --out",
     "s.csv"),
    (["sample", "--model", "m.bkt", "--data", "s.csv", "--out", "t.csv", "--endpoints-out",
      "m.bkt"], "--model and --endpoints-out", "m.bkt"),
    (["evaluate", "--pred", "c.csv:x0", "--ref", "c.csv:x1", "--metrics", "ps_l2",
      "--out", "c.csv"], "--ref and --out", "c.csv"),
    (["evaluate", "--pred", "cl.csv", "--ref", "cl.csv", "--csv-out", "./cl.csv"],
     "--ref and --csv-out", "./cl.csv"),
    (["evaluate", "--pred", "cl.csv", "--ref", "s.csv", "--out", "r.txt", "--csv-out",
      "r.txt.manifest.json"], "--csv-out and the manifest", "r.txt.manifest.json"),
    (["plot", "--traj", "tr.csv", "--out", "tr.csv"], "--traj and --out", "tr.csv"),
    (["plot", "--pairs", "c.csv", "--out", "tr.svg"], None, None),
    (["plot", "--traj", "tr.svg.manifest.json", "--out", "tr.svg"],
     "--traj and the manifest", "tr.svg.manifest.json"),
    (["export-drift", "--model", "m.bkt", "--out", "m.bkt"], "--model and --out", "m.bkt"),
    (["train", "--data", "c.csv", "--config", "run/loss_trace.csv", "--out", "run"],
     "--config and loss_trace.csv", "run/loss_trace.csv"),
], ids=["sample-default-endpoints", "sample-out", "sample-endpoints-out", "evaluate-pair-side",
        "evaluate-csv-out", "evaluate-outputs", "plot-traj", "plot-pairs-no-clash",
        "plot-manifest", "export-drift", "train-config"])
def test_output_naming_an_input_is_a_usage_error_before_any_read(tmp_path, capsys,
                                                                 monkeypatch, argv, flags,
                                                                 path):
    from bridgekit import TrajectoryBatch, write_cloud, write_trajectories

    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(1)
    write_pairs("c.csv", AlignedDataset(rng.normal(size=(5, 2)), rng.normal(size=(5, 2))))
    for name in ("t_endpoints.csv", "s.csv", "cl.csv"):
        write_cloud(name, rng.normal(size=(5, 2)))
    write_trajectories("tr.csv", TrajectoryBatch(times=np.linspace(0, 1, 3),
                                                 states=rng.normal(size=(2, 3, 2))))
    Path("tr.svg.manifest.json").write_text("{}\n")
    shutil.copy(V1_PAIR, "m.bkt")
    Path("run").mkdir()
    Path("run/loss_trace.csv").write_text(tiny_config_text())
    if flags is None:  # a command that does not clash still runs
        assert run_cli(*argv) == 0
        return

    def no_read(*args, **kwargs):
        raise AssertionError(f"an input was read: {args}")

    for reader in ("read_config", "read_pairs", "read_cloud", "read_trajectories", "_is_blank",
                   "is_pair_file", "load_model", "export_drift"):
        monkeypatch.setattr(f"bridgekit.cli.{reader}", no_read)
    before = _files(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (f"usage error: {argv[0]}: {flags} name the same file "
                                       f"{path}\n")
    assert _files(tmp_path) == before


# ---------------------------------------------------------------------------
# generated command lines: the exit-code contract, and no file left on failure
# ---------------------------------------------------------------------------

_NAME_MAX = os.pathconf(tempfile.gettempdir(), "PC_NAME_MAX")
_GOOD_CONFIG = tiny_config_text(n_iters=2, batch_size=4)
_CONFIGS = [_GOOD_CONFIG] + [_GOOD_CONFIG.replace(old, new) for old, new in [
    ("n_iters = 2", "n_iters = two"),  # wrong type
    ("batch_size = 4", "batch_size = 0"),  # out of range
    ("lr_drift = 0.001", "lr_drift = nan"),  # not finite
    ("g = 1.0", "g = inf"),
    ("lambda_mode = constant", "lambda_mode = quadratic"),
    ("t_clip = 0.001\n", ""),  # missing key
    ("seed = 3", "seed = 3\nseed = 4"),  # duplicate key
    ("seed = 3", "seed = 3\nmomentum = 0.9"),  # unknown key
    ("seed = 3", "seed = 3\nno equals sign"),
]]


@pytest.fixture(scope="module")
def guard_inputs(tmp_path_factory):
    """Input files named by ``_command_line``: good ones, and ones each
    command refuses."""
    from bridgekit import TrajectoryBatch, write_cloud, write_trajectories
    from bridgekit.training import export_drift

    inputs = tmp_path_factory.mktemp("guard_inputs")
    rng = np.random.default_rng(0)
    write_pairs(inputs / "pairs.csv", AlignedDataset(rng.normal(size=(8, 2)),
                                                     rng.normal(size=(8, 2))))
    write_pairs(inputs / "pairs3.csv", AlignedDataset(rng.normal(size=(3, 3)),
                                                      rng.normal(size=(3, 3))))
    write_cloud(inputs / "cloud.csv", rng.normal(size=(6, 2)))
    write_cloud(inputs / "cloud3.csv", rng.normal(size=(4, 3)))
    write_cloud(inputs / "one.csv", rng.normal(size=(1, 2)))
    (inputs / "bad.csv").write_text("x_0,x_1\n1,abc\n")
    (inputs / "blank.csv").write_text("")
    write_trajectories(inputs / "traj.csv", TrajectoryBatch(times=np.linspace(0, 1, 3),
                                                            states=rng.normal(size=(2, 3, 2))))
    shutil.copy(V1_PAIR, inputs / "model.bkt")
    export_drift(V1_PAIR, inputs / "drift.bkt")
    for i, text in enumerate(_CONFIGS):
        (inputs / f"cfg{i}.txt").write_text(text)
    return inputs


def _usually(draw, good, *bad):
    """``good`` in two draws of three, otherwise one of ``bad``."""
    return good if draw(st.integers(0, 2)) else draw(st.sampled_from(bad))


def _output(draw, name, *others):
    """An output path relative to the working directory ``work``: usually a
    new file ``name``, otherwise the file ``old.csv``, the directory ``taken``
    or the symbolic link loop ``loop`` beside ``work``, a name near the
    file-name limit, ``work`` itself or its parent, a path in a missing
    directory, or one of ``others``."""
    path = _usually(draw, name, "../old.csv", "../taken", "../loop", "near the limit", ".",
                    "..", f"missing/{name}", *others)
    if path == "near the limit":
        path = "n" * (_NAME_MAX - 4 + draw(st.integers(-30, 1))) + ".csv"
    return path


@st.composite
def _command_line(draw):
    """Argv for one of the six commands, every value one that argparse takes,
    inputs usually good, outputs sometimes naming one of the inputs;
    ``@name`` stands for the file ``name`` of ``guard_inputs``."""
    command = draw(st.sampled_from(["generate", "train", "sample", "evaluate", "export-drift",
                                    "plot"]))

    def pick(*options):
        return draw(st.sampled_from(options))

    def usually(good, *bad):
        return _usually(draw, good, *bad)

    def output(name, *others):
        """``_output``, or in one draw of five an input file named so far."""
        inputs = [str(a).split(":")[0] for a in argv if str(a).startswith("@")]
        if inputs and not draw(st.integers(0, 4)):
            return pick(*inputs)
        return _output(draw, name, *others)

    argv = [command]
    if command == "generate":
        argv += ["--dataset", pick("moon", "t", "gauss-pairs"), "--n", draw(st.integers(1, 30)),
                 "--seed", draw(st.integers(0, 3))]
        if draw(st.booleans()):
            argv += ["--noise-std", pick("0", "0.3")]
        if draw(st.booleans()):
            argv += ["--dim", draw(st.integers(1, 3))]
        if draw(st.booleans()):
            argv += ["--shift", usually("1,2", "0.5", "1,2,3", "a,b", "inf,1", "")]
        argv += ["--out", output("g.csv")]
    elif command == "train":
        argv += ["--data", usually("@pairs.csv", "@cloud.csv", "@bad.csv", "@missing.csv"),
                 "--config", f"@cfg{usually(0, *range(1, len(_CONFIGS)))}.txt"]
        argv += ["--out", output("m")]
    elif command == "sample":
        argv += ["--model", usually("@model.bkt", "@drift.bkt", "@pairs.csv", "@missing.bkt"),
                 "--data", usually(pick("@pairs.csv", "@cloud.csv"), "@cloud3.csv", "@bad.csv",
                                   "@blank.csv"),
                 "--steps", draw(st.integers(1, 3)), "--n-poses", draw(st.integers(1, 2))]
        out = output("t.csv")
        argv += ["--out", out]
        if draw(st.booleans()):
            argv += ["--endpoints-out", output("e.csv", out, f"{out}.manifest.json")]
    elif command == "evaluate":
        bad = ["@pairs.csv", "@cloud3.csv", "@one.csv", "@bad.csv", "@missing.csv"]
        argv += ["--pred", usually("@pairs.csv:x0", *bad),
                 "--ref", usually(pick("@pairs.csv:x1", "@cloud.csv"), *bad),
                 "--metrics", usually(pick("mmd,ps_l2", "sinkhorn", "mmd,sinkhorn,rmsd,ps_l2"),
                                      "rmsd", "bogus", "rmsd,rmsd", ","),
                 "--eps", pick("0.1", "1")]
        out = output("r.txt") if draw(st.booleans()) else None
        if out is not None:
            argv += ["--out", out]
        if draw(st.booleans()):
            clashes = [] if out is None else [out, f"{out}.manifest.json"]
            argv += ["--csv-out", output("r.csv", *clashes)]
    elif command == "export-drift":
        argv += ["--model", usually("@model.bkt", "@drift.bkt", "@pairs.csv", "@missing.bkt")]
        argv += ["--out", output("d.bkt")]
    else:
        if draw(st.booleans()):
            argv += ["--traj", usually(pick("@traj.csv", "@blank.csv"), "@bad.csv", "@cloud.csv")]
        if draw(st.booleans()):
            argv += ["--pairs", usually("@pairs.csv", "@pairs3.csv", "@cloud.csv")]
        argv += ["--out", output("p.svg")]
    return argv


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# Seeded by a number rather than derandomize=True, which seeds from a digest of
# this test's source: an edit to the body keeps the 200 drawn command lines.
@seed(7)
@settings(max_examples=200, deadline=None, database=None)
@given(argv=_command_line())
def test_generated_command_lines_keep_the_exit_code_contract(guard_inputs, argv):
    argv = [str(guard_inputs / a[1:]) if str(a).startswith("@") else str(a) for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "work").mkdir()
        (tmp / "taken").mkdir()
        (tmp / "old.csv").write_text("x_0,x_1\n0,0\n")
        (tmp / "loop").symlink_to("loop")
        before = _files(tmp), _files(guard_inputs)
        cwd = os.getcwd()
        err = io.StringIO()
        os.chdir(tmp / "work")
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
        err = err.getvalue()
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert _files(guard_inputs) == before[1], (argv, err)  # inputs kept, whatever the code
        if code == 0:
            assert not list(tmp.rglob("*.part")), argv
        else:
            assert len(err.strip().splitlines()) == 1, (argv, err)
            assert (_files(tmp), _files(guard_inputs)) == before, (argv, err)
