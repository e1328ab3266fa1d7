import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from bridgekit import AlignedDataset, TrainConfig, read_cloud, read_pairs, write_pairs
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
], ids=["sample-steps-0", "sample-n-poses-negative", "generate-n-0", "generate-bad-shift",
        "evaluate-eps-negative", "evaluate-eps-zero", "evaluate-eps-nan",
        "generate-seed-negative", "generate-noise-std-negative", "generate-noise-std-nan",
        "generate-noise-std-inf", "evaluate-control"])
def test_bad_arguments_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse rejects the value before the command runs
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


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


def test_manifest_records_the_environment(moon_csv, monkeypatch, tmp_path):
    import platform

    env = json.loads((moon_csv.parent / "moon.csv.manifest.json").read_text())["environment"]
    assert sorted(env) == ["blas", "blas_thread_cap", "numpy", "peak_rss_mb", "python"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["peak_rss_mb"] > 1.0
    # The cap is read from the environment when the manifest is written.
    for var in ("OPENBLAS_NUM_THREADS", "BRIDGEKIT_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cases = [({}, None), ({"BRIDGEKIT_THREADS": "3"}, 3),
             ({"OPENBLAS_NUM_THREADS": "2", "BRIDGEKIT_THREADS": "3"}, 2)]
    # A value that is not a non-negative integer is recorded as null.
    cases += [({"OPENBLAS_NUM_THREADS": bad}, None) for bad in ("", " 2", "auto", "-1", "\u00b2")]
    for i, (variables, cap) in enumerate(cases):
        for var, value in variables.items():
            monkeypatch.setenv(var, value)
        out = tmp_path / f"g{i}.csv"
        assert run_cli("generate", "--dataset", "moon", "--n", 5, "--seed", 1, "--out", out) == 0
        manifest = json.loads((tmp_path / f"g{i}.csv.manifest.json").read_text())
        assert manifest["environment"]["blas_thread_cap"] == cap


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
                                    "converged": expected.converged}
    assert expected.converged and expected.n_iters > 0
    # The report keeps one "name = value" line per metric.
    assert [line.split(" = ")[0] for line in report.read_text().splitlines()] == [
        "sinkhorn", "ps_l2"]
    assert run_cli("evaluate", "--pred", pred, "--ref", ref, "--metrics", "ps_l2",
                   "--out", tmp_path / "r.txt") == 0
    assert "sinkhorn" not in json.loads((tmp_path / "r.txt.manifest.json").read_text())


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


def test_commands_do_not_mutate_inputs(tmp_path, moon_csv):
    before = sha(moon_csv)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(tiny_config_text())
    run_cli("train", "--data", moon_csv, "--config", cfg, "--out", tmp_path / "m")
    assert sha(moon_csv) == before
    assert sha(cfg) == hashlib.sha256(cfg.read_bytes()).hexdigest()
