import contextlib
import hashlib
import io
import json
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bridgekit import (
    DiffusivitySchedule,
    DoobNet,
    DriftNet,
    MlpSpec,
    TimeGrid,
    load_model,
    save_model,
    simulate_sde,
)
from bridgekit.cli import main
from bridgekit.errors import ChecksumError, ModelFormatError, VersionError
from bridgekit.training import export_drift

V1_PAIR = Path(__file__).parent / "data" / "v1_pair.bkt"


def make_nets(seed=0):
    dspec = MlpSpec(input_dim=2, output_dim=2, hidden_dim=8, time_embed_dim=8)
    mspec = MlpSpec(input_dim=2, output_dim=2, hidden_dim=8, time_embed_dim=8,
                    uses_drift_input=True)
    drift = DriftNet(dspec, rng=np.random.default_rng(seed))
    doob = DoobNet(mspec, rng=np.random.default_rng(seed + 1))
    for net, s in ((drift, 10), (doob, 11)):
        net.theta[...] = np.random.default_rng(s).normal(size=net.theta.size)
    return drift, doob


def param_hash(net):
    return hashlib.sha256(net.theta.tobytes()).hexdigest()


def test_round_trip_is_bit_exact(tmp_path):
    drift, doob = make_nets()
    sched = DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=(0.25,))
    path = tmp_path / "model.bkt"
    save_model(path, drift, doob, sched, config={"seed": 3, "note": "x"})
    loaded = load_model(path)
    assert param_hash(loaded.drift) == param_hash(drift)
    assert param_hash(loaded.doob) == param_hash(doob)
    assert loaded.schedule == sched
    assert loaded.config == {"seed": 3, "note": "x"}
    assert loaded.kind == "pair"


def test_corrupt_payload_byte_fails_checksum(tmp_path):
    drift, doob = make_nets()
    path = tmp_path / "model.bkt"
    save_model(path, drift, doob, DiffusivitySchedule.constant(1.0))
    raw = bytearray(path.read_bytes())
    raw[-40] ^= 0x01  # inside the payload, before the 32-byte checksum
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_unknown_version_is_reported(tmp_path):
    drift, doob = make_nets()
    path = tmp_path / "model.bkt"
    save_model(path, drift, doob, DiffusivitySchedule.constant(1.0))
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # little-endian u32 version field right after the magic
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError, match="99"):
        load_model(path)


def test_truncated_file_is_reported(tmp_path):
    drift, doob = make_nets()
    path = tmp_path / "model.bkt"
    save_model(path, drift, doob, DiffusivitySchedule.constant(1.0))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(path)


@pytest.mark.parametrize("n_bytes, what", [
    (0, "magic"), (10, "version header"), (2000, "parameter payload"), (-1, "checksum"),
])
def test_truncated_file_names_the_file(tmp_path, n_bytes, what):
    path = tmp_path / "trunc.bkt"
    path.write_bytes(V1_PAIR.read_bytes()[:n_bytes])
    with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: truncated .* {what}$"):
        load_model(path)


def test_not_a_model_file(tmp_path):
    path = tmp_path / "nope.bkt"
    path.write_bytes(b"definitely not a model" * 10)
    with pytest.raises(ModelFormatError, match="not a bridgekit model"):
        load_model(path)


def test_export_drops_correction_parameters(tmp_path):
    drift, doob = make_nets()
    sched = DiffusivitySchedule.constant(1.0)
    full = tmp_path / "full.bkt"
    out = tmp_path / "drift.bkt"
    save_model(full, drift, doob, sched, config={"seed": 1})
    exported = export_drift(full, out)
    assert exported.kind == "drift_only"
    assert exported.doob is None
    # Size check against the layer table: only the drift parameters remain.
    doob_bytes = 8 * doob.theta.size
    assert out.stat().st_size <= full.stat().st_size - doob_bytes
    assert exported.drift.theta.size == drift.theta.size
    assert param_hash(exported.drift) == param_hash(drift)


def test_exported_drift_simulates_identically(tmp_path):
    drift, doob = make_nets()
    sched = DiffusivitySchedule.constant(1.0)
    full = tmp_path / "full.bkt"
    out = tmp_path / "drift.bkt"
    save_model(full, drift, doob, sched)
    exported = export_drift(full, out)
    x0 = np.random.default_rng(5).normal(size=(6, 2))
    a = simulate_sde(x0, load_model(full).drift, sched, TimeGrid(12), seed=7)
    b = simulate_sde(x0, exported.drift, sched, TimeGrid(12), seed=7)
    assert np.array_equal(a.states, b.states)


def test_export_requires_pair_model(tmp_path):
    drift, _ = make_nets()
    path = tmp_path / "drift_only.bkt"
    save_model(path, drift, None, DiffusivitySchedule.constant(1.0))
    from bridgekit.errors import DataError

    with pytest.raises(DataError):
        export_drift(path, tmp_path / "again.bkt")


# ---------------------------------------------------------------------------
# Files written by an earlier build, and headers that cannot be used
# ---------------------------------------------------------------------------


def test_v1_pair_file_loads_and_resaves_identically(tmp_path):
    """tests/data/v1_pair.bkt was written by bridgekit 0.1.1, whose networks
    kept one array per layer; loading and saving it again must give the same
    bytes."""
    model = load_model(V1_PAIR)
    assert model.kind == "pair"
    assert model.drift.spec == MlpSpec(input_dim=2, output_dim=2, hidden_dim=4,
                                       time_embed_dim=2)
    assert model.doob.spec == MlpSpec(input_dim=2, output_dim=2, hidden_dim=4,
                                      time_embed_dim=2, uses_drift_input=True)
    assert model.schedule == DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=(0.5,))
    assert model.config == {"n_iters": 10, "note": "format v1", "seed": 5}
    out = tmp_path / "again.bkt"
    save_model(out, model.drift, model.doob, model.schedule, config=model.config)
    assert out.read_bytes() == V1_PAIR.read_bytes()


def rewrite_header(src, dst, mutate):
    """Copy a model file with its JSON header changed by ``mutate`` and a
    checksum that matches the new bytes."""
    raw = Path(src).read_bytes()
    (header_len,) = struct.unpack("<I", raw[12:16])
    header = json.loads(raw[16 : 16 + header_len])
    mutate(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = raw[:8] + struct.pack("<II", 1, len(header_bytes)) + header_bytes
    body += raw[16 + header_len : -32]
    Path(dst).write_bytes(body + hashlib.sha256(body).digest())


def _transpose_first_weight(header):
    header["layer_table"][0][1].reverse()


def _set_first_g(value):
    return lambda header: header["schedule"]["g_values"].__setitem__(0, value)


BAD_HEADERS = {
    "schedule-missing": lambda h: h.pop("schedule"),
    "layer-table-not-a-list": lambda h: h.update(layer_table=5),
    "first-weight-transposed": _transpose_first_weight,
    "g-nan": _set_first_g(float("nan")),
    "g-inf": _set_first_g(float("inf")),
    "g-squared-overflows": _set_first_g(1e200),
    "hidden-dim-float": lambda h: h["drift_spec"].update(hidden_dim=4.0),
    "input-dim-float": lambda h: h["drift_spec"].update(input_dim=2.0),
    "hidden-dim-bool": lambda h: h["drift_spec"].update(hidden_dim=True),
    # "no" is truthy, and False compares as a rate of 0.
    "uses-drift-input-string": lambda h: h["doob_spec"].update(uses_drift_input="no"),
    "dropout-rate-bool": lambda h: h["drift_spec"].update(dropout_rate=False),
}


@pytest.mark.parametrize("mutate", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
def test_unusable_header_is_a_format_error(tmp_path, mutate):
    path = tmp_path / "bad.bkt"
    rewrite_header(V1_PAIR, path, mutate)
    with pytest.raises(ModelFormatError, match=re.escape(str(path))):
        load_model(path)


def test_cli_reports_unusable_header_without_traceback(tmp_path, capsys):
    model = tmp_path / "bad.bkt"
    rewrite_header(V1_PAIR, model, BAD_HEADERS["schedule-missing"])
    starts = tmp_path / "starts.csv"
    starts.write_text("x_0,x_1\n0.0,0.0\n")
    code = main(["sample", "--model", str(model), "--data", str(starts),
                 "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert str(model) in err
    assert not (tmp_path / "t.csv").exists()


def _sample_and_export_fail_with_one_line(model, tmp_path):
    """Runs ``sample --steps 1`` and ``export-drift`` on ``model`` and asserts
    that each exits 3 with one stderr line, no traceback and no output file."""
    starts = tmp_path / "starts.csv"
    starts.write_text("x_0,x_1\n0.0,0.0\n")
    for argv, out in ((["sample", "--model", model, "--data", starts, "--steps", 1],
                       tmp_path / "t.csv"),
                      (["export-drift", "--model", model], tmp_path / "prior.bkt")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv + ["--out", out]])
        assert code == 3, err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().strip().splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("header", ["g-nan", "g-inf", "g-squared-overflows"])
def test_cli_rejects_non_finite_diffusivity(tmp_path, header):
    # save_model cannot write such a schedule, so the header is built by hand.
    model = tmp_path / "bad.bkt"
    rewrite_header(V1_PAIR, model, BAD_HEADERS[header])
    _sample_and_export_fail_with_one_line(model, tmp_path)


def test_cli_names_a_non_integer_spec_dimension(tmp_path):
    model = tmp_path / "bad.bkt"
    rewrite_header(V1_PAIR, model, BAD_HEADERS["hidden-dim-float"])
    with pytest.raises(ModelFormatError, match="hidden_dim must be a positive integer"):
        load_model(model)
    _sample_and_export_fail_with_one_line(model, tmp_path)


V1_SIZE = V1_PAIR.stat().st_size


# Seeded by a number, not a digest of this source, so an edit keeps the draws.
@seed(0)
@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(st.tuples(st.just("flip"), st.integers(0, 8 * V1_SIZE - 1)),
                 st.tuples(st.just("truncate"), st.integers(0, V1_SIZE - 1))))
def test_cli_on_a_corrupted_model_file_exits_3_with_one_line(corruption):
    kind, at = corruption
    raw = bytearray(V1_PAIR.read_bytes())
    if kind == "flip":
        raw[at // 8] ^= 1 << (at % 8)
    else:
        del raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "bad.bkt"
        model.write_bytes(bytes(raw))
        _sample_and_export_fail_with_one_line(model, Path(tmp))


def test_trailing_bytes_after_the_checksum_are_named(tmp_path):
    path = tmp_path / "long.bkt"
    path.write_bytes(V1_PAIR.read_bytes() + b"\0\0\0")
    with pytest.raises(ModelFormatError,
                       match=rf"^{re.escape(str(path))}: 3 trailing bytes after checksum$"):
        load_model(path)


def test_unknown_model_kind_is_named(tmp_path):
    path = tmp_path / "kind.bkt"
    rewrite_header(V1_PAIR, path, lambda h: h.update(kind="mystery"))
    with pytest.raises(ModelFormatError,
                       match=rf"^{re.escape(str(path))}: unknown model kind 'mystery'$"):
        load_model(path)


def test_corrupt_header_asking_for_huge_networks_fails_the_checksum(tmp_path, capsys):
    # The specs ask for about 7 TiB of parameters, and the checksum does not
    # match: the file must be refused before any network is built.
    model = tmp_path / "huge.bkt"
    rewrite_header(V1_PAIR, model, lambda h: h["drift_spec"].update(hidden_dim=10**6))
    raw = model.read_bytes()
    model.write_bytes(raw[:-32] + bytes(32))
    with pytest.raises(ChecksumError, match="checksum mismatch"):
        load_model(model)
    starts = tmp_path / "starts.csv"
    starts.write_text("x_0,x_1\n0.0,0.0\n")
    capsys.readouterr()
    code = main(["sample", "--model", str(model), "--data", str(starts),
                 "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"data error: {model}: checksum mismatch, file is corrupt\n"


def test_specs_that_disagree_with_the_layer_table_are_refused_before_building(tmp_path, capsys):
    # A valid checksum over specs that ask for far wider networks than the
    # header's table and payload hold: refused by comparing the tables, with
    # no network built. Building the 1,000-wide drift net first would trace
    # about 92 MiB; the 10^6-wide one cannot be allocated at all.
    model = tmp_path / "wide.bkt"
    message = f"{model}: layer table does not match the network specs"
    rewrite_header(V1_PAIR, model, lambda h: h["drift_spec"].update(hidden_dim=1000))
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            load_model(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    rewrite_header(V1_PAIR, model, lambda h: h["drift_spec"].update(hidden_dim=10**6))
    starts = tmp_path / "starts.csv"
    starts.write_text("x_0,x_1\n0.0,0.0\n")
    capsys.readouterr()
    code = main(["sample", "--model", str(model), "--data", str(starts),
                 "--out", str(tmp_path / "t.csv")])
    assert (code, capsys.readouterr().err) == (3, f"data error: {message}\n")


def test_load_model_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("load_model called np.random.default_rng")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    model = load_model(V1_PAIR)
    assert (model.drift.theta.size, model.doob.theta.size) == (150, 158)


_REMOVED = object()
_JSON_VALUES = st.one_of(
    st.integers(-1, 1000), st.floats(), st.booleans(), st.text(max_size=8), st.none(),
    st.lists(st.one_of(st.integers(-1, 1000), st.text(max_size=4)), max_size=3),
)


# Ints stop at 1,000: should networks ever be built before the table check
# again, a drawn width costs about 100 MB, not the machine's memory.
@seed(0)
@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(["drift_spec", "doob_spec"]),
       st.sampled_from(sorted(MlpSpec.__dataclass_fields__)),
       st.one_of(st.just(_REMOVED), _JSON_VALUES))
def test_cli_on_a_spec_edited_under_a_valid_checksum_exits_0_or_3(which, key, value):
    def edit(header):
        if value is _REMOVED:
            header[which].pop(key)
        else:
            header[which][key] = value

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = tmp / "edited.bkt"
        rewrite_header(V1_PAIR, model, edit)
        starts = tmp / "starts.csv"
        starts.write_text("x_0,x_1\n0.0,0.0\n")
        for argv in (["sample", "--model", model, "--data", starts, "--steps", 1,
                      "--out", tmp / "t.csv"],
                     ["export-drift", "--model", model, "--out", tmp / "prior.bkt"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in argv])
            assert code in (0, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 3:
                assert len(err.getvalue().strip().splitlines()) == 1
