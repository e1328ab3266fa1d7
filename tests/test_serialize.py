import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

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
        ps = net.params()
        ps.set_flat(np.random.default_rng(s).normal(size=ps.n_params))
    return drift, doob


def param_hash(net):
    return hashlib.sha256(net.params().tobytes()).hexdigest()


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
    doob_bytes = 8 * doob.params().n_params
    assert out.stat().st_size <= full.stat().st_size - doob_bytes
    assert exported.drift.params().n_params == drift.params().n_params
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


BAD_HEADERS = {
    "schedule-missing": lambda h: h.pop("schedule"),
    "layer-table-not-a-list": lambda h: h.update(layer_table=5),
    "first-weight-transposed": _transpose_first_weight,
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
