"""Binary model files.

Layout (all integers little-endian):

    8 bytes   magic ``BKITMODL``
    u32       format version (currently 1)
    u32       header length in bytes
    ...       header: UTF-8 JSON with the network specs, schedule, training
              config snapshot, and the ordered layer table (name + shape)
    ...       payload: float64 little-endian parameter values, in layer-table
              order (drift network first, then the correction network); each
              network's part is its flat parameter vector, written as is
    32 bytes  SHA-256 over everything above

Round trips are bit-exact. Loading sizes the payload by the header's layer
table and verifies the checksum, then compares that table with the one the
specs give (``nets.layer_table``); only then does it build the networks, each
from its slice of the payload, drawing no random numbers. A header that
cannot be used, like any corruption the checksum catches, raises a
``ModelFormatError`` naming the file, and nothing is returned.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChecksumError, ModelFormatError, VersionError
from .nets import DoobNet, DriftNet, MlpSpec, layer_table
from .sde import DiffusivitySchedule

MAGIC = b"BKITMODL"
FORMAT_VERSION = 1

KIND_PAIR = "pair"
KIND_DRIFT_ONLY = "drift_only"


@dataclass
class LoadedModel:
    kind: str
    drift: DriftNet
    doob: Optional[DoobNet]
    schedule: DiffusivitySchedule
    config: Optional[dict]


def _layer_table(specs) -> list[list]:
    """Name and shape of every parameter array of the networks built from
    ``specs``, (drift,) or (drift, doob)."""
    return [[f"{prefix}/{name}", list(shape)]
            for prefix, spec in zip(("drift", "doob"), specs)
            for name, shape in layer_table(spec)]


def save_model(
    path,
    drift: DriftNet,
    doob: Optional[DoobNet],
    schedule: DiffusivitySchedule,
    config: Optional[dict] = None,
) -> None:
    nets = (drift,) if doob is None else (drift, doob)
    header = {
        "kind": KIND_PAIR if doob is not None else KIND_DRIFT_ONLY,
        "drift_spec": drift.spec.to_dict(),
        "doob_spec": doob.spec.to_dict() if doob is not None else None,
        "schedule": schedule.to_dict(),
        "config": config,
        "layer_table": _layer_table([net.spec for net in nets]),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(net.theta.astype("<f8", copy=False).tobytes() for net in nets)
    body = MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes + payload
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body + digest)


def _take(path, buf: bytes, pos: int, n: int, what: str) -> tuple[bytes, int]:
    if pos + n > len(buf):
        raise ModelFormatError(f"{path}: truncated model file while reading {what}")
    return buf[pos : pos + n], pos + n


def load_model(path) -> LoadedModel:
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0
    magic, pos = _take(path, buf, pos, len(MAGIC), "magic")
    if magic != MAGIC:
        raise ModelFormatError(f"{path}: not a bridgekit model file")
    raw, pos = _take(path, buf, pos, 8, "version header")
    version, header_len = struct.unpack("<II", raw)
    if version != FORMAT_VERSION:
        raise VersionError(
            f"{path}: unsupported model format version {version} (supported: {FORMAT_VERSION})"
        )
    header_bytes, pos = _take(path, buf, pos, header_len, "header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable model header ({exc})") from None
    # Checked before any network is built: a corrupt header can ask for huge ones.
    try:
        n_bytes = 8 * sum(math.prod(shape) for _, shape in header["layer_table"])
        payload, pos = _take(path, buf, pos, n_bytes, "parameter payload")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: unusable model header ({exc!r})") from None
    digest, pos = _take(path, buf, pos, 32, "checksum")
    if pos != len(buf):
        raise ModelFormatError(f"{path}: {len(buf) - pos} trailing bytes after checksum")
    if hashlib.sha256(buf[:-32]).digest() != digest:
        raise ChecksumError(f"{path}: checksum mismatch, file is corrupt")

    try:
        kind = header["kind"]
        if kind not in (KIND_PAIR, KIND_DRIFT_ONLY):
            raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
        specs = [MlpSpec.from_dict(header["drift_spec"])]
        if kind == KIND_PAIR:
            specs.append(MlpSpec.from_dict(header["doob_spec"]))
        schedule = DiffusivitySchedule.from_dict(header["schedule"])
        config = header.get("config")
        # Compared before building: a spec that disagrees can ask for any size.
        if header["layer_table"] != _layer_table(specs):
            raise ModelFormatError(f"{path}: layer table does not match the network specs")
        values = np.frombuffer(payload, dtype="<f8")
        n_drift = sum(math.prod(shape) for _, shape in layer_table(specs[0]))
        drift = DriftNet(specs[0], theta=values[:n_drift])
        doob = DoobNet(specs[1], theta=values[n_drift:]) if kind == KIND_PAIR else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: unusable model header ({exc!r})") from None
    return LoadedModel(
        kind=kind,
        drift=drift,
        doob=doob,
        schedule=schedule,
        config=config,
    )
