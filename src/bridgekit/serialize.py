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

Round trips are bit-exact. Loading rebuilds the networks from the specs and
requires the header's layer table to equal the one the specs imply; a header
that cannot be used, like any corruption the checksum catches, raises a
``ModelFormatError`` naming the file, and nothing is returned.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChecksumError, ModelFormatError, VersionError
from .nets import DoobNet, DriftNet, MlpSpec
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


def _layer_table(nets) -> list[list]:
    """Name and shape of every parameter array of ``nets``, (drift,) or
    (drift, doob)."""
    return [[f"{prefix}/{name}", list(shape)]
            for prefix, net in zip(("drift", "doob"), nets)
            for name, shape in net.params().shape_table]


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
        "layer_table": _layer_table(nets),
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

    try:
        kind = header["kind"]
        drift = DriftNet(MlpSpec.from_dict(header["drift_spec"]), rng=np.random.default_rng(0))
        doob = None
        if kind == KIND_PAIR:
            doob = DoobNet(MlpSpec.from_dict(header["doob_spec"]), rng=np.random.default_rng(0))
        elif kind != KIND_DRIFT_ONLY:
            raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
        schedule = DiffusivitySchedule.from_dict(header["schedule"])
        config = header.get("config")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: unusable model header ({exc!r})") from None
    nets = (drift,) if doob is None else (drift, doob)
    if header.get("layer_table") != _layer_table(nets):
        raise ModelFormatError(f"{path}: layer table does not match the network specs")

    n_bytes = sum(8 * net.theta.size for net in nets)
    payload, pos = _take(path, buf, pos, n_bytes, "parameter payload")
    digest, pos = _take(path, buf, pos, 32, "checksum")
    if pos != len(buf):
        raise ModelFormatError(f"{path}: {len(buf) - pos} trailing bytes after checksum")
    if hashlib.sha256(buf[:-32]).digest() != digest:
        raise ChecksumError(f"{path}: checksum mismatch, file is corrupt")

    values = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for net in nets:
        net.theta[...] = values[offset : offset + net.theta.size]
        offset += net.theta.size
    return LoadedModel(
        kind=kind,
        drift=drift,
        doob=doob,
        schedule=schedule,
        config=config,
    )
