"""Binary checkpoint container with bit-exact round-trips.

Layout (all integers little-endian):

    magic     4 bytes  b"RBRC"
    version   u32      currently 2
    hdr_len   u32      length of the UTF-8 JSON header
    header    bytes    {"model_spec", "target_order" (always TARGETS),
                        "vocab_tokens" (id order, ids start at 2) or null}
    n_params  u32
    then per parameter:
      path_len u16, path utf-8,
      ndim     u8,  dims u32 * ndim,
      payload  float64 little-endian, C order
    crc32     u32      zlib CRC32 of every preceding byte

Parameter paths are "enc.*" for the encoder and "head.<name>.*" for the
pooling heads (per-target names in six_metric_attention mode, "shared"
otherwise).
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .data import TARGETS, Vocabulary
from .encoder import ModelSpec
from .model import Model

MAGIC = b"RBRC"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


def save_checkpoint(path: str, model: Model) -> None:
    header = {
        "model_spec": asdict(model.spec),
        "target_order": list(TARGETS),
        "vocab_tokens": list(model.vocab.tokens) if model.vocab is not None else None,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    params = model.named_parameters()
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes,
             struct.pack("<I", len(params))]
    for name, tensor in params.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes(order="C")]
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path: str) -> Model:
    """Rebuild a model; malformed contents raise CheckpointError naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _read_model(data)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _model_from_header(raw: bytes) -> Model:
    """A freshly built model matching the header's spec and vocabulary."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"header is not UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict) or not isinstance(header.get("model_spec"), dict):
        raise CheckpointError("header has no model_spec object")
    if header.get("target_order") != list(TARGETS):
        raise CheckpointError(
            f"header target_order {header.get('target_order')!r} is not {list(TARGETS)}"
        )
    tokens = header.get("vocab_tokens")
    if tokens is not None and not (isinstance(tokens, list)
                                   and all(isinstance(t, str) for t in tokens)):
        raise CheckpointError("header vocab_tokens must be null or a list of strings")
    try:
        spec = ModelSpec(**header["model_spec"])
        vocab = Vocabulary(tokens) if tokens is not None else None
        return Model.build(spec, seed=0, vocab=vocab)
    except (TypeError, ValueError, MemoryError) as exc:
        raise CheckpointError(f"invalid model_spec or vocabulary in header: {exc}") from None


def _read_model(data: bytes) -> Model:
    fh = io.BytesIO(data)
    if _read_exact(fh, 4, "magic") != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    if len(data) < 12 or zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise CheckpointError("CRC32 mismatch: the file is truncated or corrupted")
    fh = io.BytesIO(data[8:-4])
    (hdr_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
    model = _model_from_header(_read_exact(fh, hdr_len, "header"))
    params = model.named_parameters()

    (n_params,) = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))
    seen = set()
    for _ in range(n_params):
        (path_len,) = struct.unpack("<H", _read_exact(fh, 2, "path length"))
        name = _read_exact(fh, path_len, "path").decode("utf-8", errors="replace")
        (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
        shape = tuple(
            struct.unpack("<I", _read_exact(fh, 4, "dim"))[0] for _ in range(ndim)
        )
        if name not in params:
            raise CheckpointError(f"unknown parameter {name!r}")
        if name in seen:
            raise CheckpointError(f"duplicate parameter {name!r}")
        if params[name].data.shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {shape}, "
                f"model expects {params[name].data.shape}"
            )
        # shape is checked first, so corrupt dims never size this read
        payload = _read_exact(fh, params[name].data.size * 8, f"payload of {name}")
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
        params[name].data = np.ascontiguousarray(arr, dtype=np.float64)
        seen.add(name)
    missing = set(params) - seen
    if missing:
        raise CheckpointError(f"missing parameters {sorted(missing)[:3]}")
    if fh.read(1):
        raise CheckpointError("trailing bytes after the last parameter")
    return model
