"""Binary checkpoint container with bit-exact round-trips.

Layout (all integers little-endian):

    magic     4 bytes  b"RBRC"
    version   u32      currently 3
    hdr_len   u32      length of the UTF-8 JSON header
    header    bytes    {"model_spec", "parameters" ([[name, shape], ...] in
                        Model.named_parameters() order), "target_order"
                        (always TARGETS), "vocab_tokens" (id order, ids start
                        at 2) or null}
    payload   float64 little-endian, every parameter's values in C order,
              back to back in the header's order
    crc32     u32      zlib CRC32 of every preceding byte

Parameter names are "enc.*" for the encoder and "head.<name>.*" for the
pooling heads (per-target names in six_metric_attention mode, "shared"
otherwise).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .data import TARGETS, Vocabulary
from .encoder import ModelSpec
from .model import Model

MAGIC = b"RBRC"
FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


def _parameter_list(model: Model) -> list:
    """[[name, shape], ...] of ``model``'s parameters, as the header holds them."""
    return [[name, list(p.data.shape)] for name, p in model.named_parameters().items()]


def save_checkpoint(path: str, model: Model) -> None:
    header = {
        "model_spec": asdict(model.spec),
        "parameters": _parameter_list(model),
        "target_order": list(TARGETS),
        "vocab_tokens": list(model.vocab.tokens) if model.vocab is not None else None,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes]
                    + [np.asarray(p.data, dtype="<f8").tobytes()
                       for p in model.named_parameters().values()])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path: str) -> Model:
    """Rebuild a model; malformed contents raise CheckpointError naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _read_model(data)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _model_from_header(raw: bytes) -> Model:
    """A freshly built model matching the header's spec and vocabulary,
    whose parameters the header lists, in order."""
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
        model = Model.build(spec, seed=0, vocab=vocab)
    except (TypeError, ValueError, MemoryError) as exc:
        raise CheckpointError(f"invalid model_spec or vocabulary in header: {exc}") from None
    # in order: a reordered list would load same-shaped tensors into each other
    listed, built = header.get("parameters"), _parameter_list(model)
    if listed != built:
        listed = listed if isinstance(listed, list) else []
        i = next(i for i in range(len(built) + 1)
                 if i in (len(listed), len(built)) or listed[i] != built[i])
        raise CheckpointError(
            f"header parameters list {listed[i] if i < len(listed) else 'nothing'} at entry "
            f"{i}, where its model_spec builds {built[i] if i < len(built) else 'nothing'}"
        )
    return model


def _read_model(data: bytes) -> Model:
    if data[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if len(data) < 16:
        raise CheckpointError(f"truncated checkpoint of {len(data)} bytes")
    version, hdr_len = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    if zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise CheckpointError("CRC32 mismatch: the file is truncated or corrupted")
    model = _model_from_header(data[12:12 + hdr_len])
    params = model.named_parameters()
    # an hdr_len past the payload leaves it empty, which no model's parameters fit
    payload = data[12 + hdr_len:-4]
    sizes = [p.data.size for p in params.values()]
    if len(payload) != 8 * sum(sizes):
        raise CheckpointError(f"payload holds {len(payload)} bytes, "
                              f"where the parameters take {8 * sum(sizes)}")
    values = np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(sizes)[:-1])
    for (name, p), flat in zip(params.items(), values):
        if not np.isfinite(flat).all():
            raise CheckpointError(f"parameter {name!r} holds a non-finite value")
        p.data = np.ascontiguousarray(flat.reshape(p.data.shape), dtype=np.float64)
    return model
