"""Small pre-layer-norm transformer encoder trained from scratch.

Learned absolute positional embeddings, multi-head self-attention with
key-side padding masks, GELU feed-forward blocks, and a final layer norm.
Sequences are processed one at a time (no batch axis); training batches
are handled by accumulating per-sequence losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    attention_sublayer,
    dropout,
    embedding,
    feed_forward_sublayer,
    layer_norm,
)

POOLING_MODES = ("six_metric_attention", "single_attention", "mean")

MASK_NEG = -1e9  # pre-softmax score for padded keys; underflows to weight 0.0


@dataclass(frozen=True)
class ModelSpec:
    """Encoder and head hyperparameters."""

    vocab_size: int
    max_seq_len: int = 256
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    dropout_p: float = 0.1
    pooling_mode: str = "six_metric_attention"

    def __post_init__(self):
        for name in ("vocab_size", "max_seq_len", "d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelSpec.{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.pooling_mode not in POOLING_MODES:
            raise ValueError(
                f"unknown pooling_mode {self.pooling_mode!r}, expected one of {POOLING_MODES}"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class LayerState:
    """Weights of one encoder block."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bv: Tensor
    bo: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class EncoderState:
    """All encoder parameters plus the spec they were built for."""

    spec: ModelSpec
    tok_emb: Tensor
    pos_emb: Tensor
    layers: list[LayerState]
    lnf_g: Tensor
    lnf_b: Tensor

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {
            "enc.tok_emb": self.tok_emb,
            "enc.pos_emb": self.pos_emb,
        }
        for i, layer in enumerate(self.layers):
            prefix = f"enc.layer{i}"
            for name in (
                "wq", "wk", "wv", "wo", "bq", "bv", "bo",
                "ln1_g", "ln1_b", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2",
            ):
                params[f"{prefix}.{name}"] = getattr(layer, name)
        params["enc.lnf_g"] = self.lnf_g
        params["enc.lnf_b"] = self.lnf_b
        return params


INIT_STD = 0.02


def init_parameters(spec: ModelSpec, seed) -> EncoderState:
    """Build a fresh EncoderState; same seed, same bytes.

    Weight matrices and both embedding tables are N(0, 0.02); biases start
    at zero and layer-norm gains at one. ``seed`` may be an int or an
    already-seeded numpy Generator.
    """
    rng = np.random.default_rng(seed)

    def matrix(*shape):
        return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    d, f = spec.d_model, spec.d_ff
    layers = []
    tok_emb = matrix(spec.vocab_size, d)
    pos_emb = matrix(spec.max_seq_len, d)
    for _ in range(spec.n_layers):
        layers.append(
            LayerState(
                wq=matrix(d, d), wk=matrix(d, d), wv=matrix(d, d), wo=matrix(d, d),
                bq=zeros(d), bv=zeros(d), bo=zeros(d),
                ln1_g=ones(d), ln1_b=zeros(d), ln2_g=ones(d), ln2_b=zeros(d),
                w1=matrix(d, f), b1=zeros(f), w2=matrix(f, d), b2=zeros(d),
            )
        )
    return EncoderState(
        spec=spec,
        tok_emb=tok_emb,
        pos_emb=pos_emb,
        layers=layers,
        lnf_g=ones(d),
        lnf_b=zeros(d),
    )


def encode(
    state: EncoderState,
    token_ids,
    attention_mask,
    train: bool = False,
    rng: np.random.Generator | None = None,
    capture: dict | None = None,
) -> Tensor:
    """Run the encoder over one sequence, returning (seq_len, d_model).

    ``attention_mask`` marks real tokens with True; padded positions get
    exactly zero attention weight from every query. Truncation is the
    caller's job; overlength input is an error here. Pass ``capture`` to
    collect per-layer attention probabilities under key "attention".
    """
    spec = state.spec
    ids = np.asarray(token_ids, dtype=np.int64)
    mask = np.asarray(attention_mask, dtype=bool)
    if ids.ndim != 1 or mask.ndim != 1 or len(ids) != len(mask):
        raise ValueError(
            f"token_ids and attention_mask must be equal-length 1-d sequences, "
            f"got {ids.shape} and {mask.shape}"
        )
    seq_len = len(ids)
    if seq_len == 0:
        raise ValueError("encode needs at least one token")
    if seq_len > spec.max_seq_len:
        raise ValueError(
            f"sequence length {seq_len} exceeds max_seq_len {spec.max_seq_len}; "
            f"truncate before calling encode"
        )
    if ids.min() < 0 or ids.max() >= spec.vocab_size:
        raise ValueError(
            f"token id out of vocabulary [0, {spec.vocab_size}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    if not mask.any():
        raise ValueError("attention_mask must keep at least one position")

    p = spec.dropout_p if train else 0.0
    if p > 0.0 and rng is None:
        raise ValueError("training-mode encode with dropout needs an rng")

    key_bias = np.where(mask, 0.0, MASK_NEG)
    if capture is not None:
        capture.setdefault("attention", [])

    x = embedding(state.tok_emb, ids) + embedding(state.pos_emb, np.arange(seq_len))
    x = dropout(x, p, rng)
    for layer in state.layers:
        # no key bias: q . bk is the same for every key, so the softmax ignores it
        x, probs = attention_sublayer(x, layer.ln1_g, layer.ln1_b, layer.wq, layer.bq, layer.wk,
                                      layer.wv, layer.bv, layer.wo, layer.bo, key_bias,
                                      spec.n_heads, p, rng)
        if capture is not None:
            capture["attention"].append(probs)
        x = feed_forward_sublayer(x, layer.ln2_g, layer.ln2_b, layer.w1, layer.b1, layer.w2,
                                  layer.b2, p, rng)
    return layer_norm(x, state.lnf_g, state.lnf_b)

