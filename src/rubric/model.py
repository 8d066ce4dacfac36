"""Encoder plus head bank plus vocabulary: the trainable unit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EssayRecord, Vocabulary
from .encoder import EncoderState, ModelSpec, encode, init_parameters
from .heads import HeadBank, clamp_to_score_lattice, init_head_bank, predict_scores
from .pool import Pool, workers_for
from .tensor import Tensor, no_grad


@dataclass
class Model:
    spec: ModelSpec
    encoder: EncoderState
    bank: HeadBank
    vocab: Vocabulary | None = None

    @classmethod
    def build(cls, spec: ModelSpec, seed: int, vocab: Vocabulary | None = None) -> "Model":
        """Initialize all parameters from one seed."""
        if vocab is not None and vocab.size != spec.vocab_size:
            raise ValueError(
                f"vocab size {vocab.size} does not match spec.vocab_size {spec.vocab_size}"
            )
        rng = np.random.default_rng(seed)
        try:
            return cls(spec=spec, encoder=init_parameters(spec, rng),
                       bank=init_head_bank(spec, rng), vocab=vocab)
        except MemoryError as exc:  # numpy's, naming only an array shape
            raise MemoryError(f"model spec {spec} does not fit in memory: {exc}") from None

    def named_parameters(self) -> dict[str, Tensor]:
        params = self.encoder.named_parameters()
        params.update(self.bank.named_parameters())
        return params

    def forward(
        self,
        token_ids,
        attention_mask=None,
        train: bool = False,
        rng: np.random.Generator | None = None,
        capture: dict | None = None,
    ) -> Tensor:
        """Raw six-target predictions for one sequence, shape (6,)."""
        if attention_mask is None:
            attention_mask = np.ones(len(token_ids), dtype=bool)
        hidden = encode(self.encoder, token_ids, attention_mask, train=train, rng=rng,
                        capture=capture)
        return predict_scores(self.bank, hidden, attention_mask)

    def encode_record(self, record: EssayRecord) -> list[int]:
        if self.vocab is None:
            raise ValueError("model has no vocabulary; attach one before using records")
        ids = self.vocab.encode_text(record.full_text, max_len=self.spec.max_seq_len)
        if not ids:
            ids = [Vocabulary.UNK_ID]
        return ids

    def predict_ids(self, token_ids) -> np.ndarray:
        """Raw (unclipped) eval-mode predictions for one token-id sequence."""
        with no_grad():
            return self.forward(token_ids).data.copy()

    def predict_record(self, record: EssayRecord) -> np.ndarray:
        """Raw (unclipped) predictions for one record."""
        return self.predict_ids(self.encode_record(record))

    def predict_records(
        self,
        records,
        clip: bool = True,
        round_to_lattice: bool = False,
        pool: Pool | None = None,
    ) -> np.ndarray:
        """Predictions for many records, on ``pool`` if given, else on a
        pool of their own, with workers when there are enough records (see
        ``rubric.pool.workers_for``), closed before this returns."""
        id_lists = [self.encode_record(r) for r in records]
        if pool is None:
            with Pool(workers_for(len(id_lists))) as own:
                preds = own.predict(self, id_lists)
        else:
            preds = pool.predict(self, id_lists)
        if clip or round_to_lattice:
            preds = clamp_to_score_lattice(preds, round_to_lattice=round_to_lattice)
        return preds

    def parameter_snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters().items()}

    def load_snapshot(self, snapshot: dict[str, np.ndarray]) -> None:
        """Give each parameter a private copy of its snapshot values, and no
        gradient: one left by training would hold its pool block mapped."""
        params = self.named_parameters()
        for name, values in snapshot.items():
            params[name].data, params[name].grad = values.copy(), None
