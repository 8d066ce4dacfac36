import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubric.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from rubric.data import TARGETS
from rubric.data import Vocabulary
from rubric.encoder import POOLING_MODES, ModelSpec, encode, init_parameters
from rubric.heads import predict_scores
from rubric.model import Model
from rubric.tensor import Tensor

from _oracles import reference_encode


def tiny_spec(**kw):
    base = dict(vocab_size=23, max_seq_len=16, d_model=8, n_layers=2, n_heads=2,
                d_ff=16, dropout_p=0.0)
    base.update(kw)
    return ModelSpec(**base)


class TestModelSpec:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_spec(d_model=10, n_heads=4)

    def test_pooling_mode_validated(self):
        with pytest.raises(ValueError, match="pooling_mode"):
            tiny_spec(pooling_mode="cls")

    def test_positive_dims_enforced(self):
        with pytest.raises(ValueError):
            tiny_spec(n_layers=0)

    def test_n_targets_fixed(self):
        # six targets, always: the spec has no field to change that
        with pytest.raises(TypeError, match="n_targets"):
            tiny_spec(n_targets=4)

    def test_dropout_probability_range(self):
        with pytest.raises(ValueError):
            tiny_spec(dropout_p=1.0)


class TestInit:
    def test_same_seed_same_bytes(self):
        a = init_parameters(tiny_spec(), seed=5)
        b = init_parameters(tiny_spec(), seed=5)
        for name, p in a.named_parameters().items():
            assert p.data.tobytes() == b.named_parameters()[name].data.tobytes(), name

    def test_different_seed_differs(self):
        a = init_parameters(tiny_spec(), seed=5)
        b = init_parameters(tiny_spec(), seed=6)
        assert a.tok_emb.data.tobytes() != b.tok_emb.data.tobytes()

    def test_embedding_std_near_002(self):
        # vocab * d_model >= 1e4 draws
        state = init_parameters(tiny_spec(vocab_size=200, d_model=64, n_heads=4), seed=0)
        std = state.tok_emb.data.std()
        assert abs(std - 0.02) < 0.002

    def test_layer_norm_gains_are_ones(self):
        state = init_parameters(tiny_spec(), seed=0)
        np.testing.assert_array_equal(state.lnf_g.data, np.ones(8))
        for layer in state.layers:
            np.testing.assert_array_equal(layer.ln1_g.data, np.ones(8))
            np.testing.assert_array_equal(layer.ln2_b.data, np.zeros(8))


class TestEncode:
    def test_determinism(self):
        state = init_parameters(tiny_spec(), seed=1)
        ids = [3, 4, 5, 6]
        a = encode(state, ids, [True] * 4)
        b = encode(state, ids, [True] * 4)
        assert a.data.tobytes() == b.data.tobytes()

    def test_padded_ids_cannot_leak_into_position_zero(self):
        state = init_parameters(tiny_spec(), seed=1)
        mask = [True, False, False, False]
        a = encode(state, [3, 7, 8, 9], mask)
        b = encode(state, [3, 1, 2, 22], mask)
        assert a.data[0].tobytes() == b.data[0].tobytes()

    def test_permuting_padded_tail_leaves_real_outputs_unchanged(self):
        state = init_parameters(tiny_spec(), seed=1)
        mask = [True, True, True, False, False]
        a = encode(state, [3, 4, 5, 9, 10], mask)
        b = encode(state, [3, 4, 5, 10, 9], mask)
        assert a.data[:3].tobytes() == b.data[:3].tobytes()

    def test_attention_rows_sum_to_one_and_masked_keys_get_zero(self):
        state = init_parameters(tiny_spec(), seed=2)
        mask = [True, True, True, False]
        capture = {}
        encode(state, [3, 4, 5, 6], mask, capture=capture)
        assert len(capture["attention"]) == state.spec.n_layers
        for probs in capture["attention"]:  # (n_heads, T, T)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
            assert (probs[:, :, 3] == 0.0).all()
            assert (probs >= 0.0).all()

    def test_captured_attention_survives_backward(self):
        spec = tiny_spec(n_heads=4)
        model = Model.build(spec, seed=2)
        mask = np.array([True, False, True, True, False, True])
        capture = {}
        pred = model.forward([3, 4, 5, 6, 7, 8], mask, capture=capture)
        before = [probs.tobytes() for probs in capture["attention"]]
        (pred * pred).sum().backward()
        assert [probs.tobytes() for probs in capture["attention"]] == before
        for probs in capture["attention"]:
            assert probs.shape == (4, 6, 6)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
            assert (probs[:, :, ~mask] == 0.0).all()
            assert (probs[:, :, mask] > 0.0).all()

    def test_gradient_reaches_every_parameter(self):
        spec = tiny_spec()
        model = Model.build(spec, seed=3)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, spec.vocab_size, size=6)
        pred = model.forward(ids)
        (pred * pred).sum().backward()
        for name, p in model.named_parameters().items():
            assert p.grad is not None, f"no grad buffer for {name}"
            assert np.any(p.grad != 0.0), f"all-zero grad for {name}"

    def test_position_sensitivity_for_swapped_real_tokens(self):
        state = init_parameters(tiny_spec(), seed=4)
        a = encode(state, [3, 4, 5], [True] * 3)
        b = encode(state, [4, 3, 5], [True] * 3)
        assert not np.array_equal(a.data, b.data)

    def test_input_validation(self):
        state = init_parameters(tiny_spec(), seed=0)
        with pytest.raises(ValueError, match="vocabulary"):
            encode(state, [99], [True])
        with pytest.raises(ValueError, match="max_seq_len"):
            encode(state, list(range(17)), [True] * 17)
        with pytest.raises(ValueError, match="equal-length"):
            encode(state, [1, 2], [True])
        with pytest.raises(ValueError, match="at least one"):
            encode(state, [1, 2], [False, False])

    def test_full_encoder_gradcheck_on_micro_model(self):
        model = Model.build(tiny_spec(n_layers=1), seed=9)
        ids = [2, 5, 7, 11]
        targets = np.array([3.0, 2.5, 4.0, 1.5, 3.5, 2.0])
        for pname in ("enc.layer0.wq", "enc.tok_emb", "head.cohesion.score_w"):
            _check_param_gradient(model, pname, ids, targets)


class TestMatchesReference:
    """The sublayer ops against the frozen per-op composition of each block:
    same outputs and attention bit for bit, gradients within 1e-12."""

    LENGTHS = (1, 2, 5, 31, 128, 256)

    def _run(self, model, encoder, ids, mask, train, key):
        params = model.named_parameters()
        for p in params.values():
            p.grad = None
        rng = np.random.Generator(np.random.Philox(key)) if train else None
        capture = {}
        hidden = encoder(model.encoder, ids, mask, train=train, rng=rng, capture=capture)
        pred = predict_scores(model.bank, hidden, mask)
        (pred * Tensor(np.arange(1.0, 7.0))).sum().backward()
        return pred.data, hidden.data, capture["attention"], params

    @pytest.mark.parametrize("mode", POOLING_MODES)
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_outputs_attention_and_gradients(self, mode, n_heads):
        spec = ModelSpec(vocab_size=40, n_heads=n_heads, dropout_p=0.1, pooling_mode=mode)
        for length in self.LENGTHS:
            rng = np.random.default_rng(length * 10 + n_heads)
            model = Model.build(spec, seed=int(rng.integers(1 << 30)))
            ids = rng.integers(0, spec.vocab_size, size=length)
            mask = rng.random(length) < 0.8
            mask[rng.integers(length)] = True
            for train in (False, True):
                key = int(rng.integers(1 << 30))
                pred, hidden, attn, params = self._run(model, encode, ids, mask, train, key)
                grads = {name: p.grad for name, p in params.items()}
                want = self._run(model, reference_encode, ids, mask, train, key)
                case = f"T={length}, train={train}"
                assert pred.tobytes() == want[0].tobytes(), case
                assert hidden.tobytes() == want[1].tobytes(), case
                assert [a.tobytes() for a in attn] == [a.tobytes() for a in want[2]], case
                for name, p in want[3].items():
                    scale = float(np.max(np.abs(p.grad)))
                    assert np.max(np.abs(grads[name] - p.grad)) <= 1e-12 * scale, (case, name)


def _check_param_gradient(model: Model, name: str, ids, targets, n_coords: int = 4):
    """Finite-difference check of d(loss)/d(param[name]) on sampled coords."""
    params = model.named_parameters()
    param = params[name]

    def loss_value():
        pred = model.forward(ids)
        diff = pred - Tensor(targets)
        return (diff * diff).mean().item()

    for p in params.values():
        p.grad = None
    pred = model.forward(ids)
    diff = pred - Tensor(targets)
    (diff * diff).mean().backward()
    autodiff = param.grad.copy()

    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    flat_idx = rng.choice(param.data.size, size=min(n_coords, param.data.size),
                          replace=False)
    step = 1e-5
    base = param.data.copy()
    for idx in flat_idx:
        bumped = base.copy()
        bumped.reshape(-1)[idx] += step
        param.data = bumped
        f_plus = loss_value()
        bumped = base.copy()
        bumped.reshape(-1)[idx] -= step
        param.data = bumped
        f_minus = loss_value()
        param.data = base
        fd = (f_plus - f_minus) / (2 * step)
        ad = autodiff.reshape(-1)[idx]
        assert abs(ad - fd) <= 1e-4 * max(abs(ad), abs(fd)) + 1e-7, (
            f"{name}[{idx}]: autodiff {ad} vs fd {fd}"
        )


class TestCheckpoint:
    def _model(self):
        vocab = Vocabulary([f"tok{i}" for i in range(21)])
        return Model.build(tiny_spec(vocab_size=vocab.size), seed=8, vocab=vocab)

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model()
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        assert loaded.vocab.tokens == model.vocab.tokens
        for name, p in model.named_parameters().items():
            assert p.data.tobytes() == loaded.named_parameters()[name].data.tobytes(), name

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = self._model()
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_checkpoint(p1, model)
        save_checkpoint(p2, load_checkpoint(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    @staticmethod
    def _split(data):
        """(header dict, parameter records) of a saved checkpoint's bytes."""
        (hdr_len,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12 : 12 + hdr_len])
        body = data[12 + hdr_len + 4 : -4]
        records, pos = [], 0
        while pos < len(body):
            start = pos
            (path_len,) = struct.unpack("<H", body[pos : pos + 2])
            pos += 2 + path_len
            ndim = body[pos]
            dims = struct.unpack(f"<{ndim}I", body[pos + 1 : pos + 1 + 4 * ndim])
            pos += 1 + 4 * ndim + 8 * int(np.prod(dims))
            records.append(body[start:pos])
        return header, records

    @staticmethod
    def _join(header_bytes, records, tail=b""):
        """Checkpoint bytes around ``records``, with ``tail`` before a valid CRC32."""
        body = (b"RBRC" + struct.pack("<II", FORMAT_VERSION, len(header_bytes))
                + header_bytes + struct.pack("<I", len(records)) + b"".join(records) + tail)
        return body + struct.pack("<I", zlib.crc32(body))

    def _corrupted(self, tmp_path, case):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), self._model())
        data = path.read_bytes()
        header, records = self._split(data)
        assert self._join(json.dumps(header, sort_keys=True).encode(), records) == data
        if case == "trailing":
            data = self._join(json.dumps(header, sort_keys=True).encode(), records,
                              tail=b"\x00")
        elif case == "duplicate":
            data = self._join(json.dumps(header, sort_keys=True).encode(),
                              records + records[:1])
        elif case == "not-json":
            data = self._join(b"{not json", records)
        elif case == "target-order":
            header["target_order"].reverse()
            data = self._join(json.dumps(header).encode(), records)
        else:
            edit = {
                "unknown-key": {"width": 3},
                "bad-value": {"d_model": -8},
                "vocab-size": {"vocab_size": 99},
            }[case]
            header["model_spec"].update(edit)
            data = self._join(json.dumps(header).encode(), records)
        path.write_bytes(data)
        return path

    MALFORMED = {
        "not-json": "not UTF-8 JSON",
        "unknown-key": "width",
        "bad-value": "d_model must be positive",
        "vocab-size": "vocab size",
        "trailing": "trailing bytes",
        "duplicate": "duplicate parameter 'enc.tok_emb'",
        "target-order": "target_order",
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_content_rejected_naming_the_file(self, tmp_path, case):
        path = self._corrupted(tmp_path, case)
        with pytest.raises(CheckpointError, match=self.MALFORMED[case]) as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_version_one_file_rejected_naming_the_version(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), self._model())
        header, records = self._split(path.read_bytes())
        header["format_version"] = 1  # version 1 kept a copy in its header...
        header_bytes = json.dumps(header).encode()
        path.write_bytes(  # ...and had no CRC32 trailer
            b"RBRC" + struct.pack("<II", 1, len(header_bytes)) + header_bytes
            + struct.pack("<I", len(records)) + b"".join(records)
        )
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            load_checkpoint(str(path))

    def test_one_header_byte_changed_rejected(self, tmp_path):
        # "n_heads": 2 -> 1 is still a valid spec; only the CRC32 catches it
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), self._model())
        data = path.read_bytes()
        assert data.count(b'"n_heads": 2') == 1
        path.write_bytes(data.replace(b'"n_heads": 2', b'"n_heads": 1'))
        with pytest.raises(CheckpointError, match="CRC32"):
            load_checkpoint(str(path))

    @given(data=st.data())
    @settings(max_examples=300)
    def test_any_truncation_or_byte_change_rejected(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
        save_checkpoint(str(path), self._model())
        valid = path.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            fuzzed = valid[: data.draw(st.integers(0, len(valid) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(valid) - 1), label="position")
            flip = data.draw(st.integers(1, 255), label="xor")
            fuzzed = valid[:pos] + bytes([valid[pos] ^ flip]) + valid[pos + 1:]
        path.write_bytes(fuzzed)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_head_paths_present_per_target(self, tmp_path):
        model = self._model()
        names = set(model.named_parameters())
        for target in ("cohesion", "syntax", "vocabulary", "phraseology",
                       "grammar", "conventions"):
            assert f"head.{target}.score_w" in names
            assert f"head.{target}.out_w" in names


ENCODER_NAMES = (
    ["enc.tok_emb", "enc.pos_emb", "enc.lnf_g", "enc.lnf_b"]
    + [f"enc.layer{i}.{name}" for i in range(2) for name in (
        "wq", "wk", "wv", "wo", "bq", "bv", "bo",
        "ln1_g", "ln1_b", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")]
)


@pytest.mark.parametrize("mode, head_names", [
    ("six_metric_attention",
     [f"head.{t}.{n}" for t in TARGETS for n in ("score_w", "out_w", "out_b")]),
    ("single_attention", ["head.shared.score_w", "head.shared.out_w", "head.shared.out_b"]),
    ("mean", ["head.shared.out_w", "head.shared.out_b"]),
])
def test_model_parameter_names_per_pooling_mode(mode, head_names):
    names = list(Model.build(tiny_spec(pooling_mode=mode), seed=0).named_parameters())
    assert len(names) == len(set(names))
    assert set(names) == set(ENCODER_NAMES + head_names)
    assert len(names) == {"six_metric_attention": 52, "single_attention": 37, "mean": 36}[mode]
