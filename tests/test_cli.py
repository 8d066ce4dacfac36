import dataclasses
import json
import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from rubric.checkpoint import save_checkpoint
from rubric.cli import main
from rubric.config import (
    KEYS,
    ConfigError,
    RunConfig,
    load_run_config,
    parse_config_file,
    render_config,
    resolve_config,
)
from rubric.crossval import FoldPlan, stratified_kfold
from rubric.data import (
    build_vocab,
    load_csv,
    load_predictions,
    on_lattice,
    synth_corpus,
    write_csv,
    write_predictions,
)
from rubric.encoder import ModelSpec
from rubric.model import Model
from rubric.training import TrainConfig

from _fuzz import csv_bytes
from _oracles import reference_synth_corpus


# 2**40 positions: numpy refuses the 512 TiB table at once, touching no memory
HUGE = 2 ** 40

FAST = [
    "--set", "model.d_model=16", "--set", "model.n_layers=1",
    "--set", "model.n_heads=2", "--set", "model.d_ff=32",
    "--set", "model.dropout_p=0.0",
    "--set", "train.epochs=2", "--set", "train.batch_size=4",
    "--set", "train.learning_rate=1e-3",
]

# a valid value other than the default for every key
NON_DEFAULT = {
    "model.max_seq_len": "128", "model.d_model": "48", "model.n_layers": "3",
    "model.n_heads": "8", "model.d_ff": "96", "model.dropout_p": "0.25",
    "model.pooling_mode": "mean",
    "train.epochs": "4", "train.batch_size": "3", "train.learning_rate": "0.001",
    "train.weight_decay": "0.01", "train.adv_lr": "0.5", "train.adv_eps": "0.02",
    "train.awp_start_epoch": "3", "train.adv_steps": "2",
    "train.seed": "9", "train.loss_kind": "mse", "train.grad_clip_norm": "1.5",
    "data.train_csv": "a.csv", "data.valid_csv": "b.csv", "data.input_csv": "c.csv",
    "data.valid_fraction": "0.3", "data.min_count": "2", "cv.k": "3",
    "ablate.seeds": "7,8", "ablate.full_grid": "false", "predict.checkpoint": "m.bin",
    "predict.round": "true", "synth.n": "20", "synth.seed": "4", "out.dir": "runs/x",
}


@pytest.fixture()
def corpus_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    write_csv(synth_corpus(14, seed=17), str(path))
    return str(path)


@pytest.fixture()
def repeated_id_csv(tmp_path):
    # 15 rows: the last repeats the first essay's text_id
    records = synth_corpus(14, seed=17)
    path = tmp_path / "repeated.csv"
    write_csv(records + records[:1], str(path))
    return str(path), records[0].text_id


def run(args):
    return main([str(a) for a in args])


class TestConfig:
    def test_file_parsing_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "model.d_model = 16\n"
            "train.adv_lr = 0.5\n"
            "cv.k = 3\n"
        )
        cfg = load_run_config(str(cfg_file), ["train.adv_lr=0.25"])
        assert cfg.model["d_model"] == 16
        assert cfg.train.adv_lr == 0.25  # override wins
        assert cfg.cv_k == 3

    def test_unknown_key_rejected(self):
        from rubric.config import ConfigError

        with pytest.raises(ConfigError, match="unknown"):
            resolve_config({"model.width": "3"})

    def test_n_targets_is_an_unknown_key(self, corpus_csv, tmp_path, capsys):
        code = run(["train", "--data", corpus_csv, "--out", tmp_path / "o",
                    "--set", "model.n_targets=6"])
        assert code == 1
        assert "unknown configuration key 'model.n_targets'" in capsys.readouterr().err

    def test_bad_value_rejected(self):
        from rubric.config import ConfigError

        with pytest.raises(ConfigError, match="d_model"):
            resolve_config({"model.d_model": "wide"})

    def test_render_round_trips_through_parser(self, tmp_path):
        cfg = resolve_config({"train.epochs": "3", "model.d_model": "16"})
        text = render_config(cfg)
        path = tmp_path / "echo.cfg"
        path.write_text(text)
        again = resolve_config(parse_config_file(str(path)))
        assert render_config(again) == text

    def test_invalid_train_field_value(self):
        from rubric.config import ConfigError

        with pytest.raises(ConfigError):
            resolve_config({"train.loss_kind": "hinge"})

    @pytest.mark.parametrize("key, raw", [
        ("train.learning_rate", "nan"),
        ("train.adv_eps", "inf"),
        ("train.grad_clip_norm", "-inf"),
        ("model.dropout_p", "nan"),
        ("data.valid_fraction", "1.5"),
        ("data.valid_fraction", "0"),
        ("cv.k", "1"),
        ("ablate.seeds", ","),
        ("ablate.seeds", "0,-1"),
    ])
    def test_out_of_range_value_names_the_key(self, key, raw):
        with pytest.raises(ConfigError, match=re.escape(key)):
            resolve_config({key: raw})

    def test_out_of_range_values_exit_one(self, corpus_csv, tmp_path, capsys):
        code = run(["train", "--data", corpus_csv, "--out", tmp_path / "t",
                    "--set", "train.learning_rate=nan"])
        assert code == 1
        assert "train.learning_rate" in capsys.readouterr().err
        # 14 records cannot fill 15 folds
        assert run(["cv", "--data", corpus_csv, "--out", tmp_path / "c", "--folds", 15]) == 1
        assert "cv.k" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, value", [
        (["ablate", "--seeds", "0,0", "--folds", "2", "--set", "ablate.full_grid=false"],
         "ablate.seeds", "(0, 0)"),
        (["train", "--set", "data.min_count=-3"], "data.min_count", "-3"),
        (["ablate", "--folds", "2", "--set", "train.awp_start_epoch=3"],
         "train.awp_start_epoch", "3"),
        (["ablate", "--folds", "2", "--set", "train.adv_lr=0"], "train.adv_lr", "0.0"),
        (["ablate", "--folds", "2", "--set", "train.adv_eps=0"], "train.adv_eps", "0.0"),
    ])
    def test_values_the_run_would_misuse_exit_one(self, argv, key, value, corpus_csv,
                                                   tmp_path, capsys):
        # ablate would count seed 0 twice, or report AWP cells that never
        # perturbed as AWP runs; build_vocab would read -3 as 1
        code = run(argv + ["--data", corpus_csv, "--out", tmp_path / "o"] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and value in err

    def test_one_key_per_field(self):
        fields = [("model", f.name) for f in dataclasses.fields(ModelSpec)
                  if f.name != "vocab_size"]
        fields += [("train", f.name) for f in dataclasses.fields(TrainConfig)]
        fields += [("run", f.name) for f in dataclasses.fields(RunConfig)
                   if f.name not in ("model", "train")]
        assert sorted((section, attr) for section, attr, _ in KEYS.values()) == sorted(fields)

    def test_every_key_set_renders_to_a_fixed_point(self, tmp_path):
        assert set(NON_DEFAULT) == set(KEYS)
        text = render_config(resolve_config(NON_DEFAULT))
        defaults = set(render_config(RunConfig()).splitlines())
        changed = {line.split(" = ")[0] for line in set(text.splitlines()) - defaults}
        assert changed == set(NON_DEFAULT)
        path = tmp_path / "echo.cfg"
        path.write_text(text)
        assert render_config(resolve_config(parse_config_file(str(path)))) == text


class TestTrainCommand:
    def test_missing_data_file_exits_one_with_path(self, tmp_path, capsys):
        code = run(["train", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o"])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_artifacts_written(self, corpus_csv, tmp_path):
        out = tmp_path / "run1"
        code = run(["train", "--data", corpus_csv, "--out", out, "--seed", 5] + FAST)
        assert code == 0
        for name in ("checkpoint.bin", "report.csv", "metrics.json", "config.txt"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0 <= metrics["valid_mcrmse"] < 5
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "epoch", "train_loss", "valid_mcrmse", "rmse_cohesion", "rmse_syntax",
            "rmse_vocabulary", "rmse_phraseology", "rmse_grammar", "rmse_conventions",
            "awp_active", "seconds",
        ]
        assert len(lines) == 1 + 2  # header + train.epochs rows
        config_echo = (out / "config.txt").read_text()
        assert "train.seed = 5" in config_echo
        assert "model.d_model = 16" in config_echo

    def test_rerun_is_byte_identical_except_timing(self, corpus_csv, tmp_path):
        out = tmp_path / "same"
        args = ["train", "--data", corpus_csv, "--out", out, "--seed", 3] + FAST
        assert run(args) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("checkpoint.bin", "metrics.json", "config.txt", "report.csv")
        }
        assert run(args) == 0  # rerun with identical config into the same place
        for name in ("checkpoint.bin", "metrics.json", "config.txt"):
            assert (out / name).read_bytes() == first[name], name
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip((out / "report.csv").read_text()) == strip(
            first["report.csv"].decode()
        )

    def test_repeated_text_id_exits_one(self, repeated_id_csv, tmp_path, capsys):
        path, text_id = repeated_id_csv
        assert run(["train", "--data", path, "--out", tmp_path / "o"] + FAST) == 1
        err = capsys.readouterr().err
        assert repr(text_id) in err and "row 16" in err and "row 2" in err
        assert not (tmp_path / "o" / "checkpoint.bin").exists()

    def test_validation_sharing_training_ids_exits_one(self, tmp_path, capsys):
        records = synth_corpus(14, seed=17)
        train_csv, valid_csv = tmp_path / "train.csv", tmp_path / "valid.csv"
        write_csv(records[:10], str(train_csv))
        write_csv(records[5:], str(valid_csv))
        code = run(["train", "--data", train_csv, "--valid", valid_csv,
                    "--out", tmp_path / "o"] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert "5 text_ids" in err
        for r in records[5:10]:
            assert repr(r.text_id) in err

    def test_a_model_too_big_for_memory_exits_one_naming_the_spec(self, corpus_csv, tmp_path,
                                                                  capsys):
        code = run(["train", "--data", corpus_csv, "--out", tmp_path / "o",
                    "--set", f"model.max_seq_len={HUGE}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "model spec ModelSpec(" in err and f"max_seq_len={HUGE}" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_divergence_exits_two(self, corpus_csv, tmp_path, capsys):
        code = run(
            ["train", "--data", corpus_csv, "--out", tmp_path / "boom"]
            + FAST[:-4]
            + ["--set", "train.epochs=1", "--set", "train.learning_rate=1e300"]
        )
        assert code == 2
        assert "numeric" in capsys.readouterr().err.lower()


class TestPredictScoreCommands:
    @pytest.fixture()
    def trained(self, corpus_csv, tmp_path):
        out = tmp_path / "trained"
        assert run(["train", "--data", corpus_csv, "--out", out, "--seed", 1] + FAST) == 0
        return out

    def test_predict_shapes_and_round_flag(self, trained, corpus_csv, tmp_path):
        records = load_csv(corpus_csv)
        unlabeled = tmp_path / "unlabeled.csv"
        from rubric.data import EssayRecord

        write_csv([EssayRecord(r.text_id, r.full_text) for r in records], str(unlabeled))

        out = tmp_path / "pred"
        code = run(["predict", "--checkpoint", trained / "checkpoint.bin",
                    "--input", unlabeled, "--out", out])
        assert code == 0
        ids, preds = load_predictions(str(out / "predictions.csv"))
        assert len(ids) == len(records) and preds.shape == (len(records), 6)
        assert (preds >= 1.0).all() and (preds <= 5.0).all()

        out2 = tmp_path / "pred_round"
        code = run(["predict", "--checkpoint", trained / "checkpoint.bin",
                    "--input", unlabeled, "--out", out2, "--round"])
        assert code == 0
        _, rounded = load_predictions(str(out2 / "predictions.csv"))
        assert all(on_lattice(v) for v in rounded.ravel())

    def test_predict_on_train_matches_reported_train_metric(
        self, trained, corpus_csv, tmp_path, capsys
    ):
        # pipeline consistency: scoring the training CSV with its own
        # checkpoint reproduces the train MCRMSE recorded by the train command
        out = tmp_path / "pred_train"
        assert run(["predict", "--checkpoint", trained / "checkpoint.bin",
                    "--input", corpus_csv, "--out", out]) == 0
        capsys.readouterr()
        assert run(["score", corpus_csv, out / "predictions.csv"]) == 0
        printed = capsys.readouterr().out
        scored = float(printed.splitlines()[0].split("=")[1])

        metrics = json.loads((trained / "metrics.json").read_text())
        # the train metric covers the train split only; rescore those rows
        records = load_csv(corpus_csv)
        ids, preds = load_predictions(str(out / "predictions.csv"))
        from rubric.metrics import mcrmse
        from rubric.training import train_valid_split

        train_recs, _ = train_valid_split(records, 0.2, seed=1)
        keep = {r.text_id for r in train_recs}
        rows = [i for i, tid in enumerate(ids) if tid in keep]
        by_id = {r.text_id: r for r in records}
        truth = np.array([by_id[ids[i]].scores for i in rows])
        got = mcrmse(truth, preds[rows]).mcrmse
        assert abs(got - metrics["train_mcrmse"]) <= 1e-9
        assert np.isfinite(scored)

    @staticmethod
    def _checkpoint_with_header(path, corpus_csv, edit):
        """A checkpoint of a model of ``corpus_csv``'s vocabulary whose header
        ``edit`` changed in place, under a valid CRC32."""
        vocab = build_vocab(load_csv(corpus_csv))
        save_checkpoint(str(path), Model.build(ModelSpec(vocab_size=vocab.size), seed=0,
                                               vocab=vocab))
        data = path.read_bytes()
        (size,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12: 12 + size])
        edit(header)
        raw = json.dumps(header).encode()
        body = data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + size: -4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def test_a_checkpoint_too_big_for_memory_exits_one_naming_the_spec(self, corpus_csv,
                                                                       tmp_path, capsys):
        path = tmp_path / "huge.bin"
        self._checkpoint_with_header(
            path, corpus_csv, lambda header: header["model_spec"].update(max_seq_len=HUGE))
        code = run(["predict", "--checkpoint", path, "--input", corpus_csv,
                    "--out", tmp_path / "pred"])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and "model spec ModelSpec(" in err
        assert f"max_seq_len={HUGE}" in err

    @pytest.mark.parametrize("tokens", [[7, 8, 9], "abc", {"a": 2}, ["a", None]])
    def test_vocabulary_tokens_other_than_strings_exit_one(self, tokens, corpus_csv,
                                                           tmp_path, capsys):
        # integer tokens loaded, and every essay then encoded to unknown ids
        path = tmp_path / "tokens.bin"
        self._checkpoint_with_header(
            path, corpus_csv, lambda header: header.update(vocab_tokens=tokens))
        code = run(["predict", "--checkpoint", path, "--input", corpus_csv,
                    "--out", tmp_path / "pred"])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and "vocab_tokens" in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    def test_score_mismatched_ids_rejected(self, corpus_csv, tmp_path, capsys):
        from rubric.data import write_predictions

        pred_path = tmp_path / "bad_preds.csv"
        write_predictions(str(pred_path), ["ghost"], np.full((1, 6), 3.0))
        assert run(["score", corpus_csv, pred_path]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_score_repeated_id_rejected(self, corpus_csv, tmp_path, capsys):
        from rubric.data import write_predictions

        # right row count, every id known, but the last record is never scored
        ids = [r.text_id for r in load_csv(corpus_csv)]
        ids[-1] = ids[0]
        pred_path = tmp_path / "repeated.csv"
        write_predictions(str(pred_path), ids, np.full((len(ids), 6), 3.0))
        assert run(["score", corpus_csv, pred_path]) == 1
        assert repr(ids[0]) in capsys.readouterr().err

    def test_score_rejects_errors_whose_squares_overflow(self, tmp_path, capsys):
        truth_csv = tmp_path / "truth.csv"
        assert run(["synth", "--n", 20, "--synth-seed", 3, truth_csv]) == 0
        ids = [r.text_id for r in load_csv(str(truth_csv))]
        pred_path = tmp_path / "huge.csv"
        write_predictions(str(pred_path), ids, np.full((len(ids), 6), 1e308))
        code = run(["score", truth_csv, pred_path, "--out", tmp_path / "scored"])
        assert code == 1
        err = capsys.readouterr().err
        assert str(pred_path) in err and "cohesion" in err
        assert not (tmp_path / "scored" / "metrics.json").exists()


class TestCvCommand:
    def test_cv_artifacts(self, corpus_csv, tmp_path):
        out = tmp_path / "cv"
        code = run(["cv", "--data", corpus_csv, "--out", out, "--folds", 2,
                    "--seed", 2] + FAST)
        assert code == 0
        for name in ("fold_plan.json", "oof.csv", "cv_metrics.json", "config.txt",
                     "report_fold0.csv", "report_fold1.csv"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "cv_metrics.json").read_text())
        assert len(metrics["folds"]) == 2
        ids, _ = load_predictions(str(out / "oof.csv"))
        records = load_csv(corpus_csv)
        assert sorted(ids) == sorted(r.text_id for r in records)
        # the plan's JSON reloads into the plan itself, every field intact
        with open(out / "fold_plan.json", encoding="utf-8") as fh:
            assert FoldPlan(**json.load(fh)) == stratified_kfold(records, k=2, seed=2)


    def test_repeated_text_id_exits_one(self, repeated_id_csv, tmp_path, capsys):
        path, text_id = repeated_id_csv
        code = run(["cv", "--data", path, "--out", tmp_path / "cv", "--folds", 2] + FAST)
        assert code == 1
        assert repr(text_id) in capsys.readouterr().err


class TestAblateCommand:
    def test_minimal_grid(self, corpus_csv, tmp_path):
        out = tmp_path / "ablate"
        code = run(
            ["ablate", "--data", corpus_csv, "--out", out, "--folds", 2,
             "--seeds", "0,1", "--set", "train.epochs=1",
             "--set", "ablate.full_grid=false"] + FAST[:-4]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ordering"]["cells_present"] is True
        assert "matched" in summary["ordering"]
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 2  # header + three cells x two seeds
        assert rows[0] == "variant,pooling,awp,seed,cv_pooled,cv_fold_mean"
        assert rows[1].startswith("6ap+awp,six_metric_attention,1,0,")
        summary_rows = (out / "ablation_summary.csv").read_text().splitlines()
        assert summary_rows[0] == "variant,mean_cv,std_cv,n_seeds"
        assert [r.split(",")[0] for r in summary_rows[1:]] == ["6ap+awp", "ap+awp", "6ap"]
        assert all(r.endswith(",2") for r in summary_rows[1:])

    def test_one_seed_is_counted_as_an_integer(self, corpus_csv, tmp_path):
        out = tmp_path / "ablate"
        assert run(["ablate", "--data", corpus_csv, "--out", out, "--folds", 2, "--seeds", "0",
                    "--set", "train.epochs=1", "--set", "ablate.full_grid=false"] + FAST[:-4]) == 0
        counts = [stats["n_seeds"] for stats in
                  json.loads((out / "summary.json").read_text())["summary"].values()]
        assert counts and all(type(n) is int and n == 1 for n in counts), counts


class TestSynthCommand:
    def test_synth_writes_loadable_corpus(self, tmp_path):
        out_csv = tmp_path / "synth.csv"
        code = run(["synth", "--n", 9, "--synth-seed", 4, "--out", tmp_path / "meta",
                    out_csv])
        assert code == 0
        records = load_csv(str(out_csv))
        assert len(records) == 9
        assert all(r.labeled for r in records)

    def test_synth_csv_matches_reference_generator_bytes(self, tmp_path):
        out_csv = tmp_path / "out.csv"
        assert run(["synth", "--n", 60, "--synth-seed", 3, out_csv]) == 0
        write_csv(reference_synth_corpus(60, 3), str(tmp_path / "reference.csv"))
        assert out_csv.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_usage_error_exits_one(self, capsys):
        assert run(["train", "--bogus-flag"]) == 1


class TestBadInputFiles:
    """Each bad file ends in exit 1 with a message naming it, never a traceback."""

    @pytest.fixture()
    def files(self, corpus_csv, tmp_path):
        ids = [r.text_id for r in load_csv(corpus_csv)]
        pred = tmp_path / "pred.csv"
        write_predictions(str(pred), ids, np.full((len(ids), 6), 3.0))
        lines = pred.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace("3.0", "nan", 1)
        (tmp_path / "nan.csv").write_text("".join(lines))
        raw = Path(corpus_csv).read_bytes()
        (tmp_path / "latin1.csv").write_bytes(raw.replace(b"\n", b"\n\xe9", 1))
        (tmp_path / "latin1_pred.csv").write_bytes(pred.read_bytes() + b"x\xe9,1,1,1,1,1,1\n")
        (tmp_path / "latin1.cfg").write_bytes(b"model.d_model = 16\n# caf\xe9\n")
        (tmp_path / "huge.csv").write_text("text_id,full_text\na,b\nc," + "x" * 140_000 + "\n")
        (tmp_path / "adir.csv").mkdir()
        return tmp_path

    CASES = {
        "nan-prediction": ("score {corpus} {d}/nan.csv", "nan.csv: row 4: cohesion"),
        "utf8-data": ("train --data {d}/latin1.csv", "latin1.csv: line 2"),
        "utf8-prediction": ("score {corpus} {d}/latin1_pred.csv", "latin1_pred.csv: line"),
        "utf8-config": ("synth --config {d}/latin1.cfg {d}/s.csv", "latin1.cfg: line 2"),
        "oversized-field": ("train --data {d}/huge.csv", "huge.csv: row 3"),
        "directory": ("train --data {d}/adir.csv", "adir.csv"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_one_naming_the_file(self, files, corpus_csv, case, capsys):
        argv, expected = self.CASES[case]
        argv = argv.format(d=files, corpus=corpus_csv).split()
        assert run(argv + ["--out", files / "out"]) == 1
        assert expected in capsys.readouterr().err

    def test_one_record_training_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        write_csv(synth_corpus(1, seed=17), str(path))
        assert run(["train", "--data", path, "--out", tmp_path / "o"] + FAST) == 1
        assert "one.csv: one record" in capsys.readouterr().err

    def test_checkpoint_without_vocabulary_exits_one(self, corpus_csv, tmp_path, capsys):
        path = tmp_path / "novocab.bin"
        spec = ModelSpec(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=16)
        save_checkpoint(str(path), Model.build(spec, seed=0))
        code = run(["predict", "--checkpoint", path, "--input", corpus_csv,
                    "--out", tmp_path / "pred"])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and "vocabulary" in err
        assert "Traceback" not in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    @pytest.fixture(scope="class")
    def fuzz_env(self, tmp_path_factory):
        """A truth CSV, predictions covering it, and an untrained checkpoint."""
        root = tmp_path_factory.mktemp("fuzz")
        records = synth_corpus(4, seed=3)
        write_csv(records, str(root / "truth.csv"))
        write_predictions(str(root / "pred.csv"), [r.text_id for r in records],
                          np.full((4, 6), 3.0))
        vocab = build_vocab(records)
        spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16)
        save_checkpoint(str(root / "model.bin"), Model.build(spec, seed=0, vocab=vocab))
        return root

    @given(raw=csv_bytes)
    @settings(max_examples=100)
    def test_arbitrary_csv_bytes_exit_zero_or_one(self, fuzz_env, raw):
        fuzz = fuzz_env / "fuzz.csv"
        fuzz.write_bytes(raw)
        out = fuzz_env / "out"
        for argv in (
            ["train", "--data", fuzz] + FAST[:-6] + ["--set", "train.epochs=1"],
            ["predict", "--checkpoint", fuzz_env / "model.bin", "--input", fuzz],
            ["score", fuzz, fuzz_env / "pred.csv"],
            ["score", fuzz_env / "truth.csv", fuzz],
        ):
            assert run(argv + ["--out", out]) in (0, 1), argv
