"""The benchmark's tracer still finds every name it patches in the program,
the CLI still takes the command lines the benchmark passes and records
each in a config.txt that reads back to it, and README's checkpoint layout
names the format version the program writes."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

from rubric import checkpoint, cli, pool, training
from rubric.config import load_run_config, render_config
from rubric.data import build_vocab, synth_corpus, write_csv
from rubric.encoder import ModelSpec
from rubric.model import Model
from rubric.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, read without writing a bytecode
    cache next to it, and listed in ``sys.modules`` for the test only (its
    dataclasses look their module up there)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_command_lines_parse_and_resolve(monkeypatch, tmp_path):
    workloads = load_perfbench(monkeypatch, "workloads")
    cases = [
        (workloads.Train(5, "w").argv("corpus.csv", "run"),
         {"data.train_csv": "corpus.csv", "out.dir": "run", "train.seed": 5,
          "train.epochs": workloads.Train.EPOCHS}),
        # the shapes predict-mixed passes: its checkpoint's training, predict, score
        (["train", "--data", "ckpt.csv", "--out", "ckpt", "--seed", 5,
          "--set", "train.epochs=1"],
         {"data.train_csv": "ckpt.csv", "out.dir": "ckpt", "train.seed": 5, "train.epochs": 1}),
        (["predict", "--checkpoint", "ckpt/checkpoint.bin", "--input", "essays.csv",
          "--out", "run"],
         {"predict.checkpoint": "ckpt/checkpoint.bin", "data.input_csv": "essays.csv",
          "out.dir": "run"}),
        (["score", "essays.csv", "run/predictions.csv", "--out", "run/score"],
         {"out.dir": "run/score"}),
    ]
    for argv, expected in cases:
        cfg = cli._resolve(cli.build_parser().parse_args([str(a) for a in argv]))
        text = render_config(cfg)
        expected = {f"{key} = {value}" for key, value in expected.items()}
        assert expected <= set(text.splitlines()), argv
        # what the run records in its config.txt reads back to the same record
        (tmp_path / "config.txt").write_text(text, encoding="utf-8")
        assert render_config(load_run_config(str(tmp_path / "config.txt"), [])) == text, argv


def test_every_traced_name_exists_and_is_patched(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    targets = spans.layer_targets()  # a deleted module attribute fails here
    recorder = spans.Recorder(targets)  # and a deleted function or method here
    # one wrapper per target, each installed at one site or more
    assert len({wrapper for *_, wrapper in recorder._patches}) == len(targets)


def test_a_traced_prediction_records_its_spans_and_restores_the_program(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    records = synth_corpus(3, seed=4)
    vocab = build_vocab(records)
    spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16)
    model = Model.build(spec, seed=0, vocab=vocab)
    original = Model.predict_records
    expected = model.predict_records(records)
    recorder = spans.Recorder(spans.layer_targets())
    with recorder.tracing():
        traced = model.predict_records(records)
    assert Model.predict_records is original
    assert np.array_equal(traced, expected)
    names = {span[0] for span in recorder.spans}
    assert {"model.predict_records", "model.forward", "encoder.encode"} <= names


def test_a_traced_fit_records_one_validation_prediction_per_epoch(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    records = synth_corpus(9, seed=4)
    vocab = build_vocab(records[:6])
    spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16)
    model = Model.build(spec, seed=0, vocab=vocab)
    recorder = spans.Recorder(spans.layer_targets())
    with recorder.tracing():
        training.fit(model, records[:6], records[6:], TrainConfig(epochs=3, batch_size=4))
    names = [span[0] for span in recorder.spans]
    fit_span = names.index("training.fit")

    def under_fit(index):
        while index >= 0 and index != fit_span:
            index = recorder.spans[index][1]
        return index == fit_span

    predictions = [i for i, name in enumerate(names) if name == "model.predict_records"]
    assert len(predictions) == 3 and all(map(under_fit, predictions))


def test_a_traced_train_command_records_one_fit_and_one_training_set_score(
        monkeypatch, tmp_path):
    spans = load_perfbench(monkeypatch, "spans")
    monkeypatch.setattr(pool, "_forced_workers", 0)  # in-process
    write_csv(synth_corpus(9, seed=4), str(tmp_path / "corpus.csv"))
    recorder = spans.Recorder(spans.layer_targets())
    with recorder.tracing():
        code = cli.main(["train", "--data", str(tmp_path / "corpus.csv"),
                         "--out", str(tmp_path / "out"),
                         "--set", "model.d_model=8", "--set", "model.n_layers=1",
                         "--set", "model.n_heads=2", "--set", "model.d_ff=16",
                         "--set", "train.epochs=2", "--set", "train.batch_size=4"])
    assert code == 0
    names = [span[0] for span in recorder.spans]
    assert names.count("training.fit") == 1
    assert names.count("training.evaluate") == 1


def test_the_readme_checkpoint_layout_gives_the_format_version():
    readme = (ROOT / "README.md").read_text("utf-8")
    layout = re.search(r"## Checkpoint format\n.*?```\n(.*?)```", readme, re.S).group(1)
    assert re.findall(r"^version +u32 +(\d+)$", layout, re.M) == [str(checkpoint.FORMAT_VERSION)]
