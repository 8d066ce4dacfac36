"""Reconcile the benchmark with the ROADMAP's baseline figures, once.

    python3 perfbench/roadmap.py [--seed 7]

Run from the repository root. It measures the ROADMAP north-star figures
without op-level tracing: ms per training sequence with AWP off and on
(the median clean and AWP ``train_step`` times divided by the batch size,
with ``train_step`` the only wrapped function), and ms per predicted essay
on default-length essays (``Model.predict_record`` timed essay by essay).
The workload is ROADMAP item 1's: ``synth_corpus(300, seed=7)``, the default
model and schedule, an 80/20 split, two epochs (the first clean, the
second AWP).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run
import spans

ROADMAP = {  # the north-star baseline in ROADMAP.md, on a 2-core machine
    "clean_ms_per_seq": 11.6,
    "awp_ms_per_seq": 23.0,
    "predict_ms_per_essay": 4.2,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    run.import_program()
    from rubric import data, training
    from rubric.encoder import ModelSpec
    from rubric.model import Model

    records = data.synth_corpus(300, args.seed)
    train, valid = training.train_valid_split(records, 0.2, args.seed)
    vocab = data.build_vocab(train)
    model = Model.build(ModelSpec(vocab_size=vocab.size), seed=args.seed, vocab=vocab)
    config = training.TrainConfig(epochs=2, seed=args.seed)
    recorder = spans.Recorder([t for t in spans.layer_targets()
                               if t[0] == "training.train_step"])
    with recorder.tracing():
        training.fit(model, train, valid, config)
    steps = {"clean": [], "awp": []}
    for name, _, start, end, kind in recorder.spans:
        if name == "training.train_step":
            steps[kind].append(end - start)

    per_essay = []
    for r in valid:
        t0 = time.perf_counter()
        model.predict_record(r)
        per_essay.append(time.perf_counter() - t0)

    measured = {
        "clean_ms_per_seq": 1e3 * statistics.median(steps["clean"]) / config.batch_size,
        "awp_ms_per_seq": 1e3 * statistics.median(steps["awp"]) / config.batch_size,
        "predict_ms_per_essay": 1e3 * statistics.median(per_essay),
        "predict_ms_per_essay_mean": 1e3 * statistics.mean(per_essay),
    }
    print("machine " + str(run.machine_record()))
    print(f"{len(steps['clean'])} clean and {len(steps['awp'])} AWP steps of "
          f"{config.batch_size}; {len(per_essay)} essays predicted one at a time")
    print(f"{'figure':26s} {'measured':>10s} {'ROADMAP':>10s} {'ratio':>7s}")
    for name, value in measured.items():
        reference = ROADMAP[name.removesuffix("_mean")]
        print(f"{name:26s} {value:10.2f} {reference:10.2f} {value / reference:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
