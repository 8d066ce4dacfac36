"""Command-line surface: train, cv, ablate, predict, score, synth.

Every command reads an optional config file plus ``--set key=value``
overrides, echoes the fully resolved configuration into its output
directory, and is deterministic given (config, seed). Exit codes: 0 on
success, 1 for usage/config/data problems, 2 for numeric failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, RunConfig, load_run_config, render_config
from .crossval import ORDERING_CELLS, default_variants, run_ablation, run_cv
from .data import (
    DataError,
    TARGETS,
    load_csv,
    load_predictions,
    synth_corpus,
    write_csv,
    write_predictions,
    build_vocab,
)
from .metrics import mcrmse
from .model import Model
from .tensor import NumericError
from .training import evaluate_model, fit, train_valid_split

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    parser.add_argument("--out", help="output directory (overrides out.dir)")
    parser.add_argument("--seed", type=int, help="override train.seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rubric", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rubric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model on a train/valid split")
    _add_common(p)
    p.add_argument("--data", help="labeled training CSV (overrides data.train_csv)")
    p.add_argument("--valid", help="labeled validation CSV (overrides data.valid_csv)")

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    _add_common(p)
    p.add_argument("--data", help="labeled training CSV")
    p.add_argument("--folds", type=int, help="number of folds (overrides cv.k)")

    p = sub.add_parser("ablate", help="pooling-mode x AWP comparison grid")
    _add_common(p)
    p.add_argument("--data", help="labeled training CSV")
    p.add_argument("--folds", type=int, help="number of folds (overrides cv.k)")
    p.add_argument("--seeds", help="comma-separated replication seeds")

    p = sub.add_parser("predict", help="score unlabeled essays with a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint file (overrides predict.checkpoint)")
    p.add_argument("--input", help="input CSV (overrides data.input_csv)")
    p.add_argument(
        "--round",
        action="store_true",
        default=None,
        help="snap predictions to the half-point lattice",
    )

    p = sub.add_parser("score", help="MCRMSE between a labeled CSV and predictions")
    _add_common(p)
    p.add_argument("truth", help="labeled CSV with true scores")
    p.add_argument("pred", help="prediction CSV")

    p = sub.add_parser("synth", help="materialize a synthetic corpus CSV")
    _add_common(p)
    p.add_argument("--n", type=int, help="number of essays (overrides synth.n)")
    p.add_argument("--synth-seed", type=int, help="generator seed (overrides synth.seed)")
    p.add_argument("output", help="destination CSV path")

    return parser


def _resolve(args) -> RunConfig:
    overrides = list(args.overrides)
    flag_map = {
        "data": "data.train_csv",
        "valid": "data.valid_csv",
        "folds": "cv.k",
        "seeds": "ablate.seeds",
        "checkpoint": "predict.checkpoint",
        "input": "data.input_csv",
        "round": "predict.round",
        "out": "out.dir",
        "seed": "train.seed",
        "n": "synth.n",
        "synth_seed": "synth.seed",
    }
    for attr, key in flag_map.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides.append(f"{key}={value}")
    return load_run_config(args.config, overrides)


def _prepare_out_dir(cfg: RunConfig, command: str) -> str:
    out_dir = cfg.resolved_out_dir(command)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))
    return out_dir


def _load_labeled(path: str | None, what: str):
    if not path:
        raise ConfigError(f"{what} CSV is required (set data.train_csv or pass --data)")
    records = load_csv(path)
    if not records:
        raise DataError(f"{path}: no records")
    unlabeled = [r.text_id for r in records if not r.labeled]
    if unlabeled:
        raise DataError(f"{path}: records without scores, e.g. {unlabeled[:3]}")
    return records


def _check_folds(cfg: RunConfig, records) -> None:
    if cfg.cv_k > len(records):
        raise ConfigError(
            f"cv.k={cfg.cv_k} exceeds the number of training records ({len(records)})"
        )


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# commands


def cmd_train(cfg: RunConfig) -> int:
    out_dir = _prepare_out_dir(cfg, "train")
    records = _load_labeled(cfg.train_csv, "training")
    if cfg.valid_csv:
        train_recs, valid_recs = records, _load_labeled(cfg.valid_csv, "validation")
    else:
        if len(records) < 2:
            raise DataError(
                f"{cfg.train_csv}: one record cannot be split into training and validation"
            )
        train_recs, valid_recs = train_valid_split(
            records, cfg.valid_fraction, cfg.train.seed
        )
    vocab = build_vocab(train_recs, min_count=cfg.min_count)
    model = Model.build(cfg.model_spec(vocab.size), seed=cfg.train.seed, vocab=vocab)
    report = fit(
        model,
        train_recs,
        valid_recs,
        cfg.train,
        checkpoint_path=os.path.join(out_dir, "checkpoint.bin"),
    )
    report.to_csv(os.path.join(out_dir, "report.csv"))
    train_metrics = evaluate_model(model, train_recs)
    # fit evaluated these parameters on the validation set at the best epoch,
    # and left the last epoch's (row -1) in place when no epoch was best
    best = report.rows[report.best_epoch - 1]
    _write_json(
        os.path.join(out_dir, "metrics.json"),
        {
            "best_epoch": report.best_epoch,
            "train_mcrmse": train_metrics.mcrmse,
            "train_per_target_rmse": list(train_metrics.per_target_rmse),
            "valid_mcrmse": best.valid_mcrmse,
            "valid_per_target_rmse": list(best.per_target_rmse),
            "n_train": len(train_recs),
            "n_valid": len(valid_recs),
        },
    )
    print(f"train: best epoch {report.best_epoch}, valid MCRMSE {best.valid_mcrmse:.6f}")
    print(f"train: artifacts in {out_dir}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig) -> int:
    out_dir = _prepare_out_dir(cfg, "cv")
    records = _load_labeled(cfg.train_csv, "training")
    _check_folds(cfg, records)
    result = run_cv(
        records,
        cfg.model_spec(vocab_size=2),  # per-fold vocab replaces this
        cfg.train,
        k=cfg.cv_k,
        seed=cfg.train.seed,
        min_count=cfg.min_count,
    )
    result.plan.save(os.path.join(out_dir, "fold_plan.json"))
    ids = [r.text_id for r in records]
    write_predictions(
        os.path.join(out_dir, "oof.csv"), ids, [result.oof[i] for i in ids]
    )
    for fold, report in enumerate(result.train_reports):
        report.to_csv(os.path.join(out_dir, f"report_fold{fold}.csv"))
    _write_json(
        os.path.join(out_dir, "cv_metrics.json"),
        {
            "pooled": result.pooled.to_dict(),
            "fold_mean_mcrmse": result.fold_mean_mcrmse,
            "folds": [r.to_dict() for r in result.fold_reports],
            "mean_baseline": result.baseline.to_dict(),
        },
    )
    print(
        f"cv: pooled OOF MCRMSE {result.pooled.mcrmse:.6f} "
        f"(fold mean {result.fold_mean_mcrmse:.6f}, "
        f"constant-mean baseline {result.baseline.mcrmse:.6f})"
    )
    print(f"cv: artifacts in {out_dir}")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig) -> int:
    out_dir = _prepare_out_dir(cfg, "ablate")
    records = _load_labeled(cfg.train_csv, "training")
    _check_folds(cfg, records)
    if cfg.ablate_full_grid:
        variants = default_variants()
    else:
        by_label = {v.name: v for v in default_variants()}
        variants = [by_label[c] for c in ORDERING_CELLS]
    result = run_ablation(
        records,
        cfg.model_spec(vocab_size=2),
        cfg.train,
        k=cfg.cv_k,
        seeds=cfg.ablate_seeds,
        variants=variants,
        min_count=cfg.min_count,
    )
    result.rows_csv(os.path.join(out_dir, "ablation.csv"))
    result.summary_csv(os.path.join(out_dir, "ablation_summary.csv"))
    _write_json(
        os.path.join(out_dir, "summary.json"),
        {"summary": result.summary, "ordering": result.ordering},
    )
    for name, stats in result.summary.items():
        print(f"ablate: {name:8s} mean CV {stats['mean']:.6f} (std {stats['std']:.6f})")
    if result.ordering.get("cells_present"):
        print(f"ablate: {result.ordering['note']}")
    print(f"ablate: artifacts in {out_dir}")
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    out_dir = _prepare_out_dir(cfg, "predict")
    if not cfg.predict_checkpoint:
        raise ConfigError("predict needs a checkpoint (set predict.checkpoint or --checkpoint)")
    if not cfg.input_csv:
        raise ConfigError("predict needs input essays (set data.input_csv or --input)")
    model = load_checkpoint(cfg.predict_checkpoint)
    records = load_csv(cfg.input_csv)
    if not records:
        raise DataError(f"{cfg.input_csv}: no records")
    preds = model.predict_records(
        records, clip=True, round_to_lattice=cfg.predict_round
    )
    out_path = os.path.join(out_dir, "predictions.csv")
    write_predictions(out_path, [r.text_id for r in records], preds)
    print(f"predict: wrote {len(records)} rows to {out_path}")
    return EXIT_OK


def cmd_score(cfg: RunConfig, truth_path: str, pred_path: str) -> int:
    truth_records = _load_labeled(truth_path, "truth")
    pred_ids, preds = load_predictions(pred_path)
    repeated = [i for i, n in Counter(pred_ids).items() if n > 1]
    if repeated:
        raise DataError(f"{pred_path}: text_id {repeated[0]!r} appears more than once")
    by_id = {r.text_id: r for r in truth_records}
    missing = [i for i in pred_ids if i not in by_id]
    if missing:
        raise DataError(f"predictions contain unknown text_ids, e.g. {missing[:3]}")
    if len(pred_ids) != len(truth_records):
        raise DataError(
            f"prediction rows ({len(pred_ids)}) do not cover truth rows "
            f"({len(truth_records)})"
        )
    truth = np.array([by_id[i].scores for i in pred_ids], dtype=np.float64)
    report = mcrmse(truth, preds)
    print(f"mcrmse = {report.mcrmse!r}")
    for name, value in zip(TARGETS, report.per_target_rmse):
        print(f"rmse_{name} = {value!r}")
    if cfg.out_dir:
        out_dir = _prepare_out_dir(cfg, "score")
        _write_json(os.path.join(out_dir, "metrics.json"), report.to_dict())
    return EXIT_OK


def cmd_synth(cfg: RunConfig, output: str) -> int:
    records = synth_corpus(cfg.synth_n, cfg.synth_seed)
    parent = os.path.dirname(output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_csv(records, output)
    if cfg.out_dir:
        _prepare_out_dir(cfg, "synth")
    print(f"synth: wrote {len(records)} essays to {output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "cv":
            return cmd_cv(cfg)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "predict":
            return cmd_predict(cfg)
        if args.command == "score":
            return cmd_score(cfg, args.truth, args.pred)
        if args.command == "synth":
            return cmd_synth(cfg, args.output)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DataError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
