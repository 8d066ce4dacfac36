"""Command-line surface: train, cv, ablate, predict, score, synth.

Every command reads an optional config file plus ``--set key=value``
overrides, echoes the fully resolved configuration into its output
directory, and is deterministic given (config, seed). Exit codes: 0 on
success, 1 for usage/config/data problems, a model too big for memory or a
failed worker process, 2 for numeric failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, pool
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_run_config, render_config
from .crossval import default_variants, run_ablation, run_cv
from .data import (
    DataError,
    TARGETS,
    load_csv,
    load_predictions,
    synth_corpus,
    write_csv,
    write_predictions,
    write_rows,
    build_vocab,
)
from .metrics import mcrmse
from .model import Model
from .tensor import NumericError
from .training import TrainReport, evaluate_model, fit, fit_pool, train_valid_split

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# flag -> (the key it sets, metavar, help); a flag with no metavar takes no
# value and sets its key to "true".
FLAGS = {
    "--out": ("out.dir", "DIR", "output directory"),
    "--seed": ("train.seed", "SEED", "training seed"),
    "--data": ("data.train_csv", "CSV", "labeled training CSV"),
    "--valid": ("data.valid_csv", "CSV", "labeled validation CSV"),
    "--folds": ("cv.k", "K", "number of folds"),
    "--seeds": ("ablate.seeds", "SEEDS", "comma-separated replication seeds"),
    "--checkpoint": ("predict.checkpoint", "FILE", "checkpoint file"),
    "--input": ("data.input_csv", "CSV", "input CSV"),
    "--round": ("predict.round", None, "snap predictions to the half-point lattice"),
    "--n": ("synth.n", "N", "number of essays"),
    "--synth-seed": ("synth.seed", "SEED", "generator seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rubric", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rubric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, flags, positionals) in COMMANDS.items():
        # no abbreviations: "ablate --seed" would silently read as --seeds
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="path to a key = value configuration file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one configuration key (repeatable)")
        for flag in ("--out", *flags):
            key, metavar, words = FLAGS[flag]
            takes = {"metavar": metavar} if metavar else {"action": "store_const", "const": "true"}
            p.add_argument(flag, dest=key, help=f"{words} (sets {key})", **takes)
        for name, words in positionals:
            p.add_argument(name, help=words)
    return parser


def _resolve(args) -> RunConfig:
    """Each flag's dest is the key it sets; a flag given is one more
    ``key=value`` override after the --set ones, so it wins."""
    flags = [f"{key}={value}" for key, value in vars(args).items()
             if "." in key and value is not None]
    return load_run_config(args.config, args.overrides + flags)


def _prepare_out_dir(cfg: RunConfig, command: str) -> str:
    # each command calls this once its run has returned, so a run that
    # fails on its inputs or inside its checks leaves no directory at all
    out_dir = cfg.resolved_out_dir(command)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))
    return out_dir


def _load_labeled(path: str | None, missing: str = "a training CSV is required: pass --data "
                  "or set data.train_csv (a value of none or an empty one unsets a key)"):
    if not path:  # ``missing`` names how the command is given this CSV
        raise ConfigError(missing)
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
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_train_report(path: str, report: TrainReport) -> None:
    # the seconds column is wall-clock telemetry and is the one field
    # exempt from the byte-identical rerun guarantee
    header = ["epoch", "train_loss", "valid_mcrmse", *(f"rmse_{t}" for t in TARGETS),
              "awp_active", "seconds"]
    write_rows(path, header, [
        (r.epoch, r.train_loss, r.valid_mcrmse, *r.per_target_rmse, int(r.awp_active), r.seconds)
        for r in report.rows
    ])


# ----------------------------------------------------------------------
# commands


def cmd_train(cfg: RunConfig) -> int:
    records = _load_labeled(cfg.train_csv)
    if cfg.valid_csv:
        train_recs, valid_recs = records, _load_labeled(cfg.valid_csv)
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
    with fit_pool(cfg.train, len(train_recs)) as workers:  # one round of workers for both
        report = fit(model, train_recs, valid_recs, cfg.train, pool=workers)
        out_dir = _prepare_out_dir(cfg, "train")
        save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), model)
        train_metrics = evaluate_model(model, train_recs, pool=workers)
    _write_train_report(os.path.join(out_dir, "report.csv"), report)
    _write_json(
        os.path.join(out_dir, "metrics.json"),
        {
            "best_epoch": report.best_epoch,
            "train_mcrmse": train_metrics.mcrmse,
            "train_per_target_rmse": train_metrics.per_target_rmse,
            "valid_mcrmse": report.valid.mcrmse,
            "valid_per_target_rmse": report.valid.per_target_rmse,
            "n_train": len(train_recs),
            "n_valid": len(valid_recs),
        },
    )
    print(f"train: best epoch {report.best_epoch}, valid MCRMSE {report.valid.mcrmse:.6f}")
    print(f"train: artifacts in {out_dir}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig) -> int:
    records = _load_labeled(cfg.train_csv)
    _check_folds(cfg, records)
    result = run_cv(
        records,
        cfg.model_spec(vocab_size=2),  # per-fold vocab replaces this
        cfg.train,
        k=cfg.cv_k,
        seed=cfg.train.seed,
        min_count=cfg.min_count,
    )
    out_dir = _prepare_out_dir(cfg, "cv")
    _write_json(os.path.join(out_dir, "fold_plan.json"), asdict(result.plan))
    ids = [r.text_id for r in records]
    write_predictions(
        os.path.join(out_dir, "oof.csv"), ids, [result.oof[i] for i in ids]
    )
    for fold, report in enumerate(result.train_reports):
        _write_train_report(os.path.join(out_dir, f"report_fold{fold}.csv"), report)
    _write_json(
        os.path.join(out_dir, "cv_metrics.json"),
        {
            "pooled": asdict(result.pooled),
            "fold_mean_mcrmse": result.fold_mean_mcrmse,
            "folds": [asdict(r.valid) for r in result.train_reports],
            "mean_baseline": asdict(result.baseline),
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
    records = _load_labeled(cfg.train_csv)
    _check_folds(cfg, records)
    result = run_ablation(
        records,
        cfg.model_spec(vocab_size=2),
        cfg.train,
        k=cfg.cv_k,
        seeds=cfg.ablate_seeds,
        variants=default_variants(cfg.ablate_full_grid),
        min_count=cfg.min_count,
    )
    out_dir = _prepare_out_dir(cfg, "ablate")
    write_rows(os.path.join(out_dir, "ablation.csv"),
               "variant,pooling,awp,seed,cv_pooled,cv_fold_mean".split(","),
               [(r.variant, r.pooling_mode, int(r.awp), r.seed, r.cv_pooled, r.cv_fold_mean)
                for r in result.rows])
    write_rows(os.path.join(out_dir, "ablation_summary.csv"),
               "variant,mean_cv,std_cv,n_seeds".split(","),
               [(v, s["mean"], s["std"], s["n_seeds"]) for v, s in result.summary.items()])
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
    if not cfg.predict_checkpoint:
        raise ConfigError("predict needs a checkpoint (set predict.checkpoint or --checkpoint)")
    if not cfg.input_csv:
        raise ConfigError("predict needs input essays (set data.input_csv or --input)")
    model = load_checkpoint(cfg.predict_checkpoint)
    if model.vocab is None:
        raise CheckpointError(f"{cfg.predict_checkpoint}: no vocabulary to encode essays with")
    records = load_csv(cfg.input_csv)
    if not records:
        raise DataError(f"{cfg.input_csv}: no records")
    preds = model.predict_records(
        records, clip=True, round_to_lattice=cfg.predict_round
    )
    out_dir = _prepare_out_dir(cfg, "predict")
    out_path = os.path.join(out_dir, "predictions.csv")
    write_predictions(out_path, [r.text_id for r in records], preds)
    print(f"predict: wrote {len(records)} rows to {out_path}")
    return EXIT_OK


def cmd_score(cfg: RunConfig, truth_path: str, pred_path: str) -> int:
    truth_records = _load_labeled(truth_path, "a truth CSV is required: pass it as TRUTH")
    pred_ids, preds = load_predictions(pred_path)
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
    with np.errstate(over="ignore"):  # an overflowing sum of squares is rejected below
        report = mcrmse(truth, preds)
    for name, value in zip(TARGETS, report.per_target_rmse):
        if not np.isfinite(value):
            raise DataError(
                f"{pred_path}: {name} errors are too large to score "
                "(their squares overflow float64)"
            )
    print(f"mcrmse = {report.mcrmse!r}")
    for name, value in zip(TARGETS, report.per_target_rmse):
        print(f"rmse_{name} = {value!r}")
    if cfg.out_dir:
        out_dir = _prepare_out_dir(cfg, "score")
        _write_json(os.path.join(out_dir, "metrics.json"), asdict(report))
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


# command -> (handler, help, the flags it reads besides --config, --set and
# --out, its positional arguments as (name, help)); the handler takes the
# resolved config and then the positional values
COMMANDS = {
    "train": (cmd_train, "train one model on a train/valid split",
              ("--data", "--valid", "--seed"), ()),
    "cv": (cmd_cv, "stratified k-fold cross-validation", ("--data", "--folds", "--seed"), ()),
    "ablate": (cmd_ablate, "pooling-mode x AWP comparison grid",
               ("--data", "--folds", "--seeds"), ()),
    "predict": (cmd_predict, "score unlabeled essays with a checkpoint",
                ("--checkpoint", "--input", "--round"), ()),
    "score": (cmd_score, "MCRMSE between a labeled CSV and predictions", (),
              (("truth", "labeled CSV with true scores"), ("pred", "prediction CSV"))),
    "synth": (cmd_synth, "materialize a synthetic corpus CSV", ("--n", "--synth-seed"),
              (("output", "destination CSV path"),)),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, _, _, positionals = COMMANDS[args.command]
        return handler(_resolve(args), *(getattr(args, name) for name, _ in positionals))
    except (ConfigError, DataError, CheckpointError, OSError, pool.PoolError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
