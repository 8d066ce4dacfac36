"""Run configuration: dotted-key text files plus command-line overrides.

Grammar: one ``key = value`` pair per line; blank lines and ``#`` comments
are ignored. Keys mirror the dataclass fields they configure
(``model.d_model``, ``train.adv_lr``, ...). Precedence, lowest to highest:
built-in defaults, config file, ``--set`` overrides. The fully resolved
configuration is echoed into every output directory.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
from dataclasses import dataclass, field

from .data import DataError, read_text
from .encoder import ModelSpec
from .training import TrainConfig


class ConfigError(ValueError):
    """Unknown key, bad value, or unusable combination."""


ENV_OUT_ROOT = "RUBRIC_OUT_ROOT"


@dataclass
class RunConfig:
    model: dict = field(default_factory=dict)  # ModelSpec kwargs minus vocab_size
    train: TrainConfig = field(default_factory=TrainConfig)
    train_csv: str | None = None
    valid_csv: str | None = None
    input_csv: str | None = None
    valid_fraction: float = 0.2
    min_count: int = 1
    cv_k: int = 5
    ablate_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    ablate_full_grid: bool = True
    predict_checkpoint: str | None = None
    predict_round: bool = False
    synth_n: int = 300
    synth_seed: int = 0
    out_dir: str | None = None

    def model_spec(self, vocab_size: int) -> ModelSpec:
        return ModelSpec(vocab_size=vocab_size, **self.model)

    def resolved_out_dir(self, command: str) -> str:
        if self.out_dir:
            return self.out_dir
        root = os.environ.get(ENV_OUT_ROOT, "runs")
        return os.path.join(root, command)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _optional(parse):
    return lambda raw: None if raw.lower() in ("", "none") else parse(raw)


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# value parser per field annotation (annotations are strings here)
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "float | None": _optional(_parse_float),
    "bool": _parse_bool,
    "str": str,
    "str | None": _optional(str),
    "tuple[int, ...]": _parse_int_list,
}

# the RunConfig attribute behind each key outside model.* and train.*
_RUN_KEYS = {
    "data.train_csv": "train_csv",
    "data.valid_csv": "valid_csv",
    "data.input_csv": "input_csv",
    "data.valid_fraction": "valid_fraction",
    "data.min_count": "min_count",
    "cv.k": "cv_k",
    "ablate.seeds": "ablate_seeds",
    "ablate.full_grid": "ablate_full_grid",
    "predict.checkpoint": "predict_checkpoint",
    "predict.round": "predict_round",
    "synth.n": "synth_n",
    "synth.seed": "synth_seed",
    "out.dir": "out_dir",
}
_RUN_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}

# key -> (section, attribute, parser). "model" keys fill RunConfig.model
# (model.vocab_size is always derived from the training data), "train" keys
# build the TrainConfig, "run" keys are RunConfig attributes. A field whose
# annotation has no parser fails here, at import.
KEYS: dict[str, tuple] = {
    **{
        f"model.{f.name}": ("model", f.name, _PARSERS[f.type])
        for f in dataclasses.fields(ModelSpec)
        if f.name != "vocab_size"
    },
    **{
        f"train.{f.name}": ("train", f.name, _PARSERS[f.type])
        for f in dataclasses.fields(TrainConfig)
    },
    **{key: ("run", attr, _PARSERS[_RUN_TYPES[attr]]) for key, attr in _RUN_KEYS.items()},
}


def parse_config_file(path: str) -> dict[str, str]:
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def resolve_config(pairs: dict[str, str]) -> RunConfig:
    """Turn raw key/value strings into a validated RunConfig."""
    values: dict[str, dict] = {"model": {}, "train": {}, "run": {}}
    for key, raw in pairs.items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        section, attr, parse = KEYS[key]
        try:
            values[section][attr] = parse(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    try:
        cfg = RunConfig(model=values["model"], train=TrainConfig(**values["train"]),
                        **values["run"])
        ModelSpec(vocab_size=2, **cfg.model)  # validate model fields early
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if not 0.0 < cfg.valid_fraction < 1.0:
        raise ConfigError(f"data.valid_fraction must be in (0, 1), got {cfg.valid_fraction}")
    if cfg.min_count < 1:
        raise ConfigError(f"data.min_count must be >= 1, got {cfg.min_count}")
    if cfg.cv_k < 2:
        raise ConfigError(f"cv.k must be >= 2, got {cfg.cv_k}")
    seeds = cfg.ablate_seeds
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(
            f"ablate.seeds must list one or more distinct nonnegative integers, got {seeds}"
        )
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Echo every resolved key (defaults included) in sorted order."""
    sources = {"model": ModelSpec(vocab_size=2, **cfg.model), "train": cfg.train, "run": cfg}
    return "".join(
        f"{key} = {_render(getattr(sources[section], attr))}\n"
        for key, (section, attr, _) in sorted(KEYS.items())
    )


def load_run_config(config_path: str | None, overrides: list[str]) -> RunConfig:
    """Merge file pairs and ``key=value`` override strings, then resolve."""
    pairs: dict[str, str] = {}
    if config_path:
        pairs.update(parse_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    return resolve_config(pairs)
