"""Essay records, CSV schema, tokenizer, vocabulary, synthetic corpus.

Records carry six analytic scores (cohesion, syntax, vocabulary,
phraseology, grammar, conventions) on the 1.0..5.0 half-point lattice.
The synthetic generator writes essays whose scores are deterministic
functions of measurable text statistics, so end-to-end tests can run
without any external dataset.
"""

from __future__ import annotations

import csv
import io
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TARGETS = ("cohesion", "syntax", "vocabulary", "phraseology", "grammar", "conventions")

SCORE_MIN = 1.0
SCORE_MAX = 5.0
LATTICE_TOL = 1e-9


class DataError(ValueError):
    """Malformed corpus data: bad schema, bad row, or an off-lattice score."""


def nearest_half(value):
    """Round to the nearest multiple of 0.5 (ties follow round-half-even)."""
    return np.rint(np.asarray(value, dtype=np.float64) * 2.0) / 2.0


def on_lattice(value: float, tol: float = LATTICE_TOL) -> bool:
    v = float(value)
    if not (SCORE_MIN - tol <= v <= SCORE_MAX + tol):
        return False
    return abs(v - round(v * 2.0) / 2.0) <= tol  # round() ties to even, like np.rint


@dataclass(frozen=True)
class EssayRecord:
    """One essay plus (optionally) its six scores in TARGETS order."""

    text_id: str
    full_text: str
    scores: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.full_text:
            raise DataError(f"record {self.text_id!r} has empty full_text")
        if self.scores is not None:
            scores = tuple(float(s) for s in self.scores)
            if len(scores) != len(TARGETS):
                raise DataError(
                    f"record {self.text_id!r} has {len(scores)} scores, expected {len(TARGETS)}"
                )
            for name, s in zip(TARGETS, scores):
                if not on_lattice(s):
                    raise DataError(
                        f"record {self.text_id!r}: {name}={s} is not on the "
                        f"half-point lattice in [{SCORE_MIN}, {SCORE_MAX}]"
                    )
            object.__setattr__(self, "scores", scores)

    @property
    def labeled(self) -> bool:
        return self.scores is not None


# ----------------------------------------------------------------------
# tokenizer


_TOKEN_RE = re.compile(r"[\w']+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercased word/punctuation split; total over arbitrary unicode."""
    normalized = unicodedata.normalize("NFC", text).lower()
    return _TOKEN_RE.findall(normalized)


class Vocabulary:
    """Token-to-id map with reserved ids 0 (padding) and 1 (unknown)."""

    PAD_ID = 0
    UNK_ID = 1

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self._ids = {tok: i + 2 for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise DataError("vocabulary tokens must be unique")

    @property
    def size(self) -> int:
        return len(self.tokens) + 2

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self.UNK_ID)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self._ids.get(t, self.UNK_ID) for t in tokens]

    def encode_text(self, text: str, max_len: int | None = None) -> list[int]:
        """Tokenize and map to ids, keeping only the first ``max_len`` tokens."""
        ids = self.encode(tokenize(text))
        if max_len is not None:
            ids = ids[:max_len]
        return ids

    def __contains__(self, token: str) -> bool:
        return token in self._ids


def build_vocab(records: Sequence[EssayRecord], min_count: int = 1) -> Vocabulary:
    """Count tokens across records and keep those seen >= min_count times.

    Ids are assigned by descending count, ties broken lexicographically, so
    the same corpus always yields the same mapping.
    """
    if not records:
        raise DataError("build_vocab needs at least one record")
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(tokenize(rec.full_text))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept)


# ----------------------------------------------------------------------
# CSV input and output


def read_text(path: str) -> str:
    """A UTF-8 file's text; invalid UTF-8 raises DataError naming the file and line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line} is not valid UTF-8 (byte {exc.start})") from None


def _csv_rows(path: str):
    """Yield (row number, fields) of a CSV file; the header is row 1.

    A row the csv module rejects, such as one with a field over its size
    limit, raises DataError naming the file and row.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rowno = 0
    try:
        for rowno, row in enumerate(reader, start=1):
            yield rowno, row
    except csv.Error as exc:
        raise DataError(f"{path}: row {rowno + 1}: {exc}") from None


def _header(rows, path: str) -> list[str]:
    try:
        return next(rows)[1]
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a header row") from None


def load_csv(path: str) -> list[EssayRecord]:
    """Read an essay CSV (RFC-4180 quoting; essays may span lines).

    The header must contain ``text_id`` and ``full_text``; the six score
    columns are either all present (in any order) or all absent. Each
    ``text_id`` may appear only once.
    """
    rows = _csv_rows(path)
    header = _header(rows, path)
    col = {name: i for i, name in enumerate(header)}
    for required in ("text_id", "full_text"):
        if required not in col:
            raise DataError(f"{path}: missing required column {required!r}")
    present = [t for t in TARGETS if t in col]
    if present and len(present) != len(TARGETS):
        missing = [t for t in TARGETS if t not in col]
        raise DataError(f"{path}: incomplete score columns, missing {missing}")
    labeled = bool(present)

    records = []
    first_row: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {lineno} has {len(row)} fields, header has {len(header)}"
            )
        text_id = row[col["text_id"]]
        if text_id in first_row:
            raise DataError(
                f"{path}: row {lineno} repeats text_id {text_id!r} "
                f"of row {first_row[text_id]}"
            )
        first_row[text_id] = lineno
        scores = None
        if labeled:
            values = []
            for t in TARGETS:
                raw = row[col[t]]
                try:
                    values.append(float(raw))
                except ValueError:
                    raise DataError(
                        f"{path}: row {lineno} ({text_id!r}): bad {t} value {raw!r}"
                    ) from None
            scores = tuple(values)
        try:
            records.append(EssayRecord(text_id, row[col["full_text"]], scores))
        except DataError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from None
    return records


def write_csv(records: Sequence[EssayRecord], path: str) -> None:
    """Write records back out; inverse of load_csv."""
    labeled = [r.labeled for r in records]
    if any(labeled) and not all(labeled):
        raise DataError("cannot mix labeled and unlabeled records in one file")
    header = ["text_id", "full_text"] + (list(TARGETS) if all(labeled) and records else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            row = [rec.text_id, rec.full_text]
            if rec.scores is not None:
                row.extend(repr(s) for s in rec.scores)
            writer.writerow(row)


def write_predictions(path: str, text_ids: Sequence[str], preds) -> None:
    """Write a prediction CSV: text_id plus the six score columns."""
    arr = np.asarray(preds, dtype=np.float64)
    if arr.ndim != 2 or arr.shape != (len(text_ids), len(TARGETS)):
        raise DataError(
            f"predictions must be ({len(text_ids)}, {len(TARGETS)}), got {arr.shape}"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text_id"] + list(TARGETS))
        for tid, row in zip(text_ids, arr):
            writer.writerow([tid] + [repr(float(v)) for v in row])


def load_predictions(path: str) -> tuple[list[str], np.ndarray]:
    """Read a prediction CSV; values must be finite but are not lattice-checked."""
    rows = _csv_rows(path)
    header = _header(rows, path)
    col = {name: i for i, name in enumerate(header)}
    for required in ("text_id",) + TARGETS:
        if required not in col:
            raise DataError(f"{path}: missing required column {required!r}")
    ids, values = [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {lineno} has {len(row)} fields, header has {len(header)}"
            )
        ids.append(row[col["text_id"]])
        try:
            values.append([float(row[col[t]]) for t in TARGETS])
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from None
        for t, v in zip(TARGETS, values[-1]):
            if not math.isfinite(v):
                raise DataError(f"{path}: row {lineno}: {t} value {row[col[t]]!r} is not finite")
    return ids, np.asarray(values, dtype=np.float64).reshape(len(ids), len(TARGETS))


# ----------------------------------------------------------------------
# synthetic corpus
#
# Essays are assembled from a small template grammar. Six latent knobs
# steer generation; the scores are then computed from statistics measured
# on the finished text (see text_statistics), so the text fully determines
# the labels and a model can in principle recover them exactly.

_CONNECTIVES = (
    "however", "therefore", "moreover", "furthermore",
    "consequently", "nevertheless", "meanwhile", "indeed",
)
_SG_SUBJECTS = ("he", "she", "it")
_PL_SUBJECTS = ("they", "we")
_SUBJECTS = _SG_SUBJECTS + _PL_SUBJECTS
_VERBS = (
    ("go", "goes"), ("make", "makes"), ("write", "writes"), ("learn", "learns"),
    ("think", "thinks"), ("read", "reads"), ("argue", "argues"), ("claim", "claims"),
    ("suggest", "suggests"), ("believe", "believes"),
)
_BASE_VERBS = frozenset(v[0] for v in _VERBS)
_THIRD_VERBS = frozenset(v[1] for v in _VERBS)
_PREPOSITIONS = ("to", "about", "with", "through", "around", "near")
_COMMON_NOUNS = (
    "school", "teacher", "student", "lesson", "book", "class", "friend",
    "city", "family", "music", "game", "story", "idea", "morning", "garden",
    "house", "road", "market", "river", "letter", "picture", "window",
)
_RARE_NOUNS = (
    "paradigm", "nuance", "synthesis", "epiphany", "conjecture", "artifact",
    "citadel", "zephyr", "quandary", "alchemy", "labyrinth", "medley",
    "sonnet", "aqueduct", "zenith", "parable", "catalyst", "enigma",
)
_ADJECTIVES = (
    "small", "bright", "quiet", "friendly", "serious", "simple",
    "modern", "curious", "patient", "lively", "gentle", "busy",
)
_FILLERS = (
    ("of", "course"),
    ("in", "any", "case"),
    ("at", "the", "end", "of", "the", "day"),
)

# stat -> unit interval; fixed breakpoints give the score mapping its scale
_STAT_RANGES = {
    "connective_rate": (0.0, 0.11),
    "words_per_sentence": (6.5, 15.0),
    "rare_word_rate": (0.0, 0.12),
    "type_token_ratio": (0.39, 0.75),
    "bigram_diversity": (0.65, 0.96),
    "agreement_error_rate": (0.0, 1.0),
    "punctuation_rate": (0.1, 1.0),
}


def _check_int(name: str, value, least: int, least_name: str | None = None) -> None:
    """Raise a DataError naming ``name`` unless ``value`` is an int (not a
    bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = f"{least_name} ({least})" if least_name else least
        raise DataError(f"{name} must be >= {bound}, got {value}")


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic generator."""

    min_sentences: int = 4
    max_sentences: int = 9
    paragraph_break_at: int = 6  # essays with >= this many sentences get two paragraphs

    def __post_init__(self):
        _check_int("SynthSpec.min_sentences", self.min_sentences, 1)
        _check_int("SynthSpec.max_sentences", self.max_sentences, self.min_sentences,
                   "min_sentences")
        # at 1, a one-sentence essay would open with an empty paragraph
        _check_int("SynthSpec.paragraph_break_at", self.paragraph_break_at, 2)


def _unit(stat: str, value: float) -> float:
    lo, hi = _STAT_RANGES[stat]
    return min(max((value - lo) / (hi - lo), 0.0), 1.0)


def text_statistics(text: str) -> dict[str, float]:
    """Measure the observable statistics that drive the synthetic scores.

    Sentence counts use subject pronouns as a proxy (the grammar emits
    exactly one per sentence), which keeps every statistic computable from
    the text alone even when terminal periods are missing.
    """
    tokens = tokenize(text)
    words = [t for t in tokens if t[0].isalnum() or t[0] == "'"]
    n_words = max(len(words), 1)
    n_sentences = max(sum(1 for w in words if w in _SUBJECTS), 1)

    bigrams = list(zip(words, words[1:]))
    n_bigrams = max(len(bigrams), 1)

    sg_pairs = [(a, b) for a, b in bigrams if a in _SG_SUBJECTS]
    verb_pairs = [p for p in sg_pairs if p[1] in _BASE_VERBS or p[1] in _THIRD_VERBS]
    n_verb_pairs = len(verb_pairs)
    n_errors = sum(1 for _, b in verb_pairs if b in _BASE_VERBS)

    return {
        "n_words": float(len(words)),
        "n_sentences": float(n_sentences),
        "words_per_sentence": len(words) / n_sentences,
        "type_token_ratio": len(set(words)) / n_words,
        "connective_rate": sum(1 for w in words if w in _CONNECTIVES) / n_words,
        "rare_word_rate": sum(1 for w in words if w in _RARE_NOUNS) / n_words,
        "bigram_diversity": len(set(bigrams)) / n_bigrams,
        "agreement_error_rate": n_errors / n_verb_pairs if n_verb_pairs else 0.0,
        "punctuation_rate": min(tokens.count(".") / n_sentences, 1.0),
    }


def scores_from_statistics(stats: dict[str, float]) -> tuple[float, ...]:
    """Fixed statistic-to-score mapping, quantized to the half-point lattice.

    cohesion     <- connective_rate
    syntax       <- words_per_sentence
    vocabulary   <- rare_word_rate (0.65) and type_token_ratio (0.35)
    phraseology  <- bigram_diversity
    grammar      <- 1 - agreement_error_rate
    conventions  <- punctuation_rate
    """
    units = (
        _unit("connective_rate", stats["connective_rate"]),
        _unit("words_per_sentence", stats["words_per_sentence"]),
        0.65 * _unit("rare_word_rate", stats["rare_word_rate"])
        + 0.35 * _unit("type_token_ratio", stats["type_token_ratio"]),
        _unit("bigram_diversity", stats["bigram_diversity"]),
        1.0 - _unit("agreement_error_rate", stats["agreement_error_rate"]),
        _unit("punctuation_rate", stats["punctuation_rate"]),
    )
    # units lie in [0, 1], so each score is already in range; round() ties
    # to even, like nearest_half's np.rint
    return tuple(round(2.0 * (SCORE_MIN + (SCORE_MAX - SCORE_MIN) * u)) / 2.0 for u in units)


def _render(tokens: list[str]) -> str:
    """Join tokens into a sentence string, gluing punctuation and
    capitalizing the first word."""
    out = ""
    for tok in tokens:
        if tok in {",", "."}:
            out += tok
        elif out:
            out += " " + tok
        else:
            out = tok
    return out[:1].upper() + out[1:]


def _synth_essay(rng: np.random.Generator, spec: SynthSpec) -> str:
    q = rng.uniform(size=6)  # latent quality knobs, one per trait
    conn_p = 0.05 + 0.90 * q[0]
    complexity = q[1]
    rare_p = 0.60 * q[2]
    filler_p = 0.75 * (1.0 - q[3])
    agr_err_p = 0.65 * (1.0 - q[4])
    period_p = 0.35 + 0.65 * q[5]
    filler = _FILLERS[rng.integers(len(_FILLERS))]

    n_sent = int(rng.integers(spec.min_sentences, spec.max_sentences + 1))
    sentences = []
    for _ in range(n_sent):
        toks: list[str] = []
        if rng.random() < conn_p:
            toks += [_CONNECTIVES[rng.integers(len(_CONNECTIVES))], ","]
        singular = rng.random() < 0.7
        subjects = _SG_SUBJECTS if singular else _PL_SUBJECTS
        subject = subjects[rng.integers(len(subjects))]
        base, third = _VERBS[rng.integers(len(_VERBS))]
        if singular:
            verb = base if rng.random() < agr_err_p else third
        else:
            verb = base
        toks += [subject, verb]
        n_phrases = 1 + int(rng.random() < 0.3 + 0.65 * complexity)
        for _ in range(n_phrases):
            toks.append(_PREPOSITIONS[rng.integers(len(_PREPOSITIONS))])
            toks.append("the")
            n_adj = int(rng.integers(0, 2 + round(2 * complexity)))
            for _ in range(n_adj):
                toks.append(_ADJECTIVES[rng.integers(len(_ADJECTIVES))])
            pool = _RARE_NOUNS if rng.random() < rare_p else _COMMON_NOUNS
            toks.append(pool[rng.integers(len(pool))])
        if rng.random() < filler_p:
            toks += list(filler)
        if rng.random() < period_p:
            toks.append(".")
        sentences.append(_render(toks))

    if n_sent >= spec.paragraph_break_at:
        split = n_sent // 2
        return " ".join(sentences[:split]) + "\n\n" + " ".join(sentences[split:])
    return " ".join(sentences)


def synth_corpus(n: int, seed: int, spec: SynthSpec = SynthSpec()) -> list[EssayRecord]:
    """Generate ``n`` seeded essays with scores derived from their text."""
    _check_int("synth_corpus n", n, 1)
    _check_int("synth_corpus seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E5)))
    records = []
    for i in range(n):
        text = _synth_essay(rng, spec)
        scores = scores_from_statistics(text_statistics(text))
        records.append(EssayRecord(f"synth-{i:05d}", text, scores))
    return records
