import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubric.data import (
    DataError,
    LATTICE_TOL,
    SCORE_MAX,
    SCORE_MIN,
    EssayRecord,
    SynthSpec,
    TARGETS,
    Vocabulary,
    _STAT_RANGES,
    build_vocab,
    load_csv,
    load_predictions,
    nearest_half,
    on_lattice,
    scores_from_statistics,
    synth_corpus,
    text_statistics,
    tokenize,
    write_csv,
    write_predictions,
)

from _fuzz import csv_bytes
from _oracles import reference_raw_scores, reference_scores_from_statistics, reference_synth_corpus


class TestTokenizer:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("However, he goes.") == ["however", ",", "he", "goes", "."]

    def test_apostrophes_stay_in_words(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_total_on_arbitrary_unicode(self, text):
        tokens = tokenize(text)
        assert isinstance(tokens, list)
        assert all(isinstance(t, str) and t for t in tokens)

    def test_vocabulary_encoding_is_total(self):
        vocab = Vocabulary(["hello"])
        ids = vocab.encode(tokenize("Hello wørld ☃ !"))
        assert ids[0] == 2
        assert all(isinstance(i, int) for i in ids)

    def test_truncation_keeps_head(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.encode_text("a b c", max_len=2) == [2, 3]


class TestRecords:
    def test_off_lattice_score_rejected_with_text_id(self):
        with pytest.raises(DataError, match="rec9.*3.26"):
            EssayRecord("rec9", "text", (3.26, 3, 3, 3, 3, 3))

    def test_quarter_point_rejected_half_point_accepted(self):
        assert on_lattice(3.5) and on_lattice(1.0) and on_lattice(5.0)
        assert not on_lattice(3.25) and not on_lattice(5.5) and not on_lattice(0.5)

    def test_on_lattice_matches_nearest_half_formula(self):
        def reference(v, tol=LATTICE_TOL):
            if not (SCORE_MIN - tol <= v <= SCORE_MAX + tol):
                return False
            return abs(v - float(nearest_half(v))) <= tol

        rng = np.random.default_rng(8)
        values = list(rng.uniform(0.0, 6.0, 20000))
        for point in np.arange(0.5, 6.0, 0.25):
            for offset in (0.0, 1e-9, 1.0000001e-9, 9.999999e-10, 1e-12, 0.25):
                values += [point + offset, point - offset]
        values += [float("nan"), float("inf"), float("-inf"), -0.0, 1.0 - 1e-9, 5.0 + 1e-9]
        for v in values:
            assert on_lattice(v) == reference(v), v
        for tol in (0.0, 0.1, 0.3):
            for v in values[-200:]:
                assert on_lattice(v, tol) == reference(v, tol), (v, tol)

    def test_empty_text_rejected(self):
        with pytest.raises(DataError, match="empty"):
            EssayRecord("x", "", None)

    def test_wrong_score_count_rejected(self):
        with pytest.raises(DataError, match="5 scores"):
            EssayRecord("x", "text", (1.0, 2.0, 3.0, 4.0, 5.0))


class TestCsv:
    def test_header_only_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("text_id,full_text\n")
        assert load_csv(str(path)) == []

    def test_missing_required_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("identifier,full_text\na,b\n")
        with pytest.raises(DataError, match="text_id"):
            load_csv(str(path))

    def test_partial_score_columns_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("text_id,full_text,cohesion\na,b,3.0\n")
        with pytest.raises(DataError, match="syntax"):
            load_csv(str(path))

    def test_off_lattice_row_names_text_id(self, tmp_path):
        path = tmp_path / "lattice.csv"
        header = "text_id,full_text," + ",".join(TARGETS)
        path.write_text(header + "\nessay7,some text,3.25,3,3,3,3,3\n")
        with pytest.raises(DataError, match="essay7"):
            load_csv(str(path))

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("text_id,full_text\na,b\nc\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(str(path))

    def test_repeated_text_id_names_both_rows(self, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("text_id,full_text\na,one\nb,two\na,three\n")
        with pytest.raises(DataError, match=r"row 4 repeats text_id 'a' of row 2"):
            load_csv(str(path))

    def test_repeated_prediction_text_id_names_both_rows(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions(str(path), ["a", "b", "a"], np.full((3, 6), 3.0))
        with pytest.raises(DataError, match=r"preds.csv: row 4 repeats text_id 'a' of row 2"):
            load_predictions(str(path))

    @pytest.mark.parametrize("reader, name, text", [
        (load_csv, "full_text", "text_id,full_text,full_text\na,one,two\n"),
        (load_predictions, "cohesion",
         "text_id,cohesion," + ",".join(TARGETS) + "\na,1,3,3,3,3,3,3\n"),
    ], ids=["load_csv", "load_predictions"])
    def test_a_header_naming_a_column_twice_is_rejected(self, tmp_path, reader, name, text):
        path = tmp_path / "twice.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"twice.csv: the header names column '{name}' twice"):
            reader(str(path))

    def test_quoted_multiline_text_round_trips(self, tmp_path):
        record = EssayRecord("m1", 'line one\nline "two", with comma\n\nline three',
                             (3.0, 3.5, 2.0, 4.0, 1.5, 5.0))
        path = tmp_path / "multi.csv"
        write_csv([record], str(path))
        loaded = load_csv(str(path))
        assert len(loaded) == 1
        assert loaded[0] == record

    def test_round_trip_on_synthetic_corpus(self, tmp_path):
        records = synth_corpus(40, seed=5)
        path = tmp_path / "corpus.csv"
        write_csv(records, str(path))
        once = load_csv(str(path))
        assert once == records
        path2 = tmp_path / "again.csv"
        write_csv(once, str(path2))
        assert load_csv(str(path2)) == once
        assert path.read_bytes() == path2.read_bytes()

    def test_unlabeled_round_trip(self, tmp_path):
        records = [EssayRecord("u1", "some text"), EssayRecord("u2", "more text")]
        path = tmp_path / "unlabeled.csv"
        write_csv(records, str(path))
        loaded = load_csv(str(path))
        assert loaded == records
        assert not loaded[0].labeled

    def test_mixed_labeling_rejected_on_write(self, tmp_path):
        records = [
            EssayRecord("a", "text", (3.0,) * 6),
            EssayRecord("b", "text"),
        ]
        with pytest.raises(DataError, match="mix"):
            write_csv(records, str(tmp_path / "mixed.csv"))

    @given(raw=csv_bytes)
    @settings(max_examples=300)
    def test_arbitrary_bytes_give_data_error_or_valid_records(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(raw)
        try:
            records = load_csv(str(path))
        except DataError:
            pass
        else:
            assert all(isinstance(r, EssayRecord) and r.full_text for r in records)
            assert len({r.text_id for r in records}) == len(records)
            assert len({r.labeled for r in records}) <= 1
        try:
            ids, values = load_predictions(str(path))
        except DataError:
            return
        assert len(set(ids)) == len(ids)
        assert values.shape == (len(ids), len(TARGETS)) and np.isfinite(values).all()

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"text_id,full_text\na,one\nb,caf\xe9\n")
        with pytest.raises(DataError, match=r"latin1.csv: line 3 is not valid UTF-8"):
            load_csv(str(path))

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(synth_corpus(3, seed=2), str(plain))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_csv(str(marked)) == load_csv(str(plain))

    def test_invalid_utf8_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbftext_id,full_text\na,one\nb,caf\xe9\n")
        with pytest.raises(DataError, match=r"marked.csv: line 3 is not valid UTF-8 \(byte 32\)"):
            load_csv(str(path))

    def test_oversized_field_names_file_and_row(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("text_id,full_text\na,one\nb," + "x" * 140_000 + "\n")
        with pytest.raises(DataError, match=r"huge.csv: row 3: field larger"):
            load_csv(str(path))

    def test_non_finite_prediction_names_row_and_column(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions(str(path), ["a", "b"], np.full((2, 6), 3.0))
        path.write_text(path.read_text().replace("3.0\n", "inf\n", 2))
        with pytest.raises(DataError, match=r"preds.csv: row 2: conventions value 'inf'"):
            load_predictions(str(path))

    def test_bad_prediction_value_names_row_and_column(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions(str(path), ["a", "b", "c"], np.full((3, 6), 3.0))
        path.write_text(path.read_text().replace("c,3.0,", "c,abc,"))
        with pytest.raises(DataError, match=r"preds.csv: row 4 \('c'\): bad cohesion value 'abc'"):
            load_predictions(str(path))

    def test_predictions_round_trip(self, tmp_path):
        ids = ["a", "b"]
        preds = np.array([[1.25, 2.0, 3.0, 4.0, 5.0, 2.5], [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]])
        path = tmp_path / "preds.csv"
        write_predictions(str(path), ids, preds)
        got_ids, got = load_predictions(str(path))
        assert got_ids == ids
        np.testing.assert_array_equal(got, preds)  # repr round-trip is exact


class TestVocabulary:
    def _records(self, *texts):
        return [EssayRecord(f"r{i}", t) for i, t in enumerate(texts)]

    def test_min_count_threshold(self):
        vocab = build_vocab(self._records("a a b"), min_count=2)
        assert "a" in vocab and "b" not in vocab
        assert vocab.encode(["a", "b"]) == [2, Vocabulary.UNK_ID]

    def test_deterministic_ids(self):
        records = self._records("the quick brown fox", "the lazy dog")
        a = build_vocab(records)
        b = build_vocab(records)
        assert a.tokens == b.tokens

    def test_count_then_lexicographic_order(self):
        vocab = build_vocab(self._records("x y x y"))
        assert vocab.id_of("x") == 2 and vocab.id_of("y") == 3
        vocab2 = build_vocab(self._records("y y x"))
        assert vocab2.id_of("y") == 2 and vocab2.id_of("x") == 3

    def test_reserved_ids_never_assigned(self):
        vocab = build_vocab(self._records("alpha beta gamma"))
        assert min(vocab.encode(["alpha", "beta", "gamma"])) >= 2
        assert vocab.size == 5

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([])


class TestSynthCorpus:
    def test_deterministic(self):
        assert synth_corpus(12, seed=9) == synth_corpus(12, seed=9)
        assert synth_corpus(12, seed=9) != synth_corpus(12, seed=10)

    def test_scores_on_lattice_in_range(self):
        for record in synth_corpus(200, seed=1):
            for s in record.scores:
                assert on_lattice(s)

    def test_connective_density_drives_cohesion(self):
        records = synth_corpus(1000, seed=4)
        conn = np.array([text_statistics(r.full_text)["connective_rate"] for r in records])
        cohesion = np.array([r.scores[0] for r in records])
        assert np.corrcoef(conn, cohesion)[0, 1] > 0.5

    def test_scores_recomputable_from_text(self):
        for record in synth_corpus(50, seed=8):
            derived = scores_from_statistics(text_statistics(record.full_text))
            assert derived == record.scores

    def test_n_validated(self):
        with pytest.raises(DataError, match=r"^synth_corpus n must be >= 1, got 0$"):
            synth_corpus(0, seed=1)

    @pytest.mark.parametrize("n, seed, culprit", [
        (2.5, 1, "synth_corpus n must be an integer, got 2.5"),
        (True, 1, "synth_corpus n must be an integer, got True"),
        (3, 1.0, "synth_corpus seed must be an integer, got 1.0"),
        (3, False, "synth_corpus seed must be an integer, got False"),
        (3, -1, "synth_corpus seed must be >= 0, got -1"),
    ])
    def test_arguments_rejected_by_name(self, n, seed, culprit):
        with pytest.raises(DataError) as info:
            synth_corpus(n, seed)
        assert str(info.value) == culprit

    @pytest.mark.parametrize("fields, culprit", [
        (dict(min_sentences=5, max_sentences=3),
         "SynthSpec.max_sentences must be >= min_sentences (5), got 3"),
        (dict(min_sentences=0), "SynthSpec.min_sentences must be >= 1, got 0"),
        (dict(min_sentences=2.0), "SynthSpec.min_sentences must be an integer, got 2.0"),
        (dict(max_sentences=True), "SynthSpec.max_sentences must be an integer, got True"),
        (dict(paragraph_break_at=1), "SynthSpec.paragraph_break_at must be >= 2, got 1"),
        (dict(paragraph_break_at=0), "SynthSpec.paragraph_break_at must be >= 2, got 0"),
    ])
    def test_spec_rejected_by_field(self, fields, culprit):
        with pytest.raises(DataError) as info:
            SynthSpec(**fields)
        assert str(info.value) == culprit

    def test_one_sentence_essays_have_one_paragraph(self):
        spec = SynthSpec(min_sentences=1, max_sentences=1, paragraph_break_at=2)
        for record in synth_corpus(20, seed=5, spec=spec):
            assert "\n" not in record.full_text

    def test_numpy_integer_arguments_accepted(self):
        spec = SynthSpec(min_sentences=np.int64(2), max_sentences=np.int64(3))
        assert synth_corpus(np.int64(2), np.int64(7), spec) == synth_corpus(2, 7, SynthSpec(2, 3))

    def test_multiline_essays_exist(self):
        assert any("\n" in r.full_text for r in synth_corpus(30, seed=2))


@st.composite
def synth_specs(draw):
    low = draw(st.integers(1, 28))
    return SynthSpec(min_sentences=low, max_sentences=draw(st.integers(low, low + 8)),
                     paragraph_break_at=draw(st.integers(2, 30)))


class TestSynthOracle:
    """``synth_corpus`` against a frozen copy of the generator that drew
    words with ``Generator.choice`` and mapped scores with numpy."""

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), spec=synth_specs())
    @settings(max_examples=15)
    def test_matches_reference_generator(self, n, seed, spec):
        assert synth_corpus(n, seed, spec) == reference_synth_corpus(n, seed, spec)

    def test_matches_reference_on_benchmark_shaped_corpora(self):
        assert synth_corpus(200, 23) == reference_synth_corpus(200, 23)
        for count in range(2, 29):
            spec = SynthSpec(min_sentences=count, max_sentences=count)
            assert synth_corpus(2, 1000 + count, spec) == reference_synth_corpus(
                2, 1000 + count, spec)


def _statistic_values(lo, hi):
    """Values inside, at and beyond one statistic's breakpoints."""
    span = hi - lo
    edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
             lo - span, hi + span, 0.0, -math.inf, math.inf]
    return st.one_of(st.sampled_from(edges),
                     st.floats(lo - span, hi + span, allow_nan=False))


def _tie_cases():
    """(statistics, trait) pairs whose trait score sits exactly on a .25 or
    .75 tie before rounding: each statistic in turn is bisected towards
    every tie, the others held mid-range, then stepped ulp by ulp."""
    mid = {stat: (lo + hi) / 2 for stat, (lo, hi) in _STAT_RANGES.items()}
    cases = []
    for stat, (lo, hi) in _STAT_RANGES.items():
        for trait in range(len(TARGETS)):
            for tie in np.arange(SCORE_MIN + 0.25, SCORE_MAX, 0.5):
                def gap(value):
                    return reference_raw_scores({**mid, stat: value})[trait] - tie

                a, b = lo, hi
                if gap(a) * gap(b) >= 0:
                    continue  # trait not driven by stat, or tie out of reach
                while math.nextafter(a, b) != b:
                    m = (a + b) / 2
                    a, b = (m, b) if gap(m) * gap(a) > 0 else (a, m)
                for _ in range(8):
                    a = math.nextafter(a, -math.inf)
                for _ in range(16):
                    if gap(a) == 0.0:
                        cases.append(({**mid, stat: a}, trait))
                        break
                    a = math.nextafter(a, math.inf)
    return cases


class TestScoreMapping:
    """Python-float ``scores_from_statistics`` against the numpy mapping
    (``np.clip`` units, ``np.clip(nearest_half(raw), 1, 5)``)."""

    @given(st.fixed_dictionaries(
        {stat: _statistic_values(lo, hi) for stat, (lo, hi) in _STAT_RANGES.items()}))
    @settings(max_examples=150)
    def test_matches_numpy_mapping(self, stats):
        assert scores_from_statistics(stats) == reference_scores_from_statistics(stats)

    def test_ties_round_half_to_even_like_numpy(self):
        cases = _tie_cases()
        assert {trait for _, trait in cases} == set(range(len(TARGETS)))
        for stats, _ in cases:
            assert scores_from_statistics(stats) == reference_scores_from_statistics(stats)

    def test_tie_anchors(self):
        stats = {stat: lo for stat, (lo, hi) in _STAT_RANGES.items()}
        # grammar = 1 + 4 * (1 - error rate): 1.25 -> 1.0 and 1.75 -> 2.0
        assert scores_from_statistics({**stats, "agreement_error_rate": 15 / 16})[4] == 1.0
        assert scores_from_statistics({**stats, "agreement_error_rate": 13 / 16})[4] == 2.0
