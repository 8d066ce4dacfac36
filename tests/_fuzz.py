"""Hypothesis strategy for the bytes of a CSV file, well-formed or not."""

from hypothesis import strategies as st

from rubric.data import TARGETS

HEADERS = [b"text_id,full_text\n", ("text_id,full_text," + ",".join(TARGETS) + "\n").encode()]

# Fields that make valid rows, mixed with repeated ids, empty text, quoting,
# line breaks, NUL, non-finite and off-lattice scores, and bytes that are not
# UTF-8. Valid values are listed several times, so whole valid files are common.
_ID = st.sampled_from([b"e1", b"e2", b"e3", b"e4", b"e5", b"", b'"e,6"'])
_TEXT = st.sampled_from([b"some essay text"] * 12 + [
    b"", b'"two\nlines"', b'"open', b"caf\xc3\xa9", b"a\x00b", b"\r", b"x\xc3"])
_SCORE = st.sampled_from([b"1", b"3", b"3.5", b"5.0"] * 10 + [
    b"2.25", b"nan", b"-inf", b"", b"x"])


@st.composite
def _rows_file(draw):
    labeled = draw(st.booleans())
    n = len(TARGETS) if labeled else 0
    scores = st.one_of(st.lists(_SCORE, min_size=n, max_size=n), st.lists(_SCORE, max_size=7))
    row = st.tuples(_ID, _TEXT, scores)
    rows = draw(st.one_of(st.lists(row, max_size=6, unique_by=lambda r: r[0]),
                          st.lists(row, max_size=6)))
    return HEADERS[labeled] + b"".join(b",".join([i, t, *s]) + b"\n" for i, t, s in rows)


csv_bytes = st.one_of(
    st.binary(max_size=300),
    st.tuples(st.sampled_from(HEADERS), st.binary(max_size=300)).map(b"".join),
    _rows_file(),
)
