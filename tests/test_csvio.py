"""CSV ingestion: the split fast path against ``csv.reader`` on every line."""

from __future__ import annotations

import csv

from hypothesis import given, settings, strategies as st

from abrenergy._csvio import ParseError, data_rows

HEADER = ["a", "b", "c"]


def reader_rows(text: str, expected_header: list[str]):
    """``data_rows`` as it was before the fast path: ``csv.reader`` per line."""
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [cell.strip() for cell in next(csv.reader([line]))]
        if not header_seen:
            if cells != expected_header:
                raise ParseError(
                    f"line {line_no}: expected header {','.join(expected_header)!r},"
                    f" got {','.join(cells)!r}"
                )
            header_seen = True
            continue
        if len(cells) != len(expected_header):
            raise ParseError(
                f"line {line_no}: expected {len(expected_header)} fields, got {len(cells)}"
            )
        yield line_no, cells
    if not header_seen:
        raise ParseError("empty document: header line missing")


def outcome(rows_of, text: str):
    """The rows yielded before any error, and the error's type and message."""
    rows = []
    try:
        for row in rows_of(text, HEADER):
            rows.append(row)
    except Exception as exc:  # the two must fail alike, whatever the error
        return rows, (type(exc), str(exc))
    return rows, None


plain = st.text(st.sampled_from('ab1.# \t"\x00,'), max_size=5)
cell = st.one_of(
    plain,
    plain.map(lambda c: '"' + c.replace('"', '""') + '"'),  # quoted
    plain.map(lambda c: ' "' + c + '" '),  # padded quotes, which csv keeps
    plain.map(lambda c: '"' + c),  # an unclosed quote
)
line = st.one_of(
    st.lists(cell, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "# comment", "  #, a", "a,b,c", " a , b,c ", "a,b"]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(line, max_size=8), st.booleans())
def test_data_rows_equal_csv_reader_on_every_line(lines, with_header):
    text = "\n".join((["a, b ,c"] if with_header else []) + lines)
    assert outcome(data_rows, text) == outcome(reader_rows, text)
