"""CSV ingestion: the columnar reader against a row-by-row one that splits
every line with ``csv.reader`` and checks each row in turn."""

from __future__ import annotations

import csv
import math

from hypothesis import example, given, settings, strategies as st

from abrenergy._csvio import ParseError, check_unique, float_column, int_column, read_columns

HEADER = ["a", "b", "c"]


class RowFault(ValueError):
    """A fault the row-by-row reader meets, with the package's message."""


def reader_rows(text: str, expected_header: list[str]):
    """``(line_number, cells)`` per data row, with ``csv.reader`` on every line."""
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [cell.strip() for cell in next(csv.reader([line]))]
        if not header_seen:
            if cells != expected_header:
                raise RowFault(
                    f"line {line_no}: expected header {','.join(expected_header)!r},"
                    f" got {','.join(cells)!r}"
                )
            header_seen = True
            continue
        if len(cells) != len(expected_header):
            raise RowFault(
                f"line {line_no}: expected {len(expected_header)} fields, got {len(cells)}"
            )
        yield line_no, cells
    if not header_seen:
        raise RowFault("empty document: header line missing")


def outcome(read, text: str):
    """What ``read`` gives, or the error's message: both must fail alike."""
    try:
        return read(text)
    except (ParseError, RowFault) as exc:
        return str(exc)
    except Exception as exc:  # any other error must be the same too
        return type(exc), str(exc)


def columns_as_rows(text: str):
    line_numbers, columns = read_columns(text, HEADER, lambda *table: table)
    return list(zip(line_numbers, map(list, zip(*columns))))


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
def test_read_columns_equal_csv_reader_on_every_line(lines, with_header):
    text = "\n".join((["a, b ,c"] if with_header else []) + lines)
    assert outcome(columns_as_rows, text) == outcome(lambda t: list(reader_rows(t, HEADER)), text)


def checked_columns(line_numbers, columns):
    a = float_column(columns[0], line_numbers, "a")
    b = int_column(columns[1], line_numbers, "b")
    check_unique(columns[2], line_numbers, "c")
    if not a:
        raise ParseError("no rows", None)
    return a, b


def checked_rows(text: str):
    a, b, first = [], [], {}
    for line_no, cells in reader_rows(text, HEADER):
        try:
            a.append(float(cells[0]))
        except ValueError:
            raise RowFault(f"line {line_no}: a must be a number, got {cells[0]!r}") from None
        if not math.isfinite(a[-1]):
            raise RowFault(f"line {line_no}: a must be finite, got {cells[0]!r}")
        try:
            b.append(int(cells[1]))
        except ValueError:
            raise RowFault(f"line {line_no}: b must be an integer, got {cells[1]!r}") from None
        seen = first.setdefault(cells[2], line_no)
        if seen != line_no:
            raise RowFault(
                f"line {line_no}: duplicate c {cells[2]!r} (first seen on line {seen})"
            )
    if not a:
        raise RowFault("no rows")
    return a, b


number = st.sampled_from(["1", " 2.5 ", "-0.0", "1e400", "x", "", "inf", "nan", '"3"', '"1,5"'])
row = st.tuples(number, number, st.sampled_from(["p", "q", " p", "r", "s"])).map(",".join)
checked_line = st.one_of(row, row, row, st.sampled_from(["", "# c", "1,2", "1,2,t,u"]))


@settings(max_examples=500, deadline=None)
@given(st.lists(checked_line, max_size=8))
@example(["x,1,p", "1,2"])  # a bad number before a wrong field count
@example(["1,1,p", "1,x,q", "inf,1,r", "1,1,p"])  # three checks fail, the earliest line wins
def test_column_checks_fail_where_row_checks_do(lines):
    text = "\n".join(["a,b,c"] + lines)
    assert outcome(lambda t: read_columns(t, HEADER, checked_columns), text) == outcome(
        checked_rows, text
    )
