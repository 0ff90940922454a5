"""Shared CSV ingestion: one columnar reader, column parsers, and errors that
name the earliest offending line, as a row-by-row reader would."""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from collections.abc import Callable, Hashable
from typing import TypeVar

T = TypeVar("T")


class ParseError(ValueError):
    """Raised for malformed CSV input.

    ``line`` is the 1-based line at fault, and the message then starts with
    ``line N:``; it is None for a fault of the document as a whole.
    """

    def __init__(self, message: str, line: int | None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def read_columns(
    text: str, header: list[str], convert: Callable[[list[int], list[list[str]]], T]
) -> T:
    """``convert(line_numbers, columns)`` over a CSV document's data rows.

    Blank lines and lines whose first non-space character is ``#`` are
    skipped.  The first remaining line must match ``header`` (cells compared
    after stripping surrounding whitespace), and each later line must have
    as many cells.  ``columns`` holds one list of stripped cells per header
    field, ``line_numbers`` the line of each row.

    ``convert`` checks column by column, in the order in which a row-by-row
    reader checks one row's cells, and each check raises ``ParseError`` at
    its own earliest line.  The error that leaves here is the one the
    row-by-row reader meets first: after a failure ``convert`` runs again on
    the rows before that line, and the last failure stands.  A wrong field
    count fails the same way, after the rows before it.  A check of the
    whole document (``line`` None) must follow every row check in
    ``convert``; it stands only when no row fails.
    """
    line_numbers: list[int] = []
    cells_in_order: list[str] = []  # row after row, so no list per row is kept
    fault: ParseError | None = None
    header_seen = False
    # csv.reader splits a line without quotes at every comma; a line with a
    # NUL goes to it too, since Python 3.10's reader rejects NUL
    quoted = '"' in text or "\0" in text
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        if quoted and ('"' in line or "\0" in line):
            cells = next(csv.reader([line]))
        else:
            cells = line.split(",")
        if not header_seen:
            cells = [cell.strip() for cell in cells]
            if cells != header:
                raise ParseError(
                    f"expected header {','.join(header)!r}, got {','.join(cells)!r}", line_no
                )
            header_seen = True
        elif len(cells) != len(header):
            fault = ParseError(f"expected {len(header)} fields, got {len(cells)}", line_no)
            break
        else:
            line_numbers.append(line_no)
            cells_in_order += cells
    if not header_seen:
        raise ParseError("empty document: header line missing", None)
    width = len(header)
    columns = [list(map(str.strip, cells_in_order[i::width])) for i in range(width)]
    del cells_in_order
    while True:
        try:
            result = convert(line_numbers, columns)
        except ParseError as exc:
            if exc.line is None:
                raise (fault or exc) from None
            fault = exc
            rows_before = bisect_left(line_numbers, exc.line)
            line_numbers = line_numbers[:rows_before]
            columns = [column[:rows_before] for column in columns]
            continue
        if fault is not None:
            raise fault
        return result


def plain(text: str) -> str:
    """``text``, or ValueError if it holds ``_`` or a non-ASCII character:
    ``int`` and ``float`` accept ``1_000`` and ``٣``, which no CSV writer emits."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def int_column(cells: list[str], line_numbers: list[int], name: str) -> list[int]:
    """The cells as integers; ParseError at the first cell that is not one."""
    try:
        plain("".join(cells))
        return list(map(int, cells))
    except ValueError:
        for line_no, cell in zip(line_numbers, cells):
            try:
                int(plain(cell))
            except ValueError:
                raise ParseError(f"{name} must be an integer, got {cell!r}", line_no) from None
        raise


def float_column(cells: list[str], line_numbers: list[int], name: str) -> list[float]:
    """The cells as floats; ParseError at the first cell that is not a finite number."""
    try:
        plain("".join(cells))
        values = list(map(float, cells))
    except ValueError:
        values = []
    if len(values) < len(cells) or not all(map(math.isfinite, values)):
        for line_no, cell in zip(line_numbers, cells):
            try:
                value = float(plain(cell))
            except ValueError:
                raise ParseError(f"{name} must be a number, got {cell!r}", line_no) from None
            if not math.isfinite(value):
                raise ParseError(f"{name} must be finite, got {cell!r}", line_no)
    return values


def check_unique(values: list[Hashable], line_numbers: list[int], name: str) -> None:
    """ParseError at the first value that appeared on an earlier line, naming both."""
    if len(set(values)) == len(values):
        return
    first: dict[Hashable, int] = {}
    for line_no, value in zip(line_numbers, values):
        seen = first.setdefault(value, line_no)
        if seen != line_no:
            raise ParseError(f"duplicate {name} {value!r} (first seen on line {seen})", line_no)
