"""Shared CSV ingestion: comment-aware iteration and row-numbered errors."""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator


class ParseError(ValueError):
    """Raised for malformed CSV input; messages carry 1-based line numbers."""


def data_rows(text: str, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_number, cells)`` for each data row of a CSV document.

    Blank lines and lines whose first non-space character is ``#`` are
    skipped.  The first remaining line must match ``expected_header``
    exactly (cells compared after stripping surrounding whitespace).
    """
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # csv.reader splits a line without quotes at every comma; a line with
        # a NUL goes to it too, since Python 3.10's reader rejects NUL
        if '"' in line or "\0" in line:
            cells = [cell.strip() for cell in next(csv.reader([line]))]
        else:
            cells = [cell.strip() for cell in line.split(",")]
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


def parse_int(cell: str, line_no: int, name: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(
            f"line {line_no}: {name} must be an integer, got {cell!r}"
        ) from None


def parse_float(cell: str, line_no: int, name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"line {line_no}: {name} must be a number, got {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"line {line_no}: {name} must be finite, got {cell!r}")
    return value

