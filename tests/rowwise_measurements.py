"""The row-by-row measurement reader and normalizer, kept as the reference
for the columnar ones in ``abrenergy.measurements``.

This is the code the package ran before measurement files were read as
columns: one ``csv`` split, three number parses and one record check per
row, and a reference and two ratios per record.  The additions are the
refusal of a file without records, of a number spelled with ``_`` or a
non-ASCII character, and of a ``/`` in a group field.  Tests require the columnar reader and
normalizer to give the same values, bit for bit, and the same errors.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

from abrenergy import normalize_codec, normalize_connection, resolution_rank

HEADER = [
    "device",
    "connection",
    "codec",
    "resolution",
    "bitrate_bps",
    "avg_bandwidth_bps",
    "avg_current_ma",
]


class ReadError(ValueError):
    """A fault of the file, with the message the package's ParseError gives."""


def data_rows(text: str, expected_header: list[str]):
    """``(line_number, cells)`` for each data row, checking header and field count."""
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if '"' in line or "\0" in line:
            cells = [cell.strip() for cell in next(csv.reader([line]))]
        else:
            cells = [cell.strip() for cell in line.split(",")]
        if not header_seen:
            if cells != expected_header:
                raise ReadError(
                    f"line {line_no}: expected header {','.join(expected_header)!r},"
                    f" got {','.join(cells)!r}"
                )
            header_seen = True
            continue
        if len(cells) != len(expected_header):
            raise ReadError(
                f"line {line_no}: expected {len(expected_header)} fields, got {len(cells)}"
            )
        yield line_no, cells
    if not header_seen:
        raise ReadError("empty document: header line missing")


def parse_float(cell: str, line_no: int, name: str) -> float:
    try:
        if "_" in cell or not cell.isascii():
            raise ValueError(cell)
        value = float(cell)
    except ValueError:
        raise ReadError(f"line {line_no}: {name} must be a number, got {cell!r}") from None
    if not math.isfinite(value):
        raise ReadError(f"line {line_no}: {name} must be finite, got {cell!r}")
    return value


def load_rows(text: str) -> list[tuple]:
    """Each record as (device, connection, codec, resolution, bitrate,
    avg_bandwidth, avg_current), in file order."""
    rows = []
    for line_no, cells in data_rows(text, HEADER):
        numbers = [
            parse_float(cell, line_no, name) for cell, name in zip(cells[4:], HEADER[4:])
        ]
        if not cells[0]:
            raise ReadError(f"line {line_no}: device must be non-empty")
        for name, cell in zip(HEADER, cells[:3]):
            if "/" in cell:
                raise ReadError(f"line {line_no}: {name} must not contain '/', got {cell!r}")
        for name, value in zip(("bitrate", "avg_bandwidth", "avg_current"), numbers):
            if value <= 0:
                raise ReadError(f"line {line_no}: {name} must be positive, got {value}")
        connection = normalize_connection(cells[1])
        rows.append((cells[0], connection, normalize_codec(cells[2]), cells[3], *numbers))
    if not rows:
        raise ReadError("measurement file contains no records")
    return rows


def reference_consumption(group: list[tuple]) -> float:
    floor = min(row[4] for row in group)
    candidates = [row for row in group if row[4] == floor]
    ranked = [(rank, row) for row in candidates if (rank := resolution_rank(row[3])) is not None]
    if ranked:
        best = min(rank for rank, _ in ranked)
        candidates = [row for rank, row in ranked if rank == best]
    return sum(row[6] for row in candidates) / len(candidates)


def normalize(rows: list[tuple]) -> dict[str, tuple[float, list[float], list[float]]]:
    """Each group's label, reference current, and ``bw_rel`` and ``ec_rel``
    columns, groups in first-seen order."""
    groups: dict[tuple, list[tuple]] = defaultdict(list)
    for row in rows:
        groups[row[:3]].append(row)
    out = {}
    for key, group in groups.items():
        label = "/".join(key)
        reference = reference_consumption(group)
        bw_rel, ec_rel = [], []
        for row in group:
            for name, value, column in (
                ("bw_rel", row[5] / row[4], bw_rel),
                ("ec_rel", row[6] / reference, ec_rel),
            ):
                if not (math.isfinite(value) and value > 0):
                    raise ValueError(f"{label}: {name} must be positive and finite, got {value}")
                column.append(value)
        out[label] = (reference, bw_rel, ec_rel)
    return out
