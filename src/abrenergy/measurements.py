"""Normalization of raw playback measurements into relative energy points.

Raw records pair a requested representation with the average network
bandwidth and average battery current observed while playing it.  Each
(device, connection, codec) group is normalized against the current drawn
by its cheapest representation, yielding dimensionless points
(relative bandwidth, relative consumption) that a single model can fit.

A measurement file is read into columns (``Measurements``, one list per
field) and each group is normalized from its columns.  ``MeasurementRecord``
and ``RelativePoint`` are row views over these columns, built only by the
functions that return them.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import truediv
from typing import NamedTuple

from ._csvio import ParseError, float_column, read_columns
from .ladder import normalize_codec, normalize_connection

MEASUREMENT_HEADER = [
    "device",
    "connection",
    "codec",
    "resolution",
    "bitrate_bps",
    "avg_bandwidth_bps",
    "avg_current_ma",
]

#: The numeric fields as records name them; the file's header adds the unit.
_NUMBERS = ("bitrate", "avg_bandwidth", "avg_current")

_LEADING_INT = re.compile(r"([0-9]+)")


@dataclass(frozen=True)
class Combination:
    """A (device, connection, codec) measurement group."""

    device: str
    connection: str
    codec: str

    @property
    def label(self) -> str:
        return f"{self.device}/{self.connection}/{self.codec}"


class Measurements(NamedTuple):
    """Measurement rows as one list per field, in file order."""

    device: list[str]
    connection: list[str]
    codec: list[str]
    resolution: list[str]
    bitrate: list[float]
    avg_bandwidth: list[float]
    avg_current: list[float]


def _record_fault(
    labels: Sequence[Sequence[str]], numbers: Sequence[Sequence[float]]
) -> tuple[int, str] | None:
    """The first row failing a record check, and its message.

    The checks run in this order, each over every row: a non-empty device,
    then each of the ``labels`` (device, connection, codec) free of ``/``,
    so that no two groups share a label, then each of the finite
    ``numbers`` (bitrate, bandwidth, current) positive.
    """
    device = labels[0]
    if "" in device:
        return device.index(""), "device must be non-empty"
    for name, values in zip(MEASUREMENT_HEADER, labels):
        if "/" in "".join(values):
            row = next(row for row, value in enumerate(values) if "/" in value)
            return row, f"{name} must not contain '/', got {values[row]!r}"
    for name, values in zip(_NUMBERS, numbers):
        if min(values, default=1.0) <= 0:
            row = next(row for row, value in enumerate(values) if value <= 0)
            return row, f"{name} must be positive, got {values[row]}"
    return None


def _positive_and_finite(values: Sequence[float]) -> bool:
    return all(map(math.isfinite, values)) and min(values, default=1.0) > 0


def _point_fault(bw_rel: Sequence[float], ec_rel: Sequence[float]) -> str | None:
    """The message for the first relative value, row by row and ``bw_rel``
    before ``ec_rel``, that is not positive and finite."""
    if _positive_and_finite(bw_rel) and _positive_and_finite(ec_rel):
        return None
    for row in zip(bw_rel, ec_rel):
        for name, value in zip(("bw_rel", "ec_rel"), row):
            if not (math.isfinite(value) and value > 0):
                return f"{name} must be positive and finite, got {value}"
    return None


@dataclass(frozen=True)
class MeasurementRecord:
    """One playback measurement: what was requested and what it cost.

    A row view of ``Measurements``, checked as a file row is: each number
    finite, then the device non-empty, then no ``/`` in the device,
    connection or codec, then each number positive.
    """

    device: str
    connection: str
    codec: str
    resolution: str
    bitrate: float
    avg_bandwidth: float
    avg_current: float

    def __post_init__(self) -> None:
        numbers = (self.bitrate, self.avg_bandwidth, self.avg_current)
        if not all(map(math.isfinite, numbers)):
            name, value = next((n, v) for n, v in zip(_NUMBERS, numbers) if not math.isfinite(v))
            raise ValueError(f"{name} must be finite, got {value}")
        labels = [(self.device,), (self.connection,), (self.codec,)]
        fault = _record_fault(labels, [(value,) for value in numbers])
        if fault:
            raise ValueError(fault[1])

    @property
    def combination(self) -> Combination:
        return Combination(self.device, self.connection, self.codec)


@dataclass(frozen=True)
class RelativePoint:
    """Dimensionless measurement: bandwidth and consumption relative to the group.

    ``bw_rel`` is observed bandwidth over the requested bitrate; ``ec_rel``
    is observed current over the group's reference current.  Points with
    ``bw_rel < 1`` ran below the requested rate and are flagged; they are
    retained but excluded from fitting by default.  Both must be positive
    and finite: a ratio of finite values can still overflow or underflow.
    A row view of the columns ``normalize_columns`` returns.
    """

    bw_rel: float
    ec_rel: float
    source: Combination

    def __post_init__(self) -> None:
        fault = _point_fault((self.bw_rel,), (self.ec_rel,))
        if fault:
            raise ValueError(f"{self.source.label}: {fault}")

    @property
    def flagged(self) -> bool:
        return self.bw_rel < 1.0


def _canonical(values: list[str], canonical: Callable[[str], str]) -> list[str]:
    """``canonical`` of each value, called once per distinct value."""
    spelled = {value: canonical(value) for value in set(values)}
    return list(map(spelled.__getitem__, values))


def _measurements(line_numbers: list[int], columns: list[list[str]]) -> Measurements:
    device, connection, codec, resolution, *cells = columns
    numbers = [
        float_column(column, line_numbers, name)
        for column, name in zip(cells, MEASUREMENT_HEADER[4:])
    ]
    fault = _record_fault((device, connection, codec), numbers)
    if fault:
        row, message = fault
        raise ParseError(message, line_numbers[row])
    if not device:
        raise ParseError("measurement file contains no records", None)
    return Measurements(
        device,
        _canonical(connection, normalize_connection),
        _canonical(codec, normalize_codec),
        resolution,
        *numbers,
    )


def read_measurements(text: str) -> Measurements:
    """Parse measurement CSV into columns.

    A malformed file fails at its earliest offending line, and within that
    line at the first failing check in this order: each number parses and
    is finite, the device is non-empty, no ``/`` is in the device,
    connection or codec, each number is positive.
    Connection and codec spellings are made canonical.

    Raises:
        ParseError: on a malformed row, or when the file holds no records.
    """
    return read_columns(text, MEASUREMENT_HEADER, _measurements)


def load_records(text: str) -> list[MeasurementRecord]:
    """Parse measurement CSV into records: ``read_measurements`` row by row."""
    return [MeasurementRecord(*row) for row in zip(*read_measurements(text))]


def _columns(records: list[MeasurementRecord]) -> Measurements:
    return Measurements(
        *([getattr(record, name) for record in records] for name in Measurements._fields)
    )


def resolution_rank(label: str) -> int | None:
    """Leading integer of a resolution label ('240p' -> 240); None if absent."""
    match = _LEADING_INT.match(label)
    return int(match.group(1)) if match else None


def group_measurements(measurements: Measurements) -> dict[Combination, Measurements]:
    """Each (device, connection, codec) group's rows, groups in first-seen order."""
    rows: dict[tuple[str, str, str], list[int]] = defaultdict(list)
    keys = zip(measurements.device, measurements.connection, measurements.codec)
    for row, key in enumerate(keys):
        rows[key].append(row)
    return {
        Combination(*key): Measurements(*([column[i] for i in group] for column in measurements))
        for key, group in rows.items()
    }


def _reference(group: Measurements) -> float:
    """Mean current of the rows at the minimum bitrate that have the lowest
    resolution rank; all of them when no resolution label has a rank."""
    floor = min(group.bitrate)
    rows = [row for row, bitrate in enumerate(group.bitrate) if bitrate == floor]
    ranks = [resolution_rank(group.resolution[row]) for row in rows]
    ranked = [rank for rank in ranks if rank is not None]
    if ranked:
        best = min(ranked)
        rows = [row for row, rank in zip(rows, ranks) if rank == best]
    return sum(group.avg_current[row] for row in rows) / len(rows)


def reference_consumption(records: list[MeasurementRecord], combination: Combination) -> float:
    """Mean current of the group's reference representation.

    The reference is the record set with the group's minimum bitrate; ties
    across distinct resolutions are broken by the lowest
    ``resolution_rank``.  Averaging tolerates repeated sessions of the same
    representation.  The scan is linear in ``records``.

    Raises:
        ValueError: when the group has no records.
    """
    key = (combination.device, combination.connection, combination.codec)
    group = [r for r in records if (r.device, r.connection, r.codec) == key]
    if not group:
        raise ValueError(f"no records for combination {combination.label!r}")
    return _reference(_columns(group))


def normalize_columns(
    group: Measurements, combination: Combination
) -> tuple[float, list[float], list[float]]:
    """One group's reference current and its ``bw_rel`` and ``ec_rel`` columns.

    Pass the group's own rows (see ``group_measurements``).

    Raises:
        ValueError: when a ratio is not positive and finite, naming the
            combination; the first such row is named, ``bw_rel`` first.
    """
    reference = _reference(group)
    bw_rel = list(map(truediv, group.avg_bandwidth, group.bitrate))
    ec_rel = [current / reference for current in group.avg_current]
    fault = _point_fault(bw_rel, ec_rel)
    if fault:
        raise ValueError(f"{combination.label}: {fault}")
    return reference, bw_rel, ec_rel


def normalize(records: list[MeasurementRecord]) -> dict[Combination, list[RelativePoint]]:
    """Convert raw records into per-combination relative points.

    Every record contributes one point; reference records normalize to
    ``ec_rel`` near 1 by construction.  Scaling all currents of a group by
    a common factor leaves its points unchanged.  A row view of
    ``group_measurements`` and ``normalize_columns``.
    """
    return {
        combination: [
            RelativePoint(bw, ec, combination)
            for bw, ec in zip(*normalize_columns(group, combination)[1:])
        ]
        for combination, group in group_measurements(_columns(records)).items()
    }
