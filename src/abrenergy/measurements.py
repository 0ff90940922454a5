"""Normalization of raw playback measurements into relative energy points.

Raw records pair a requested representation with the average network
bandwidth and average battery current observed while playing it.  Each
(device, connection, codec) group is normalized against the current drawn
by its cheapest representation, yielding dimensionless points
(relative bandwidth, relative consumption) that a single model can fit.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass

from ._csvio import ParseError, data_rows, parse_float
from .ladder import normalize_codec

WIFI = "WIFI"
LTE_4G = "LTE_4G"
NR_5G = "NR_5G"

MEASUREMENT_HEADER = [
    "device",
    "connection",
    "codec",
    "resolution",
    "bitrate_bps",
    "avg_bandwidth_bps",
    "avg_current_ma",
]

_CONNECTION_ALIASES = {
    "WIFI": WIFI,
    "WI-FI": WIFI,
    "WLAN": WIFI,
    "4G": LTE_4G,
    "LTE": LTE_4G,
    "LTE_4G": LTE_4G,
    "5G": NR_5G,
    "NR": NR_5G,
    "NR_5G": NR_5G,
}

_LEADING_INT = re.compile(r"(\d+)")


def normalize_connection(value: str) -> str:
    """Canonical uppercase connection name; unknown kinds pass through uppercased."""
    canon = value.strip().upper()
    return _CONNECTION_ALIASES.get(canon, canon)


@dataclass(frozen=True)
class Combination:
    """A (device, connection, codec) measurement group."""

    device: str
    connection: str
    codec: str

    @property
    def label(self) -> str:
        return f"{self.device}/{self.connection}/{self.codec}"


@dataclass(frozen=True)
class MeasurementRecord:
    """One playback measurement: what was requested and what it cost."""

    device: str
    connection: str
    codec: str
    resolution: str
    bitrate: float
    avg_bandwidth: float
    avg_current: float

    def __post_init__(self) -> None:
        if not self.device:
            raise ValueError("device must be non-empty")
        for name in ("bitrate", "avg_bandwidth", "avg_current"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

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
    """

    bw_rel: float
    ec_rel: float
    source: Combination

    def __post_init__(self) -> None:
        for name in ("bw_rel", "ec_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{self.source.label}: {name} must be positive and finite, got {value}"
                )

    @property
    def flagged(self) -> bool:
        return self.bw_rel < 1.0


def load_records(text: str) -> list[MeasurementRecord]:
    """Parse measurement CSV rows, rejecting malformed input with line numbers."""
    records = []
    for line_no, cells in data_rows(text, MEASUREMENT_HEADER):
        bitrate = parse_float(cells[4], line_no, "bitrate_bps")
        bandwidth = parse_float(cells[5], line_no, "avg_bandwidth_bps")
        current = parse_float(cells[6], line_no, "avg_current_ma")
        try:
            records.append(
                MeasurementRecord(
                    device=cells[0],
                    connection=normalize_connection(cells[1]),
                    codec=normalize_codec(cells[2]),
                    resolution=cells[3],
                    bitrate=bitrate,
                    avg_bandwidth=bandwidth,
                    avg_current=current,
                )
            )
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
    return records


def resolution_rank(label: str) -> int | None:
    """Leading integer of a resolution label ('240p' -> 240); None if absent."""
    match = _LEADING_INT.search(label)
    return int(match.group(1)) if match else None


def group_records(
    records: list[MeasurementRecord],
) -> dict[Combination, list[MeasurementRecord]]:
    """Records by (device, connection, codec), groups in first-seen order."""
    grouped: dict[tuple[str, str, str], list[MeasurementRecord]] = defaultdict(list)
    for record in records:
        grouped[(record.device, record.connection, record.codec)].append(record)
    return {Combination(*key): group for key, group in grouped.items()}


def reference_consumption(records: list[MeasurementRecord], combination: Combination) -> float:
    """Mean current of the group's reference representation.

    The reference is the record set with the group's minimum bitrate; ties
    across distinct resolutions are broken by the lowest parseable
    resolution label.  Averaging tolerates repeated sessions of the same
    representation.  Pass the group's own records (see ``group_records``)
    when computing every group's reference: the scan is linear in
    ``records``.

    Raises:
        ValueError: when the group has no records.
    """
    key = (combination.device, combination.connection, combination.codec)
    group = [r for r in records if (r.device, r.connection, r.codec) == key]
    if not group:
        raise ValueError(f"no records for combination {combination.label!r}")
    floor = min(record.bitrate for record in group)
    candidates = [record for record in group if record.bitrate == floor]
    ranked = [
        (rank, record)
        for record in candidates
        if (rank := resolution_rank(record.resolution)) is not None
    ]
    if ranked:
        best = min(rank for rank, _ in ranked)
        candidates = [record for rank, record in ranked if rank == best]
    return sum(record.avg_current for record in candidates) / len(candidates)


def normalize_group(
    records: list[MeasurementRecord], combination: Combination
) -> tuple[float, list[RelativePoint]]:
    """One group's reference current and its records as relative points.

    Pass the group's own records (see ``group_records``); the reference is
    ``reference_consumption(records, combination)``.
    """
    reference = reference_consumption(records, combination)
    return reference, [
        RelativePoint(
            bw_rel=record.avg_bandwidth / record.bitrate,
            ec_rel=record.avg_current / reference,
            source=combination,
        )
        for record in records
    ]


def normalize(records: list[MeasurementRecord]) -> dict[Combination, list[RelativePoint]]:
    """Convert raw records into per-combination relative points.

    Every record contributes one point; reference records normalize to
    ``ec_rel`` near 1 by construction.  Scaling all currents of a group by
    a common factor leaves its points unchanged.
    """
    return {
        combination: normalize_group(group, combination)[1]
        for combination, group in group_records(records).items()
    }
