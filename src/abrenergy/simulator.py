"""Session simulation: a request mode driven over a channel trace.

One session applies the request policy to every segment of a bandwidth
trace, prices each download with the consumption model, and optionally
drains a battery.  It is computed as array operations over the trace, and
its per-segment record is kept as columns.  Sessions under different modes
but identical conditions are then compared against the energy-saving-off
baseline.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from functools import cached_property
from types import NoneType

import numpy as np

from ._csvio import ParseError, check_unique, float_column, read_columns
from ._layout import json_array, lay_out
from .channel import ChannelTrace
from .ladder import QualityLadder, Representation
from .model import ModelParams, evaluate_array
from .policy import FIXED_GAMMAS, AdaptiveConfig, EnergyMode, PolicyDecision

#: Mean-opinion deltas below this many VMAF points are typically not noticed.
PERCEPTIBLE_VMAF_DELTA = 6.0

QUALITY_HEADER = ["name", "psnr", "ssim", "vmaf"]
QUALITY_METRICS = ("psnr", "ssim", "vmaf")

COMPARISON_CSV_HEADER = "channel,mode,energy_pct,psnr,d_psnr,ssim,d_ssim,vmaf,d_vmaf"


@dataclass(frozen=True)
class BatteryConfig:
    """Battery drained by the session; the reference current anchors the model.

    ``reference_current_ma`` is the absolute draw corresponding to relative
    consumption 1.0, so a segment costs
    ``reference_current_ma * ec_rel * segment_duration`` milliamp-seconds.
    """

    capacity_mah: float
    reference_current_ma: float
    initial_soc: float = 100.0

    def __post_init__(self) -> None:
        for name in ("capacity_mah", "reference_current_ma", "initial_soc"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.capacity_mah <= 0:
            raise ValueError(f"capacity_mah must be positive, got {self.capacity_mah}")
        if self.reference_current_ma <= 0:
            raise ValueError(
                f"reference_current_ma must be positive, got {self.reference_current_ma}"
            )
        if not 0.0 < self.initial_soc <= 100.0:
            raise ValueError(f"initial_soc must be within (0, 100], got {self.initial_soc}")


@dataclass(frozen=True)
class QualityMap:
    """Per-representation quality scores, by metric.

    A metric is either absent or scored for every representation of the
    ladder in use; partial coverage is rejected at session start.
    """

    psnr: Mapping[str, float] | None = None
    ssim: Mapping[str, float] | None = None
    vmaf: Mapping[str, float] | None = None

    def metrics(self) -> dict[str, Mapping[str, float]]:
        present = {}
        for metric in QUALITY_METRICS:
            scores = getattr(self, metric)
            if scores is not None:
                present[metric] = scores
        return present

    def validate_for(self, ladder: QualityLadder) -> None:
        for metric, scores in self.metrics().items():
            missing = [rep.name for rep in ladder if rep.name not in scores]
            if missing:
                raise ValueError(
                    f"quality metric {metric!r} is missing scores for: {', '.join(missing)}"
                )


def load_quality_map(text: str) -> QualityMap:
    """Parse quality CSV (``name,psnr,ssim,vmaf``); empty cells mean unscored.

    Raises:
        ParseError: on a malformed row, or when no cell holds a score.
    """
    return read_columns(text, QUALITY_HEADER, _quality_map)


def _quality_map(line_numbers: list[int], columns: list[list[str]]) -> QualityMap:
    names, *cells = columns
    if "" in names:
        raise ParseError("name must be non-empty", line_numbers[names.index("")])
    check_unique(names, line_numbers, "name")
    scores = {}
    for metric, column in zip(QUALITY_METRICS, cells):
        rows = [row for row, cell in enumerate(column) if cell]
        values = float_column(
            [column[row] for row in rows], [line_numbers[row] for row in rows], metric
        )
        scores[metric] = dict(zip([names[row] for row in rows], values)) or None
    if not any(scores.values()):
        raise ParseError("quality file contains no scores", None)
    return QualityMap(**scores)


@dataclass(frozen=True)
class SessionContext:
    """What a report was computed under; compared modes must share it."""

    params: ModelParams
    segment_duration: float
    ladder: QualityLadder
    trace_digest: str

    @property
    def ladder_digest(self) -> str:
        """Short sha256 of the ladder's fields, as reports record it."""
        payload = ";".join(
            f"{rep.name},{rep.width},{rep.height},{rep.label},{rep.bitrate},{rep.codec}"
            for rep in self.ladder
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SegmentOutcome:
    """One simulated segment request and its cost."""

    index: int
    bandwidth: float
    gamma_used: float
    decision: PolicyDecision
    bw_rel: float
    ec_rel: float
    download_time: float
    soc_after: float | None

    @property
    def selected(self) -> Representation:
        return self.decision.selected

    @property
    def stalled(self) -> bool:
        # bitrate above capacity means the segment cannot arrive in time
        return self.decision.selected.bitrate > self.bandwidth


@dataclass(frozen=True, eq=False)
class SegmentColumns:
    """The per-segment record of a session, one array per field.

    ``rung`` indexes the report's ladder and ``candidates`` counts the rungs
    that fit the budget (0 means the lowest rung was a fallback).
    ``soc_after`` is None when no battery was simulated.  Whether a segment
    fell back or stalled follows from these columns and the ladder.
    """

    bandwidth: np.ndarray
    gamma: np.ndarray
    rung: np.ndarray
    threshold: np.ndarray
    candidates: np.ndarray
    bw_rel: np.ndarray
    ec_rel: np.ndarray
    download_time: np.ndarray
    soc_after: np.ndarray | None

    def __len__(self) -> int:
        return len(self.bandwidth)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentColumns):
            return NotImplemented
        for name in _COLUMN_NAMES:
            mine, theirs = getattr(self, name), getattr(other, name)
            if (mine is None) != (theirs is None):
                return False
            if mine is not None and not np.array_equal(mine, theirs):
                return False
        return True


_COLUMN_NAMES = tuple(f.name for f in fields(SegmentColumns))

_NUMBER = (float, int)

#: Each saved record as (JSON key, attribute, JSON types accepted), in file order.
_MODE_FIELDS = (("kind", "kind", (str,)), ("gamma", "gamma", _NUMBER))
_ADAPTIVE_FIELDS = (
    ("high_threshold", "high_threshold", _NUMBER),
    ("low_threshold", "low_threshold", _NUMBER),
)
PARAMS_FIELDS = (("a", "a", _NUMBER), ("b", "b", _NUMBER), ("c", "c", _NUMBER))
_CONTEXT_FIELDS = (  # written after "params", which holds PARAMS_FIELDS
    ("segment_duration_s", "segment_duration", _NUMBER),
    ("ladder_digest", "ladder_digest", (str,)),
    ("trace_digest", "trace_digest", (str,)),
)
_LADDER_FIELDS = (
    ("name", "name", (str,)),
    ("width", "width", (int,)),
    ("height", "height", (int,)),
    ("label", "label", (str,)),
    ("bitrate_bps", "bitrate", (int,)),
    ("codec", "codec", (str,)),
)
_AGGREGATE_FIELDS = (
    ("n_segments", "n_segments", (int,)),
    ("mean_ec_rel", "mean_ec_rel", _NUMBER),
    ("mean_bitrate_bps", "mean_bitrate", _NUMBER),
    ("mean_quality", "mean_quality", (dict, NoneType)),
    ("stall_count", "stall_count", (int,)),
    ("fallback_count", "fallback_count", (int,)),
    ("final_soc", "final_soc", (*_NUMBER, NoneType)),
    ("soc_depleted", "soc_depleted", (bool,)),
)
#: The per-segment record in CSV column order, as (CSV header, JSON key or
#: None for the CSV-only bitrate, SegmentColumns attribute or None for a
#: column ``_segment_values`` derives, types).  The CSV writer formats every
#: column by its types.
_SEGMENT_FIELDS = (
    ("segment", "index", None, (int,)),
    ("bandwidth_bps", "bandwidth_bps", "bandwidth", _NUMBER),
    ("gamma", "gamma", "gamma", _NUMBER),
    ("selected", "selected", "rung", (str,)),
    ("selected_bitrate_bps", None, None, (int,)),
    ("threshold_bps", "threshold_bps", "threshold", _NUMBER),
    ("candidates", "candidates", "candidates", (int,)),
    ("fallback", "fallback", None, (bool,)),
    ("stalled", "stalled", None, (bool,)),
    ("bw_rel", "bw_rel", "bw_rel", _NUMBER),
    ("ec_rel", "ec_rel", "ec_rel", _NUMBER),
    ("download_time_s", "download_time_s", "download_time", _NUMBER),
    ("soc_after", "soc_after", "soc_after", (*_NUMBER, NoneType)),
)

_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
                    NoneType: "null", dict: "an object", list: "an array"}  # fmt: skip


def check_types(key: str, values: Iterable, types: tuple[type, ...]) -> None:
    """Check that the type of each of ``values`` is in ``types``.

    Types are matched exactly, so ``true`` is not an integer.

    Raises:
        ValueError: naming ``key`` and the JSON types it accepts.
    """
    wrong = set(map(type, values)).difference(types)
    if wrong:
        raise ValueError(
            f"{key!r} must be {' or '.join(_JSON_TYPE_NAMES[t] for t in types)}, got"
            f" {' and '.join(sorted(_JSON_TYPE_NAMES.get(t, t.__name__) for t in wrong))}"
        )


def read_fields(table: tuple, record: object, name: str) -> dict:
    """The values of one saved record by attribute, each checked against its table entry.

    Raises:
        KeyError: for a key the record lacks.
        ValueError: when the record is not a JSON object (naming ``name``),
            or naming a key whose value has a type the table does not accept
            or is a non-finite number.
    """
    check_types(name, [record], (dict,))
    values = {}
    for key, attr, types in table:
        value = values[attr] = record[key]
        check_types(key, [value], types)
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{key!r} must be finite, got {value}")
    return values


def _write_fields(table: tuple, obj: object) -> dict:
    """One record's attributes under their JSON keys, in table order."""
    return {key: getattr(obj, attr) for key, attr, _ in table}


def _segment_values(ladder: QualityLadder, cols: SegmentColumns | None) -> dict[str, Sequence]:
    """Each per-segment column as a list of plain values, by CSV header.

    Columns go through ``tolist`` so that ``repr`` and JSON see ``float``
    and ``int``, never numpy scalars.

    Raises:
        ValueError: when the report carries no per-segment record.
    """
    if cols is None:
        raise ValueError("the report carries no per-segment record")
    rungs = cols.rung.tolist()
    names = [rep.name for rep in ladder]
    bitrates = ladder.bitrates
    derived = {
        "segment": list(range(len(cols))),
        "selected": [names[rung] for rung in rungs],
        "selected_bitrate_bps": [bitrates[rung] for rung in rungs],
        "fallback": (cols.candidates == 0).tolist(),
        "stalled": (np.array(bitrates, dtype=float)[cols.rung] > cols.bandwidth).tolist(),
        "soc_after": [None] * len(cols) if cols.soc_after is None else cols.soc_after.tolist(),
    }
    return {
        header: derived[header] if header in derived else getattr(cols, attr).tolist()
        for header, _, attr, _ in _SEGMENT_FIELDS
    }


def _read_segments(
    rows: object, mode: EnergyMode, context: SessionContext, n_segments: int
) -> SegmentColumns:
    """The per-segment record of a saved report, priced again from its inputs.

    Only ``bandwidth_bps``, ``soc_after`` and the adaptive mode's first
    ``gamma`` are read as data; every other saved value must be what
    ``_segment_values`` writes for the record ``_price`` gives.
    """
    check_types("per_segment", [rows], (list,))
    check_types("per_segment row", rows, (dict,))
    if len(rows) != n_segments:
        raise ValueError(f"per_segment holds {len(rows)} rows, but n_segments is {n_segments}")
    if not rows:
        raise ValueError("per_segment must hold at least one row")
    saved = {}
    for _, key, _, types in _SEGMENT_FIELDS:
        if key:
            saved[key] = [row[key] for row in rows]
            check_types(key, saved[key], types)
    nulls = saved["soc_after"].count(None)
    if 0 < nulls < n_segments:
        raise ValueError("'soc_after' mixes null and numbers")
    bandwidth = np.array(saved["bandwidth_bps"], dtype=float)
    soc_after = None if nulls else np.array(saved["soc_after"], dtype=float)
    for key, column in (("bandwidth_bps", bandwidth), ("soc_after", soc_after)):
        if column is not None and not np.isfinite(column).all():
            raise ValueError(f"{key!r} must be finite")
    if (bandwidth <= 0).any():
        raise ValueError("'bandwidth_bps' must be positive")
    gamma = np.full(n_segments, mode.gamma)
    if mode.adaptive is not None:  # each later gamma is the mode's at the charge before
        bands = [FIXED_GAMMAS[kind] for kind in ("light", "medium", "strict")]
        gamma[0] = saved["gamma"][0]
        if gamma[0] not in bands:
            raise ValueError(f"per_segment row 0: 'gamma' is {saved['gamma'][0]!r}, but the"
                             f" adaptive mode gives {' or '.join(map(repr, bands))}")
        # the last charge picks no gamma, but the mode must be able to read it
        gamma[1:] = list(map(mode.gamma_for, saved["soc_after"]))[:-1]
    segments = _price(context, bandwidth, gamma, soc_after)
    written = _segment_values(context.ladder, segments)
    for header, key, _, _ in _SEGMENT_FIELDS:
        if key and saved[key] != written[header]:
            i = next(i for i, (a, b) in enumerate(zip(saved[key], written[header])) if a != b)
            raise ValueError(f"per_segment row {i}: {key!r} is {saved[key][i]!r}, but the"
                             f" stored columns give {written[header][i]!r}")  # fmt: skip
    return segments


def _aggregates(ladder: QualityLadder, cols: SegmentColumns) -> dict:
    """The aggregates that follow from a per-segment record, by attribute.

    A session ends with the battery depleted exactly when its last charge
    is zero, since the drain clamps the charge there and stops.
    """
    selected = np.array(ladder.bitrates, dtype=float)[cols.rung]
    final_soc = None if cols.soc_after is None else float(cols.soc_after[-1])
    return {
        "n_segments": len(cols),
        "mean_ec_rel": _fmean(cols.ec_rel),
        "mean_bitrate": _fmean(selected),
        "stall_count": int(np.count_nonzero(selected > cols.bandwidth)),
        "fallback_count": int(np.count_nonzero(cols.candidates == 0)),
        "final_soc": final_soc,
        "soc_depleted": final_soc is not None and final_soc <= 0.0,
    }


def _provenance_comment(provenance: dict | None) -> str:
    if provenance is None:
        return ""
    return "# provenance: " + json.dumps(provenance, separators=(",", ":")) + "\n"


_CSV_ROW_TEMPLATE = ("", *[","] * (len(_SEGMENT_FIELDS) - 1), "\n")


@dataclass(frozen=True)
class SessionReport:
    """Aggregates (and optionally the per-segment record) of one session."""

    mode: EnergyMode
    context: SessionContext
    n_segments: int
    mean_ec_rel: float
    mean_bitrate: float
    mean_quality: dict[str, float] | None
    stall_count: int
    fallback_count: int
    final_soc: float | None
    soc_depleted: bool
    segments: SegmentColumns | None

    @property
    def ladder(self) -> QualityLadder:
        return self.context.ladder

    @property
    def per_segment(self) -> tuple[SegmentOutcome, ...] | None:
        """The per-segment record as objects, built from the columns on each access."""
        if self.segments is None:
            return None
        v = _segment_values(self.ladder, self.segments)
        return tuple(
            SegmentOutcome(index, bw, gamma, PolicyDecision(self.ladder[rung], threshold, count,
                           count == 0), bw_rel, ec_rel, dt, soc)
            for index, bw, gamma, rung, threshold, count, bw_rel, ec_rel, dt, soc in zip(
                v["segment"], v["bandwidth_bps"], v["gamma"], self.segments.rung.tolist(),
                v["threshold_bps"], v["candidates"], v["bw_rel"], v["ec_rel"],
                v["download_time_s"], v["soc_after"],
            )
        )  # fmt: skip

    @cached_property
    def _segment_cells(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """Each per-segment column as text, by CSV header: as JSON spells it
        and as the CSV does.

        Every column is formatted once.  Numbers are ``repr`` of plain
        ``float`` and ``int`` values, as ``json.dumps`` writes them, and both
        spellings share them; each rung name is JSON-escaped once.
        Booleans are ``true``/``false`` in JSON and 0/1 in the CSV, and a
        charge that was not simulated is ``null`` or an empty cell.
        """
        values = _segment_values(self.ladder, self.segments)
        as_json: dict[str, list[str]] = {}
        as_csv: dict[str, list[str]] = {}
        for header, _, _, types in _SEGMENT_FIELDS:
            column = values[header]
            if str in types:
                escaped = {rep.name: json.dumps(rep.name) for rep in self.ladder}
                as_json[header] = list(map(escaped.__getitem__, column))
                as_csv[header] = column
            elif bool in types:
                as_json[header] = list(map(("false", "true").__getitem__, column))
                as_csv[header] = list(map(("0", "1").__getitem__, column))
            elif NoneType in types and column[:1] == [None]:
                as_json[header] = ["null"] * len(column)
                as_csv[header] = [""] * len(column)
            else:
                as_json[header] = as_csv[header] = list(map(repr, column))
        return as_json, as_csv

    def to_json_dict(self) -> dict:
        segments = None
        if self.segments is not None:
            values = _segment_values(self.ladder, self.segments)
            keys, columns = zip(*((key, values[h]) for h, key, _, _ in _SEGMENT_FIELDS if key))
            segments = [dict(zip(keys, row)) for row in zip(*columns)]
        return self._json_dict(segments)

    def _json_dict(self, segments: list | None) -> dict:
        mode = _write_fields(_MODE_FIELDS, self.mode)
        if self.mode.adaptive is not None:
            mode["adaptive"] = _write_fields(_ADAPTIVE_FIELDS, self.mode.adaptive)
        return {
            "mode": mode,
            "context": {
                "params": _write_fields(PARAMS_FIELDS, self.context.params),
                **_write_fields(_CONTEXT_FIELDS, self.context),
            },
            "ladder": [_write_fields(_LADDER_FIELDS, rep) for rep in self.ladder],
            **_write_fields(_AGGREGATE_FIELDS, self),
            "per_segment": segments,
        }

    def to_json(self, provenance: dict) -> str:
        """``{"provenance": provenance, "report": to_json_dict()}`` as
        ``json.dumps(..., indent=2)`` writes it, with a final newline.

        Only the part outside the per-segment record goes through
        ``json.dumps``; the record's rows are laid out from the formatted
        columns and put in place of its ``null``, the last value written.
        """
        payload = {"provenance": provenance, "report": self._json_dict(None)}
        text = json.dumps(payload, indent=2) + "\n"
        if self.segments is None:
            return text
        as_json, _ = self._segment_cells
        keys, columns = zip(*((key, as_json[h]) for h, key, _, _ in _SEGMENT_FIELDS if key))
        head, _, tail = text.rpartition("null")
        # the record is the value of "per_segment", two levels deep
        return head + json_array(keys, columns, 2) + tail

    def to_csv(self, provenance: dict | None = None) -> str:
        """The per-segment record as CSV, one row per segment.

        Booleans are written as 0/1, numbers by ``repr``, and the charge
        after a segment as an empty cell when no battery was simulated.

        Raises:
            ValueError: when the report carries no per-segment record.
        """
        _, as_csv = self._segment_cells
        headers = [header for header, *_ in _SEGMENT_FIELDS]
        rows = lay_out([as_csv[header] for header in headers], _CSV_ROW_TEMPLATE)
        return _provenance_comment(provenance) + ",".join(headers) + "\n" + rows

    @classmethod
    def from_json_dict(cls, data: dict) -> "SessionReport":
        """Rebuild a report from ``to_json_dict`` output, checking every value.

        Raises:
            ValueError: naming the first missing key (``per_segment`` and an
                adaptive mode's thresholds included) or the key of a value
                whose JSON type its field does not accept or that is not
                finite; on a ``mean_quality`` other than null or psnr, ssim
                and vmaf scores; on a per-segment record that is empty, whose
                length is not ``n_segments``, whose bandwidths are not
                positive, or one of whose rows differs from what ``_price``
                gives for its bandwidth, the mode and the charge before it;
                when ``ladder_digest`` is not the saved ladder's; naming an
                aggregate that differs from the one the per-segment record
                gives; or for a field its type rejects (for example a mode
                whose gamma contradicts its kind).
        """
        try:
            aggregates = read_fields(_AGGREGATE_FIELDS, data, "report")
            quality = aggregates["mean_quality"]
            if quality is not None:
                if not quality or not set(quality).issubset(QUALITY_METRICS):
                    raise ValueError("'mean_quality' must be null or hold scores among psnr, ssim"
                                     f" and vmaf, got keys {sorted(quality)}")  # fmt: skip
                read_fields(tuple((m, m, _NUMBER) for m in quality), quality, "mean_quality")
            mode = EnergyMode(**read_fields(_MODE_FIELDS, data["mode"], "mode"))
            # the writer saves thresholds exactly when the mode has them
            if mode.adaptive is not None or "adaptive" in data["mode"]:
                thresholds = read_fields(_ADAPTIVE_FIELDS, data["mode"]["adaptive"], "adaptive")
                mode = EnergyMode(mode.kind, mode.gamma, AdaptiveConfig(**thresholds))
            context = read_fields(_CONTEXT_FIELDS, data["context"], "context")
            params = read_fields(PARAMS_FIELDS, data["context"]["params"], "params")
            check_types("ladder", [data["ladder"]], (list,))
            ladder = QualityLadder(
                tuple(
                    Representation(**read_fields(_LADDER_FIELDS, row, "ladder row"))
                    for row in data["ladder"]
                )
            )
            digest = context.pop("ladder_digest")
            context = SessionContext(params=ModelParams(**params), ladder=ladder, **context)
            if digest != context.ladder_digest:
                raise ValueError(
                    f"'ladder_digest' is {digest!r}, but the ladder gives {context.ladder_digest!r}"
                )
            rows = data["per_segment"]
            segments = None
            if rows is not None:
                segments = _read_segments(rows, mode, context, aggregates["n_segments"])
                derived = _aggregates(ladder, segments)
                for key, attr, _ in _AGGREGATE_FIELDS:
                    if attr in derived and aggregates[attr] != derived[attr]:
                        raise ValueError(
                            f"{key!r} is {aggregates[attr]!r}, but the per-segment record"
                            f" gives {derived[attr]!r}"
                        )
            return cls(mode=mode, context=context, segments=segments, **aggregates)
        except KeyError as exc:
            raise ValueError(f"report is missing key {exc}") from None


def _fmean(column: np.ndarray) -> float:
    # statistics.fmean's arithmetic: a correctly rounded sum over the count
    return math.fsum(column.tolist()) / len(column)


def _mean_scores(ladder: QualityLadder, rung: np.ndarray, quality: QualityMap) -> dict[str, float]:
    return {
        metric: _fmean(np.array([scores[rep.name] for rep in ladder], dtype=float)[rung])
        for metric, scores in quality.metrics().items()
    }


def run_session(
    ladder: QualityLadder,
    trace: ChannelTrace,
    mode: EnergyMode,
    params: ModelParams,
    battery: BatteryConfig | None = None,
    quality: QualityMap | None = None,
    include_segments: bool = True,
) -> SessionReport:
    """Simulate one playback session.

    Each trace period carries one segment request, and the trace's period
    duration is the segment duration.  The mode's intensity
    (re-evaluated per segment for the adaptive kind) budgets the selection;
    the model prices the download at the resulting relative bandwidth; the
    battery, when configured, drains linearly in the modeled current.  The
    session stops early if the battery empties.

    The session is computed as array operations over the trace, one piece
    per intensity in force.  Consumption is never negative, so the state of
    charge never rises and the adaptive mode moves only towards stricter
    bands: a piece ends at the first segment after which the mode asks for
    another intensity.  Every value equals the segment-by-segment
    computation bit for bit.

    Args:
        ladder: requestable representations.
        trace: per-period available bandwidth; its period duration is the
            segment duration.
        mode: request mode to apply.
        params: consumption model parameters.
        battery: optional battery; required for the adaptive mode.
        quality: optional per-representation scores, validated against the
            ladder up front.
        include_segments: keep the per-segment record on the report.

    Returns:
        SessionReport for the segments actually played.

    Raises:
        ValueError: on adaptive mode without a battery (from
            ``EnergyMode.gamma_for``), or quality coverage gaps.
    """
    if quality is not None:
        quality.validate_for(ladder)

    context = SessionContext(params, trace.period_duration, ladder, trace.digest)
    bandwidth = np.array(trace.bandwidths, dtype=float)
    soc = battery.initial_soc if battery is not None else None
    pieces: list[tuple[SegmentColumns, int]] = []
    played = 0
    depleted = False
    while played < len(bandwidth) and not depleted:
        gamma = mode.gamma_for(soc)
        bw = bandwidth[played:]
        piece = _price(context, bw, np.full(len(bw), gamma), None)
        end = len(bw)
        if battery is not None:
            drain = (100.0 * battery.reference_current_ma * piece.ec_rel
                     * context.segment_duration / 3600.0 / battery.capacity_mah)  # fmt: skip
            # the same sequential subtractions as soc -= drain, segment by segment
            soc_after = np.subtract.accumulate(np.concatenate(([soc], drain)))[1:]
            empty = np.flatnonzero(soc_after <= 0.0)
            if empty.size:
                end = int(empty[0]) + 1
                depleted = True
            # SoC never rises, so once the mode asks for another intensity it
            # keeps asking; the charge before the last segment decides nothing
            switch = bisect_left(
                range(end - 1), True, key=lambda i: mode.gamma_for(float(soc_after[i])) != gamma
            )
            if switch < end - 1:
                end = switch + 1
                depleted = False
            if depleted:
                soc_after[end - 1] = 0.0
            soc = float(soc_after[end - 1])
            piece = replace(piece, soc_after=soc_after)
        pieces.append((piece, end))
        played += end

    segments = SegmentColumns(**{
        name: None if getattr(pieces[0][0], name) is None
        else np.concatenate([getattr(piece, name)[:end] for piece, end in pieces])
        for name in _COLUMN_NAMES
    })  # fmt: skip
    return SessionReport(
        mode=mode,
        context=context,
        mean_quality=_mean_scores(ladder, segments.rung, quality) if quality is not None else None,
        segments=segments if include_segments else None,
        **_aggregates(ladder, segments),
    )


def _price(
    context: SessionContext, bandwidth: np.ndarray, gamma: np.ndarray, soc_after: np.ndarray | None
) -> SegmentColumns:
    """The per-segment record of each bandwidth at its gamma: the best rung
    within ``bandwidth / gamma`` (the lowest as a fallback when none fits),
    priced at its relative bandwidth.  Sessions and the report loader both
    build their records with it.
    """
    bitrates = np.array(context.ladder.bitrates, dtype=float)
    threshold = bandwidth / gamma
    candidates = np.searchsorted(bitrates, threshold, side="right")
    rung = np.maximum(candidates - 1, 0)
    bw_rel = bandwidth / bitrates[rung]
    ec_rel = evaluate_array(context.params, bw_rel)
    download_time = bitrates[rung] * context.segment_duration / bandwidth
    return SegmentColumns(bandwidth, gamma, rung, threshold, candidates, bw_rel, ec_rel,
                          download_time, soc_after)  # fmt: skip


@dataclass(frozen=True)
class ComparisonRow:
    """One mode's standing against the baseline."""

    channel: str
    mode_label: str
    energy_pct: float
    quality: dict[str, float]
    quality_delta: dict[str, float]
    perceptible: bool

    def to_json_dict(self) -> dict:
        return {
            "channel": self.channel,
            "mode": self.mode_label,
            "energy_pct": self.energy_pct,
            "quality": self.quality,
            "quality_delta": self.quality_delta,
            "perceptible": self.perceptible,
        }


@dataclass(frozen=True)
class ComparisonTable:
    """Baseline-first rows of energy and quality standings for one channel."""

    channel: str
    rows: tuple[ComparisonRow, ...]

    def to_json_dict(self) -> dict:
        return {"channel": self.channel, "rows": [row.to_json_dict() for row in self.rows]}

    def to_csv(self, provenance: dict | None = None) -> str:
        buffer = io.StringIO()
        buffer.write(_provenance_comment(provenance))
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(COMPARISON_CSV_HEADER.split(","))
        for row in self.rows:
            cells = [row.channel, row.mode_label, f"{row.energy_pct:.2f}"]
            for metric, fmt in (("psnr", ".2f"), ("ssim", ".4f"), ("vmaf", ".2f")):
                value = row.quality.get(metric)
                delta = row.quality_delta.get(metric)
                cells.append("" if value is None else format(value, fmt))
                cells.append("" if delta is None else format(delta, fmt))
            writer.writerow(cells)
        return buffer.getvalue()


def _quality_means(report: SessionReport, quality: QualityMap | None) -> dict[str, float] | None:
    if quality is None:
        return report.mean_quality
    if report.segments is None:
        raise ValueError(f"the {report.mode.label} report has no per-segment record to score")
    quality.validate_for(report.ladder)
    return _mean_scores(report.ladder, report.segments.rung, quality)


def compare(
    baseline: SessionReport,
    others: list[SessionReport],
    quality: QualityMap | None = None,
    channel: str = "trace",
) -> ComparisonTable:
    """Rank modes against the baseline on energy and quality.

    ``energy_pct`` is each mode's mean relative consumption as a percentage
    of the baseline's.  Quality deltas are baseline minus mode for every
    metric both rows carry; a VMAF drop above ``PERCEPTIBLE_VMAF_DELTA``
    marks the row as perceptible.  ``quality``, when given, scores every
    report from its per-segment record in place of the means it carries.

    Raises:
        ValueError: when any report ran under a different session context
            than the baseline, or when ``quality`` is given and a report
            carries no per-segment record.
    """
    for report in others:
        if report.context != baseline.context:
            raise ValueError(
                "mismatched session contexts:"
                f" {report.mode.label} was not run under the baseline's conditions"
            )
    if baseline.mean_ec_rel <= 0:
        raise ValueError("baseline mean consumption must be positive")

    base_quality = _quality_means(baseline, quality) or {}
    rows = [
        ComparisonRow(
            channel=channel,
            mode_label=baseline.mode.label,
            energy_pct=100.0,
            quality=dict(base_quality),
            quality_delta={metric: 0.0 for metric in base_quality},
            perceptible=False,
        )
    ]
    for report in others:
        mode_quality = _quality_means(report, quality) or {}
        deltas = {
            metric: base_quality[metric] - mode_quality[metric]
            for metric in base_quality
            if metric in mode_quality
        }
        rows.append(
            ComparisonRow(
                channel=channel,
                mode_label=report.mode.label,
                energy_pct=100.0 * report.mean_ec_rel / baseline.mean_ec_rel,
                quality=mode_quality,
                quality_delta=deltas,
                perceptible=deltas.get("vmaf", 0.0) > PERCEPTIBLE_VMAF_DELTA,
            )
        )
    return ComparisonTable(channel=channel, rows=tuple(rows))
