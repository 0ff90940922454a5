"""Session simulation: a request mode driven over a channel trace.

One session applies the request policy to every segment of a bandwidth
trace, prices each download with the consumption model, and optionally
drains a battery.  It is computed with the standard library alone: each
distinct bandwidth is selected and priced once, the aggregates are means
over those values weighted by how many segments requested them, and a
per-segment record, when one is kept, is a set of columns.
Sessions under different modes but identical conditions are then compared
against the energy-saving-off baseline.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, repeat
from types import NoneType

from ._csvio import ParseError, check_unique, float_column, read_columns
from ._layout import SCHEMA, json_array, lay_out
from .channel import ChannelTrace
from .ladder import QualityLadder, Representation
from .model import ModelParams, evaluate
from .policy import AdaptiveConfig, EnergyMode, PolicyDecision

#: Mean-opinion deltas below this many VMAF points are typically not noticed.
PERCEPTIBLE_VMAF_DELTA = 6.0

QUALITY_HEADER = ["name", "psnr", "ssim", "vmaf"]
QUALITY_METRICS = ("psnr", "ssim", "vmaf")

COMPARISON_CSV_HEADER = "channel,mode,energy_pct,psnr,d_psnr,ssim,d_ssim,vmaf,d_vmaf"

_MAX_FLOAT = sys.float_info.max
#: ``2 ** -_SUBNORMAL_BITS`` is the smallest positive float, so every finite
#: float is an integer number of those units.
_SUBNORMAL_BITS = 1074


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
        if math.isinf(100.0 * self.reference_current_ma):  # the drain's first product
            raise ValueError(
                "reference_current_ma is too large: 100 * reference_current_ma overflows,"
                f" got {self.reference_current_ma}"
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
        """Short sha256 of the ladder's rows as canonical JSON (sorted keys, no
        spaces, ASCII escapes), as reports record it."""
        rows = [_write_fields(_LADDER_FIELDS, rep) for rep in self.ladder]
        payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
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


@dataclass(frozen=True)
class SegmentColumns:
    """The per-segment record of a session, one list of plain values per field.

    ``rung`` indexes the report's ladder and ``candidates`` counts the rungs
    that fit the budget (0 means the lowest rung was a fallback).
    ``soc_after`` is None when no battery was simulated.  Whether a segment
    fell back or stalled follows from these columns and the ladder.
    """

    bandwidth: list[float]
    gamma: list[float]
    rung: list[int]
    threshold: list[float]
    candidates: list[int]
    bw_rel: list[float]
    ec_rel: list[float]
    download_time: list[float]
    soc_after: list[float] | None

    def __len__(self) -> int:
        return len(self.bandwidth)


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
_START_FIELDS = (("initial_soc", "initial_soc", (*_NUMBER, NoneType)),)  # after the aggregates
#: A saved per-segment row: the inputs the loader prices again, as (JSON key, types).
_ROW_FIELDS = (("bandwidth_bps", _NUMBER), ("soc_after", (*_NUMBER, NoneType)))
_ROW_KEYS = tuple(key for key, _ in _ROW_FIELDS)

_CSV_HEADER = ("segment,bandwidth_bps,gamma,selected,selected_bitrate_bps,threshold_bps,"
               "candidates,fallback,stalled,bw_rel,ec_rel,download_time_s,soc_after\n")
#: A CSV row: its index, the cells from ``bandwidth_bps`` to ``download_time_s``
#: (which follow from the row's bandwidth and gamma) and its charge.
_CSV_ROW_TEMPLATE = ("", ",", ",", "\n")

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
        if type(value) is int and abs(value) > _MAX_FLOAT:
            raise ValueError(f"{key!r} must be finite, got an integer beyond the float range")
    return values


def _write_fields(table: tuple, obj: object) -> dict:
    """One record's attributes under their JSON keys, in table order."""
    return {key: getattr(obj, attr) for key, attr, _ in table}


def check_schema(record: object, name: str) -> None:
    """Refuse a saved record whose ``schema`` is not the one this version writes.

    Raises:
        ValueError: when ``record`` is not a JSON object (naming ``name``), or
            naming ``schema`` when the record lacks it or holds another value.
    """
    check_types(name, [record], (dict,))
    if "schema" not in record:
        raise ValueError(f"{name!r} has no 'schema': it predates schema {SCHEMA},"
                         " the only one read")
    schema = record["schema"]
    if type(schema) is not int or schema != SCHEMA:
        raise ValueError(f"{name!r} has 'schema' {schema!r}, but only schema {SCHEMA} is read")


def _float_rates(ladder: QualityLadder) -> list[float]:
    """The ladder's bitrates as floats, as selection compares them with budgets;
    each is exact, since a rung's bitrate is at most ``2**53``."""
    return [float(bitrate) for bitrate in ladder.bitrates]


def _finite_floats(key: str, values: list) -> list[float]:
    """Saved JSON numbers as floats; ValueError naming ``key`` unless all are finite."""
    try:
        floats = list(map(float, values))
    except OverflowError:
        raise ValueError(f"{key!r} must be finite, got an integer beyond the float range") from None
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{key!r} must be finite")
    return floats


def _read_segments(
    rows: object, mode: EnergyMode, context: SessionContext, n_segments: int,
    initial_soc: float | None,
) -> tuple[SegmentColumns, list[_Tally]]:
    """The per-segment record of a saved report, priced again from its
    inputs, and its tally.

    A row holds exactly its ``bandwidth_bps`` and ``soc_after``.  Each
    segment's gamma is the mode's at the charge before it, ``initial_soc``
    for the first, and ``_price`` gives every other value.
    """
    check_types("per_segment", [rows], (list,))
    check_types("per_segment row", rows, (dict,))
    if len(rows) != n_segments:
        raise ValueError(f"per_segment holds {len(rows)} rows, but n_segments is {n_segments}")
    if not rows:
        raise ValueError("per_segment must hold at least one row")
    try:  # a row that holds every key and no more keys than there are holds no other
        saved = [list(map(operator.itemgetter(key), rows)) for key in _ROW_KEYS]
        exact = set(map(len, rows)) == {len(_ROW_KEYS)}
    except KeyError:
        exact = False
    if not exact:
        i, row = next((i, row) for i, row in enumerate(rows) if row.keys() != set(_ROW_KEYS))
        missing = [key for key in _ROW_KEYS if key not in row]
        named = (f"missing key {missing[0]!r}" if missing
                 else f"unexpected key {next(key for key in row if key not in _ROW_KEYS)!r}")
        raise ValueError(f"per_segment row {i}: {named}")
    for (key, types), column in zip(_ROW_FIELDS, saved):
        check_types(key, column, types)
    bandwidth = _finite_floats("bandwidth_bps", saved[0])
    if min(bandwidth) <= 0:
        raise ValueError("'bandwidth_bps' must be positive")
    nulls = saved[1].count(None)
    if 0 < nulls < n_segments:
        raise ValueError("'soc_after' mixes null and numbers")
    if (initial_soc is None) != bool(nulls):
        raise ValueError("'initial_soc' and 'soc_after' must both be null (no battery) or both"
                         " hold charges")  # fmt: skip
    soc_after = None if nulls else _finite_floats("soc_after", saved[1])
    # the charge before each segment, and after the last
    charges = [initial_soc] * (n_segments + 1) if soc_after is None else [initial_soc, *soc_after]
    if soc_after is not None:  # consumption is never negative
        rises = list(map(operator.gt, soc_after, charges))
        if True in rises:
            i = rises.index(True)
            raise ValueError(f"per_segment row {i}: 'soc_after' rises from"
                             f" {charges[i]!r} to {soc_after[i]!r}")  # fmt: skip
        if soc_after[-1] < 0.0:
            i = bisect_left(soc_after, True, key=lambda charge: charge < 0.0)
            raise ValueError(f"per_segment row {i}: 'soc_after' is {soc_after[i]!r}, below 0")
    pieces: list[SegmentColumns] = []
    tally: list[_Tally] = []
    start = 0
    while start < n_segments:
        gamma = mode.gamma_for(charges[start])
        # the charge never rises, so once the mode asks for another gamma it keeps asking
        end = bisect_left(charges, True, start + 1, n_segments,
                          key=lambda charge: mode.gamma_for(charge) != gamma)  # fmt: skip
        run = bandwidth[start:end]
        counts = Counter(run)
        priced = _price(context, counts, gamma)
        tally += _tallied(priced, counts)
        pieces.append(_record(priced, run, gamma))
        start = end
    return replace(_joined(pieces), soc_after=soc_after), tally


def _aggregates(ladder: QualityLadder, tally: list[_Tally], final_soc: float | None) -> dict:
    """The aggregates of a session, by attribute, from its tally and its
    last charge (None without a battery).

    Each mean sums every segment's value, each distinct value repeated as
    many times as segments hold it.  A session ends with the battery
    depleted exactly when its last charge is zero, since the drain clamps
    the charge there and stops.
    """
    rates = _float_rates(ladder)
    bandwidth, rows, counts = zip(*tally)
    _, candidates, rung, _, ec_rel, _ = zip(*rows)
    selected = list(map(rates.__getitem__, rung))
    return {
        "n_segments": sum(counts),
        "mean_ec_rel": _tally_mean(ec_rel, counts),
        "mean_bitrate": _tally_mean(selected, counts),
        "stall_count": sum(compress(counts, map(operator.gt, selected, bandwidth))),
        "fallback_count": sum(compress(counts, map(operator.not_, candidates))),
        "final_soc": final_soc,
        "soc_depleted": final_soc is not None and final_soc <= 0.0,
    }


def _provenance_comment(provenance: dict | None) -> str:
    if provenance is None:
        return ""
    return "# provenance: " + json.dumps(provenance, separators=(",", ":")) + "\n"


def _csv_cell(text: str) -> str:
    """``text`` as one cell of a ``csv.writer`` row, quoted by ``QUOTE_MINIMAL``."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


@dataclass(frozen=True)
class SessionReport:
    """Aggregates (and optionally the per-segment record) of one session.

    ``initial_soc`` is the battery's charge before the first segment, None
    when no battery was simulated.
    """

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
    initial_soc: float | None
    segments: SegmentColumns | None

    @property
    def ladder(self) -> QualityLadder:
        return self.context.ladder

    @property
    def per_segment(self) -> tuple[SegmentOutcome, ...] | None:
        """The per-segment record as objects, built from the columns on each access."""
        cols = self.segments
        if cols is None:
            return None
        charges = repeat(None) if cols.soc_after is None else cols.soc_after
        return tuple(
            SegmentOutcome(index, bw, gamma, PolicyDecision(self.ladder[rung], threshold, count,
                           count == 0), bw_rel, ec_rel, dt, soc)
            for index, (bw, gamma, rung, threshold, count, bw_rel, ec_rel, dt, soc) in enumerate(
                zip(cols.bandwidth, cols.gamma, cols.rung, cols.threshold, cols.candidates,
                    cols.bw_rel, cols.ec_rel, cols.download_time, charges)
            )
        )  # fmt: skip

    def to_json_dict(self) -> dict:
        segments = None
        if self.segments is not None:
            cols = self.segments
            charges = [None] * len(cols) if cols.soc_after is None else cols.soc_after
            segments = [dict(zip(_ROW_KEYS, row)) for row in zip(cols.bandwidth, charges)]
        return self._json_dict(segments)

    def _json_dict(self, segments: list | None) -> dict:
        mode = _write_fields(_MODE_FIELDS, self.mode)
        if self.mode.adaptive is not None:
            mode["adaptive"] = _write_fields(_ADAPTIVE_FIELDS, self.mode.adaptive)
        return {
            "schema": SCHEMA,
            "mode": mode,
            "context": {
                "params": _write_fields(PARAMS_FIELDS, self.context.params),
                **_write_fields(_CONTEXT_FIELDS, self.context),
            },
            "ladder": [_write_fields(_LADDER_FIELDS, rep) for rep in self.ladder],
            **_write_fields(_AGGREGATE_FIELDS, self),
            **_write_fields(_START_FIELDS, self),
            "per_segment": segments,
        }

    def to_json(self, provenance: dict) -> str:
        """``{"provenance": provenance, "report": to_json_dict()}`` as
        ``json.dumps(..., indent=2)`` writes it, with a final newline.

        Only the part outside the per-segment record goes through
        ``json.dumps``; the record's rows are laid out from two formatted
        columns, ``repr`` of each number as ``json.dumps`` spells it, and
        put in place of its ``null``, the last value written.
        """
        payload = {"provenance": provenance, "report": self._json_dict(None)}
        text = json.dumps(payload, indent=2) + "\n"
        if self.segments is None:
            return text
        bandwidth, charges = self._input_cells
        head, _, tail = text.rpartition("null")
        # the record is the value of "per_segment", two levels deep
        columns = (bandwidth, charges or ["null"] * len(bandwidth))
        return head + json_array(_ROW_KEYS, columns, 2) + tail

    @cached_property
    def _input_cells(self) -> tuple[list[str], list[str] | None]:
        """``repr`` of each segment's bandwidth and charge (None without a
        battery), which both writers print."""
        cols = self.segments
        charges = None if cols.soc_after is None else list(map(repr, cols.soc_after))
        return list(map(repr, cols.bandwidth)), charges

    def to_csv(self, provenance: dict | None = None) -> str:
        """The per-segment record as CSV, one row per segment.

        Booleans are written as 0/1, numbers by ``repr``, rung names as
        ``csv.writer`` quotes them, and the charge after a segment as an
        empty cell when no battery was simulated.  A row's cells from its
        bandwidth to its download time follow from its bandwidth and gamma,
        so within each run of one gamma they are formatted once per distinct
        bandwidth, column by column, and looked up for every row.

        Raises:
            ValueError: when the report carries no per-segment record.
        """
        cols = self.segments
        if cols is None:
            raise ValueError("the report carries no per-segment record")
        # the selected and selected_bitrate_bps cells of each rung
        rung_cells = [f"{_csv_cell(rep.name)},{rep.bitrate}" for rep in self.ladder]
        rates = _float_rates(self.ladder)
        bandwidth_cells, charges = self._input_cells
        bodies: list[str] = []
        start = 0
        for gamma, run in groupby(cols.gamma):
            end = start + len(list(run))
            bandwidth = cols.bandwidth[start:end]
            # the last row of each distinct bandwidth stands for all of its rows
            rows = list(dict(zip(bandwidth, range(start, end))).values())
            bw, rung, threshold, count, bw_rel, ec_rel, download_time = (
                list(map(column.__getitem__, rows))
                for column in (cols.bandwidth, cols.rung, cols.threshold, cols.candidates,
                               cols.bw_rel, cols.ec_rel, cols.download_time)
            )  # fmt: skip
            cells = (
                map(bandwidth_cells.__getitem__, rows), repeat(repr(gamma)),
                map(rung_cells.__getitem__, rung),
                map(repr, threshold), map(repr, count),
                map(("1", "0").__getitem__, map(bool, count)),
                map(("0", "1").__getitem__, map(operator.gt, map(rates.__getitem__, rung), bw)),
                map(repr, bw_rel), map(repr, ec_rel), map(repr, download_time),
            )  # fmt: skip
            joined = map(",".join, zip(*cells))
            if len(rows) < len(bandwidth):  # else each row has its own bandwidth, in order
                joined = map(dict(zip(bw, joined)).__getitem__, bandwidth)
            bodies += joined
            start = end
        charges = repeat("") if charges is None else charges
        rows_text = lay_out((map(str, range(len(cols))), bodies, charges), _CSV_ROW_TEMPLATE)
        return _provenance_comment(provenance) + _CSV_HEADER + rows_text

    @classmethod
    def from_json_dict(cls, data: dict) -> "SessionReport":
        """Rebuild a report from ``to_json_dict`` output, checking every value.

        The report must carry its per-segment record, as a single-mode
        ``simulate`` always writes it: the record is priced again from its
        inputs, and the aggregates are checked against it.

        Raises:
            ValueError: naming ``schema`` when it is missing or is not
                ``SCHEMA``; naming the first missing key (``per_segment`` and
                an adaptive mode's thresholds included) or the key of a value
                whose JSON type its field does not accept (a null
                ``per_segment`` among them) or that is not finite; on a
                ``mean_quality`` other than null or psnr, ssim and vmaf
                scores; on an ``initial_soc`` outside (0, 100]; on a
                per-segment record that is empty, whose length is not
                ``n_segments``, one of whose rows holds other keys than
                ``bandwidth_bps`` and ``soc_after`` (naming the row and the
                key), whose bandwidths are not positive, whose charges are
                null where ``initial_soc`` is not (or the other way round),
                or whose charge rises from ``initial_soc`` or from one row to
                the next or falls below 0 (naming the row); when
                ``ladder_digest`` is not the saved ladder's; naming an
                aggregate that differs from the one the per-segment record
                gives; or for a field its type rejects (for example a mode
                whose gamma contradicts its kind).
        """
        try:
            check_schema(data, "report")
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
            initial_soc = read_fields(_START_FIELDS, data, "report")["initial_soc"]
            if initial_soc is not None:
                initial_soc = float(initial_soc)
                if not 0.0 < initial_soc <= 100.0:
                    raise ValueError(f"'initial_soc' must be within (0, 100], got {initial_soc}")
            segments, tally = _read_segments(data["per_segment"], mode, context,
                                             aggregates["n_segments"], initial_soc)  # fmt: skip
            final_soc = None if segments.soc_after is None else segments.soc_after[-1]
            derived = _aggregates(ladder, tally, final_soc)
            for key, attr, _ in _AGGREGATE_FIELDS:
                if attr in derived and aggregates[attr] != derived[attr]:
                    raise ValueError(
                        f"{key!r} is {aggregates[attr]!r}, but the per-segment record"
                        f" gives {derived[attr]!r}"
                    )
            return cls(mode=mode, context=context, initial_soc=initial_soc, segments=segments,
                       **aggregates)  # fmt: skip
        except KeyError as exc:
            raise ValueError(f"report is missing key {exc}") from None


def _tally_mean(values: Sequence[float], counts: Sequence[int]) -> float:
    """The mean of ``values``, each repeated its count of times, in time
    linear in the number of values and in the bits of the largest count.

    ``value * count`` is exactly the sum of ``ldexp(value, k)`` over the set
    bits ``k`` of ``count``, so ``math.fsum`` over those multiples sums the
    same exact total as over the expanded column.  It rounds that total
    correctly, whatever the order of its terms, so the mean equals
    ``statistics.fmean``'s over the column bit for bit.

    Where a multiple or a partial sum leaves the float range, finite values
    are summed exactly as integers, in units of the smallest subnormal.  The
    mean is then the correctly rounded total divided by the number of
    values, as above; where that total is itself beyond the float range, it
    is the correctly rounded mean, which is finite.
    """
    n = sum(counts)
    multiples = []
    for k in range(max(counts).bit_length()):
        with_bit = compress(values, map((1 << k).__and__, counts))
        multiples.append(map(math.ldexp, with_bit, repeat(k)))
    try:
        total = math.fsum(chain.from_iterable(multiples))
    except OverflowError:
        total = math.inf
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        return total / n
    units = sum(count * ((p << _SUBNORMAL_BITS) // q)
                for (p, q), count in zip(map(float.as_integer_ratio, values), counts))
    try:
        return units / (1 << _SUBNORMAL_BITS) / n
    except OverflowError:
        return units / (n << _SUBNORMAL_BITS)


def _mean_scores(
    ladder: QualityLadder, rungs: Sequence[int], counts: Sequence[int], quality: QualityMap
) -> dict[str, float]:
    """Each scored metric's mean over the segments, given as rungs each
    played by its count of segments."""
    return {
        metric: _tally_mean([float(scores[ladder[rung].name]) for rung in rungs], counts)
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

    The session is computed one piece per intensity in force.  Consumption
    is never negative, so the state of charge never rises and the adaptive
    mode moves only towards stricter bands: a piece ends at the first
    segment after which the mode asks for another intensity.  Each piece
    prices every distinct bandwidth of the trace once.  A piece that plays
    the whole trace takes its segments per distinct bandwidth from the
    trace's ``counts``, which are counted once per trace; a shorter piece
    counts its own segments, once.  The aggregates follow from those counts
    (``_tally_mean``), and only the battery drain and the kept per-segment
    record are computed segment by segment.  Every value equals the
    segment-by-segment computation bit for bit.

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
    soc = battery.initial_soc if battery is not None else None
    pieces: list[SegmentColumns] = []
    tally: list[_Tally] = []
    played = 0
    depleted = False
    while played < len(trace) and not depleted:
        gamma = mode.gamma_for(soc)
        # every distinct bandwidth of the trace: a superset of the piece's
        priced = _price(context, trace.counts, gamma)
        remainder = trace.bandwidths[played:]
        end = len(remainder)
        soc_after = None
        if battery is not None:
            scale = 100.0 * battery.reference_current_ma
            drain = {bw: scale * ec * context.segment_duration / 3600.0 / battery.capacity_mah
                     for bw, (*_, ec, _) in priced.items()}  # fmt: skip
            # the same sequential subtractions as soc -= drain, segment by segment
            soc_after = list(accumulate(map(drain.__getitem__, remainder), operator.sub,
                                        initial=soc))[1:]  # fmt: skip
            # SoC never rises, so the charges at or below zero come last
            empty = bisect_left(soc_after, True, key=lambda charge: charge <= 0.0)
            if empty < end:
                end = empty + 1
                depleted = True
            # once the mode asks for another intensity it keeps asking; the
            # charge before the last segment decides nothing
            switch = bisect_left(soc_after, True, 0, end - 1,
                                 key=lambda charge: mode.gamma_for(charge) != gamma)  # fmt: skip
            if switch < end - 1:
                end = switch + 1
                depleted = False
            del soc_after[end:]
            if depleted:
                soc_after[-1] = 0.0
            soc = soc_after[-1]
        # the piece ends here, so only its own segments are counted
        piece = remainder[:end]
        counts = trace.counts if end == len(trace) else Counter(piece)
        tally += _tallied(priced, counts)
        if include_segments:
            pieces.append(replace(_record(priced, piece, gamma), soc_after=soc_after))
        played += end

    mean_quality = None
    if quality is not None:
        rungs = [row[2] for _, row, _ in tally]
        mean_quality = _mean_scores(ladder, rungs, [count for *_, count in tally], quality)
    return SessionReport(
        mode=mode,
        context=context,
        mean_quality=mean_quality,
        initial_soc=battery.initial_soc if battery is not None else None,
        segments=_joined(pieces) if include_segments else None,
        **_aggregates(ladder, tally, soc),
    )


def _price(
    context: SessionContext, bandwidths: Iterable[float], gamma: float
) -> dict[float, tuple[float, int, int, float, float, float]]:
    """Each of ``bandwidths``, distinct values, selected and priced at one gamma:
    its budget ``bandwidth / gamma``, the number of rungs that fit it, the
    best of them (the lowest as a fallback when none fits), its relative
    bandwidth, the modelled consumption there and the download time.
    A session prices every distinct bandwidth of its trace at each gamma it
    runs, and the report loader those of each run of equal gammas;
    ``_tallied`` counts a run's segments against the table and ``_record``
    maps it over the run, both by bandwidth, so rows that a run does not
    request do no harm.

    The rung follows ``select``'s rule (``bisect_right`` over the bitrates,
    here as floats).
    """
    bitrates = _float_rates(context.ladder)
    params, duration = context.params, context.segment_duration
    rows = {}
    for bw in bandwidths:
        threshold = bw / gamma
        candidates = bisect_right(bitrates, threshold)
        rung = candidates - 1 if candidates else 0
        bw_rel = bw / bitrates[rung]
        rows[bw] = (threshold, candidates, rung, bw_rel, evaluate(params, bw_rel),
                    bitrates[rung] * duration / bw)  # fmt: skip
    return rows


#: One distinct bandwidth of a run of equal gammas: the bandwidth, the row
#: ``_price`` gave for it and the number of segments that requested it.
_Tally = tuple[float, tuple[float, int, int, float, float, float], int]


def _tallied(priced: dict[float, tuple], counts: Mapping[float, int]) -> list[_Tally]:
    """A run's segments as ``_Tally`` entries, from its segments per distinct bandwidth."""
    return [(bw, priced[bw], count) for bw, count in counts.items()]


def _record(
    priced: dict[float, tuple], bandwidth: Sequence[float], gamma: float
) -> SegmentColumns:
    """The per-segment record of a run of bandwidths at one gamma, from the
    rows ``_price`` gave for them; without charges."""
    threshold, candidates, rung, bw_rel, ec_rel, download_time = map(
        list, zip(*map(priced.__getitem__, bandwidth))
    )
    return SegmentColumns(list(bandwidth), [gamma] * len(bandwidth), rung, threshold, candidates,
                          bw_rel, ec_rel, download_time, None)  # fmt: skip


def _joined(pieces: list[SegmentColumns]) -> SegmentColumns:
    """The records of consecutive pieces as one."""
    if len(pieces) == 1:
        return pieces[0]
    columns = {name: None if getattr(pieces[0], name) is None else [] for name in _COLUMN_NAMES}
    for piece in pieces:
        for name, column in columns.items():
            if column is not None:
                column += getattr(piece, name)
    return SegmentColumns(**columns)


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
    rung_counts = Counter(report.segments.rung)
    return _mean_scores(report.ladder, list(rung_counts), list(rung_counts.values()), quality)


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
