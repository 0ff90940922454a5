"""Saved session reports: the JSON and CSV writers of one session, and the
checked loader that rebuilds a report from its JSON.

Only single-mode ``simulate`` (which writes a report) and ``compare``
(which reads reports) load this module; ``simulate --mode all`` writes a
comparison and never does.  ``SessionReport``'s ``to_json_dict``,
``to_json``, ``to_csv``, ``from_json_dict`` and ``per_segment`` call the
functions here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
import sys
from bisect import bisect_left
from collections.abc import Iterable
from itertools import chain, repeat
from types import NoneType

from ._frozen import frozen
from ._layout import SCHEMA, json_array, lay_out
from .ladder import QualityLadder, Representation
from .model import ModelParams
from .policy import AdaptiveConfig, EnergyMode, PolicyDecision
from .simulator import (
    QUALITY_METRICS,
    SegmentColumns,
    SessionContext,
    SessionReport,
    _aggregates,
    _float_rates,
    _provenance_comment,
)


@frozen
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


_NUMBER = (float, int)
_MAX_FLOAT = sys.float_info.max

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


def ladder_digest(ladder: QualityLadder) -> str:
    """Short sha256 of the ladder's rows as canonical JSON (sorted keys, no
    spaces, ASCII escapes), as reports record it."""
    rows = [_write_fields(_LADDER_FIELDS, rep) for rep in ladder]
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _finite_floats(key: str, values: list) -> list[float]:
    """Saved JSON numbers as floats; ValueError naming ``key`` unless all are finite."""
    try:
        floats = list(map(float, values))
    except OverflowError:
        raise ValueError(f"{key!r} must be finite, got an integer beyond the float range") from None
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{key!r} must be finite")
    return floats


def _read_segments(rows: object, n_segments: int, initial_soc: float | None) -> SegmentColumns:
    """The per-segment record of a saved report: each row holds exactly its
    ``bandwidth_bps`` and ``soc_after``."""
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
    if soc_after is not None:  # consumption is never negative
        charges = [initial_soc, *soc_after]  # before each segment, and after the last
        rises = list(map(operator.gt, soc_after, charges))
        if True in rises:
            i = rises.index(True)
            raise ValueError(f"per_segment row {i}: 'soc_after' rises from"
                             f" {charges[i]!r} to {soc_after[i]!r}")  # fmt: skip
        if soc_after[-1] < 0.0:
            i = bisect_left(soc_after, True, key=lambda charge: charge < 0.0)
            raise ValueError(f"per_segment row {i}: 'soc_after' is {soc_after[i]!r}, below 0")
        # a session ends with the segment that empties its battery
        i = 1 + bisect_left(soc_after, True, key=lambda charge: charge <= 0.0)
        if i < n_segments:
            raise ValueError(f"per_segment row {i}: played after the battery emptied"
                             f" at row {i - 1}")  # fmt: skip
    return SegmentColumns(bandwidth, soc_after)


def _csv_cell(text: str) -> str:
    """``text`` as one cell of a ``csv.writer`` row, quoted by ``QUOTE_MINIMAL``."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def per_segment(report: SessionReport) -> tuple[SegmentOutcome, ...] | None:
    """The report's per-segment record as objects, from its runs of one gamma
    (``SessionReport._runs``); None when it keeps none."""
    cols = report.segments
    if cols is None:
        return None
    # (gamma, priced row) of each segment
    priced = chain.from_iterable(
        zip(repeat(gamma), map(rows.__getitem__, cols.bandwidth[start:end]))
        for start, end, gamma, _, rows in report._runs
    )
    charges = repeat(None) if cols.soc_after is None else cols.soc_after
    return tuple(
        SegmentOutcome(index, bw, gamma, PolicyDecision(report.ladder[rung], threshold, count,
                       count == 0), bw_rel, ec_rel, dt, soc)
        for index, (bw, (gamma, (threshold, count, rung, bw_rel, ec_rel, dt)), soc) in enumerate(
            zip(cols.bandwidth, priced, charges)
        )
    )  # fmt: skip


def to_json_dict(report: SessionReport) -> dict:
    """The report as its JSON object: the schema, the mode, the context, the
    ladder, the aggregates, the initial charge and the per-segment rows."""
    segments = None
    if report.segments is not None:
        cols = report.segments
        charges = [None] * len(cols) if cols.soc_after is None else cols.soc_after
        segments = [dict(zip(_ROW_KEYS, row)) for row in zip(cols.bandwidth, charges)]
    return _json_dict(report, segments)


def _json_dict(report: SessionReport, segments: list | None) -> dict:
    mode = _write_fields(_MODE_FIELDS, report.mode)
    if report.mode.adaptive is not None:
        mode["adaptive"] = _write_fields(_ADAPTIVE_FIELDS, report.mode.adaptive)
    return {
        "schema": SCHEMA,
        "mode": mode,
        "context": {
            "params": _write_fields(PARAMS_FIELDS, report.context.params),
            **_write_fields(_CONTEXT_FIELDS, report.context),
        },
        "ladder": [_write_fields(_LADDER_FIELDS, rep) for rep in report.ladder],
        **_write_fields(_AGGREGATE_FIELDS, report),
        **_write_fields(_START_FIELDS, report),
        "per_segment": segments,
    }


def to_json(report: SessionReport, provenance: dict) -> str:
    """``{"provenance": provenance, "report": to_json_dict(report)}`` as
    ``json.dumps(..., indent=2)`` writes it, with a final newline.

    Only the part outside the per-segment record goes through
    ``json.dumps``; the record's rows are laid out from two formatted
    columns, ``repr`` of each number as ``json.dumps`` spells it, and
    put in place of its ``null``, the last value written.
    """
    payload = {"provenance": provenance, "report": _json_dict(report, None)}
    text = json.dumps(payload, indent=2) + "\n"
    cols = report.segments
    if cols is None:
        return text
    charges = ["null"] * len(cols) if cols.soc_after is None else list(map(repr, cols.soc_after))
    head, _, tail = text.rpartition("null")
    # the record is the value of "per_segment", two levels deep
    return head + json_array(_ROW_KEYS, (list(map(repr, cols.bandwidth)), charges), 2) + tail


def to_csv(report: SessionReport, provenance: dict | None = None) -> str:
    """The per-segment record as CSV, one row per segment.

    Booleans are written as 0/1, numbers by ``repr``, rung names as
    ``csv.writer`` quotes them, and the charge after a segment as an
    empty cell when no battery was simulated.  A row's cells from its
    bandwidth to its download time follow from its bandwidth and gamma,
    so within each run of one gamma (``SessionReport._runs``) they are
    formatted once per distinct bandwidth, column by column, and looked up
    for every row.

    Raises:
        ValueError: when the report carries no per-segment record.
    """
    cols = report.segments
    if cols is None:
        raise ValueError("the report carries no per-segment record")
    # the selected and selected_bitrate_bps cells of each rung
    rung_cells = [f"{_csv_cell(rep.name)},{rep.bitrate}" for rep in report.ladder]
    rates = _float_rates(report.ladder)
    bodies: list[str] = []
    for start, end, gamma, _, priced in report._runs:
        bw = list(priced)
        threshold, count, rung, bw_rel, ec_rel, download_time = zip(*priced.values())
        cells = (
            map(repr, bw), repeat(repr(gamma)), map(rung_cells.__getitem__, rung),
            map(repr, threshold), map(repr, count),
            map(("1", "0").__getitem__, map(bool, count)),
            map(("0", "1").__getitem__, map(operator.gt, map(rates.__getitem__, rung), bw)),
            map(repr, bw_rel), map(repr, ec_rel), map(repr, download_time),
        )  # fmt: skip
        text = dict(zip(bw, map(",".join, zip(*cells))))
        bodies += map(text.__getitem__, cols.bandwidth[start:end])
    charges = repeat("") if cols.soc_after is None else map(repr, cols.soc_after)
    rows_text = lay_out((map(str, range(len(cols))), bodies, charges), _CSV_ROW_TEMPLATE)
    return _provenance_comment(provenance) + _CSV_HEADER + rows_text


def from_json_dict(data: dict) -> SessionReport:
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
            the next, falls below 0, or is 0 on a row before the last
            (naming the row); when
            ``ladder_digest`` is not the saved ladder's; naming an
            aggregate that differs from the one the per-segment record
            gives; naming a bandwidth whose download time is beyond the
            float range; or for a field its type rejects (for example a mode
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
        segments = _read_segments(data["per_segment"], aggregates["n_segments"], initial_soc)
        report = SessionReport(mode=mode, context=context, initial_soc=initial_soc,
                               segments=segments, **aggregates)  # fmt: skip
        final_soc = None if segments.soc_after is None else segments.soc_after[-1]
        # the record priced again (``SessionReport._runs``) must give the saved aggregates
        derived = _aggregates(ladder, report._runs, final_soc)
        for key, attr, _ in _AGGREGATE_FIELDS:
            if attr in derived and aggregates[attr] != derived[attr]:
                raise ValueError(
                    f"{key!r} is {aggregates[attr]!r}, but the per-segment record"
                    f" gives {derived[attr]!r}"
                )
        return report
    except KeyError as exc:
        raise ValueError(f"report is missing key {exc}") from None
