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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from ._csvio import ParseError, data_rows, parse_float
from .channel import ChannelTrace
from .ladder import QualityLadder, Representation
from .model import ModelParams, evaluate_array
from .policy import AdaptiveConfig, EnergyMode, PolicyDecision

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
    """Parse quality CSV (``name,psnr,ssim,vmaf``); empty cells mean unscored."""
    columns: dict[str, dict[str, float]] = {metric: {} for metric in QUALITY_METRICS}
    names: dict[str, int] = {}
    for line_no, cells in data_rows(text, QUALITY_HEADER):
        name = cells[0]
        if not name:
            raise ParseError(f"line {line_no}: name must be non-empty")
        if name in names:
            raise ParseError(
                f"line {line_no}: duplicate name {name!r} (first seen on line {names[name]})"
            )
        names[name] = line_no
        for metric, cell in zip(QUALITY_METRICS, cells[1:]):
            if cell:
                columns[metric][name] = parse_float(cell, line_no, metric)
    return QualityMap(
        psnr=columns["psnr"] or None,
        ssim=columns["ssim"] or None,
        vmaf=columns["vmaf"] or None,
    )


@dataclass(frozen=True)
class SessionContext:
    """What a report was computed under; compared modes must share it."""

    params: ModelParams
    segment_duration: float
    ladder_digest: str
    trace_digest: str


def _ladder_digest(ladder: QualityLadder) -> str:
    payload = ";".join(
        f"{rep.name},{rep.width},{rep.height},{rep.label},{rep.bitrate},{rep.codec}"
        for rep in ladder
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

#: JSON key of each float column of the per-segment record.
_FLOAT_COLUMN_KEYS = {
    "bandwidth": "bandwidth_bps",
    "gamma": "gamma",
    "threshold": "threshold_bps",
    "bw_rel": "bw_rel",
    "ec_rel": "ec_rel",
    "download_time": "download_time_s",
}


@dataclass(frozen=True)
class SessionReport:
    """Aggregates (and optionally the per-segment record) of one session."""

    mode: EnergyMode
    context: SessionContext
    ladder: QualityLadder
    n_segments: int
    mean_ec_rel: float
    mean_bitrate: float
    mean_quality: dict[str, float] | None
    stall_count: int
    fallback_count: int
    final_soc: float | None
    soc_depleted: bool
    segments: SegmentColumns | None

    def segment_rows(self) -> Iterator[tuple]:
        """The per-segment record row by row, as plain Python values.

        Each row is ``(index, bandwidth, gamma, selected, threshold,
        candidates, fallback, stalled, bw_rel, ec_rel, download_time,
        soc_after)``, with ``selected`` the chosen ``Representation``.
        Columns go through ``tolist`` so that ``repr`` and JSON see ``float``
        and ``int``, never numpy scalars.  Nothing is yielded when the
        report carries no per-segment record.
        """
        cols = self.segments
        if cols is None:
            return iter(())
        reps = self.ladder.representations
        bitrates = np.array(self.ladder.bitrates, dtype=float)
        return zip(
            range(len(cols)),
            cols.bandwidth.tolist(),
            cols.gamma.tolist(),
            [reps[rung] for rung in cols.rung.tolist()],
            cols.threshold.tolist(),
            cols.candidates.tolist(),
            (cols.candidates == 0).tolist(),
            (bitrates[cols.rung] > cols.bandwidth).tolist(),
            cols.bw_rel.tolist(),
            cols.ec_rel.tolist(),
            cols.download_time.tolist(),
            cols.soc_after.tolist() if cols.soc_after is not None else repeat(None),
        )

    @property
    def per_segment(self) -> tuple[SegmentOutcome, ...] | None:
        """The per-segment record as objects, built from the columns on each access."""
        if self.segments is None:
            return None
        return tuple(
            SegmentOutcome(
                index=index,
                bandwidth=bw,
                gamma_used=gamma,
                decision=PolicyDecision(
                    selected=rep,
                    threshold=threshold,
                    candidate_set_size=count,
                    fallback_used=fallback,
                ),
                bw_rel=bw_rel,
                ec_rel=ec_rel,
                download_time=dt,
                soc_after=soc,
            )
            for (index, bw, gamma, rep, threshold, count, fallback, _, bw_rel, ec_rel, dt,
                 soc) in self.segment_rows()
        )

    def to_json_dict(self) -> dict:
        mode_dict: dict = {"kind": self.mode.kind, "gamma": self.mode.gamma}
        if self.mode.adaptive is not None:
            mode_dict["adaptive"] = {
                "high_threshold": self.mode.adaptive.high_threshold,
                "low_threshold": self.mode.adaptive.low_threshold,
            }
        segments = None
        if self.segments is not None:
            segments = [
                {
                    "index": index,
                    "bandwidth_bps": bw,
                    "gamma": gamma,
                    "selected": rep.name,
                    "threshold_bps": threshold,
                    "candidates": count,
                    "fallback": fallback,
                    "stalled": stalled,
                    "bw_rel": bw_rel,
                    "ec_rel": ec_rel,
                    "download_time_s": dt,
                    "soc_after": soc,
                }
                for (index, bw, gamma, rep, threshold, count, fallback, stalled, bw_rel, ec_rel,
                     dt, soc) in self.segment_rows()
            ]
        return {
            "mode": mode_dict,
            "context": {
                "params": {
                    "a": self.context.params.a,
                    "b": self.context.params.b,
                    "c": self.context.params.c,
                },
                "segment_duration_s": self.context.segment_duration,
                "ladder_digest": self.context.ladder_digest,
                "trace_digest": self.context.trace_digest,
            },
            "ladder": [
                {
                    "name": rep.name,
                    "width": rep.width,
                    "height": rep.height,
                    "label": rep.label,
                    "bitrate_bps": rep.bitrate,
                    "codec": rep.codec,
                }
                for rep in self.ladder
            ],
            "n_segments": self.n_segments,
            "mean_ec_rel": self.mean_ec_rel,
            "mean_bitrate_bps": self.mean_bitrate,
            "mean_quality": self.mean_quality,
            "stall_count": self.stall_count,
            "fallback_count": self.fallback_count,
            "final_soc": self.final_soc,
            "soc_depleted": self.soc_depleted,
            "per_segment": segments,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SessionReport":
        """Rebuild a report from ``to_json_dict`` output.

        Raises:
            ValueError: naming the first missing key, a per-segment rung
                that is not in the ladder, or a field its type rejects
                (for example a mode whose gamma contradicts its kind).
        """
        try:
            mode_dict = data["mode"]
            adaptive = None
            if mode_dict.get("adaptive"):
                adaptive = AdaptiveConfig(
                    high_threshold=mode_dict["adaptive"]["high_threshold"],
                    low_threshold=mode_dict["adaptive"]["low_threshold"],
                )
            mode = EnergyMode(mode_dict["kind"], mode_dict["gamma"], adaptive)
            ladder = QualityLadder(
                tuple(
                    Representation(
                        name=row["name"],
                        width=row["width"],
                        height=row["height"],
                        label=row["label"],
                        bitrate=row["bitrate_bps"],
                        codec=row["codec"],
                    )
                    for row in data["ladder"]
                )
            )
            ctx = data["context"]
            context = SessionContext(
                params=ModelParams(ctx["params"]["a"], ctx["params"]["b"], ctx["params"]["c"]),
                segment_duration=ctx["segment_duration_s"],
                ladder_digest=ctx["ladder_digest"],
                trace_digest=ctx["trace_digest"],
            )
            segments = None
            rows = data.get("per_segment")
            if rows is not None:
                rung_of = {rep.name: i for i, rep in enumerate(ladder)}
                unknown = [row["selected"] for row in rows if row["selected"] not in rung_of]
                if unknown:
                    raise ValueError(
                        f"per_segment selects {unknown[0]!r}, which is not in the ladder"
                    )
                socs = [row["soc_after"] for row in rows]
                segments = SegmentColumns(
                    **{
                        name: np.array([row[key] for row in rows], dtype=float)
                        for name, key in _FLOAT_COLUMN_KEYS.items()
                    },
                    rung=np.array([rung_of[row["selected"]] for row in rows], dtype=np.intp),
                    candidates=np.array([row["candidates"] for row in rows], dtype=np.intp),
                    soc_after=None if None in socs else np.array(socs, dtype=float),
                )
            return cls(
                mode=mode,
                context=context,
                ladder=ladder,
                n_segments=data["n_segments"],
                mean_ec_rel=data["mean_ec_rel"],
                mean_bitrate=data["mean_bitrate_bps"],
                mean_quality=data["mean_quality"],
                stall_count=data["stall_count"],
                fallback_count=data["fallback_count"],
                final_soc=data["final_soc"],
                soc_depleted=data["soc_depleted"],
                segments=segments,
            )
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
        ValueError: on adaptive mode without a battery, or quality coverage
            gaps.
    """
    if mode.adaptive is not None and battery is None:
        raise ValueError("adaptive mode requires a battery configuration")
    if quality is not None:
        quality.validate_for(ladder)

    segment_duration = trace.period_duration
    bitrates = np.array(ladder.bitrates, dtype=float)
    bandwidth = np.array(trace.bandwidths, dtype=float)
    soc = battery.initial_soc if battery is not None else None
    pieces: list[tuple[np.ndarray, ...]] = []
    played = 0
    depleted = False
    while played < len(bandwidth) and not depleted:
        gamma = mode.gamma_for(soc)
        bw = bandwidth[played:]
        threshold = bw / gamma
        candidates = np.searchsorted(bitrates, threshold, side="right")
        rung = np.maximum(candidates - 1, 0)
        bw_rel = bw / bitrates[rung]
        ec_rel = evaluate_array(params, bw_rel)
        end = len(bw)
        soc_after = None
        if battery is not None:
            drain = (
                100.0
                * battery.reference_current_ma
                * ec_rel
                * segment_duration
                / 3600.0
                / battery.capacity_mah
            )
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
            soc_after = soc_after[:end]
            if depleted:
                soc_after[-1] = 0.0
            soc = float(soc_after[-1])
        pieces.append(
            (np.full(end, gamma, dtype=float), threshold[:end], candidates[:end], rung[:end],
             bw_rel[:end], ec_rel[:end], soc_after)
        )  # fmt: skip
        played += end

    gammas, thresholds, counts, rungs, bw_rels, ec_rels, socs = (
        np.concatenate(parts) if parts[0] is not None else None for parts in zip(*pieces)
    )
    bandwidth = bandwidth[:played]
    selected = bitrates[rungs]
    context = SessionContext(
        params=params,
        segment_duration=segment_duration,
        ladder_digest=_ladder_digest(ladder),
        trace_digest=trace.digest,
    )
    segments = None
    if include_segments:
        segments = SegmentColumns(
            bandwidth=bandwidth,
            gamma=gammas,
            rung=rungs,
            threshold=thresholds,
            candidates=counts,
            bw_rel=bw_rels,
            ec_rel=ec_rels,
            download_time=selected * segment_duration / bandwidth,
            soc_after=socs,
        )
    return SessionReport(
        mode=mode,
        context=context,
        ladder=ladder,
        n_segments=played,
        mean_ec_rel=_fmean(ec_rels),
        mean_bitrate=_fmean(selected),
        mean_quality=_mean_scores(ladder, rungs, quality) if quality is not None else None,
        stall_count=int(np.count_nonzero(selected > bandwidth)),
        fallback_count=int(np.count_nonzero(counts == 0)),
        final_soc=soc,
        soc_depleted=depleted,
        segments=segments,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One mode's standing against the baseline."""

    channel: str
    mode_label: str
    energy_pct: float
    quality: dict[str, float] = field(default_factory=dict)
    quality_delta: dict[str, float] = field(default_factory=dict)
    perceptible: bool = False

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
        if provenance is not None:
            buffer.write(
                "# provenance: " + json.dumps(provenance, separators=(",", ":")) + "\n"
            )
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
    if report.mean_quality is not None:
        return report.mean_quality
    if quality is None or report.segments is None:
        return None
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
    marks the row as perceptible.  When a report was produced without
    quality but kept its per-segment record, ``quality`` supplies the
    scores after the fact.

    Raises:
        ValueError: when any report ran under a different session context
            than the baseline.
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
