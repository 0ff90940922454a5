"""Session simulation: a request mode driven over a channel trace.

One session applies the request policy to every segment of a bandwidth
trace, prices each download with the consumption model, and optionally
drains a battery.  It is computed with the standard library alone: each
distinct bandwidth is selected and priced once, the aggregates are means
over those values weighted by how many segments requested them.  A
per-segment record, when one is kept, holds only each segment's inputs, its
bandwidth and the charge after it; every reader of the rest takes the
record's runs of one gamma, priced, from ``SessionReport._runs``.  One test
(``_ends_run``) ends a run, in the session's drain and in a saved record's
walk alike.  Sessions under different modes but identical conditions
are then compared against the energy-saving-off baseline.  Writing a report
to a file and loading it back is ``reportio``'s, which only a saved report
loads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat

from ._csvio import ParseError, check_unique, float_column, read_columns
from ._frozen import frozen
from .channel import ChannelTrace
from .ladder import QualityLadder
from .model import ModelParams, evaluate
from .policy import EnergyMode

#: Mean-opinion deltas below this many VMAF points are typically not noticed.
PERCEPTIBLE_VMAF_DELTA = 6.0

QUALITY_HEADER = ["name", "psnr", "ssim", "vmaf"]
QUALITY_METRICS = ("psnr", "ssim", "vmaf")

COMPARISON_CSV_HEADER = "channel,mode,energy_pct,psnr,d_psnr,ssim,d_ssim,vmaf,d_vmaf"

#: Segments drained per step of a session with a battery: a piece drains at
#: most this many segments beyond its band switch or its emptied battery.
_DRAIN_CHUNK = 1024
#: ``2 ** -_SUBNORMAL_BITS`` is the smallest positive float, so every finite
#: float is an integer number of those units.
_SUBNORMAL_BITS = 1074


@frozen
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


@frozen
class QualityMap:
    """Per-representation quality scores, by metric.

    A metric is either absent or scored for every representation of the
    ladder in use; partial coverage is rejected at session start.  Every
    score is finite.
    """

    psnr: Mapping[str, float] | None = None
    ssim: Mapping[str, float] | None = None
    vmaf: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        for metric, scores in self.metrics().items():
            for name, score in scores.items():
                if not math.isfinite(score):
                    raise ValueError(f"quality {metric} of {name!r} must be finite, got {score}")

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


@frozen
class SessionContext:
    """What a report was computed under; compared modes must share it."""

    params: ModelParams
    segment_duration: float
    ladder: QualityLadder
    trace_digest: str

    @property
    def ladder_digest(self) -> str:
        """Short sha256 of the ladder, as reports record it (``reportio.ladder_digest``)."""
        from .reportio import ladder_digest

        return ladder_digest(self.ladder)


@frozen
class SegmentColumns:
    """The per-segment record of a session: each segment's inputs, one list
    of plain values per field, as a saved report holds them.

    ``soc_after`` is None when no battery was simulated.  Each segment's
    gamma follows from the mode and the charge before it, and its rung,
    budget, candidate count, consumption and download time from its
    bandwidth and that gamma (``SessionReport._runs``).
    """

    bandwidth: list[float]
    soc_after: list[float] | None

    def __len__(self) -> int:
        return len(self.bandwidth)


def _float_rates(ladder: QualityLadder) -> list[float]:
    """The ladder's bitrates as floats, as selection compares them with budgets;
    each is exact, since a rung's bitrate is at most ``2**53``."""
    return [float(bitrate) for bitrate in ladder.bitrates]


def _aggregates(ladder: QualityLadder, runs: list[_Run], final_soc: float | None) -> dict:
    """The aggregates of a session, by attribute, from its runs of one gamma
    and its last charge (None without a battery).

    Each mean sums every segment's value, each distinct bandwidth's value of
    a run repeated as many times as that run's segments request it.  A
    session ends with the battery depleted exactly when its last charge is
    zero, since the drain clamps the charge there and stops.
    """
    rates = _float_rates(ladder)
    bandwidth, counts, rows = zip(*[(bw, count, priced[bw]) for *_, per_bw, priced in runs
                                    for bw, count in per_bw.items()])  # fmt: skip
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


@frozen
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
    def per_segment(self) -> tuple | None:
        """The per-segment record as ``reportio.SegmentOutcome`` objects, built
        on each access from the record's runs (``_runs``); None when the
        report keeps none."""
        from .reportio import per_segment

        return per_segment(self)

    def to_json_dict(self) -> dict:
        """The report as its JSON object (``reportio.to_json_dict``)."""
        from .reportio import to_json_dict

        return to_json_dict(self)

    def to_json(self, provenance: dict) -> str:
        """The report file's text (``reportio.to_json``)."""
        from .reportio import to_json

        return to_json(self, provenance)

    @cached_property
    def _runs(self) -> list[_Run]:
        """The runs of one gamma of the per-segment record, priced: those
        ``run_session`` priced, or else priced again from the record's
        inputs (``_gamma_runs``) once per report, for the loader's check,
        ``compare --quality``, ``to_csv`` and ``per_segment`` alike."""
        return list(_gamma_runs(self))

    def to_csv(self, provenance: dict | None = None) -> str:
        """The per-segment record as CSV (``reportio.to_csv``)."""
        from .reportio import to_csv

        return to_csv(self, provenance)

    @classmethod
    def from_json_dict(cls, data: dict) -> SessionReport:
        """A report rebuilt from its JSON object and checked
        (``reportio.from_json_dict``)."""
        from .reportio import from_json_dict

        return from_json_dict(data)


def _tally_mean(values: Sequence[float], counts: Sequence[int]) -> float:
    """The mean of ``values``, each repeated its count of times, in one pass
    over the values and one ``map`` per set bit of each distinct count.

    ``value * count`` is exactly the sum of ``ldexp(value, k)`` over the set
    bits ``k`` of ``count``, so ``math.fsum`` over those multiples sums the
    same exact total as over the expanded column.  It rounds that total
    correctly, whatever the order of its terms, so the mean equals
    ``statistics.fmean``'s over the column bit for bit.  The values are
    grouped by count first, so that each group's multiples by one bit are
    a single ``map``.

    Where a multiple or a partial sum leaves the float range, finite values
    are summed exactly as integers, in units of the smallest subnormal.  The
    mean is then the correctly rounded total divided by the number of
    values, as above; where that total is itself beyond the float range, it
    is the correctly rounded mean, which is finite.
    """
    n = sum(counts)
    by_count = defaultdict(list)
    for value, count in zip(values, counts):
        by_count[count].append(value)
    multiples = [map(math.ldexp, group, repeat(k)) for count, group in by_count.items()
                 for k in range(count.bit_length()) if count >> k & 1]  # fmt: skip
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


def _mean_scores(ladder: QualityLadder, runs: list[_Run], quality: QualityMap) -> dict[str, float]:
    """Each scored metric's mean over the segments of a session's runs of one
    gamma, from its segments per rung."""
    per_rung = Counter()
    for *_, counts, priced in runs:
        for bw, count in counts.items():
            per_rung[priced[bw][2]] += count
    return {
        metric: _tally_mean([float(scores[ladder[rung].name]) for rung in per_rung],
                            list(per_rung.values()))  # fmt: skip
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
    counts its own segments and keeps their rows.  Each piece is one run of
    one gamma, and the aggregates and quality means read the runs' counts
    and rows directly (``_aggregates``, ``_mean_scores``, each mean a
    ``_tally_mean``); only the battery drain is computed segment by
    segment, and it stops within ``_DRAIN_CHUNK`` segments of the piece's
    end.  Every value equals the segment-by-segment computation bit for
    bit.  A kept record is the part of the trace played and, with a
    battery, the charges, and its runs (``_runs``) the pieces.

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
    kept = [] if include_segments and battery is not None else None
    runs: list[_Run] = []
    played = 0
    # the drain clamps an emptied battery's charge at 0.0, which ends the session
    while played < len(trace) and soc != 0.0:
        gamma = mode.gamma_for(soc)
        # every distinct bandwidth of the trace: a superset of the piece's
        priced = _price(context, trace.counts, gamma)
        end = len(trace)
        if battery is not None:
            scale = 100.0 * battery.reference_current_ma
            drain = {bw: scale * ec * context.segment_duration / 3600.0 / battery.capacity_mah
                     for bw, (*_, ec, _) in priced.items()}  # fmt: skip
            # the same sequential subtractions as soc -= drain, segment by
            # segment, a chunk at a time up to the chunk whose last charge
            # ends the run
            ends = _ends_run(mode, gamma)
            soc_after = []
            charge = soc
            while played + len(soc_after) < end and not ends(charge):
                start = played + len(soc_after)
                costs = map(drain.__getitem__, trace.bandwidths[start : start + _DRAIN_CHUNK])
                soc_after += islice(accumulate(costs, operator.sub, initial=charge), 1, None)
                charge = soc_after[-1]
            del soc_after[bisect_left(soc_after, True, key=ends) + 1 :]
            soc = soc_after[-1] = max(soc_after[-1], 0.0)
            end = played + len(soc_after)
            if kept is not None:
                kept += soc_after
        # the piece ends here: a shorter one counts its own segments, and keeps their rows
        counts = trace.counts
        if end - played < len(trace):
            counts = Counter(trace.bandwidths[played:end])
            priced = {bw: priced[bw] for bw in counts}
        runs.append((played, end, gamma, counts, priced))
        played = end

    segments = None
    if include_segments:
        segments = SegmentColumns(list(trace.bandwidths[:played]), kept)
    report = SessionReport(
        mode=mode,
        context=context,
        mean_quality=None if quality is None else _mean_scores(ladder, runs, quality),
        initial_soc=battery.initial_soc if battery is not None else None,
        segments=segments,
        **_aggregates(ladder, runs, soc),
    )
    if include_segments:  # the runs that ``_runs`` would walk, already priced
        report.__dict__["_runs"] = runs
    return report


def _price(
    context: SessionContext, bandwidths: Iterable[float], gamma: float
) -> dict[float, tuple[float, int, int, float, float, float]]:
    """Each of ``bandwidths``, distinct values, selected and priced at one gamma:
    its budget ``bandwidth / gamma``, the number of rungs that fit it, the
    best of them (the lowest as a fallback when none fits), its relative
    bandwidth, the modelled consumption there and the download time.
    A session prices every distinct bandwidth of its trace at each gamma it
    runs, since its drain may look ahead of a run's end, and keeps each
    run's own rows; ``_gamma_runs`` prices those of each run of equal
    gammas of a saved record.

    The rung follows ``select``'s rule (``bisect_right`` over the bitrates,
    here as floats).

    Raises:
        ValueError: naming the bandwidth and the segment duration when a
            download time is beyond the float range.
    """
    bitrates = _float_rates(context.ladder)
    params, duration = context.params, context.segment_duration
    rows = {}
    for bw in bandwidths:
        threshold = bw / gamma
        candidates = bisect_right(bitrates, threshold)
        rung = candidates - 1 if candidates else 0
        bw_rel = bw / bitrates[rung]
        download_time = bitrates[rung] * duration / bw
        if math.isinf(download_time):
            raise ValueError(f"download time beyond the float range: bandwidth {bw!r} bps,"
                             f" segment duration {duration!r} s")  # fmt: skip
        rows[bw] = (threshold, candidates, rung, bw_rel, evaluate(params, bw_rel), download_time)
    return rows


#: One run of equal gammas: its first segment, the segment after its last, its
#: gamma, its segments per distinct bandwidth, and ``_price``'s rows for those
#: bandwidths, in the same order.
_Run = tuple[int, int, float, Mapping[float, int], dict]


def _ends_run(mode: EnergyMode, gamma: float) -> Callable[[float], bool]:
    """Whether the charge after a segment ends a run at ``gamma``: the battery
    is empty, or the mode asks for another gamma.  The charge never rises,
    so once a charge ends the run every later one does, and ``bisect_left``
    with this key finds the first."""
    return lambda charge: charge <= 0.0 or mode.gamma_for(charge) != gamma


def _gamma_runs(report: SessionReport) -> Iterator[_Run]:
    """Each run of equal gammas of a saved or hand-built report's record,
    priced again from its inputs, as the session ran it.

    A segment's gamma is the mode's at the charge before it, the report's
    ``initial_soc`` for the first, and the charge after it ends its run as
    in the session's drain (``_ends_run``).  Only the last row's charge can
    be empty (``reportio`` refuses a record that plays on), and it decides
    nothing.  ``_price`` is pure, so a run is priced as the session priced
    it.
    """
    bandwidth, soc_after = report.segments.bandwidth, report.segments.soc_after
    n, mode = len(bandwidth), report.mode
    start, before = 0, report.initial_soc
    while start < n:
        gamma = mode.gamma_for(before)
        end = n
        if soc_after is not None:
            # the charge after segment i decides the gamma of segment i + 1
            end = 1 + bisect_left(soc_after, True, start, n - 1, key=_ends_run(mode, gamma))
            before = soc_after[end - 1]
        counts = Counter(bandwidth[start:end])
        yield start, end, gamma, counts, _price(report.context, counts, gamma)
        start = end


@frozen
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


@frozen
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
    return _mean_scores(report.ladder, report._runs, quality)


def _energy_pct(report: SessionReport, baseline: SessionReport) -> float:
    """``report``'s mean consumption as a percentage of the baseline's:
    ``(100.0 * mean) / base`` where that is finite, and else, where only
    the product overflows, the correctly rounded quotient.

    Raises:
        ValueError: naming the mode and ``energy_pct`` when the quotient is
            beyond the float range.
    """
    mean, base = report.mean_ec_rel, baseline.mean_ec_rel
    pct = 100.0 * mean / base
    if math.isfinite(pct):
        return pct
    (p, q), (r, s) = mean.as_integer_ratio(), base.as_integer_ratio()
    try:
        return 100 * p * s / (q * r)  # a quotient of integers is correctly rounded
    except OverflowError:
        raise ValueError(f"{report.mode.label}: energy_pct, 100 * {mean!r} / {base!r},"
                         " is beyond the float range") from None  # fmt: skip


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
            carries no per-segment record; naming the mode and the field
            when an ``energy_pct`` or a quality delta is beyond the float
            range.
    """
    for report in others:
        if report.context != baseline.context:
            raise ValueError(
                "mismatched session contexts:"
                f" {report.mode.label} was not run under the baseline's conditions"
            )
    if baseline.mean_ec_rel <= 0:
        raise ValueError("baseline mean consumption must be positive")

    rows: list[ComparisonRow] = []
    for report in [baseline, *others]:
        mode_quality = _quality_means(report, quality) or {}
        if not rows:
            base_quality = mode_quality
        deltas = {
            metric: base_quality[metric] - mode_quality[metric]
            for metric in base_quality
            if metric in mode_quality
        }
        for metric, delta in deltas.items():
            if math.isinf(delta):  # a difference of finite means rounds beyond the float range
                raise ValueError(f"{report.mode.label}: quality_delta {metric!r},"
                                 f" {base_quality[metric]!r} - {mode_quality[metric]!r},"
                                 " is beyond the float range")  # fmt: skip
        rows.append(
            ComparisonRow(
                channel=channel,
                mode_label=report.mode.label,
                # 100 * mean / mean need not round to 100
                energy_pct=_energy_pct(report, baseline) if rows else 100.0,
                quality=mode_quality,
                quality_delta=deltas,
                perceptible=deltas.get("vmaf", 0.0) > PERCEPTIBLE_VMAF_DELTA,
            )
        )
    return ComparisonTable(channel=channel, rows=tuple(rows))
