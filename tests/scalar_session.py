"""The per-segment scalar session loop, kept as the reference for the column
kernel in ``abrenergy.simulator.run_session``.

This is the loop the package ran before sessions became array programs:
one ``select`` and one ``evaluate`` per segment, a sequential battery
update, and ``statistics.fmean`` aggregates.  Tests require the kernel's
reports, per-segment records and JSON to equal what this loop produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

from abrenergy import (
    BatteryConfig,
    ChannelTrace,
    EnergyMode,
    ModelParams,
    QualityLadder,
    QualityMap,
    SegmentOutcome,
    evaluate,
    select,
)


@dataclass(frozen=True)
class ScalarSession:
    outcomes: tuple[SegmentOutcome, ...]
    mean_ec_rel: float
    mean_bitrate: float
    mean_quality: dict[str, float] | None
    stall_count: int
    fallback_count: int
    final_soc: float | None
    soc_depleted: bool

    @property
    def n_segments(self) -> int:
        return len(self.outcomes)

    def segment_dicts(self) -> list[dict]:
        """The per-segment record as the report's JSON writes it: each row's inputs."""
        return [{"bandwidth_bps": o.bandwidth, "soc_after": o.soc_after} for o in self.outcomes]


def scalar_session(
    ladder: QualityLadder,
    trace: ChannelTrace,
    mode: EnergyMode,
    params: ModelParams,
    battery: BatteryConfig | None = None,
    quality: QualityMap | None = None,
) -> ScalarSession:
    segment_duration = trace.period_duration
    soc = battery.initial_soc if battery is not None else None
    outcomes: list[SegmentOutcome] = []
    depleted = False
    for index, bandwidth in enumerate(trace.bandwidths):
        gamma = mode.gamma_for(soc)
        decision = select(ladder, bandwidth, gamma)
        bw_rel = bandwidth / decision.selected.bitrate
        ec_rel = evaluate(params, bw_rel)
        download_time = decision.selected.bitrate * segment_duration / bandwidth
        if battery is not None:
            drain = (
                100.0
                * battery.reference_current_ma
                * ec_rel
                * segment_duration
                / 3600.0
                / battery.capacity_mah
            )
            soc = max(soc - drain, 0.0)
        outcomes.append(
            SegmentOutcome(
                index=index,
                bandwidth=bandwidth,
                gamma_used=gamma,
                decision=decision,
                bw_rel=bw_rel,
                ec_rel=ec_rel,
                download_time=download_time,
                soc_after=soc,
            )
        )
        if battery is not None and soc <= 0.0:
            depleted = True
            break

    mean_quality = None
    if quality is not None:
        mean_quality = {
            metric: fmean(scores[o.selected.name] for o in outcomes)
            for metric, scores in quality.metrics().items()
        }
    return ScalarSession(
        outcomes=tuple(outcomes),
        mean_ec_rel=fmean(o.ec_rel for o in outcomes),
        mean_bitrate=fmean(o.selected.bitrate for o in outcomes),
        mean_quality=mean_quality,
        stall_count=sum(1 for o in outcomes if o.stalled),
        fallback_count=sum(1 for o in outcomes if o.decision.fallback_used),
        final_soc=soc,
        soc_depleted=depleted,
    )
