"""The column kernel against the scalar session loop it replaced.

Every aggregate, every per-segment field and the serialized report must be
exactly equal (``==``, never approximately) to what ``scalar_session``
computes segment by segment.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from abrenergy import (
    AdaptiveConfig,
    BatteryConfig,
    ChannelTrace,
    ModelParams,
    QualityLadder,
    QualityMap,
    Representation,
    SessionReport,
    adaptive_mode,
    custom_mode,
    random_blocks,
    run_session,
)
from scalar_session import scalar_session


def assert_matches_scalar(ladder, trace, mode, params, battery=None,
                          quality=None) -> SessionReport:
    report = run_session(ladder, trace, mode, params, battery=battery, quality=quality)
    oracle = scalar_session(ladder, trace, mode, params, battery=battery, quality=quality)
    aggregates = {
        "n_segments": oracle.n_segments,
        "mean_ec_rel": oracle.mean_ec_rel,
        "mean_bitrate_bps": oracle.mean_bitrate,
        "mean_quality": oracle.mean_quality,
        "stall_count": oracle.stall_count,
        "fallback_count": oracle.fallback_count,
        "final_soc": oracle.final_soc,
        "soc_depleted": oracle.soc_depleted,
    }
    assert (report.n_segments, report.mean_ec_rel, report.mean_bitrate, report.mean_quality,
            report.stall_count, report.fallback_count, report.final_soc,
            report.soc_depleted) == tuple(aggregates.values())
    assert report.per_segment == oracle.outcomes
    expected = report.to_json_dict()  # mode, context and ladder come from unchanged code
    expected.update(aggregates, per_segment=oracle.segment_dicts())
    assert json.dumps(report.to_json_dict(), indent=2) == json.dumps(expected, indent=2)
    rebuilt = SessionReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    assert rebuilt == report
    return report


@st.composite
def ladders(draw) -> QualityLadder:
    bitrates = sorted(draw(st.sets(st.integers(10_000, 40_000_000), min_size=1, max_size=12)))
    return QualityLadder(tuple(
        Representation(f"r{i}", 16 * (i + 1), 9 * (i + 1), f"r{i}", bitrate, "HEVC")
        for i, bitrate in enumerate(bitrates)
    ))  # fmt: skip


gammas = st.floats(1.0, 8.0)


@st.composite
def traces(draw, ladder: QualityLadder, duration: float) -> ChannelTrace:
    """Repeats from a small pool: off-menu values, values below the lowest
    rung, and rung bitrates scaled by a stock intensity, whose budget lands
    exactly on a rung."""
    exact = [rep.bitrate * g for rep in ladder for g in (1.0, 1.5, 2.0, 4.0)]
    value = st.one_of(
        st.floats(1_000.0, 1e8),
        st.floats(100.0, float(ladder.lowest.bitrate)),
        st.sampled_from(exact),
    )
    pool = draw(st.lists(value, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return ChannelTrace(duration, tuple(pool[i] for i in picks))


@st.composite
def sessions(draw):
    ladder = draw(ladders())
    duration = draw(st.sampled_from([6.0, 2.0, 4.5]))
    trace = draw(traces(ladder, duration))
    params = ModelParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0)),
                         draw(st.floats(0.0, 2.0)))  # fmt: skip
    battery = None
    if draw(st.booleans()):
        battery = BatteryConfig(
            capacity_mah=10 ** draw(st.floats(-1.0, 4.0)),  # empties at once ... never
            reference_current_ma=draw(st.floats(10.0, 3000.0)),
            initial_soc=draw(st.floats(0.5, 100.0)),
        )
    if battery is not None and draw(st.booleans()):
        low = draw(st.floats(1.0, 98.0))
        high = draw(st.floats(low + 0.5, 99.5))
        mode = adaptive_mode(AdaptiveConfig(high, low))
    else:
        mode = custom_mode(draw(gammas))
    quality = None
    if draw(st.booleans()):
        scores = st.floats(0.0, 100.0)
        quality = QualityMap(vmaf={rep.name: draw(scores) for rep in ladder},
                             psnr={rep.name: draw(scores) for rep in ladder})  # fmt: skip
    return ladder, trace, mode, params, battery, quality


@settings(max_examples=300, deadline=None)
@given(sessions())
def test_kernel_equals_the_scalar_loop(session):
    ladder, trace, mode, params, battery, quality = session
    report = assert_matches_scalar(ladder, trace, mode, params, battery, quality)
    if battery is not None:
        socs = [battery.initial_soc] + [o.soc_after for o in report.per_segment]
        assert all(after <= before for before, after in zip(socs, socs[1:]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_energy_is_non_increasing_in_gamma(data):
    ladder = data.draw(ladders())
    trace = data.draw(traces(ladder, 6.0))
    params = ModelParams(data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 2.0)))
    lower, higher = sorted((data.draw(gammas), data.draw(gammas)))
    a = run_session(ladder, trace, custom_mode(lower), params)
    b = run_session(ladder, trace, custom_mode(higher), params)
    assert b.mean_ec_rel <= a.mean_ec_rel
    assert all(y <= x for x, y in zip(a.segments.ec_rel, b.segments.ec_rel))


def test_long_adaptive_session_matches(ladder, overall):
    # 4000 segments of the stock random channel; the battery crosses all
    # three bands and empties late in the strict band
    trace = random_blocks([1e6, 4e6, 7e6, 13e6, 22e6], 4000, seed=17)
    battery = BatteryConfig(capacity_mah=2500.0, reference_current_ma=450.0)
    report = assert_matches_scalar(ladder, trace, adaptive_mode(), overall, battery)
    assert report.soc_depleted and report.n_segments < 4000
    assert set(report.segments.gamma.tolist()) == {1.5, 2.0, 4.0}


def test_many_distinct_bandwidths_match(ladder, overall):
    trace = ChannelTrace(6.0, tuple(3e5 + 7919.37 * i for i in range(3000)))
    battery = BatteryConfig(capacity_mah=20_000.0, reference_current_ma=300.0)
    assert_matches_scalar(ladder, trace, custom_mode(1.7), overall, battery)
