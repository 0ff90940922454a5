"""The column kernel against the scalar session loop it replaced, and the
report writers against ``json.dumps`` and a row-by-row CSV formatter.

Every aggregate, every per-segment field and the serialized report must be
exactly equal (``==``, never approximately) to what ``scalar_session``
computes segment by segment.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrenergy import (
    AdaptiveConfig,
    BatteryConfig,
    ChannelTrace,
    FIXED_GAMMAS,
    EnergyMode,
    ModelParams,
    QualityLadder,
    QualityMap,
    Representation,
    SessionReport,
    adaptive_mode,
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
def ladders(draw, names=None) -> QualityLadder:
    bitrates = sorted(draw(st.sets(st.integers(10_000, 40_000_000), min_size=1, max_size=12)))
    labels = [f"r{i}" for i in range(len(bitrates))]
    if names is not None:
        labels = draw(st.lists(names, min_size=len(bitrates), max_size=len(bitrates),
                               unique=True))  # fmt: skip
    return QualityLadder(tuple(
        Representation(label, 16 * (i + 1), 9 * (i + 1), f"r{i}", bitrate, "HEVC")
        for i, (label, bitrate) in enumerate(zip(labels, bitrates))
    ))  # fmt: skip


#: Rung names that JSON must escape: quotes, backslashes, control and
#: non-ASCII characters, and a name that reads like the JSON null.  Lone
#: surrogates (category Cs) are left out: ``Representation`` rejects them,
#: since no UTF-8 writer can emit them.
escaped_names = st.one_of(
    st.just("null"),
    st.text(st.one_of(st.sampled_from('"\\\t\n\x00\x1f\x7f\u2028\xe9\u65e5\U0001f3a5,'),
                      st.characters(exclude_categories=("Cs",))), min_size=1, max_size=6),
)  # fmt: skip


gammas = st.floats(1.0, 8.0)


@st.composite
def traces(draw, ladder: QualityLadder, duration: float) -> ChannelTrace:
    """Repeats from a small pool: off-menu values, values below the lowest
    rung, and rung bitrates scaled by a stock intensity, whose budget lands
    exactly on a rung."""
    exact = [rep.bitrate * g for rep in ladder for g in (1.0, 1.5, 2.0, 4.0)]
    value = st.one_of(
        st.floats(1_000.0, 1e8),
        st.floats(100.0, float(ladder[0].bitrate)),
        st.sampled_from(exact),
    )
    pool = draw(st.lists(value, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return ChannelTrace(duration, tuple(pool[i] for i in picks))


@st.composite
def sessions(draw, names=None):
    ladder = draw(ladders(names))
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
        mode = EnergyMode("custom", draw(gammas))
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
    a = run_session(ladder, trace, EnergyMode("custom", lower), params)
    b = run_session(ladder, trace, EnergyMode("custom", higher), params)
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
    assert_matches_scalar(ladder, trace, EnergyMode("custom", 1.7), overall, battery)


def csv_oracle(report: SessionReport, provenance: dict | None) -> str:
    """The per-segment CSV written row by row from the segment objects."""
    lines = [] if provenance is None else [
        "# provenance: " + json.dumps(provenance, separators=(",", ":"))]
    lines.append("segment,bandwidth_bps,gamma,selected,selected_bitrate_bps,threshold_bps,"
                 "candidates,fallback,stalled,bw_rel,ec_rel,download_time_s,soc_after")
    for o in report.per_segment:
        d = o.decision
        soc = "" if o.soc_after is None else repr(o.soc_after)
        lines.append(
            f"{o.index},{o.bandwidth!r},{o.gamma_used!r},{o.selected.name},{o.selected.bitrate},"
            f"{d.threshold!r},{d.candidate_set_size},{int(d.fallback_used)},{int(o.stalled)},"
            f"{o.bw_rel!r},{o.ec_rel!r},{o.download_time!r},{soc}"
        )
    return "\n".join(lines) + "\n"


def assert_writers_match(report: SessionReport, provenance: dict) -> None:
    payload = {"provenance": provenance, "report": report.to_json_dict()}
    text = report.to_json(provenance)
    assert text == json.dumps(payload, indent=2) + "\n"
    if report.segments is not None:
        assert report.to_csv(provenance) == csv_oracle(report, provenance)
        assert report.to_csv() == csv_oracle(report, None)
        assert SessionReport.from_json_dict(json.loads(text)["report"]) == report


@settings(max_examples=200, deadline=None)
@given(sessions(escaped_names), st.booleans(), st.dictionaries(escaped_names, escaped_names))
def test_writers_equal_json_dumps_and_the_row_formatter(session, keep, config):
    ladder, trace, mode, params, battery, quality = session
    report = run_session(ladder, trace, mode, params, battery=battery, quality=quality,
                         include_segments=keep)  # fmt: skip
    assert_writers_match(report, {"tool": "abrenergy", "config": config})


def test_writers_on_one_segment_and_on_an_emptied_battery():
    ladder = QualityLadder((
        Representation('lo "q"\\', 16, 9, "lo", 650_000, "HEVC"),
        Representation("r\xe9s\t\x01\U0001f3a5", 32, 18, "hi", 5_000_000, "HEVC"),
    ))  # fmt: skip
    params = ModelParams(0.8, 0.3)
    provenance = {"tool": "abrenergy", "config": {"ladder": "null"}}
    single = run_session(ladder, ChannelTrace(6.0, (4e6,)), EnergyMode("custom", 1.0), params)
    assert single.n_segments == 1 and single.segments.soc_after is None
    assert_writers_match(single, provenance)
    trace = random_blocks([3e5, 2e6, 9e6], 400, seed=5)
    battery = BatteryConfig(capacity_mah=30.0, reference_current_ma=600.0)
    emptied = run_session(ladder, trace, adaptive_mode(), params, battery)
    assert emptied.soc_depleted and emptied.n_segments < 400
    assert_writers_match(emptied, provenance)


#: Each per-segment key the loader derives, with values of its JSON type.
DERIVED = {
    "index": st.integers(-5, 100),
    "gamma": st.floats(allow_nan=False, allow_infinity=False),
    "selected": st.text(max_size=4),
    "threshold_bps": st.floats(allow_nan=False, allow_infinity=False),
    "candidates": st.integers(-1, 20),
    "fallback": st.booleans(),
    "stalled": st.booleans(),
    "bw_rel": st.floats(allow_nan=False, allow_infinity=False),
    "ec_rel": st.floats(allow_nan=False, allow_infinity=False),
    "download_time_s": st.floats(allow_nan=False, allow_infinity=False),
}


@settings(max_examples=300, deadline=None)
@given(sessions(), st.data())
def test_loader_names_the_row_and_key_of_any_edited_derived_value(session, data):
    ladder, trace, mode, params, battery, quality = session
    if mode.adaptive is None:
        mode = data.draw(st.sampled_from([mode, *map(EnergyMode, FIXED_GAMMAS)]))
    report = run_session(ladder, trace, mode, params, battery=battery, quality=quality)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert SessionReport.from_json_dict(payload) == report
    row = data.draw(st.integers(0, report.n_segments - 1))
    key = data.draw(st.sampled_from(sorted(DERIVED)))
    saved = payload["per_segment"][row][key]
    payload["per_segment"][row][key] = data.draw(DERIVED[key].filter(lambda v: v != saved))
    named = repr(key)
    if (row, key, mode.kind) == (0, "gamma", "adaptive"):
        named = "'(gamma|threshold_bps)'"  # the first gamma is read, and sets the row's budget
    with pytest.raises(ValueError, match=f"^per_segment row {row}: {named} is "):
        SessionReport.from_json_dict(payload)


def scaled_ladder(ladder: QualityLadder, k: float) -> QualityLadder:
    return QualityLadder(tuple(replace(rep, bitrate=int(rep.bitrate * k)) for rep in ladder))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([-3, -1, 1, 2, 5]))
def test_scaling_bandwidths_and_bitrates_by_a_power_of_two_changes_nothing(data, m):
    # multiples of 8, so every bitrate stays an integer at k = 1/8; scaling by
    # 2**m is exact in floating point, so every ratio is the same number
    ladder = scaled_ladder(data.draw(ladders()), 8)
    trace = data.draw(traces(ladder, 6.0))
    k = 2.0**m
    bigger = ChannelTrace(trace.period_duration, tuple(bw * k for bw in trace.bandwidths))
    params = ModelParams(data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 2.0)))
    battery = BatteryConfig(capacity_mah=10 ** data.draw(st.floats(-1.0, 4.0)),
                            reference_current_ma=data.draw(st.floats(10.0, 3000.0)))  # fmt: skip
    for mode, with_battery in ((EnergyMode("off"), None),
                               (EnergyMode("custom", data.draw(gammas)), None),
                               (adaptive_mode(), battery)):  # fmt: skip
        a = run_session(ladder, trace, mode, params, battery=with_battery)
        b = run_session(scaled_ladder(ladder, k), bigger, mode, params, battery=with_battery)
        assert (b.n_segments, b.mean_ec_rel) == (a.n_segments, a.mean_ec_rel)
        for name in ("rung", "ec_rel", "download_time"):
            assert np.array_equal(getattr(b.segments, name), getattr(a.segments, name)), name
        if with_battery is None:
            assert a.segments.soc_after is None and b.segments.soc_after is None
        else:
            assert np.array_equal(b.segments.soc_after, a.segments.soc_after)
