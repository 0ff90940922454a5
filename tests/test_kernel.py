"""The column kernel against the scalar session loop it replaced, and the
report writers against ``json.dumps`` and a row-by-row ``csv.writer``.

Every aggregate, every per-segment field and the serialized report must be
exactly equal (``==``, never approximately) to what ``scalar_session``
computes segment by segment, with the per-segment record kept and without
it (as ``simulate --mode all`` runs); the aggregates to the bit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from itertools import chain, groupby, repeat

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    compare,
    constant,
    parse_ladder,
    random_blocks,
    run_session,
)
from abrenergy import simulator
from abrenergy.cli import main
from abrenergy.simulator import _DRAIN_CHUNK, _tally_mean
from conftest import STOCK_LADDER_CSV
from frozen_helpers import replace
from scalar_session import scalar_session


def assert_matches_scalar(ladder, trace, mode, params, battery=None,
                          quality=None) -> SessionReport:
    lean = run_session(ladder, trace, mode, params, battery=battery, quality=quality,
                       include_segments=False)  # fmt: skip
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
    for run in (report, lean):
        # repr spells every float exactly, so equal text is equal bits
        assert repr((run.n_segments, run.mean_ec_rel, run.mean_bitrate, run.mean_quality,
                     run.stall_count, run.fallback_count, run.final_soc,
                     run.soc_depleted)) == repr(tuple(aggregates.values()))  # fmt: skip
    assert lean.segments is None
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
#: since no UTF-8 writer can emit them.  So are line breaks, which a rung
#: name may not hold, since the per-segment CSV writes it on one line.
escaped_names = st.one_of(
    st.just("null"),
    st.text(st.one_of(st.sampled_from('"\\\t\x00\x1f\x7f\u2028\xe9\u65e5\U0001f3a5,'),
                      st.characters(exclude_categories=("Cs",), exclude_characters="\r\n")),
            min_size=1, max_size=6),
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
    assert all(y.ec_rel <= x.ec_rel for x, y in zip(a.per_segment, b.per_segment))


def test_long_adaptive_session_matches(ladder, overall):
    # 4000 segments of the stock random channel; the battery crosses all
    # three bands and empties late in the strict band
    trace = random_blocks([1e6, 4e6, 7e6, 13e6, 22e6], 4000, seed=17)
    battery = BatteryConfig(capacity_mah=2500.0, reference_current_ma=450.0)
    report = assert_matches_scalar(ladder, trace, adaptive_mode(), overall, battery)
    assert report.soc_depleted and report.n_segments < 4000
    assert {o.gamma_used for o in report.per_segment} == {1.5, 2.0, 4.0}


def test_adaptive_session_that_switches_twice_and_keeps_its_charge_matches(ladder, overall):
    # the trace of test_long_adaptive_session_matches, cut before the battery
    # empties: three pieces, the last ending with the trace, each counting
    # only its own segments
    trace = random_blocks([1e6, 4e6, 7e6, 13e6, 22e6], 2400, seed=17)
    battery = BatteryConfig(capacity_mah=2500.0, reference_current_ma=450.0)
    quality = QualityMap(vmaf={rep.name: 40.0 + 5.0 * i for i, rep in enumerate(ladder)})
    report = assert_matches_scalar(ladder, trace, adaptive_mode(), overall, battery, quality)
    assert not report.soc_depleted and report.n_segments == len(trace)
    gammas = [o.gamma_used for o in report.per_segment]
    assert [gamma for gamma, _ in groupby(gammas)] == [1.5, 2.0, 4.0]


def test_a_charge_that_lands_exactly_on_zero_ends_the_session(ladder):
    # each drain is exactly one point: 100 * 600 mA * ec_rel 1.0 * 6 s / 3600 / 100 mAh
    battery = BatteryConfig(capacity_mah=100.0, reference_current_ma=600.0, initial_soc=3.0)
    report = assert_matches_scalar(ladder, constant(22e6, 10), EnergyMode("off"),
                                   ModelParams(0.0, 0.0, 1.0), battery)  # fmt: skip
    assert report.segments.soc_after == [2.0, 1.0, 0.0] and report.soc_depleted


#: ec_rel 1.0 for every segment, whatever its bandwidth
FLAT = ModelParams(0.0, 0.0, 1.0)


@pytest.mark.parametrize("initial_soc, threshold", [(100.0, 70.0), (60.0, 30.0)])
def test_a_charge_that_lands_on_a_threshold_at_the_end_of_a_drain_chunk_matches(
    ladder, initial_soc, threshold
):
    # each drain is exactly 15/512 points: 100 * 90 mA * ec_rel 1.0 * 6 s / 3600 / 512 mAh,
    # so the charge after one chunk of 1024 segments is exactly 30 points lower
    battery = BatteryConfig(capacity_mah=512.0, reference_current_ma=90.0,
                            initial_soc=initial_soc)  # fmt: skip
    trace = random_blocks([1e6, 4e6, 7e6, 13e6, 22e6], _DRAIN_CHUNK + 200, seed=3)
    report = assert_matches_scalar(ladder, trace, adaptive_mode(), FLAT, battery)
    assert report.segments.soc_after[_DRAIN_CHUNK - 1] == threshold
    # a charge at a threshold belongs to the stricter band
    gammas = [o.gamma_used for o in report.per_segment]
    assert gammas[_DRAIN_CHUNK - 1] < gammas[_DRAIN_CHUNK] == gammas[-1]


def test_a_battery_that_empties_on_the_segment_where_the_band_switches_matches(ladder):
    # each drain is exactly 40 points: 100 * 90 mA * ec_rel 1.0 * 6 s / 3600 / 0.375 mAh,
    # so 75 -> 35 leaves the light band, and 35 -> -5 the medium band as the battery empties
    battery = BatteryConfig(capacity_mah=0.375, reference_current_ma=90.0, initial_soc=75.0)
    report = assert_matches_scalar(ladder, constant(22e6, 10), adaptive_mode(), FLAT, battery)
    assert report.segments.soc_after == [35.0, 0.0] and report.soc_depleted
    assert [o.gamma_used for o in report.per_segment] == [1.5, 2.0]


def test_many_distinct_bandwidths_match(ladder, overall):
    trace = ChannelTrace(6.0, tuple(3e5 + 7919.37 * i for i in range(3000)))
    battery = BatteryConfig(capacity_mah=20_000.0, reference_current_ma=300.0)
    assert_matches_scalar(ladder, trace, EnergyMode("custom", 1.7), overall, battery)


@pytest.mark.parametrize("params", [
    ModelParams(0.0, 0.7, 1.0),  # no curve: every segment costs the floor
    ModelParams(0.9, 0.0, 1.2),  # no decay: every segment costs a + c
    ModelParams(0.9, 800.0, 1.0),  # exp(-800 * bw_rel) is 0 wherever bw_rel >= 1
    ModelParams(1e-20, 0.5, 1.0),  # the curve is below the floor's last place
])  # fmt: skip
def test_distinct_bandwidths_that_share_a_rung_and_a_price_match(ladder, params):
    # three bandwidths between each pair of rungs, repeated in blocks, and a
    # battery that empties after the adaptive mode has visited all three bands
    quality_map = QualityMap(vmaf={rep.name: 30.0 + 6.5 * i for i, rep in enumerate(ladder)},
                             ssim={rep.name: 0.9 + 0.005 * i for i, rep in enumerate(ladder)})
    rates = [rep.bitrate for rep in ladder]
    values = [low + (high - low) * k / 4 for low, high in zip(rates, rates[1:]) for k in (1, 2, 3)]
    trace = random_blocks(values, 900, seed=11)
    battery = BatteryConfig(capacity_mah=400.0, reference_current_ma=300.0)
    for mode in (EnergyMode("off"), EnergyMode("strict"), adaptive_mode()):
        report = assert_matches_scalar(ladder, trace, mode, params, battery, quality_map)
        shared = {}
        for o in report.per_segment:
            shared.setdefault((o.selected, o.ec_rel), set()).add(o.bandwidth)
        assert max(map(len, shared.values())) > 1


#: An adaptive session over the stock ladder whose battery empties in the
#: strict band, after a run of each of the three gammas.
EMPTIED_ADAPTIVE_SESSION = (
    parse_ladder(STOCK_LADDER_CSV), random_blocks([1e6, 4e6, 7e6, 13e6, 22e6], 600, seed=17),
    adaptive_mode(), ModelParams(0.9, 0.45), BatteryConfig(300.0, 450.0), None,
)  # fmt: skip


@settings(max_examples=200, deadline=None)
@given(sessions())
@example(EMPTIED_ADAPTIVE_SESSION)
def test_compare_rescores_each_record_as_the_kernel_scored_it(session):
    ladder, trace, mode, params, battery, quality = session
    if quality is None:
        quality = QualityMap(vmaf={rep.name: 20.0 + 7.25 * i for i, rep in enumerate(ladder)})
    report = run_session(ladder, trace, mode, params, battery=battery, quality=quality)
    assume(report.mean_ec_rel > 0)  # compare's baseline must consume
    loaded = SessionReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    for scored in (report, loaded):
        rows = compare(scored, [scored], quality=quality).rows
        # repr spells every float exactly, so equal text is equal bits
        assert [repr(row.quality) for row in rows] == [repr(report.mean_quality)] * 2


def test_compare_prices_each_run_of_two_reloaded_reports_once(monkeypatch):
    ladder, trace, mode, params, battery, _ = EMPTIED_ADAPTIVE_SESSION
    quality = QualityMap(vmaf={rep.name: 20.0 + 7.25 * i for i, rep in enumerate(ladder)})
    reports = [run_session(ladder, trace, m, params, battery=battery)
               for m in (EnergyMode("off"), mode)]  # fmt: skip
    priced = []
    price = simulator._price
    monkeypatch.setattr(simulator, "_price",
                        lambda context, bandwidths, gamma: priced.append(gamma)
                        or price(context, bandwidths, gamma))  # fmt: skip
    loaded = [SessionReport.from_json_dict(json.loads(json.dumps(r.to_json_dict())))
              for r in reports]  # fmt: skip
    compare(loaded[0], loaded[1:], quality=quality)
    # the loader walks each record once, and every later reader reuses that walk
    loaded[1].to_csv()
    assert len(loaded[1].per_segment) == reports[1].n_segments
    assert priced == [1.0, 1.5, 2.0, 4.0]


@pytest.mark.parametrize("mode, battery, gammas", [
    ("off", [], [1.0]),
    ("strict", [], [4.0]),
    # EMPTIED_ADAPTIVE_SESSION: the battery empties after a run of each gamma
    ("adaptive", ["--battery-capacity-mah", "300", "--reference-current-ma", "450"],
     [1.5, 2.0, 4.0]),
])  # fmt: skip
def test_single_mode_simulate_prices_each_run_once(tmp_path, monkeypatch, mode, battery, gammas):
    ladder = tmp_path / "ladder.csv"
    ladder.write_text(STOCK_LADDER_CSV)
    priced, walked = [], []
    price, gamma_runs = simulator._price, simulator._gamma_runs
    monkeypatch.setattr(simulator, "_price",
                        lambda context, bandwidths, gamma: priced.append(gamma)
                        or price(context, bandwidths, gamma))  # fmt: skip
    monkeypatch.setattr(simulator, "_gamma_runs",
                        lambda report: walked.append(report) or gamma_runs(report))
    report_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    assert main(["simulate", "--ladder", str(ladder), "--segments", "600",
                 "--channel", "random:values=1M,4M,7M,13M,22M,seed=17", "--mode", mode,
                 "--params", "a=0.9,b=0.45", *battery, "--output", str(report_path),
                 "--per-segment", str(csv_path)]) == 0  # fmt: skip
    # the session's runs write the CSV; the record is never walked
    assert priced == gammas and walked == []
    saved = json.loads(report_path.read_text())
    assert saved["report"]["soc_depleted"] == (mode == "adaptive")
    # the walked runs write the same bytes
    loaded = SessionReport.from_json_dict(saved["report"])
    assert loaded.to_csv(saved["provenance"]) == csv_path.read_text()
    assert len(walked) == 1 and priced == gammas * 2


@settings(max_examples=200, deadline=None)
@given(sessions())
@example(EMPTIED_ADAPTIVE_SESSION)
def test_a_fresh_report_keeps_the_runs_that_its_reloaded_copy_walks(session):
    ladder, trace, mode, params, battery, quality = session
    report = run_session(ladder, trace, mode, params, battery=battery, quality=quality)
    loaded = SessionReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    # repr spells every float exactly and each table in order, priced rows included
    assert repr(report._runs) == repr(loaded._runs)
    assert report._runs == loaded._runs
    for _, _, _, counts, priced in report._runs:
        assert list(priced) == list(counts)


def expanded_mean(values: list[float], counts: list[int]) -> float:
    """The mean over the expanded column, each value repeated its count of
    times, as ``statistics.fmean`` computes it."""
    return math.fsum(chain.from_iterable(map(repeat, values, counts))) / sum(counts)


def tallies(magnitudes):
    """(values, counts): up to four signed values, each held by up to 2**20 segments."""
    value = st.builds(math.copysign, magnitudes, st.sampled_from([1.0, -1.0]))
    count = st.one_of(st.integers(1, 40), st.integers(1, 2**20))
    return st.lists(st.tuples(value, count), min_size=1, max_size=4).map(
        lambda pairs: tuple(map(list, zip(*pairs))))


@settings(max_examples=150, deadline=None)
@given(tallies(st.one_of(st.floats(5e-324, 1e300), st.floats(5e-324, 2.2250738585072014e-308),
                         st.just(0.0))))  # fmt: skip
def test_tally_mean_equals_the_mean_of_the_expanded_column(tally):
    values, counts = tally
    # repr spells every float exactly, so equal text is equal bits
    assert repr(_tally_mean(values, counts)) == repr(expanded_mean(values, counts))


@settings(max_examples=100, deadline=None)
@given(tallies(st.floats(1e300, 1.7976931348623157e308)))
@example(([1e308], [2]))
# partial sums leave the float range, the total does not, and the total
# divided by 9 rounds otherwise than the exact mean
@example(([9.555716892113748e307, -1.6135660184721097e308, -5.188185289078763e307], [5, 1, 3]))
def test_tally_mean_of_values_near_the_float_maximum_is_finite(tally):
    values, counts = tally
    mean = _tally_mean(values, counts)
    assert math.isfinite(mean)
    try:
        expected = expanded_mean(values, counts)
    except OverflowError:  # an intermediate sum beyond the float range
        expected = math.inf
    if math.isfinite(expected):
        assert repr(mean) == repr(expected)
    else:  # the correctly rounded sum divided by the count, or, where that
        # sum is beyond the float range, the correctly rounded mean
        total = sum(map(Fraction.__mul__, map(Fraction, values), counts))
        try:
            assert repr(mean) == repr(float(total) / sum(counts))
        except OverflowError:
            assert repr(mean) == repr(float(total / sum(counts)))


def csv_oracle(report: SessionReport, provenance: dict | None) -> str:
    """The per-segment CSV written row by row from the segment objects."""
    buffer = io.StringIO()
    if provenance is not None:
        buffer.write("# provenance: " + json.dumps(provenance, separators=(",", ":")) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["segment", "bandwidth_bps", "gamma", "selected", "selected_bitrate_bps",
                     "threshold_bps", "candidates", "fallback", "stalled", "bw_rel", "ec_rel",
                     "download_time_s", "soc_after"])  # fmt: skip
    for o in report.per_segment:
        d = o.decision
        writer.writerow([
            o.index, repr(o.bandwidth), repr(o.gamma_used), o.selected.name, o.selected.bitrate,
            repr(d.threshold), d.candidate_set_size, int(d.fallback_used), int(o.stalled),
            repr(o.bw_rel), repr(o.ec_rel), repr(o.download_time),
            "" if o.soc_after is None else repr(o.soc_after),
        ])  # fmt: skip
    return buffer.getvalue()


def assert_writers_match(report: SessionReport, provenance: dict) -> None:
    payload = {"provenance": provenance, "report": report.to_json_dict()}
    text = report.to_json(provenance)
    assert text == json.dumps(payload, indent=2) + "\n"
    if report.segments is not None:
        assert report.to_csv(provenance) == csv_oracle(report, provenance)
        assert report.to_csv() == csv_oracle(report, None)
        assert SessionReport.from_json_dict(json.loads(text)["report"]) == report


@settings(max_examples=200, deadline=None)
@given(sessions(escaped_names), st.booleans(),
       st.dictionaries(escaped_names, escaped_names | st.just("line\r\nbreak")))
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


@pytest.mark.parametrize("battery", [None, BatteryConfig(capacity_mah=30.0,
                                                          reference_current_ma=300.0)])
def test_csv_of_a_trace_of_distinct_bandwidths_equals_the_row_formatter(ladder, overall,
                                                                        battery):  # fmt: skip
    # each row's bandwidth is its own, so every run's rows are its distinct bandwidths in order
    trace = ChannelTrace(6.0, tuple(3e5 + 7919.37 * i for i in range(3000)))
    mode = EnergyMode("strict") if battery is None else adaptive_mode()
    report = run_session(ladder, trace, mode, overall, battery=battery)
    assert len(set(report.segments.bandwidth)) == report.n_segments > 1
    if battery is not None:
        assert {o.gamma_used for o in report.per_segment} == {1.5, 2.0, 4.0}
    assert_writers_match(report, {"tool": "abrenergy"})


#: Each per-segment key that the first report format also saved, and that the
#: loader now derives, with values of its JSON type.
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
def test_loader_names_the_row_and_key_of_any_row_that_holds_other_keys(session, data):
    ladder, trace, mode, params, battery, quality = session
    if mode.adaptive is None:
        mode = data.draw(st.sampled_from([mode, *map(EnergyMode, FIXED_GAMMAS)]))
    report = run_session(ladder, trace, mode, params, battery=battery, quality=quality)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert SessionReport.from_json_dict(payload) == report
    row = data.draw(st.integers(0, report.n_segments - 1))
    saved = payload["per_segment"][row]
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(saved)))
        del saved[key]
        named = f"missing key {key!r}"
    else:
        key = data.draw(st.sampled_from(sorted(DERIVED)))
        saved[key] = data.draw(DERIVED[key])
        named = f"unexpected key {key!r}"
    with pytest.raises(ValueError, match=f"^per_segment row {row}: {re.escape(named)}$"):
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
        # a rung's label names its position in the ladder
        rows = [[(o.selected.label, o.ec_rel, o.download_time) for o in r.per_segment]
                for r in (a, b)]  # fmt: skip
        assert rows[1] == rows[0]
        if with_battery is None:
            assert a.segments.soc_after is None and b.segments.soc_after is None
        else:
            assert b.segments.soc_after == a.segments.soc_after
