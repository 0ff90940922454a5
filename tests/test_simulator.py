"""Session simulation, battery accounting, and mode comparison."""

from __future__ import annotations

import json
import math
import operator

import pytest

from abrenergy import (
    AdaptiveConfig,
    BatteryConfig,
    EnergyMode,
    ModelParams,
    ParseError,
    QualityMap,
    SessionReport,
    adaptive_gamma,
    adaptive_mode,
    compare,
    constant,
    light_mode,
    load_quality_map,
    medium_mode,
    off_mode,
    random_blocks,
    run_session,
    staircase,
    strict_mode,
)
from abrenergy.simulator import _DRAIN_CHUNK
from frozen_helpers import replace

EC_AT_1_1 = 1.5480077598007158  # pooled params at bw_rel = 22/20
EC_AT_4_4 = 1.058685310416065  # pooled params at bw_rel = 22/5


def vmaf_map(ladder, base=60.0, step=3.0) -> QualityMap:
    names = [rep.name for rep in ladder]
    return QualityMap(
        psnr={n: 30.0 + 2.0 * i for i, n in enumerate(names)},
        ssim={n: 0.9 + 0.008 * i for i, n in enumerate(names)},
        vmaf={n: base + step * i for i, n in enumerate(names)},
    )


class TestRunSession:
    def test_constant_channel_baseline(self, ladder, overall):
        report = run_session(ladder, constant(22e6, 360), off_mode(), overall)
        assert report.n_segments == 360
        assert report.mean_ec_rel == pytest.approx(EC_AT_1_1, rel=1e-12)
        assert report.mean_bitrate == pytest.approx(20e6)
        assert report.stall_count == 0
        assert report.fallback_count == 0
        assert report.final_soc is None
        assert all(o.selected.name == "2160p" for o in report.per_segment)

    def test_constant_channel_strict(self, ladder, overall):
        report = run_session(ladder, constant(22e6, 360), strict_mode(), overall)
        assert all(o.selected.bitrate == 5_000_000 for o in report.per_segment)
        assert report.mean_ec_rel == pytest.approx(EC_AT_4_4, rel=1e-12)

    def test_fallback_segments_stall_but_play_on(self, ladder, overall):
        report = run_session(ladder, constant(5e5, 12), off_mode(), overall)
        assert report.fallback_count == 12
        assert report.stall_count == 12
        outcome = report.per_segment[0]
        assert outcome.download_time == pytest.approx(650_000 * 6.0 / 5e5)
        assert outcome.download_time > 6.0

    def test_no_stall_when_not_falling_back(self, ladder, overall):
        report = run_session(ladder, constant(22e6, 60), light_mode(), overall)
        assert report.stall_count == 0
        assert all(o.download_time <= 6.0 for o in report.per_segment)

    def test_include_segments_false_drops_the_record(self, ladder, overall):
        report = run_session(ladder, constant(22e6, 10), off_mode(), overall,
                             include_segments=False)
        assert report.per_segment is None
        assert report.n_segments == 10


class TestBattery:
    def test_drain_follows_the_modeled_current(self, ladder, overall):
        battery = BatteryConfig(capacity_mah=3000.0, reference_current_ma=800.0)
        report = run_session(ladder, constant(22e6, 10), off_mode(), overall,
                             battery=battery)
        per_segment = 100.0 * 800.0 * EC_AT_1_1 * 6.0 / 3600.0 / 3000.0
        assert report.per_segment[0].soc_after == pytest.approx(100.0 - per_segment, rel=1e-12)
        assert report.final_soc == pytest.approx(100.0 - 10 * per_segment, rel=1e-9)
        assert not report.soc_depleted

    def test_soc_is_non_increasing(self, ladder, overall):
        battery = BatteryConfig(capacity_mah=1000.0, reference_current_ma=1000.0)
        report = run_session(ladder, staircase([1e6, 4e6, 7e6], 120), medium_mode(),
                             overall, battery=battery)
        socs = [o.soc_after for o in report.per_segment]
        assert all(b <= a for a, b in zip(socs, socs[1:]))

    def test_depletion_stops_the_session(self, ladder, overall):
        battery = BatteryConfig(capacity_mah=10.0, reference_current_ma=1000.0)
        report = run_session(ladder, constant(22e6, 360), off_mode(), overall,
                             battery=battery)
        assert report.soc_depleted
        assert report.n_segments < 360
        assert report.per_segment[-1].soc_after == 0.0
        assert report.final_soc == 0.0

    def test_battery_validation(self):
        with pytest.raises(ValueError):
            BatteryConfig(capacity_mah=0.0, reference_current_ma=100.0)
        with pytest.raises(ValueError):
            BatteryConfig(capacity_mah=100.0, reference_current_ma=100.0, initial_soc=0.0)

    @pytest.mark.parametrize("field", ["capacity_mah", "reference_current_ma", "initial_soc"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_battery_fields_rejected(self, field, value):
        fields = {"capacity_mah": 100.0, "reference_current_ma": 100.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BatteryConfig(**fields)


class TestAdaptive:
    def test_requires_battery(self, ladder, overall):
        with pytest.raises(ValueError, match="battery"):
            run_session(ladder, constant(22e6, 10), adaptive_mode(), overall)

    def test_intensity_follows_the_charge(self, ladder, overall):
        battery = BatteryConfig(capacity_mah=1000.0, reference_current_ma=1000.0)
        report = run_session(ladder, constant(22e6, 360), adaptive_mode(), overall,
                             battery=battery)
        socs = [battery.initial_soc] + [o.soc_after for o in report.per_segment]
        for before, outcome in zip(socs, report.per_segment):
            assert outcome.gamma_used == adaptive_gamma(before)
        assert {o.gamma_used for o in report.per_segment} == {1.5, 2.0, 4.0}

    def test_each_band_drains_little_beyond_its_end(self, ladder, overall, monkeypatch):
        # the battery lasts the trace, and each band ends mid-chunk
        trace = random_blocks([1e6, 4e6, 22e6], 25_000, seed=1)
        battery = BatteryConfig(capacity_mah=20_000.0, reference_current_ma=300.0)
        subtractions = []

        def sub(charge: float, drain: float) -> float:
            subtractions.append(drain)
            return charge - drain

        monkeypatch.setattr(operator, "sub", sub)
        report = run_session(ladder, trace, adaptive_mode(), overall, battery=battery)
        assert {o.gamma_used for o in report.per_segment} == {1.5, 2.0, 4.0}
        assert report.n_segments == 25_000
        assert 25_000 < len(subtractions) <= 25_000 + 2 * _DRAIN_CHUNK


class TestQuality:
    def test_means_computed_when_scores_supplied(self, ladder, overall):
        qmap = vmaf_map(ladder)
        report = run_session(ladder, constant(22e6, 30), off_mode(), overall, quality=qmap)
        assert report.mean_quality["vmaf"] == pytest.approx(60.0 + 3.0 * 9)
        assert set(report.mean_quality) == {"psnr", "ssim", "vmaf"}

    def test_partial_metric_coverage_rejected(self, ladder, overall):
        partial = QualityMap(vmaf={"240p": 30.0})
        with pytest.raises(ValueError, match="missing scores"):
            run_session(ladder, constant(22e6, 10), off_mode(), overall, quality=partial)

    def test_loader_accepts_sparse_columns(self):
        text = "name,psnr,ssim,vmaf\na,30,,55\nb,32,,61\n"
        qmap = load_quality_map(text)
        assert qmap.ssim is None
        assert qmap.vmaf == {"a": 55.0, "b": 61.0}

    @pytest.mark.parametrize("row, message", [
        ("a,30,,5_5", "vmaf must be a number, got '5_5'"),
        ("a,٣٠,,55", "psnr must be a number, got '٣٠'"),
    ])  # fmt: skip
    def test_loader_rejects_numbers_spelled_as_no_csv_writer_does(self, row, message):
        with pytest.raises(ParseError, match=f"^line 3: {message}$"):
            load_quality_map(f"name,psnr,ssim,vmaf\nb,31,,56\n{row}\n")

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_scores_must_be_finite(self, score):
        # a report used to be written with "vmaf": NaN, which no loader reads
        with pytest.raises(ValueError, match=f"^quality vmaf of 'low' must be finite, got {score}$"):
            QualityMap(vmaf={"low": score, "high": 90.0})
        with pytest.raises(ParseError, match="^line 2: vmaf must be finite, got '"):
            load_quality_map(f"name,psnr,ssim,vmaf\nlow,30,,{score}\nhigh,31,,90\n")

    def test_loader_rejects_duplicates(self):
        with pytest.raises(Exception, match="duplicate"):
            load_quality_map("name,psnr,ssim,vmaf\na,30,,55\na,31,,56\n")


class TestCompare:
    def run_modes(self, ladder, overall, trace, quality=None):
        modes = [off_mode(), light_mode(), medium_mode(), strict_mode()]
        return [run_session(ladder, trace, m, overall, quality=quality) for m in modes]

    def test_baseline_row_and_ratios(self, ladder, overall):
        reports = self.run_modes(ladder, overall, constant(22e6, 360))
        table = compare(reports[0], reports[1:], channel="constant:22M")
        assert table.rows[0].mode_label == "off"
        assert table.rows[0].energy_pct == 100.0
        for row, report in zip(table.rows[1:], reports[1:]):
            expected = 100.0 * report.mean_ec_rel / reports[0].mean_ec_rel
            assert row.energy_pct == pytest.approx(expected, rel=1e-12)
        assert [r.channel for r in table.rows] == ["constant:22M"] * 4

    def test_baseline_row_is_exact_where_its_own_ratio_is_not(self, ladder, overall):
        reports = self.run_modes(ladder, overall, constant(13e6, 10), quality=vmaf_map(ladder))
        base = reports[0]
        assert 100.0 * base.mean_ec_rel / base.mean_ec_rel == 100.00000000000001
        row = compare(base, reports[1:]).rows[0]
        assert (row.mode_label, row.energy_pct, row.perceptible) == ("off", 100.0, False)
        assert row.quality == base.mean_quality
        assert row.quality_delta == {metric: 0.0 for metric in base.mean_quality}

    def test_quality_deltas_are_baseline_minus_mode(self, ladder, overall):
        qmap = vmaf_map(ladder)
        reports = self.run_modes(ladder, overall, constant(22e6, 60), quality=qmap)
        table = compare(reports[0], reports[1:], channel="c")
        strict_row = table.rows[3]
        assert strict_row.quality_delta["vmaf"] == pytest.approx(
            reports[0].mean_quality["vmaf"] - reports[3].mean_quality["vmaf"]
        )
        assert strict_row.quality_delta["vmaf"] > 0

    def test_perceptibility_flag_tracks_the_vmaf_delta(self, ladder, overall):
        qmap = vmaf_map(ladder)
        reports = self.run_modes(ladder, overall, constant(22e6, 60), quality=qmap)
        table = compare(reports[0], reports[1:], channel="c")
        for row in table.rows:
            assert row.perceptible == (row.quality_delta.get("vmaf", 0.0) > 6.0)
        assert any(r.perceptible for r in table.rows)
        assert not all(r.perceptible for r in table.rows)

    def test_quality_supplied_after_the_fact(self, ladder, overall):
        qmap = vmaf_map(ladder)
        reports = self.run_modes(ladder, overall, constant(22e6, 60))
        assert reports[0].mean_quality is None
        table = compare(reports[0], reports[1:], quality=qmap, channel="c")
        with_scores = self.run_modes(ladder, overall, constant(22e6, 60), quality=qmap)
        direct = compare(with_scores[0], with_scores[1:], channel="c")
        for late, early in zip(table.rows, direct.rows):
            assert late.quality == pytest.approx(early.quality)

    @pytest.mark.parametrize("base, mean, expected", [
        (1.0, 2.0, 200.0),  # (100.0 * mean) / base, as every finite result is computed
        (1e306, 1e307, 1000.0),  # 100.0 * mean overflows; the quotient is the exact one
        (1e-300, 1e10, None),  # the quotient itself is beyond the float range
    ])  # fmt: skip
    def test_energy_pct_is_finite_or_refused(self, ladder, overall, base, mean, expected):
        baseline, strict = self.run_modes(ladder, overall, constant(22e6, 5))[::3]
        baseline, strict = replace(baseline, mean_ec_rel=base), replace(strict, mean_ec_rel=mean)
        if expected is None:
            with pytest.raises(ValueError, match=r"^strict: energy_pct, 100 \* 10000000000.0 /"
                                                 r" 1e-300, is beyond the float range$"):
                compare(baseline, [strict])
        else:
            assert compare(baseline, [strict]).rows[1].energy_pct == expected

    def test_quality_delta_beyond_the_float_range_is_refused(self, ladder, overall):
        names = [rep.name for rep in ladder]
        # strict plays 1080p at 22 Mbps, every other mode a higher rung
        qmap = QualityMap(vmaf={n: -1.7e308 if i < 6 else 1.7e308 for i, n in enumerate(names)})
        reports = self.run_modes(ladder, overall, constant(22e6, 5), quality=qmap)
        with pytest.raises(ValueError, match=r"^strict: quality_delta 'vmaf', 1.7e\+308 -"
                                             r" -1.7e\+308, is beyond the float range$"):
            compare(reports[0], reports[1:])

    def test_mismatched_contexts_rejected(self, ladder, overall):
        base = run_session(ladder, constant(22e6, 60), off_mode(), overall)
        other_params = ModelParams(0.9, 0.5, 1.0)
        other = run_session(ladder, constant(22e6, 60), strict_mode(), other_params)
        with pytest.raises(ValueError, match="context"):
            compare(base, [other])

    def test_csv_shape(self, ladder, overall):
        qmap = vmaf_map(ladder)
        reports = self.run_modes(ladder, overall, constant(22e6, 60), quality=qmap)
        table = compare(reports[0], reports[1:], channel="constant:22M")
        lines = table.to_csv().splitlines()
        assert lines[0] == "channel,mode,energy_pct,psnr,d_psnr,ssim,d_ssim,vmaf,d_vmaf"
        assert len(lines) == 5
        assert lines[1].startswith("constant:22M,off,100.00,")

    def test_csv_provenance_header_round_trips_as_comment(self, ladder, overall):
        reports = self.run_modes(ladder, overall, constant(22e6, 10))
        table = compare(reports[0], reports[1:], channel="c")
        text = table.to_csv(provenance={"tool": "abrenergy", "seed": 7})
        assert text.startswith("# provenance: ")
        assert json.loads(text.splitlines()[0].removeprefix("# provenance: ")) == {
            "tool": "abrenergy",
            "seed": 7,
        }


class TestReportSerialization:
    def test_json_round_trip_preserves_everything(self, ladder, overall):
        battery = BatteryConfig(capacity_mah=2000.0, reference_current_ma=900.0)
        qmap = vmaf_map(ladder)
        report = run_session(ladder, random_blocks([1e6, 7e6, 22e6], 48, seed=4),
                             adaptive_mode(), overall, battery=battery, quality=qmap)
        rebuilt = SessionReport.from_json_dict(
            json.loads(json.dumps(report.to_json_dict()))
        )
        assert rebuilt == report

    @pytest.mark.parametrize("mode", [off_mode(), light_mode(), medium_mode(), strict_mode(),
                                      adaptive_mode(AdaptiveConfig(80.0, 20.0)),
                                      EnergyMode("custom", 2.5)])  # fmt: skip
    def test_every_kind_round_trips(self, ladder, overall, mode):
        battery = BatteryConfig(capacity_mah=2000.0, reference_current_ma=900.0)
        report = run_session(ladder, constant(7e6, 12, period_duration=4.0), mode, overall,
                             battery=battery)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["context"]["segment_duration_s"] == 4.0
        assert SessionReport.from_json_dict(data) == report

    def test_runs_are_deterministic(self, ladder, overall):
        trace = random_blocks([1e6, 7e6, 22e6], 120, seed=9)
        a = run_session(ladder, trace, medium_mode(), overall)
        b = run_session(ladder, trace, medium_mode(), overall)
        assert a == b
