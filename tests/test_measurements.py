"""Measurement ingestion and normalization to relative points."""

from __future__ import annotations

import math

import pytest

from abrenergy import (
    Combination,
    MeasurementRecord,
    ParseError,
    RelativePoint,
    load_records,
    normalize,
    normalize_connection,
    group_records,
    reference_consumption,
    resolution_rank,
)

HEADER = "device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,avg_current_ma\n"


def rec(device="phone", connection="WIFI", codec="HEVC", resolution="240p",
        bitrate=650_000.0, bandwidth=2_000_000.0, current=200.0):
    return MeasurementRecord(device, connection, codec, resolution, bitrate, bandwidth, current)


def test_load_records_parses_and_normalizes_labels():
    text = HEADER + "phone,wifi,h265,240p,650000,2000000,210.5\n"
    records = load_records(text)
    assert len(records) == 1
    assert records[0].connection == "WIFI"
    assert records[0].codec == "HEVC"
    assert records[0].avg_current == 210.5


def test_header_only_yields_empty_list():
    assert load_records(HEADER) == []


def test_malformed_rows_report_line_numbers():
    with pytest.raises(ParseError, match="line 2.*number"):
        load_records(HEADER + "phone,wifi,hevc,240p,abc,2000000,200\n")
    with pytest.raises(ParseError, match="line 3.*positive"):
        load_records(
            HEADER
            + "phone,wifi,hevc,240p,650000,2000000,200\n"
            + "phone,wifi,hevc,480p,1250000,2000000,-3\n"
        )
    with pytest.raises(ParseError, match="line 2.*fields"):
        load_records(HEADER + "phone,wifi,hevc,240p,650000,2000000\n")


def test_connection_aliases():
    assert normalize_connection("wi-fi") == "WIFI"
    assert normalize_connection("LTE") == "LTE_4G"
    assert normalize_connection("5g") == "NR_5G"
    assert normalize_connection("satellite") == "SATELLITE"


def test_resolution_rank():
    assert resolution_rank("240p") == 240
    assert resolution_rank("1080p60") == 1080
    assert resolution_rank("unknown") is None


class TestReferenceConsumption:
    def test_repeated_sessions_are_averaged(self):
        records = [rec(current=100.0), rec(current=104.0)]
        combo = records[0].combination
        assert reference_consumption(records, combo) == pytest.approx(102.0)

    def test_bitrate_tie_broken_by_lowest_resolution(self):
        # same minimum bitrate encoded at two resolutions: the lower one anchors
        records = [
            rec(resolution="480p", bitrate=650_000, current=300.0),
            rec(resolution="240p", bitrate=650_000, current=200.0),
            rec(resolution="1080p", bitrate=5_000_000, current=400.0),
        ]
        combo = records[0].combination
        assert reference_consumption(records, combo) == pytest.approx(200.0)

    def test_unparseable_resolutions_fall_back_to_all_minimum_records(self):
        records = [
            rec(resolution="small", bitrate=650_000, current=100.0),
            rec(resolution="tiny", bitrate=650_000, current=200.0),
        ]
        combo = records[0].combination
        assert reference_consumption(records, combo) == pytest.approx(150.0)

    def test_empty_group_is_an_error(self):
        with pytest.raises(ValueError, match="no records"):
            reference_consumption([rec()], Combination("other", "WIFI", "HEVC"))


def test_group_records_keeps_first_seen_order_and_references():
    records = [
        rec(device="b", current=300.0),
        rec(device="a", current=100.0),
        rec(device="b", resolution="480p", bitrate=1_250_000, current=320.0),
        rec(device="a", current=104.0),
    ]
    grouped = group_records(records)
    assert [c.device for c in grouped] == ["b", "a"]
    assert [len(g) for g in grouped.values()] == [2, 2]
    for combination, group in grouped.items():
        assert reference_consumption(group, combination) == reference_consumption(
            records, combination
        )


class TestNormalize:
    def test_reference_record_lands_at_unity(self):
        records = [rec(current=200.0), rec(resolution="480p", bitrate=1_250_000, current=260.0)]
        points = normalize(records)[records[0].combination]
        ec_values = sorted(p.ec_rel for p in points)
        assert ec_values[0] == pytest.approx(1.0)
        assert ec_values[1] == pytest.approx(1.3)

    def test_bw_rel_is_bandwidth_over_bitrate(self):
        records = [rec(bitrate=650_000, bandwidth=1_300_000)]
        point = normalize(records)[records[0].combination][0]
        assert point.bw_rel == pytest.approx(2.0)

    def test_flag_count_matches_rows_running_below_requested_rate(self):
        records = [
            rec(bitrate=650_000, bandwidth=2_000_000),
            rec(resolution="1080p", bitrate=5_000_000, bandwidth=4_000_000, current=380.0),
            rec(resolution="480p", bitrate=1_250_000, bandwidth=1_000_000, current=260.0),
        ]
        expected_flagged = sum(1 for r in records if r.avg_bandwidth < r.bitrate)
        points = normalize(records)[records[0].combination]
        assert sum(1 for p in points if p.flagged) == expected_flagged == 2

    def test_groups_are_independent(self):
        records = [rec(), rec(device="tablet", current=500.0)]
        groups = normalize(records)
        assert len(groups) == 2
        for points in groups.values():
            assert points[0].ec_rel == pytest.approx(1.0)

    def test_mean_reference_ec_rel_is_unity(self):
        records = [rec(current=100.0), rec(current=104.0),
                   rec(resolution="480p", bitrate=1_250_000, current=150.0)]
        points = normalize(records)[records[0].combination]
        refs = [p.ec_rel for p in points if p.ec_rel < 1.2]
        assert sum(refs) / len(refs) == pytest.approx(1.0, abs=1e-12)

    def test_current_scaling_leaves_points_unchanged(self):
        base = [rec(current=200.0), rec(resolution="480p", bitrate=1_250_000, current=260.0)]
        scaled = [
            MeasurementRecord(r.device, r.connection, r.codec, r.resolution,
                              r.bitrate, r.avg_bandwidth, r.avg_current * 3.0)
            for r in base
        ]
        before = normalize(base)[base[0].combination]
        after = normalize(scaled)[base[0].combination]
        for p, q in zip(before, after):
            assert q.ec_rel == pytest.approx(p.ec_rel, rel=1e-12)
            assert q.bw_rel == p.bw_rel


def test_relative_point_invariants():
    combo = Combination("phone", "WIFI", "HEVC")
    assert RelativePoint(0.8, 1.2, combo).flagged
    assert not RelativePoint(1.0, 1.2, combo).flagged
    with pytest.raises(ValueError):
        RelativePoint(0.0, 1.2, combo)
    with pytest.raises(ValueError):
        RelativePoint(1.5, -0.1, combo)


@pytest.mark.parametrize("field", ["bw_rel", "ec_rel"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_relative_point_rejects_non_finite_naming_field_and_combination(field, value):
    values = {"bw_rel": 1.5, "ec_rel": 1.2, field: value}
    with pytest.raises(ValueError, match=f"phone/WIFI/HEVC: {field} must be positive and finite"):
        RelativePoint(values["bw_rel"], values["ec_rel"], Combination("phone", "WIFI", "HEVC"))


@pytest.mark.parametrize("field", ["bitrate", "bandwidth", "current"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_measurement_record_rejects_non_finite_naming_field(field, value):
    name = {"bitrate": "bitrate", "bandwidth": "avg_bandwidth", "current": "avg_current"}[field]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        rec(**{field: value})


def test_ratio_that_overflows_is_rejected():
    # finite cells whose ratio is not: 1e300 / 1e-300 overflows to inf
    records = [rec(bitrate=1e-300, bandwidth=1e300)]
    with pytest.raises(ValueError, match="bw_rel must be positive and finite, got inf"):
        normalize(records)
