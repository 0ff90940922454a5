"""Measurement ingestion and normalization to relative points."""

from __future__ import annotations

import math
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings, strategies as st

import rowwise_measurements
from abrenergy import (
    Combination,
    MeasurementRecord,
    Measurements,
    ParseError,
    RelativePoint,
    load_records,
    normalize,
    normalize_connection,
    group_measurements,
    normalize_columns,
    read_measurements,
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


def test_header_only_is_rejected():
    for text in (HEADER, "# no data\n" + HEADER + "\n   \n# none\n"):
        with pytest.raises(ParseError, match="^measurement file contains no records$"):
            load_records(text)


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


def test_resolution_rank_is_the_leading_integer_only():
    assert resolution_rank("av1-1080p") is None
    assert resolution_rank("x264-240p") is None
    # so a label without a leading integer does not outrank 240p
    records = [
        rec(resolution="av1-1080p", bitrate=650_000, current=300.0),
        rec(resolution="240p", bitrate=650_000, current=100.0),
    ]
    assert reference_consumption(records, records[0].combination) == 100.0


@pytest.mark.parametrize("label", ["\u0662\u0664\u0660p", "\uff12\uff14\uff10p", "\u0968\u096a\u0966p"])
def test_resolution_rank_reads_ascii_digits_only(label):
    # Arabic-Indic, fullwidth and Devanagari 240p: str.isdigit is true for each
    assert label[0].isdigit() and resolution_rank(label) is None


@pytest.mark.parametrize("cell", ["1_000", "2_5", "٣٠٠٠", "٠"])
def test_numbers_spelled_as_no_csv_writer_does_are_rejected(cell):
    text = HEADER + "phone,wifi,hevc,240p,650000,2000000,210\n"
    with pytest.raises(ParseError, match=f"^line 3: bitrate_bps must be a number, got '{cell}'$"):
        read_measurements(text + f"phone,wifi,hevc,480p,{cell},2000000,250\n")


@pytest.mark.parametrize("field", ["device", "connection", "codec"])
def test_slash_in_a_group_field_is_rejected(field):
    cells = {"device": "phone", "connection": "wifi", "codec": "hevc", field: "a/b"}
    row = f"{cells['device']},{cells['connection']},{cells['codec']},240p,650000,2000000,210\n"
    with pytest.raises(ParseError, match=f"^line 2: {field} must not contain '/', got 'a/b'$"):
        read_measurements(HEADER + row)
    with pytest.raises(ValueError, match=f"^{field} must not contain '/', got 'a/b'$"):
        rec(**{field: "a/b"})


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


def test_group_measurements_keeps_first_seen_order_and_references():
    records = [
        rec(device="b", current=300.0),
        rec(device="a", current=100.0),
        rec(device="b", resolution="480p", bitrate=1_250_000, current=320.0),
        rec(device="a", current=104.0),
    ]
    grouped = group_measurements(Measurements(*map(list, zip(*map(astuple, records)))))
    assert [c.device for c in grouped] == ["b", "a"]
    assert [list(zip(*group)) for group in grouped.values()] == [
        [astuple(records[0]), astuple(records[2])],
        [astuple(records[1]), astuple(records[3])],
    ]
    for combination, group in grouped.items():
        assert normalize_columns(group, combination)[0] == reference_consumption(
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


# The columnar reader and normalizer against the row-by-row reference.

DEVICES = ["a", " a ", '"b"']
CONNECTIONS = ["wifi", "WI-FI", "lte"]
CODECS = ["hevc", "H.265", "avc"]
RESOLUTIONS = ["240p", "480p", "240p", "", "hd", "1080p60", '" 240p "']
# Three currents whose sum rounds; a bitrate of 1e-300 under a bandwidth of
# 1e300 gives a bw_rel that overflows, two 1e308 currents a reference that
# does, and a 5e-324 current an ec_rel that underflows.
NUMBERS = (
    ["650000", "650000", "650000", "2e6", '"7"', "0.5", "1e-300"],
    ["650000", "2e6", " 310.5 ", "1e300"],
    ["0.1", "0.2", "0.3", " 310.5 ", '"7"', "1e308", "5e-324"],
)
BAD_CELLS = {
    "device": ["", "a/b"],
    "connection": ["wifi/x", "/"],
    "codec": ["hevc/"],
    # "1_0" and the Arabic-Indic "٣٠٠٠" and "٠" are numbers to Python's float
    "number": ["", "abc", "inf", "-inf", "nan", "1e400", "0", "-0.0", "-3", '"1,5"',
               "1_0", "1_000", "٣٠٠٠", "٠"],
}


@st.composite
def measurement_lines(draw):
    kind = draw(st.sampled_from(["row"] * 16 + ["bad cell", "comment", "blank", "fields"]))
    if kind == "comment":
        return draw(st.sampled_from(["# note", "  # a,b", "#"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    cells = [
        draw(st.sampled_from(DEVICES)),
        draw(st.sampled_from(CONNECTIONS)),
        draw(st.sampled_from(CODECS)),
        draw(st.sampled_from(RESOLUTIONS)),
        *(draw(st.sampled_from(numbers)) for numbers in NUMBERS),
    ]
    if kind == "bad cell":
        column = draw(st.sampled_from([0, 1, 2, 4, 5, 6]))
        field = HEADER.split(",")[column] if column < 3 else "number"
        cells[column] = draw(st.sampled_from(BAD_CELLS[field]))
    if kind == "fields":
        cells = cells[:-1] if draw(st.booleans()) else cells + ["x"]
    return ",".join(cells)


def outcome(read):
    """What ``read`` gives: the columns and each group's normalization, or
    the first error's type and message."""
    try:
        return read()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def columnar(text):
    columns = read_measurements(text)
    groups = {
        combination.label: normalize_columns(group, combination)
        for combination, group in group_measurements(columns).items()
    }
    return [list(column) for column in columns], groups


def rowwise(text):
    rows = rowwise_measurements.load_rows(text)
    return [list(column) for column in zip(*rows)], rowwise_measurements.normalize(rows)


def record_views(text):
    records = load_records(text)
    groups = {
        combination.label: (
            reference_consumption(records, combination),
            [p.bw_rel for p in points],
            [p.ec_rel for p in points],
        )
        for combination, points in normalize(records).items()
    }
    return [list(column) for column in zip(*map(astuple, records))], groups


def bits(result):
    """Floats spelled by their bits, so that equality is bit for bit."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, (list, tuple)):
        return [bits(item) for item in result]
    if isinstance(result, dict):
        return {key: bits(value) for key, value in result.items()}
    return result


@settings(max_examples=400, deadline=None)
@given(st.lists(measurement_lines(), max_size=14), st.sampled_from([HEADER, " device , connection,"
       "codec,resolution,bitrate_bps,avg_bandwidth_bps,avg_current_ma\n"]))  # fmt: skip
@example(["a,wifi,hevc,240p,1,2," + current for current in ("0.1", "0.2", "0.3")], HEADER)
def test_columns_and_errors_equal_the_row_by_row_reader(lines, header):
    text = header + "\n".join(lines)
    expected = outcome(lambda: rowwise(text))
    if expected[0] == "ReadError":
        expected = ("ParseError", expected[1])
    expected = bits(expected)
    assert bits(outcome(lambda: columnar(text))) == expected
    assert bits(outcome(lambda: record_views(text))) == expected


@pytest.mark.parametrize("rows, message", [
    # several faults: the earliest line wins, whatever its kind
    (["a,wifi,hevc,240p,0,1,1", "a,wifi,hevc,240p,x,1,1"], "line 2: bitrate must be positive"),
    (["a,wifi,hevc,240p,1,1,1", "a,wifi,hevc,240p,1,1", "a,wifi,hevc,240p,x,1,1"],
     "line 3: expected 7 fields, got 6"),
    (["a,wifi,hevc,240p,1,1,1", "a,wifi,hevc,240p,x,1,1", "a,wifi"],
     "line 3: bitrate_bps must be a number, got 'x'"),
    # within a line: every number parses and is finite before the device is checked
    ([",wifi,hevc,240p,1,1,inf"], "line 2: avg_current_ma must be finite, got 'inf'"),
    ([",wifi,hevc,240p,-1,1,1"], "line 2: device must be non-empty"),
    (["a,wifi,hevc,240p,1,-1,-1"], "line 2: avg_bandwidth must be positive, got -1.0"),
])  # fmt: skip
def test_earliest_fault_is_reported(rows, message):
    with pytest.raises(ParseError, match=f"^{message}"):
        read_measurements(HEADER + "\n".join(rows) + "\n")


def test_normalize_and_fit_build_no_row_objects(tmp_path, monkeypatch):
    import abrenergy.measurements as measurements
    from abrenergy.cli import main

    def refuse(self, *args):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(measurements.MeasurementRecord, "__post_init__", refuse)
    monkeypatch.setattr(measurements.RelativePoint, "__post_init__", refuse)
    text = HEADER + "a,wifi,hevc,240p,1,2,3\na,wifi,hevc,480p,2,3,4\nb,lte,avc,240p,1,2,3\n"
    (tmp_path / "m.csv").write_text(text + "b,lte,avc,480p,2,4,4\nb,lte,avc,720p,4,5,5\n")
    for command in ("normalize", "fit"):
        argv = [command, "--input", str(tmp_path / "m.csv"), "--output", str(tmp_path / "o")]
        assert main(argv) == 0
