"""Ladder parsing, validation, and round-trip behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from abrenergy import (
    ParseError,
    QualityLadder,
    Representation,
    normalize_codec,
    parse_ladder,
    serialize_ladder,
    validate_ladder,
)
from conftest import STOCK_LADDER_CSV


class TestParseLadder:
    def test_stock_ladder_shape(self, ladder):
        assert len(ladder) == 10
        assert ladder.lowest.bitrate == 650_000
        assert ladder.highest.bitrate == 20_000_000
        assert ladder.lowest.label == "240p"
        assert all(rep.codec == "HEVC" for rep in ladder)

    def test_rows_sorted_by_bitrate(self):
        text = (
            "name,width,height,label,bitrate_bps,codec\n"
            "hi,1920,1080,1080p,5000000,hevc\n"
            "lo,428,182,240p,650000,h264\n"
        )
        out = parse_ladder(text)
        assert out.bitrates == (650_000, 5_000_000)
        assert out.lowest.codec == "AVC"
        assert out.highest.codec == "HEVC"

    def test_comment_and_blank_lines_skipped(self):
        text = (
            "# source: encoder run 14\n"
            "name,width,height,label,bitrate_bps,codec\n"
            "\n"
            "a,100,100,240p,1000,HEVC\n"
            "# midway note\n"
            "b,200,200,480p,2000,HEVC\n"
        )
        assert parse_ladder(text).bitrates == (1000, 2000)

    def test_duplicate_name_reports_line(self):
        text = (
            "name,width,height,label,bitrate_bps,codec\n"
            "a,100,100,240p,1000,HEVC\n"
            "a,200,200,480p,2000,HEVC\n"
        )
        with pytest.raises(ParseError, match="line 3.*duplicate name"):
            parse_ladder(text)

    def test_duplicate_bitrate_reports_line(self):
        text = (
            "name,width,height,label,bitrate_bps,codec\n"
            "a,100,100,240p,1000,HEVC\n"
            "b,200,200,480p,1000,HEVC\n"
        )
        with pytest.raises(ParseError, match="line 3.*duplicate bitrate"):
            parse_ladder(text)

    def test_non_integer_bitrate_rejected(self):
        text = (
            "name,width,height,label,bitrate_bps,codec\n"
            "a,100,100,240p,1000.5,HEVC\n"
        )
        with pytest.raises(ParseError, match="line 2.*integer"):
            parse_ladder(text)

    def test_non_positive_bitrate_rejected(self):
        text = "name,width,height,label,bitrate_bps,codec\na,100,100,240p,0,HEVC\n"
        with pytest.raises(ParseError, match="line 2.*positive"):
            parse_ladder(text)

    def test_wrong_field_count_rejected(self):
        text = "name,width,height,label,bitrate_bps,codec\na,100,100,240p,1000\n"
        with pytest.raises(ParseError, match="line 2.*fields"):
            parse_ladder(text)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_ladder("name,bitrate\na,1000\n")

    def test_header_only_is_empty_ladder_error(self):
        with pytest.raises(ParseError, match="no representations"):
            parse_ladder("name,width,height,label,bitrate_bps,codec\n")


class TestRoundTrip:
    def test_stock_round_trip(self, ladder):
        assert parse_ladder(serialize_ladder(ladder)) == ladder

    @given(
        st.lists(
            st.integers(min_value=1, max_value=10**9),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    def test_any_ladder_round_trips(self, bitrates):
        reps = tuple(
            Representation(
                name=f"r{i}",
                width=16 * (i + 1),
                height=9 * (i + 1),
                label=f"{9 * (i + 1)}p",
                bitrate=b,
                codec="HEVC" if i % 2 else "AVC",
            )
            for i, b in enumerate(sorted(bitrates))
        )
        built = QualityLadder(reps)
        assert parse_ladder(serialize_ladder(built)) == built


class TestLadderInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            QualityLadder(())

    def test_non_increasing_rejected(self):
        reps = (
            Representation("a", 10, 10, "x", 2000, "AVC"),
            Representation("b", 10, 10, "y", 1000, "AVC"),
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            QualityLadder(reps)

    def test_duplicate_names_rejected(self):
        reps = (
            Representation("a", 10, 10, "x", 1000, "AVC"),
            Representation("a", 10, 10, "y", 2000, "AVC"),
        )
        with pytest.raises(ValueError, match="duplicate"):
            QualityLadder(reps)

    def test_representation_positivity(self):
        with pytest.raises(ValueError):
            Representation("a", 0, 10, "x", 1000, "AVC")
        with pytest.raises(ValueError):
            Representation("a", 10, 10, "x", -5, "AVC")

    @pytest.mark.parametrize("field", ["name", "label", "codec"])
    def test_lone_surrogate_rejected_naming_the_field(self, field):
        # no UTF-8 writer can emit a lone surrogate, and the digest encodes the names
        fields = {"name": "a", "label": "x", "codec": "AVC", field: "a\ud800"}
        with pytest.raises(ValueError, match=f"representation {field} .*UTF-8"):
            Representation(fields["name"], 10, 10, fields["label"], 1000, fields["codec"])


class TestValidateLadder:
    def test_stock_ladder_is_clean(self, ladder):
        assert validate_ladder(ladder) == []

    def test_wide_gap_reported_with_names_and_ratio(self):
        reps = (
            Representation("lo", 10, 10, "x", 1_000_000, "AVC"),
            Representation("hi", 10, 10, "y", 2_500_000, "AVC"),
        )
        diags = validate_ladder(QualityLadder(reps))
        assert len(diags) == 1
        assert "'lo'" in diags[0] and "'hi'" in diags[0] and "2.5" in diags[0]

    def test_threshold_is_configurable(self, ladder):
        # the widest stock step is 0.65 -> 1.25 Mbps (ratio 1.923)
        assert validate_ladder(ladder, max_ratio=1.9) != []
        with pytest.raises(ValueError):
            validate_ladder(ladder, max_ratio=1.0)


def test_codec_normalization():
    assert normalize_codec("h264") == "AVC"
    assert normalize_codec("H.265") == "HEVC"
    assert normalize_codec("hevc") == "HEVC"
    assert normalize_codec("av1") == "AV1"
