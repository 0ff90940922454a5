"""Ladder parsing, validation, and round-trip behavior."""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, strategies as st

from abrenergy import (
    LADDER_HEADER,
    ParseError,
    QualityLadder,
    Representation,
    normalize_codec,
    parse_ladder,
)
from conftest import STOCK_LADDER_CSV


def ladder_csv(ladder: QualityLadder) -> str:
    """The ladder as ``csv.writer`` writes it, quoting only the cells that need it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(LADDER_HEADER)
    for rep in ladder:
        writer.writerow([rep.name, rep.width, rep.height, rep.label, rep.bitrate, rep.codec])
    return buffer.getvalue()


#: Cell text that fits on one line and that UTF-8 can encode, with commas and
#: quotes drawn often.  The parser strips each cell, so a test wraps it in
#: non-space characters.
cell_text = st.text(
    st.sampled_from(',"') | st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
    max_size=8,
)


class TestParseLadder:
    def test_stock_ladder_shape(self, ladder):
        assert len(ladder) == 10
        assert ladder[0].bitrate == 650_000
        assert ladder[-1].bitrate == 20_000_000
        assert ladder[0].label == "240p"
        assert all(rep.codec == "HEVC" for rep in ladder)

    def test_rows_sorted_by_bitrate(self):
        text = (
            "name,width,height,label,bitrate_bps,codec\n"
            "hi,1920,1080,1080p,5000000,hevc\n"
            "lo,428,182,240p,650000,h264\n"
        )
        out = parse_ladder(text)
        assert out.bitrates == (650_000, 5_000_000)
        assert out[0].codec == "AVC"
        assert out[-1].codec == "HEVC"

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

    @pytest.mark.parametrize("field, cell", [
        ("width", "4_2_8"), ("height", "١٨٢"), ("bitrate_bps", "650_000"),
    ])  # fmt: skip
    def test_numbers_spelled_as_no_csv_writer_does_are_rejected(self, field, cell):
        cells = {"width": "428", "height": "182", "bitrate_bps": "650000", field: cell}
        text = (
            "name,width,height,label,bitrate_bps,codec\n"
            f"a,{cells['width']},{cells['height']},240p,{cells['bitrate_bps']},HEVC\n"
        )
        message = f"^line 2: {field} must be an integer, got '{cell}'$"
        with pytest.raises(ParseError, match=message):
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
        assert parse_ladder(ladder_csv(ladder)) == ladder

    def test_quoted_name_and_label(self):
        ladder = QualityLadder((
            Representation("lo,w", 428, 182, '240p "SD"', 650_000, "AVC"),
            Representation('"hi"', 1920, 1080, "1080p,HD", 5_000_000, "HEVC"),
        ))  # fmt: skip
        text = ladder_csv(ladder)
        assert '"lo,w"' in text and '"""hi"""' in text
        assert parse_ladder(text) == ladder

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=10**9), cell_text, cell_text),
            min_size=1,
            max_size=12,
            unique_by=lambda rung: rung[0],
        )
    )
    def test_any_ladder_round_trips(self, rungs):
        reps = tuple(
            Representation(
                name=f"r{i}:{name}:",
                width=16 * (i + 1),
                height=9 * (i + 1),
                label=f"<{label}>",
                bitrate=b,
                codec="HEVC" if i % 2 else "AVC",
            )
            for i, (b, name, label) in enumerate(sorted(rungs))
        )
        built = QualityLadder(reps)
        assert parse_ladder(ladder_csv(built)) == built


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

    @pytest.mark.parametrize("bitrate", [2**53 + 1, 2**53 + 2, int(1e308), 10**309])
    def test_bitrate_beyond_2_to_the_53_is_rejected_naming_the_rung(self, bitrate):
        # beyond 2**53 a float skips integers, so selection over the float
        # bitrates and over the integers could disagree
        message = r"representation 'top': bitrate must be at most 2\*\*53 \(9007199254740992\)"
        with pytest.raises(ValueError, match=message):
            Representation("top", 10, 10, "x", bitrate, "AVC")
        with pytest.raises(ParseError, match=f"^line 3: {message}"):
            parse_ladder(f"{','.join(LADDER_HEADER)}\nlow,10,10,x,1000,AVC\n"
                         f"top,20,20,y,{bitrate},AVC\n")  # fmt: skip
        assert float(Representation("top", 10, 10, "x", 2**53, "AVC").bitrate) == 2**53

    @pytest.mark.parametrize("name", ["lo\rw", "lo\nw", "\r\n", "lo\r"])
    def test_line_break_in_a_name_is_rejected(self, name):
        # csv.writer leaves a lone \r unquoted, which would split a per-segment CSV row
        with pytest.raises(ValueError, match="representation name .* must not hold a line break"):
            Representation(name, 10, 10, "x", 1000, "AVC")


def test_codec_normalization():
    assert normalize_codec("h264") == "AVC"
    assert normalize_codec("H.265") == "HEVC"
    assert normalize_codec("hevc") == "HEVC"
    assert normalize_codec("av1") == "AV1"
