"""Quality ladders: the ordered set of encoded versions a client can request.

The codec and connection spellings that ladders, measurement files and
preset labels share are made canonical here as well.
"""

from __future__ import annotations


from ._csvio import ParseError, check_unique, int_column, read_columns
from ._frozen import frozen

AVC = "AVC"
HEVC = "HEVC"

LADDER_HEADER = ["name", "width", "height", "label", "bitrate_bps", "codec"]

#: The largest bitrate a rung may have: every integer up to it is a float.
_MAX_BITRATE = 2**53

_CODEC_ALIASES = {
    "AVC": AVC,
    "H264": AVC,
    "H.264": AVC,
    "X264": AVC,
    "HEVC": HEVC,
    "H265": HEVC,
    "H.265": HEVC,
    "X265": HEVC,
}


def normalize_codec(value: str) -> str:
    """Canonical uppercase codec name; unknown codecs pass through uppercased."""
    canon = value.strip().upper()
    return _CODEC_ALIASES.get(canon, canon)


WIFI = "WIFI"
LTE_4G = "LTE_4G"
NR_5G = "NR_5G"

_CONNECTION_ALIASES = {
    "WIFI": WIFI,
    "WI-FI": WIFI,
    "WLAN": WIFI,
    "4G": LTE_4G,
    "LTE": LTE_4G,
    "LTE_4G": LTE_4G,
    "5G": NR_5G,
    "NR": NR_5G,
    "NR_5G": NR_5G,
}


def normalize_connection(value: str) -> str:
    """Canonical uppercase connection name; unknown kinds pass through uppercased."""
    canon = value.strip().upper()
    return _CONNECTION_ALIASES.get(canon, canon)


@frozen
class Representation:
    """One rung of a ladder: an encoded version selectable per segment.

    ``bitrate`` is in bits per second and is kept as an integer so that
    selection thresholds compare bit-exactly.  It is at most ``2**53``, so
    that its float, which sessions compare with budgets, is the same number.
    """

    name: str
    width: int
    height: int
    label: str
    bitrate: int
    codec: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("representation name must be non-empty")
        for field in ("name", "label", "codec"):
            try:
                getattr(self, field).encode()
            except UnicodeEncodeError as exc:
                raise ValueError(
                    f"representation {field} {getattr(self, field)!r} cannot be written"
                    f" as UTF-8: {exc.reason}"
                ) from None
        if "\r" in self.name or "\n" in self.name:
            # the per-segment CSV writes the name in a cell of one line
            raise ValueError(f"representation name {self.name!r} must not hold a line break")
        if self.bitrate <= 0:
            raise ValueError(
                f"representation {self.name!r}: bitrate must be positive, got {self.bitrate}"
            )
        if self.bitrate > _MAX_BITRATE:
            raise ValueError(
                f"representation {self.name!r}: bitrate must be at most 2**53 ({_MAX_BITRATE}),"
                " beyond which floats skip integers"
            )
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"representation {self.name!r}: dimensions must be positive,"
                f" got {self.width}x{self.height}"
            )


@frozen
class QualityLadder:
    """Representations ordered by strictly increasing bitrate."""

    representations: tuple[Representation, ...]

    def __post_init__(self) -> None:
        reps = self.representations
        if not reps:
            raise ValueError("ladder must contain at least one representation")
        seen: set[str] = set()
        for rep in reps:
            if rep.name in seen:
                raise ValueError(f"duplicate representation name {rep.name!r}")
            seen.add(rep.name)
        for lower, upper in zip(reps, reps[1:]):
            if upper.bitrate <= lower.bitrate:
                raise ValueError(
                    "ladder bitrates must be strictly increasing:"
                    f" {lower.name!r} ({lower.bitrate}) >= {upper.name!r} ({upper.bitrate})"
                )

    def __len__(self) -> int:
        return len(self.representations)

    def __iter__(self):
        return iter(self.representations)

    def __getitem__(self, index: int) -> Representation:
        return self.representations[index]

    @property
    def bitrates(self) -> tuple[int, ...]:
        return tuple(rep.bitrate for rep in self.representations)


def parse_ladder(text: str) -> QualityLadder:
    """Parse ladder CSV (``name,width,height,label,bitrate_bps,codec``).

    Rows may appear in any order; the result is sorted by bitrate.  Lines
    starting with ``#`` are ignored.  Duplicate names or bitrates, malformed
    rows, and non-positive numeric fields are rejected with the offending
    line number.

    Args:
        text: CSV document contents.

    Returns:
        QualityLadder sorted by strictly increasing bitrate.

    Raises:
        ParseError: on any malformed or inconsistent row.
    """
    return read_columns(text, LADDER_HEADER, _ladder)


def _ladder(line_numbers: list[int], columns: list[list[str]]) -> QualityLadder:
    names, widths, heights, labels, bitrates, codecs = columns
    width = int_column(widths, line_numbers, "width")
    height = int_column(heights, line_numbers, "height")
    bitrate = int_column(bitrates, line_numbers, "bitrate_bps")
    reps = []
    rows = zip(line_numbers, names, width, height, labels, bitrate, codecs)
    for line_no, *fields, codec in rows:
        try:
            reps.append(Representation(*fields, normalize_codec(codec)))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    check_unique(names, line_numbers, "name")
    check_unique(bitrate, line_numbers, "bitrate")
    if not reps:
        raise ParseError("ladder contains no representations", None)
    reps.sort(key=lambda rep: rep.bitrate)
    return QualityLadder(tuple(reps))
