"""Quality ladders: the ordered set of encoded versions a client can request."""

from __future__ import annotations

from dataclasses import dataclass

from ._csvio import ParseError, data_rows, parse_int

AVC = "AVC"
HEVC = "HEVC"

LADDER_HEADER = ["name", "width", "height", "label", "bitrate_bps", "codec"]

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


@dataclass(frozen=True)
class Representation:
    """One rung of a ladder: an encoded version selectable per segment.

    ``bitrate`` is in bits per second and is kept as an integer so that
    selection thresholds compare bit-exactly.
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
        if self.bitrate <= 0:
            raise ValueError(
                f"representation {self.name!r}: bitrate must be positive, got {self.bitrate}"
            )
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"representation {self.name!r}: dimensions must be positive,"
                f" got {self.width}x{self.height}"
            )


@dataclass(frozen=True)
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
    reps: list[Representation] = []
    names: dict[str, int] = {}
    bitrates: dict[int, int] = {}
    for line_no, cells in data_rows(text, LADDER_HEADER):
        width = parse_int(cells[1], line_no, "width")
        height = parse_int(cells[2], line_no, "height")
        bitrate = parse_int(cells[4], line_no, "bitrate_bps")
        try:
            rep = Representation(
                cells[0], width, height, cells[3], bitrate, normalize_codec(cells[5])
            )
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
        if rep.name in names:
            raise ParseError(
                f"line {line_no}: duplicate name {rep.name!r}"
                f" (first seen on line {names[rep.name]})"
            )
        if bitrate in bitrates:
            raise ParseError(
                f"line {line_no}: duplicate bitrate {bitrate}"
                f" (first seen on line {bitrates[bitrate]})"
            )
        names[rep.name] = line_no
        bitrates[bitrate] = line_no
        reps.append(rep)
    if not reps:
        raise ParseError("ladder contains no representations")
    reps.sort(key=lambda rep: rep.bitrate)
    return QualityLadder(tuple(reps))

