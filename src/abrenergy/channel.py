"""Channel behaviors: per-period available-bandwidth traces.

A trace fixes the bandwidth the client sees during each request period.
Four generators cover the stock behaviors (constant capacity, a triangular
staircase sweep, and block-random capacity), and arbitrary measured traces
load from CSV.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._csvio import ParseError, data_rows, first_seen, parse_float, parse_int
from .prng import Lcg64

DEFAULT_PERIOD_S = 6.0

#: Stock bandwidth menu (bits per second) for staircase and random behaviors.
DEFAULT_BANDWIDTH_VALUES: tuple[float, ...] = tuple(
    float(mbps) * 1e6 for mbps in (1, 4, 7, 10, 13, 16, 19, 22)
)

DEFAULT_BLOCK_LEN = 10

TRACE_HEADER = ["period", "bandwidth_bps"]


@dataclass(frozen=True)
class ChannelTrace:
    """Bandwidth per period, each period lasting ``period_duration`` seconds.

    The period duration is the segment duration of a session over the
    trace.  It and the bandwidths are stored as floats and must be positive
    and finite; the bandwidths as a tuple.
    """

    period_duration: float
    bandwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.period_duration) or self.period_duration <= 0:
            raise ValueError(
                f"period_duration must be positive and finite, got {self.period_duration}"
            )
        values = np.array(self.bandwidths, dtype=float)
        if not values.size:
            raise ValueError("trace must contain at least one period")
        bad = np.flatnonzero(~np.isfinite(values) | (values <= 0))
        if bad.size:
            i, bandwidth = int(bad[0]), float(values[bad[0]])
            rule = "finite" if not math.isfinite(bandwidth) else "positive"
            raise ValueError(f"period {i}: bandwidth must be {rule}, got {bandwidth}")
        object.__setattr__(self, "period_duration", float(self.period_duration))
        object.__setattr__(self, "bandwidths", tuple(values.tolist()))

    @cached_property
    def digest(self) -> str:
        """Short sha256 of the duration and bandwidths.

        Reports record it so that only sessions over the same trace are
        compared; it is computed once per trace.  The hashed text is
        ``repr(period_duration) + "|" + ",".join(map(repr, bandwidths))``,
        fed in pieces: a long trace's text is several times its size.
        """
        digest = hashlib.sha256(repr(self.period_duration).encode() + b"|")
        for start in range(0, len(self.bandwidths), 1024):
            piece = ",".join(map(repr, self.bandwidths[start : start + 1024]))
            digest.update((("," if start else "") + piece).encode())
        return digest.hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.bandwidths)


def constant(
    bandwidth: float, n_periods: int, period_duration: float = DEFAULT_PERIOD_S
) -> ChannelTrace:
    """Fixed capacity for the whole session."""
    return ChannelTrace(period_duration, (float(bandwidth),) * n_periods)


def staircase(
    values: Sequence[float],
    n_periods: int,
    period_duration: float = DEFAULT_PERIOD_S,
) -> ChannelTrace:
    """Triangular sweep over ``values``: up to the maximum, back down to the
    minimum, then the sweep starts over from the minimum.

    The descent reaches the lowest value and the restart begins there, so
    the minimum appears twice at each cycle boundary; the cycle length is
    ``2 * len(values) - 1``.

    Args:
        values: strictly increasing bandwidths, at least two.
        n_periods: total periods to emit.
        period_duration: seconds per period.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError(f"staircase needs at least two values, got {len(vals)}")
    for lower, upper in zip(vals, vals[1:]):
        if upper <= lower:
            raise ValueError("staircase values must be strictly increasing")
    cycle = vals + vals[-2::-1]
    return ChannelTrace(
        period_duration,
        tuple(cycle[i % len(cycle)] for i in range(n_periods)),
    )


def random_blocks(
    values: Sequence[float],
    n_periods: int,
    seed: int,
    block_len: int = DEFAULT_BLOCK_LEN,
    period_duration: float = DEFAULT_PERIOD_S,
) -> ChannelTrace:
    """Capacity redrawn uniformly from ``values`` every ``block_len`` periods.

    Draws come from the pinned 64-bit generator, so a (values, seed,
    block_len) triple always produces the same trace.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("random_blocks needs at least one value")
    for v in vals:
        if v <= 0:
            raise ValueError(f"bandwidth values must be positive, got {v}")
    if block_len < 1:
        raise ValueError(f"block_len must be at least 1, got {block_len}")
    rng = Lcg64(seed)
    bandwidths: list[float] = []
    while len(bandwidths) < n_periods:
        value = vals[rng.next_index(len(vals))]
        bandwidths.extend([value] * block_len)
    return ChannelTrace(period_duration, tuple(bandwidths[:n_periods]))


def load_trace(text: str, period_duration: float = DEFAULT_PERIOD_S) -> ChannelTrace:
    """Parse a trace CSV (``period,bandwidth_bps``).

    Rows may appear out of order but must cover periods 0..n-1 exactly;
    gaps, duplicates, and non-positive bandwidths are rejected with line
    numbers.
    """
    entries: dict[int, float] = {}
    lines: dict[int, int] = {}
    for line_no, cells in data_rows(text, TRACE_HEADER):
        period = parse_int(cells[0], line_no, "period")
        bandwidth = parse_float(cells[1], line_no, "bandwidth_bps")
        if period < 0:
            raise ParseError(f"line {line_no}: period must be non-negative, got {period}")
        if bandwidth <= 0:
            raise ParseError(
                f"line {line_no}: bandwidth_bps must be positive, got {bandwidth}"
            )
        first_seen(lines, period, line_no, "period")
        entries[period] = bandwidth
    if not entries:
        raise ParseError("trace contains no periods")
    for expected in range(len(entries)):
        if expected not in entries:
            raise ParseError(f"gap in period indices: period {expected} missing")
    return ChannelTrace(
        period_duration,
        tuple(entries[i] for i in range(len(entries))),
    )


def serialize_trace(trace: ChannelTrace) -> str:
    """Render a trace back to CSV; integral bandwidths round-trip exactly."""
    lines = [",".join(TRACE_HEADER)]
    for period, bandwidth in enumerate(trace.bandwidths):
        if bandwidth == int(bandwidth):
            rendered = str(int(bandwidth))
        else:
            rendered = repr(bandwidth)
        lines.append(f"{period},{rendered}")
    return "\n".join(lines) + "\n"
