"""Channel behaviors: per-period available-bandwidth traces.

A trace fixes the bandwidth the client sees during each request period.
Four generators cover the stock behaviors (constant capacity, a triangular
staircase sweep, and block-random capacity), and arbitrary measured traces
load from CSV.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Sequence
from functools import cached_property
from itertools import chain, islice, repeat

from ._csvio import ParseError, check_unique, float_column, int_column, read_columns
from ._frozen import frozen
from .prng import Lcg64

DEFAULT_PERIOD_S = 6.0

#: Stock bandwidth menu (bits per second) for staircase and random behaviors.
DEFAULT_BANDWIDTH_VALUES: tuple[float, ...] = tuple(
    float(mbps) * 1e6 for mbps in (1, 4, 7, 10, 13, 16, 19, 22)
)

DEFAULT_BLOCK_LEN = 10

TRACE_HEADER = ["period", "bandwidth_bps"]


@frozen
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
        values = tuple(map(float, self.bandwidths))
        if not values:
            raise ValueError("trace must contain at least one period")
        if not (all(map(math.isfinite, values)) and min(values) > 0):
            i, bandwidth = next((i, v) for i, v in enumerate(values) if not 0.0 < v < math.inf)
            rule = "finite" if not math.isfinite(bandwidth) else "positive"
            raise ValueError(f"period {i}: bandwidth must be {rule}, got {bandwidth}")
        object.__setattr__(self, "period_duration", float(self.period_duration))
        object.__setattr__(self, "bandwidths", values)

    @cached_property
    def counts(self) -> dict[float, int]:
        """Periods per distinct bandwidth, in order of first appearance.

        Sessions over the trace select, price and tally each distinct
        bandwidth once; the table is counted once per trace and must not be
        changed.
        """
        return Counter(self.bandwidths)

    @cached_property
    def digest(self) -> str:
        """Short sha256 of the duration and bandwidths.

        Reports record it so that only sessions over the same trace are
        compared; it is computed once per trace.  The hashed text is
        ``repr(period_duration) + "|" + ",".join(map(repr, bandwidths))``.
        Each distinct bandwidth is formatted once (bandwidths are positive,
        so equal values have one spelling), and the text is fed in pieces:
        a long trace's text is several times its size.
        """
        cells = {bandwidth: repr(bandwidth) for bandwidth in self.counts}
        digest = hashlib.sha256(repr(self.period_duration).encode() + b"|")
        for start in range(0, len(self.bandwidths), 1024):
            piece = ",".join(map(cells.__getitem__, self.bandwidths[start : start + 1024]))
            digest.update((("," if start else "") + piece).encode())
        return digest.hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.bandwidths)


def _check_menu(values: list[float]) -> None:
    """Refuse a menu value that is not positive and finite, reached or not."""
    for v in values:
        if not 0.0 < v < math.inf:
            rule = "positive" if v <= 0 else "finite"
            raise ValueError(f"bandwidth values must be {rule}, got {v}")


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
    _check_menu(vals)
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
    block_len) triple always produces the same trace.  A block at least as
    long as the trace is the whole trace: each draw is repeated at most
    ``n_periods`` times, however large ``block_len`` is.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("random_blocks needs at least one value")
    _check_menu(vals)
    if block_len < 1:
        raise ValueError(f"block_len must be at least 1, got {block_len}")
    rng = Lcg64(seed)
    draws = [vals[rng.next_index(len(vals))] for _ in range(-(-n_periods // block_len))]
    blocks = chain.from_iterable(map(repeat, draws, repeat(min(block_len, n_periods))))
    return ChannelTrace(period_duration, tuple(islice(blocks, max(n_periods, 0))))


def load_trace(text: str, period_duration: float = DEFAULT_PERIOD_S) -> ChannelTrace:
    """Parse a trace CSV (``period,bandwidth_bps``).

    Rows may appear out of order but must cover periods 0..n-1 exactly;
    gaps, duplicates, and non-positive bandwidths are rejected with line
    numbers.
    """

    def convert(line_numbers: list[int], columns: list[list[str]]) -> ChannelTrace:
        periods = int_column(columns[0], line_numbers, "period")
        bandwidths = float_column(columns[1], line_numbers, "bandwidth_bps")
        if min(periods, default=0) < 0:
            row = next(row for row, period in enumerate(periods) if period < 0)
            raise ParseError(
                f"period must be non-negative, got {periods[row]}", line_numbers[row]
            )
        if min(bandwidths, default=1.0) <= 0:
            row = next(row for row, bandwidth in enumerate(bandwidths) if bandwidth <= 0)
            raise ParseError(
                f"bandwidth_bps must be positive, got {bandwidths[row]}", line_numbers[row]
            )
        check_unique(periods, line_numbers, "period")
        if not periods:
            raise ParseError("trace contains no periods", None)
        # distinct non-negative periods cover 0..n-1 when the largest is n-1
        if max(periods) != len(periods) - 1:
            present = set(periods)
            missing = next(p for p in range(len(periods)) if p not in present)
            raise ParseError(f"gap in period indices: period {missing} missing", None)
        in_order = [0.0] * len(periods)
        for period, bandwidth in zip(periods, bandwidths):
            in_order[period] = bandwidth
        return ChannelTrace(period_duration, tuple(in_order))

    return read_columns(text, TRACE_HEADER, convert)


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
