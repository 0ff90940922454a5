"""Channel trace generators and the trace file format."""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from abrenergy import (
    DEFAULT_BANDWIDTH_VALUES,
    ChannelTrace,
    ParseError,
    constant,
    load_trace,
    random_blocks,
    serialize_trace,
    staircase,
)
from abrenergy.prng import Lcg64

MBPS = [v / 1e6 for v in DEFAULT_BANDWIDTH_VALUES]


class TestConstant:
    def test_fixed_capacity(self):
        trace = constant(22e6, 360)
        assert len(trace) == 360
        assert set(trace.bandwidths) == {22e6}
        assert trace.period_duration == 6.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            constant(22e6, 0)


class TestStaircase:
    def test_stock_menu_first_ten(self):
        trace = staircase(DEFAULT_BANDWIDTH_VALUES, 10)
        assert [b / 1e6 for b in trace.bandwidths] == [1, 4, 7, 10, 13, 16, 19, 22, 19, 16]

    def test_descent_reaches_the_minimum_and_restarts_there(self):
        trace = staircase(DEFAULT_BANDWIDTH_VALUES, 17)
        mbps = [b / 1e6 for b in trace.bandwidths]
        assert mbps[13] == 4 and mbps[14] == 1  # descent ends at the minimum
        assert mbps[15] == 1 and mbps[16] == 4  # the sweep starts over from it

    def test_cycle_length_and_periodicity(self):
        k = len(DEFAULT_BANDWIDTH_VALUES)
        cycle = 2 * k - 1
        trace = staircase(DEFAULT_BANDWIDTH_VALUES, 4 * cycle)
        for i in range(len(trace) - cycle):
            assert trace.bandwidths[i] == trace.bandwidths[i + cycle]

    def test_exactly_one_adjacent_repeat_per_cycle(self):
        k = len(DEFAULT_BANDWIDTH_VALUES)
        cycle = 2 * k - 1
        trace = staircase(DEFAULT_BANDWIDTH_VALUES, 2 * cycle)
        repeats = sum(
            1
            for p, q in zip(trace.bandwidths, trace.bandwidths[1:cycle + 1])
            if p == q
        )
        assert repeats == 1

    def test_two_value_sweep(self):
        trace = staircase([1e6, 4e6], 7)
        assert [b / 1e6 for b in trace.bandwidths] == [1, 4, 1, 1, 4, 1, 1]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            staircase([5e6], 10)
        with pytest.raises(ValueError, match="strictly increasing"):
            staircase([4e6, 4e6], 10)
        with pytest.raises(ValueError, match="strictly increasing"):
            staircase([4e6, 1e6], 10)

    def test_a_menu_value_the_trace_never_reaches_is_checked(self):
        # two periods play only 1e6 and 2e6
        assert staircase([1e6, 2e6, 3e6], 2).bandwidths == (1e6, 2e6)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^bandwidth values must be finite, got {bad}$"):
                staircase([1e6, 2e6, bad], 2)


class TestRandomBlocks:
    def test_blocks_hold_for_the_block_length(self):
        trace = random_blocks(DEFAULT_BANDWIDTH_VALUES, 360, seed=11, block_len=10)
        for start in range(0, 360, 10):
            block = trace.bandwidths[start : start + 10]
            assert len(set(block)) == 1

    def test_values_come_from_the_menu(self):
        trace = random_blocks(DEFAULT_BANDWIDTH_VALUES, 360, seed=5)
        assert set(trace.bandwidths) <= set(DEFAULT_BANDWIDTH_VALUES)

    def test_same_seed_reproduces_exactly(self):
        a = random_blocks(DEFAULT_BANDWIDTH_VALUES, 360, seed=7)
        b = random_blocks(DEFAULT_BANDWIDTH_VALUES, 360, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_blocks(DEFAULT_BANDWIDTH_VALUES, 360, seed=1)
        b = random_blocks(DEFAULT_BANDWIDTH_VALUES, 360, seed=2)
        assert a != b

    def test_truncation_to_requested_length(self):
        trace = random_blocks(DEFAULT_BANDWIDTH_VALUES, 25, seed=3, block_len=10)
        assert len(trace) == 25

    @pytest.mark.parametrize("n", [1, 3, 25])
    def test_a_block_longer_than_the_trace_is_the_whole_trace(self, n):
        # repeat() was given the block length, which overflowed C's ssize_t
        whole = random_blocks(DEFAULT_BANDWIDTH_VALUES, n, seed=4, block_len=n)
        assert random_blocks(DEFAULT_BANDWIDTH_VALUES, n, seed=4, block_len=2**63) == whole
        assert len(set(whole.bandwidths)) == 1

    def test_draw_frequencies_converge(self):
        # 10,000 blocks of one period each; chi-square df=7, p=0.001 -> 24.32
        trace = random_blocks(DEFAULT_BANDWIDTH_VALUES, 10_000, seed=3, block_len=1)
        counts = {v: 0 for v in DEFAULT_BANDWIDTH_VALUES}
        for b in trace.bandwidths:
            counts[b] += 1
        expected = 10_000 / len(counts)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 24.32

    def test_input_validation(self):
        with pytest.raises(ValueError):
            random_blocks([], 10, seed=0)
        with pytest.raises(ValueError):
            random_blocks([1e6], 10, seed=0, block_len=0)
        with pytest.raises(ValueError, match="^bandwidth values must be positive, got -1000000.0$"):
            random_blocks([-1e6], 10, seed=0)

    def test_a_menu_value_the_trace_never_draws_is_checked(self):
        # at seed 2 the three one-period blocks draw only the second value
        assert random_blocks([3e6, 1e6], 3, seed=2, block_len=1).bandwidths == (1e6,) * 3
        for bad, rule in ((math.inf, "finite"), (math.nan, "finite"), (0.0, "positive")):
            with pytest.raises(ValueError, match=f"^bandwidth values must be {rule}, got {bad}$"):
                random_blocks([bad, 1e6], 3, seed=2, block_len=1)


class TestTraceFiles:
    def test_round_trip_including_fractional_bandwidths(self):
        trace = ChannelTrace(6.0, (1e6, 2_500_000.5, 22e6))
        assert load_trace(serialize_trace(trace)) == trace

    def test_rows_may_arrive_out_of_order(self):
        text = "period,bandwidth_bps\n2,3000000\n0,1000000\n1,2000000\n"
        assert load_trace(text).bandwidths == (1e6, 2e6, 3e6)

    def test_comments_are_skipped(self):
        text = "# provenance: {}\nperiod,bandwidth_bps\n0,1000000\n"
        assert len(load_trace(text)) == 1

    def test_gap_reported(self):
        text = "period,bandwidth_bps\n0,1000000\n2,3000000\n"
        with pytest.raises(ParseError, match="period 1 missing"):
            load_trace(text)

    def test_duplicate_period_reports_line(self):
        text = "period,bandwidth_bps\n0,1000000\n0,2000000\n"
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            load_trace(text)

    def test_must_start_at_period_zero(self):
        text = "period,bandwidth_bps\n1,1000000\n"
        with pytest.raises(ParseError, match="period 0 missing"):
            load_trace(text)

    def test_non_positive_bandwidth_rejected(self):
        text = "period,bandwidth_bps\n0,-5\n"
        with pytest.raises(ParseError, match="line 2.*positive"):
            load_trace(text)

    @pytest.mark.parametrize("row, message", [
        ("٠,1000000", "period must be an integer, got '٠'"),
        ("0_0,1000000", "period must be an integer, got '0_0'"),
        ("0,1_000_000", "bandwidth_bps must be a number, got '1_000_000'"),
        ("0,٣٠٠٠", "bandwidth_bps must be a number, got '٣٠٠٠'"),
    ])  # fmt: skip
    def test_numbers_spelled_as_no_csv_writer_does_are_rejected(self, row, message):
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            load_trace(f"period,bandwidth_bps\n{row}\n")

    def test_empty_trace_rejected(self):
        with pytest.raises(ParseError, match="no periods"):
            load_trace("period,bandwidth_bps\n")


def test_trace_invariants():
    with pytest.raises(ValueError):
        ChannelTrace(0.0, (1e6,))
    with pytest.raises(ValueError):
        ChannelTrace(6.0, ())
    with pytest.raises(ValueError):
        ChannelTrace(6.0, (1e6, 0.0))
    with pytest.raises(ValueError, match="period_duration"):
        ChannelTrace(float("nan"), (1e6,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="period 1: bandwidth must be finite"):
            ChannelTrace(6.0, (1e6, bad))


def test_trace_stores_floats():
    trace = ChannelTrace(6.0, (1_000_000, 2.5e6))
    assert [repr(b) for b in trace.bandwidths] == ["1000000.0", "2500000.0"]


def full_repr_digest(trace: ChannelTrace) -> str:
    """The digest as it was first computed: every bandwidth formatted, and
    the text hashed in one piece; kept as the reference for ``digest``."""
    text = repr(trace.period_duration) + "|" + ",".join(map(repr, trace.bandwidths))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_blocks_loop(values, n_periods, seed, block_len, period_duration=6.0) -> ChannelTrace:
    """``random_blocks`` as it was first written, one draw and one block per
    pass of a loop; kept as the reference for the generator."""
    vals = [float(v) for v in values]
    rng = Lcg64(seed)
    bandwidths: list[float] = []
    while len(bandwidths) < n_periods:
        value = vals[rng.next_index(len(vals))]
        bandwidths.extend([value] * block_len)
    return ChannelTrace(period_duration, tuple(bandwidths[:n_periods]))


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
def test_digest_hashes_the_whole_trace_text(n):
    # the digest is fed in pieces; it must equal the hash of the text in one piece
    trace = ChannelTrace(6.0, tuple(1e5 + 0.25 * i for i in range(n)))
    assert trace.digest == full_repr_digest(trace)


positive_bandwidths = st.one_of(st.floats(5e-324, 1e12), st.integers(1, 10**12))


@settings(max_examples=100, deadline=None)
@given(st.lists(positive_bandwidths, min_size=1, max_size=8), st.integers(1, 3000),
       st.integers(0, 2**32), st.sampled_from([6.0, 2.0, 4.5, 1e-3]))  # fmt: skip
def test_digest_and_counts_of_a_trace_with_repeats(pool, n, seed, duration):
    # each distinct bandwidth is formatted once; the text is every period's
    rng = random.Random(seed)
    trace = ChannelTrace(duration, tuple(rng.choice(pool) for _ in range(n)))
    assert trace.digest == full_repr_digest(trace)
    assert trace.counts == Counter(trace.bandwidths)
    assert list(trace.counts) == list(dict.fromkeys(trace.bandwidths))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1.0, 1e9), min_size=1, max_size=10), st.integers(1, 500),
       st.integers(0, 2**70), st.integers(1, 60))  # fmt: skip
def test_random_blocks_equals_the_block_by_block_loop(values, n_periods, seed, block_len):
    trace = random_blocks(values, n_periods, seed, block_len)
    oracle = random_blocks_loop(values, n_periods, seed, block_len)
    assert trace == oracle
    assert trace.digest == oracle.digest
