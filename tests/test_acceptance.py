"""Acceptance gate.

Each numbered criterion below is one test and emits one PASS/FAIL line
(`pytest -s` shows them; `pytest -v` mirrors them as test outcomes).
Tolerances are stated inline next to each assertion.  Reference values
were hand-computed from the closed-form model before the package was
built; the brute-force oracles in this file deliberately re-derive
selection and pricing from scratch rather than calling the library.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from abrenergy import (
    AdaptiveConfig,
    BatteryConfig,
    Combination,
    ModelParams,
    QualityMap,
    RelativePoint,
    adaptive_mode,
    compare,
    constant,
    evaluate,
    fit,
    light_mode,
    medium_mode,
    off_mode,
    parse_ladder,
    pearson,
    preset,
    r_squared,
    random_blocks,
    run_session,
    select,
    spearman,
    staircase,
    strict_mode,
)
from conftest import STOCK_LADDER_CSV

# --- independent reference data -------------------------------------------

A, B, C = 1.154, 0.677, 1.0  # pooled consumption curve
BITRATES = [650_000, 1_250_000, 2_000_000, 2_500_000, 3_500_000,
            5_000_000, 7_500_000, 10_000_000, 15_000_000, 20_000_000]
STAIR_CYCLE_MBPS = [1, 4, 7, 10, 13, 16, 19, 22, 19, 16, 13, 10, 7, 4, 1]
MENU = tuple(v * 1e6 for v in (1, 4, 7, 10, 13, 16, 19, 22))
GAMMAS = {"off": 1.0, "light": 1.5, "medium": 2.0, "strict": 4.0}

PUBLISHED_CONSTANT = {  # energy_pct vs the off baseline, same channel
    22e6: {"light": 81.42, "medium": 81.42, "strict": 68.40},
    13e6: {"light": 91.77, "medium": 81.06, "strict": 69.94},
    4e6: {"light": 90.75},
}
PUBLISHED_LOW_EXCLUDED = {"medium": 81.42, "strict": 73.20}
PUBLISHED_STAIRCASE = {"light": 89.14, "medium": 85.16, "strict": 72.51}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL — {description}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS — {description}")


def oracle_ec(bandwidth: float, gamma: float) -> float:
    """Price one segment straight from the formulas, no library calls."""
    budget = bandwidth / gamma
    eligible = [b for b in BITRATES if b <= budget]
    selected = max(eligible) if eligible else BITRATES[0]
    return A * math.exp(-B * (bandwidth / selected)) + C


def oracle_energy_pct(bandwidths: list[float], gamma: float) -> float:
    mode = sum(oracle_ec(bw, gamma) for bw in bandwidths) / len(bandwidths)
    base = sum(oracle_ec(bw, 1.0) for bw in bandwidths) / len(bandwidths)
    return 100.0 * mode / base


def session_energy_pct(ladder, trace, params, mode) -> float:
    run = run_session(ladder, trace, mode, params, include_segments=False)
    base = run_session(ladder, trace, off_mode(), params, include_segments=False)
    return 100.0 * run.mean_ec_rel / base.mean_ec_rel


MODES = {"light": light_mode, "medium": medium_mode, "strict": strict_mode}


@pytest.fixture(scope="module")
def ladder():
    return parse_ladder(STOCK_LADDER_CSV)


@pytest.fixture(scope="module")
def overall():
    return preset("overall")


def test_01_constant_channel_energy_tables(ladder, overall):
    with criterion(1, "constant channels reproduce the published energy "
                      "percentages within ±0.05 pp in under 1 s each"):
        for bandwidth, expected in PUBLISHED_CONSTANT.items():
            start = time.perf_counter()
            trace = constant(bandwidth, 360)
            for mode_name, published in expected.items():
                pct = session_energy_pct(ladder, trace, overall,
                                         MODES[mode_name]())
                assert abs(pct - published) <= 0.05, (
                    f"{bandwidth / 1e6:g} Mbps {mode_name}: "
                    f"{pct:.4f} vs published {published}")
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{bandwidth / 1e6:g} Mbps took {elapsed:.2f} s"


def test_02_low_capacity_divergence_is_documented(ladder, overall):
    with criterion(2, "low-capacity medium/strict match the model-consistent "
                      "values; the published-table divergence is annotated"):
        trace = constant(4e6, 360)
        bandwidths = [4e6] * 360
        for mode_name in ("medium", "strict"):
            pct = session_energy_pct(ladder, trace, overall, MODES[mode_name]())
            hand = oracle_energy_pct(bandwidths, GAMMAS[mode_name])
            assert abs(pct - hand) <= 1e-9, (mode_name, pct, hand)
            published = PUBLISHED_LOW_EXCLUDED[mode_name]
            assert abs(pct - published) > 1.0, (
                "divergence vanished; fold this entry back into the "
                "tolerance-checked table")
            print(f"\nnote: low-capacity {mode_name} = {pct:.2f}% is the "
                  f"model-consistent value; the published table says "
                  f"{published}%. Known exception: that entry cannot be "
                  f"derived from the pooled curve with any request rule, so "
                  f"it is annotated here instead of tolerance-checked.")


def test_03_staircase_matches_brute_force_oracle(ladder, overall):
    with criterion(3, "staircase channel within ±1.5 pp of the published "
                      "values and within 1e-6 relative of a brute-force "
                      "enumeration of all 360 segments"):
        bandwidths = [STAIR_CYCLE_MBPS[i % 15] * 1e6 for i in range(360)]
        trace = staircase(MENU, 360)
        assert list(trace.bandwidths) == bandwidths  # same sequence, by hand
        for mode_name, published in PUBLISHED_STAIRCASE.items():
            pct = session_energy_pct(ladder, trace, overall, MODES[mode_name]())
            hand = oracle_energy_pct(bandwidths, GAMMAS[mode_name])
            assert abs(pct - hand) <= 1e-6 * abs(hand), (mode_name, pct, hand)
            assert abs(pct - published) <= 1.5, (mode_name, pct, published)


def test_04_random_channel_dominance_and_savings_band(ladder, overall):
    with criterion(4, "20 random-channel seeds: off ≥ light ≥ medium ≥ strict "
                      "everywhere; strict savings within [15%, 35%]"):
        for seed in range(1, 21):
            trace = random_blocks(MENU, 360, seed)
            means = {
                name: run_session(ladder, trace, factory(), overall,
                                  include_segments=False).mean_ec_rel
                for name, factory in (("off", off_mode), ("light", light_mode),
                                      ("medium", medium_mode),
                                      ("strict", strict_mode))
            }
            assert means["off"] >= means["light"] >= means["medium"] \
                >= means["strict"], (seed, means)
            savings = 100.0 - 100.0 * means["strict"] / means["off"]
            assert 15.0 <= savings <= 35.0, (seed, savings)


def test_05_adaptive_mode_properties(ladder, overall):
    with criterion(5, "adaptive sits between light and strict on every "
                      "channel behavior; SoC is non-increasing and linear "
                      "under constant selection (max residual < 1e-9)"):
        # Battery sized so a full session sweeps all three intensity bands
        # without emptying: the comparison needs all 360 segments.
        battery = BatteryConfig(capacity_mah=1000.0, reference_current_ma=1000.0)
        behaviors = [constant(22e6, 360), constant(13e6, 360), constant(4e6, 360),
                     staircase(MENU, 360)]
        behaviors += [random_blocks(MENU, 360, seed) for seed in range(1, 6)]
        for trace in behaviors:
            light = run_session(ladder, trace, light_mode(), overall,
                                include_segments=False).mean_ec_rel
            strict = run_session(ladder, trace, strict_mode(), overall,
                                 include_segments=False).mean_ec_rel
            adaptive = run_session(ladder, trace, adaptive_mode(), overall,
                                   battery=battery)
            assert adaptive.n_segments == 360 and not adaptive.soc_depleted
            assert light >= adaptive.mean_ec_rel >= strict
            socs = [seg.soc_after for seg in adaptive.per_segment]
            assert all(x >= y for x, y in zip(socs, socs[1:]))
            assert {seg.gamma_used for seg in adaptive.per_segment} \
                == {1.5, 2.0, 4.0}

        flat = run_session(ladder, constant(22e6, 360), light_mode(), overall,
                           battery=BatteryConfig(capacity_mah=5000.0,
                                                 reference_current_ma=800.0))
        socs = np.array([seg.soc_after for seg in flat.per_segment])
        x = np.arange(len(socs), dtype=float)
        slope, intercept = np.polyfit(x, socs, 1)
        residuals = socs - (slope * x + intercept)
        assert slope < 0
        assert np.max(np.abs(residuals)) < 1e-9


def _synthetic_points(bw, ec):
    combo = Combination("synthdev", "WIFI", "HEVC")
    return [RelativePoint(float(x), float(y), combo) for x, y in zip(bw, ec)]


def test_06_fitting_recovery_and_grid_oracle():
    with criterion(6, "noiseless fit recovers (a, b, c) within 1e-6; noisy fit "
                      "beats a 200×200 grid search; σ=0.05 noise recovers "
                      "parameters within 10% (median of 100 trials)"):
        truth = ModelParams(a=1.154, b=0.677, c=1.0)
        bw = np.linspace(1.0, 6.0, 50)
        clean = np.array([evaluate(truth, x) for x in bw])
        for fix_c in (1.0, None):
            got = fit(_synthetic_points(bw, clean), fix_c=fix_c).params
            assert abs(got.a - truth.a) < 1e-6
            assert abs(got.b - truth.b) < 1e-6
            assert abs(got.c - truth.c) < 1e-6

        rng = np.random.default_rng(2024)
        bw18 = np.sort(rng.uniform(1.0, 6.0, 18))
        ec18 = np.array([evaluate(truth, x) for x in bw18]) \
            + rng.normal(0.0, 0.05, 18)
        fitted = fit(_synthetic_points(bw18, ec18), fix_c=1.0).params
        sse_fit = sum((evaluate(fitted, x) - y) ** 2
                      for x, y in zip(bw18, ec18))
        grid = np.linspace(0.0, 3.0, 200)
        ga, gb = np.meshgrid(grid, grid, indexing="ij")
        pred = ga[..., None] * np.exp(-gb[..., None] * bw18[None, None, :]) + 1.0
        sse_grid = float(((pred - ec18[None, None, :]) ** 2).sum(axis=2).min())
        assert sse_fit <= sse_grid + 1e-12, (sse_fit, sse_grid)

        rng = np.random.default_rng(7)
        rel_a, rel_b = [], []
        for _ in range(100):
            x = np.sort(rng.uniform(1.0, 6.0, 50))
            y = np.array([evaluate(truth, v) for v in x]) \
                + rng.normal(0.0, 0.05, 50)
            y = np.clip(y, 1e-6, None)
            got = fit(_synthetic_points(x, y), fix_c=1.0).params
            rel_a.append(abs(got.a - truth.a) / truth.a)
            rel_b.append(abs(got.b - truth.b) / truth.b)
        assert float(np.median(rel_a)) < 0.10
        assert float(np.median(rel_b)) < 0.10


def test_07_correlation_hand_values_and_range():
    with criterion(7, "correlation metrics match five hand-computed vectors "
                      "(ties included); spearman stays in [−1, 1] on 1000 "
                      "random vectors"):
        assert pearson([1, 2, 3], [9, 4, 1]) == pytest.approx(
            -4 * math.sqrt(3) / 7, abs=1e-12)          # = -0.98974331861...
        assert pearson([1, 2, 3, 4], [5, 5, 6, 7]) == pytest.approx(
            3.5 / math.sqrt(13.75), abs=1e-12)          # ties in y
        assert spearman([1, 2, 3, 4], [5, 5, 6, 7]) == pytest.approx(
            math.sqrt(0.9), abs=1e-12)                  # averaged tie ranks
        assert spearman([1, 2, 3], [9, 4, 1]) == pytest.approx(-1.0, abs=1e-12)
        assert r_squared([1, 2, 3], [1.1, 1.9, 3.2]) == pytest.approx(
            0.97, abs=1e-12)

        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(3, 41))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            if checked % 2:  # force ties on half the vectors
                x = np.round(x)
                y = np.round(y, 1)
                if len(set(x)) < 2 or len(set(y)) < 2:
                    continue
            rho = spearman(list(x), list(y))
            assert -1.0 <= rho <= 1.0
            checked += 1


def test_08_policy_examples_and_properties(ladder):
    with criterion(8, "pinned selection examples hold; selection is monotone "
                      "in intensity and scale-invariant over 1000 randomized "
                      "ladders"):
        cases = [  # (bandwidth, gamma, expected bitrate, fallback)
            (22e6, 1.5, 10_000_000, False),
            (4e6, 4.0, 650_000, False),
            (0.5e6, 1.5, 650_000, True),
            (13e6, 1.0, 10_000_000, False),
            (22e6, 1.0, 20_000_000, False),
            (0.4e6, 1.0, 650_000, True),
        ]
        for bandwidth, gamma, expected, fallback in cases:
            decision = select(ladder, bandwidth, gamma)
            assert decision.selected.bitrate == expected, (bandwidth, gamma)
            assert decision.fallback_used is fallback

        rng = np.random.default_rng(20260819)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            bitrates = sorted(set(
                int(v) for v in rng.integers(1, 1_000_000_000, n)))
            rows = ["name,width,height,label,bitrate_bps,codec"] + [
                f"r{i},100,100,r{i},{b},AVC" for i, b in enumerate(bitrates)]
            rand_ladder = parse_ladder("\n".join(rows) + "\n")
            bandwidth = float(rng.uniform(1e5, 1e9))
            g1, g2 = sorted(rng.uniform(1.0, 8.0, 2))
            low = select(rand_ladder, bandwidth, float(g1))
            high = select(rand_ladder, bandwidth, float(g2))
            assert low.selected.bitrate >= high.selected.bitrate

            # power-of-two scaling is exact in floats, so the choice of
            # rung must be identical after scaling ladder and bandwidth
            scale = 2 ** int(rng.integers(1, 4))
            scaled_rows = ["name,width,height,label,bitrate_bps,codec"] + [
                f"r{i},100,100,r{i},{b * scale},AVC"
                for i, b in enumerate(bitrates)]
            scaled = select(parse_ladder("\n".join(scaled_rows) + "\n"),
                            bandwidth * scale, float(g1))
            assert scaled.selected.bitrate == low.selected.bitrate * scale
            assert scaled.fallback_used is low.fallback_used


def test_09_quality_dominance_and_perceptibility_flag(ladder, overall):
    with criterion(9, "rate-monotone quality means never improve as intensity "
                      "rises; the perceptibility flag fires exactly on "
                      "ΔVMAF > 6.0"):
        names = [rep.name for rep in ladder]
        quality = QualityMap(
            psnr={n: 30.0 + 2.0 * i for i, n in enumerate(names)},
            ssim={n: 0.90 + 0.008 * i for i, n in enumerate(names)},
            vmaf={n: 60.0 + 3.0 * i for i, n in enumerate(names)},
        )
        for trace in (constant(22e6, 360), constant(13e6, 360),
                      constant(4e6, 360), staircase(MENU, 360)):
            reports = [run_session(ladder, trace, factory(), overall,
                                   quality=quality)
                       for factory in (off_mode, light_mode, medium_mode,
                                       strict_mode)]
            for metric in ("psnr", "ssim", "vmaf"):
                values = [r.mean_quality[metric] for r in reports]
                assert all(x >= y for x, y in zip(values, values[1:])), (
                    metric, values)

        # On the 22 Mbps channel the vmaf spacing makes light/medium drop
        # exactly 6.0 points (not perceptible: strictly greater only) and
        # strict drop 12.0 (perceptible).
        trace = constant(22e6, 360)
        reports = [run_session(ladder, trace, factory(), overall,
                               quality=quality)
                   for factory in (off_mode, light_mode, medium_mode,
                                   strict_mode)]
        table = compare(reports[0], reports[1:], channel="constant:22M")
        for row in table.rows:
            delta = row.quality_delta.get("vmaf")
            assert row.perceptible is (delta is not None and delta > 6.0)
        flags = {row.mode_label: row.perceptible for row in table.rows}
        assert flags == {"off": False, "light": False, "medium": False,
                         "strict": True}
        deltas = {row.mode_label: row.quality_delta.get("vmaf")
                  for row in table.rows}
        assert deltas["light"] == pytest.approx(6.0)
        assert deltas["strict"] == pytest.approx(12.0)
