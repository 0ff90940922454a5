"""Request-policy selection, mode definitions, and the SoC schedule."""

from __future__ import annotations

import numpy as np
import pytest

from abrenergy import (
    FIXED_GAMMAS,
    AdaptiveConfig,
    EnergyMode,
    QualityLadder,
    Representation,
    adaptive_gamma,
    adaptive_mode,
    light_mode,
    medium_mode,
    off_mode,
    select,
    strict_mode,
)


def test_select_best_rung_within_budget(ladder):
    decision = select(ladder, 22e6, 4.0)
    assert decision.selected.bitrate == 5_000_000
    assert decision.threshold == pytest.approx(5.5e6)
    assert not decision.fallback_used
    assert 22e6 / decision.selected.bitrate == pytest.approx(4.4)


def test_budget_boundary_is_inclusive(ladder):
    # threshold lands exactly on the 2.0 Mbps rung
    decision = select(ladder, 4e6, 2.0)
    assert decision.selected.bitrate == 2_000_000


def test_fallback_to_lowest_rung(ladder):
    decision = select(ladder, 5e5, 1.0)
    assert decision.fallback_used
    assert decision.candidate_set_size == 0
    assert decision.selected == ladder[0]


def test_baseline_uses_full_bandwidth(ladder):
    decision = select(ladder, 22e6, 1.0)
    assert decision.selected.bitrate == 20_000_000
    assert decision.threshold == 22e6


def test_candidate_set_size_counts_fitting_rungs(ladder):
    decision = select(ladder, 4e6, 1.0)  # rungs up to 3.5 Mbps fit
    assert decision.candidate_set_size == 5
    assert decision.selected.bitrate == 3_500_000


def test_select_input_validation(ladder):
    with pytest.raises(ValueError):
        select(ladder, 0.0, 2.0)
    with pytest.raises(ValueError):
        select(ladder, 1e6, 0.5)


@pytest.mark.parametrize("bandwidth, gamma, field", [
    (1e6, float("nan"), "gamma"),
    (1e6, float("inf"), "gamma"),
    (float("nan"), 2.0, "bandwidth"),
    (float("inf"), 2.0, "bandwidth"),
])
def test_select_rejects_non_finite_inputs(ladder, bandwidth, gamma, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        select(ladder, bandwidth, gamma)


class TestAdaptiveGamma:
    def test_bands(self):
        assert adaptive_gamma(100.0) == 1.5
        assert adaptive_gamma(70.1) == 1.5
        assert adaptive_gamma(50.0) == 2.0
        assert adaptive_gamma(10.0) == 4.0

    def test_boundaries_fall_to_the_stricter_band(self):
        assert adaptive_gamma(70.0) == 2.0
        assert adaptive_gamma(30.0) == 4.0

    def test_custom_thresholds(self):
        config = AdaptiveConfig(high_threshold=80.0, low_threshold=20.0)
        assert adaptive_gamma(75.0, config) == 2.0
        assert adaptive_gamma(20.0, config) == 4.0

    def test_soc_range_validated(self):
        with pytest.raises(ValueError):
            adaptive_gamma(-1.0)
        with pytest.raises(ValueError):
            adaptive_gamma(100.5)

    def test_threshold_config_validated(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(high_threshold=30.0, low_threshold=70.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(high_threshold=100.0, low_threshold=30.0)


class TestModes:
    def test_stock_gammas(self):
        assert off_mode().gamma == 1.0
        assert light_mode().gamma == 1.5
        assert medium_mode().gamma == 2.0
        assert strict_mode().gamma == 4.0

    def test_parse_is_case_insensitive(self):
        assert EnergyMode("LIGHT") == light_mode()
        assert EnergyMode(" Strict ") == strict_mode()
        assert EnergyMode("adaptive").kind == "adaptive"

    def test_custom_requires_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            EnergyMode("custom")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            EnergyMode("turbo")

    def test_gamma_floor(self):
        with pytest.raises(ValueError):
            EnergyMode("custom", 0.9)

    def test_fixed_kinds_take_the_table_gamma(self):
        for kind, gamma in FIXED_GAMMAS.items():
            assert EnergyMode(kind).gamma == gamma
            assert EnergyMode(kind, gamma) == EnergyMode(kind)
        assert EnergyMode("adaptive", 1.0) == adaptive_mode()

    @pytest.mark.parametrize("make, message", [
        (lambda: EnergyMode("off", 4.0), "off mode has gamma 1.0, got 4.0"),
        (lambda: EnergyMode("adaptive", 2.0), "adaptive mode has gamma"),
        (lambda: EnergyMode("light", adaptive=AdaptiveConfig()), "no adaptive thresholds"),
        (lambda: EnergyMode("custom", 2.0, AdaptiveConfig()), "no adaptive thresholds"),
        (lambda: EnergyMode("custom"), "custom mode requires an explicit gamma"),
        (lambda: EnergyMode("turbo"), "unknown mode 'turbo'"),
    ])
    def test_contradictory_modes_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            EnergyMode("custom", gamma)

    def test_gamma_is_stored_as_a_float(self):
        assert repr(EnergyMode("custom", 2).gamma) == "2.0"

    def test_labels(self):
        assert off_mode().label == "off"
        assert EnergyMode("custom", 2.5).label == "custom(gamma=2.5)"

    def test_gamma_for_fixed_modes_ignores_soc(self):
        assert medium_mode().gamma_for(None) == 2.0

    def test_adaptive_gamma_for_needs_soc(self):
        mode = EnergyMode("adaptive")
        assert mode.gamma_for(90.0) == 1.5
        with pytest.raises(ValueError):
            mode.gamma_for(None)


def _random_ladder(rng: np.random.Generator) -> QualityLadder:
    k = int(rng.integers(2, 12))
    bitrates = sorted(int(b) for b in rng.choice(
        np.arange(100_000, 30_000_000, 50_000), size=k, replace=False))
    return QualityLadder(tuple(
        Representation(f"r{i}", 16 * (i + 1), 9 * (i + 1), f"{i}p", b, "HEVC")
        for i, b in enumerate(bitrates)
    ))


def test_higher_intensity_never_selects_a_higher_bitrate():
    rng = np.random.default_rng(4242)
    for _ in range(300):
        lad = _random_ladder(rng)
        bandwidth = float(rng.uniform(50_000, 40e6))
        g1, g2 = sorted(rng.uniform(1.0, 8.0, size=2))
        d1 = select(lad, bandwidth, float(g1))
        d2 = select(lad, bandwidth, float(g2))
        assert d1.selected.bitrate >= d2.selected.bitrate


def test_selection_is_scale_invariant():
    rng = np.random.default_rng(515)
    for _ in range(300):
        lad = _random_ladder(rng)
        bandwidth = float(rng.uniform(50_000, 40e6))
        gamma = float(rng.uniform(1.0, 8.0))
        scale = int(rng.choice([2, 3, 7, 10]))
        scaled = QualityLadder(tuple(
            Representation(r.name, r.width, r.height, r.label, r.bitrate * scale, r.codec)
            for r in lad
        ))
        base = select(lad, bandwidth, gamma)
        moved = select(scaled, bandwidth * scale, gamma)
        assert lad.bitrates.index(base.selected.bitrate) == scaled.bitrates.index(
            moved.selected.bitrate
        )
        assert base.fallback_used == moved.fallback_used
