"""Segment-request policy: bandwidth-budgeted rung selection.

A request mode divides the available bandwidth by an intensity ``gamma``
and requests the best rung whose bitrate fits within that budget.  gamma 1
is the baseline (energy saving off); the stock modes trade quality for
energy with gamma 1.5 / 2 / 4, and the adaptive mode picks among those by
battery state of charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .ladder import QualityLadder, Representation

LIGHT_GAMMA = 1.5
MEDIUM_GAMMA = 2.0
STRICT_GAMMA = 4.0


class ModeKind(str, Enum):
    OFF = "off"
    LIGHT = "light"
    MEDIUM = "medium"
    STRICT = "strict"
    ADAPTIVE = "adaptive"
    CUSTOM = "custom"


@dataclass(frozen=True)
class AdaptiveConfig:
    """State-of-charge thresholds splitting the adaptive mode's three bands."""

    high_threshold: float = 70.0
    low_threshold: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.low_threshold < self.high_threshold < 100.0:
            raise ValueError(
                "thresholds must satisfy 0 < low < high < 100,"
                f" got low={self.low_threshold}, high={self.high_threshold}"
            )


def adaptive_gamma(soc: float, config: AdaptiveConfig = AdaptiveConfig()) -> float:
    """Intensity chosen by battery state of charge.

    Above the high threshold the light intensity applies; between the
    thresholds the medium one; at or below the low threshold the strict
    one.  Boundary values fall into the stricter band.
    """
    if not 0.0 <= soc <= 100.0:
        raise ValueError(f"soc must be within [0, 100], got {soc}")
    if soc > config.high_threshold:
        return LIGHT_GAMMA
    if soc > config.low_threshold:
        return MEDIUM_GAMMA
    return STRICT_GAMMA


def _check_gamma(gamma: float) -> None:
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be at least 1, got {gamma}")


@dataclass(frozen=True)
class EnergyMode:
    """A named request mode; ``gamma`` applies to every fixed-intensity kind.

    ``gamma`` is stored as a float and must be finite and at least 1.
    """

    kind: ModeKind
    gamma: float = 1.0
    adaptive: AdaptiveConfig | None = None

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.kind is ModeKind.ADAPTIVE and self.adaptive is None:
            object.__setattr__(self, "adaptive", AdaptiveConfig())

    @property
    def label(self) -> str:
        if self.kind is ModeKind.CUSTOM:
            return f"custom(gamma={self.gamma:g})"
        return self.kind.value

    def gamma_for(self, soc: float | None) -> float:
        """Effective intensity for a segment; adaptive kinds need the SoC."""
        if self.kind is ModeKind.ADAPTIVE:
            if soc is None:
                raise ValueError("adaptive mode requires a battery state of charge")
            assert self.adaptive is not None
            return adaptive_gamma(soc, self.adaptive)
        return self.gamma


def off_mode() -> EnergyMode:
    return EnergyMode(ModeKind.OFF, 1.0)


def light_mode() -> EnergyMode:
    return EnergyMode(ModeKind.LIGHT, LIGHT_GAMMA)


def medium_mode() -> EnergyMode:
    return EnergyMode(ModeKind.MEDIUM, MEDIUM_GAMMA)


def strict_mode() -> EnergyMode:
    return EnergyMode(ModeKind.STRICT, STRICT_GAMMA)


def adaptive_mode(config: AdaptiveConfig | None = None) -> EnergyMode:
    return EnergyMode(ModeKind.ADAPTIVE, 1.0, config or AdaptiveConfig())


def custom_mode(gamma: float) -> EnergyMode:
    return EnergyMode(ModeKind.CUSTOM, gamma)


def parse_mode(
    name: str,
    gamma: float | None = None,
    adaptive: AdaptiveConfig | None = None,
) -> EnergyMode:
    """Mode from its case-insensitive name; ``custom`` requires a gamma."""
    canon = name.strip().lower()
    if canon == "custom":
        if gamma is None:
            raise ValueError("custom mode requires an explicit gamma")
        return custom_mode(gamma)
    factories = {
        "off": off_mode,
        "light": light_mode,
        "medium": medium_mode,
        "strict": strict_mode,
    }
    if canon in factories:
        return factories[canon]()
    if canon == "adaptive":
        return adaptive_mode(adaptive)
    raise ValueError(
        f"unknown mode {name!r}; expected off, light, medium, strict, adaptive or custom"
    )


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of one selection: the rung, the budget, and how it was met."""

    selected: Representation
    threshold: float
    candidate_set_size: int
    fallback_used: bool


def select(ladder: QualityLadder, bandwidth: float, gamma: float) -> PolicyDecision:
    """Best rung whose bitrate fits within ``bandwidth / gamma``.

    The budget comparison is inclusive.  When no rung fits, the lowest
    rung is requested as a fallback.

    Args:
        ladder: rungs ordered by increasing bitrate.
        bandwidth: available bandwidth in bits per second; must be positive
            and finite.
        gamma: intensity divisor; must be finite and at least 1.

    Returns:
        PolicyDecision with the chosen representation.
    """
    if not math.isfinite(bandwidth):
        raise ValueError(f"bandwidth must be finite, got {bandwidth}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    _check_gamma(gamma)
    threshold = bandwidth / gamma
    selected: Representation | None = None
    candidates = 0
    for rep in ladder:  # ascending bitrate; the last fit wins
        if rep.bitrate <= threshold:
            selected = rep
            candidates += 1
    if selected is None:
        return PolicyDecision(
            selected=ladder.lowest,
            threshold=threshold,
            candidate_set_size=0,
            fallback_used=True,
        )
    return PolicyDecision(
        selected=selected,
        threshold=threshold,
        candidate_set_size=candidates,
        fallback_used=False,
    )


def baseline_select(ladder: QualityLadder, bandwidth: float) -> PolicyDecision:
    """Selection with energy saving off: the full bandwidth is the budget."""
    return select(ladder, bandwidth, 1.0)
