"""Segment-request policy: bandwidth-budgeted rung selection.

A request mode divides the available bandwidth by an intensity ``gamma``
and requests the best rung whose bitrate fits within that budget.  gamma 1
is the baseline (energy saving off); the stock modes trade quality for
energy with gamma 1.5 / 2 / 4, and the adaptive mode picks among those by
battery state of charge.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ._frozen import frozen
from .ladder import QualityLadder, Representation

#: The intensity of each fixed mode, in the order ``--mode all`` runs them;
#: the adaptive mode uses light, medium and strict as its bands.
FIXED_GAMMAS = {"off": 1.0, "light": 1.5, "medium": 2.0, "strict": 4.0}

# the adaptive mode's gamma field is a placeholder: gamma_for picks the band
_TABLE_GAMMAS = {**FIXED_GAMMAS, "adaptive": 1.0}


@frozen
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
        return FIXED_GAMMAS["light"]
    if soc > config.low_threshold:
        return FIXED_GAMMAS["medium"]
    return FIXED_GAMMAS["strict"]


def _check_gamma(gamma: float) -> None:
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be at least 1, got {gamma}")


@frozen
class EnergyMode:
    """A request mode: a fixed intensity from ``FIXED_GAMMAS``, a custom one,
    or the adaptive schedule.

    ``kind`` is ``off``, ``light``, ``medium``, ``strict``, ``custom`` or
    ``adaptive``, matched after stripping and lowercasing.  A fixed kind
    takes its gamma from ``FIXED_GAMMAS`` and rejects any other value;
    ``custom`` requires a gamma, finite and at least 1; ``adaptive`` stores
    gamma 1.0 and defaults its thresholds, which no other kind accepts.
    ``gamma`` is stored as a float.
    """

    kind: str
    gamma: float | None = None
    adaptive: AdaptiveConfig | None = None

    def __post_init__(self) -> None:
        kind = self.kind.strip().lower()
        gamma = self.gamma
        if kind in _TABLE_GAMMAS:
            if gamma is not None and gamma != _TABLE_GAMMAS[kind]:
                raise ValueError(f"{kind} mode has gamma {_TABLE_GAMMAS[kind]}, got {gamma}")
            gamma = _TABLE_GAMMAS[kind]
        elif kind != "custom":
            raise ValueError(
                f"unknown mode {self.kind!r};"
                " expected off, light, medium, strict, adaptive or custom"
            )
        elif gamma is None:
            raise ValueError("custom mode requires an explicit gamma")
        _check_gamma(gamma)
        adaptive = self.adaptive
        if kind == "adaptive":
            adaptive = adaptive or AdaptiveConfig()
        elif adaptive is not None:
            raise ValueError(f"{kind} mode takes no adaptive thresholds")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "adaptive", adaptive)

    @property
    def label(self) -> str:
        if self.kind == "custom":
            return f"custom(gamma={self.gamma:g})"
        return self.kind

    def gamma_for(self, soc: float | None) -> float:
        """Effective intensity for a segment; the adaptive kind needs the SoC."""
        if self.adaptive is not None:
            if soc is None:
                raise ValueError("adaptive mode requires a battery")
            return adaptive_gamma(soc, self.adaptive)
        return self.gamma


def off_mode() -> EnergyMode:
    return EnergyMode("off")


def light_mode() -> EnergyMode:
    return EnergyMode("light")


def medium_mode() -> EnergyMode:
    return EnergyMode("medium")


def strict_mode() -> EnergyMode:
    return EnergyMode("strict")


def adaptive_mode(config: AdaptiveConfig | None = None) -> EnergyMode:
    return EnergyMode("adaptive", adaptive=config)


@frozen
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
    candidates = bisect_right(ladder.bitrates, threshold)  # rungs with bitrate <= threshold
    # the selected rung, the budget, the candidate set size and whether the lowest rung fell back
    return PolicyDecision(ladder[max(candidates - 1, 0)], threshold, candidates, candidates == 0)
