"""Brute-force reference for the benchmark's output checks.

Written independently of the package: rung selection is a bisect over the
ladder's bitrates at ``bw / gamma``, pricing calls ``math.exp`` directly,
the adaptive mode is a plain sequential state-of-charge loop, and random
channels are regenerated with the same pinned 64-bit LCG the program
documents.  Nothing here imports ``abrenergy``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

REL_TOL = 1e-9

LIGHT, MEDIUM, STRICT = 1.5, 2.0, 4.0
FIXED_GAMMAS = {"off": 1.0, "light": LIGHT, "medium": MEDIUM, "strict": STRICT}

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def random_blocks(values: list[float], n: int, seed: int, block: int) -> list[float]:
    """Block-random channel: one uniform menu draw per ``block`` periods."""
    state = seed & _MASK64
    out: list[float] = []
    while len(out) < n:
        state = (state * _LCG_MUL + _LCG_INC) & _MASK64
        out.extend([values[(len(values) * (state >> 32)) >> 32]] * block)
    return out[:n]


@dataclass(frozen=True)
class Battery:
    capacity_mah: float
    reference_current_ma: float
    initial_soc: float = 100.0


@dataclass(frozen=True)
class Session:
    """What the oracle expects one mode's session to report."""

    rungs: list[int]
    ec: list[float]
    gammas: list[float]
    final_soc: float | None
    fallbacks: int
    stalls: int

    @property
    def n(self) -> int:
        return len(self.rungs)

    @property
    def mean_ec(self) -> float:
        return math.fsum(self.ec) / len(self.ec)

    def mean_score(self, scores: list[float]) -> float:
        return math.fsum(scores[r] for r in self.rungs) / len(self.rungs)


def adaptive_gamma(soc: float) -> float:
    if soc > 70.0:
        return LIGHT
    if soc > 30.0:
        return MEDIUM
    return STRICT


def session(
    bitrates: list[int],
    bandwidths: list[float],
    params: tuple[float, float, float],
    gamma: float | None,
    battery: Battery | None = None,
    duration: float = 6.0,
) -> Session:
    """One session; ``gamma=None`` is the adaptive mode (needs a battery)."""
    a, b, c = params
    soc = battery.initial_soc if battery is not None else None
    rungs, ecs, gammas = [], [], []
    fallbacks = stalls = 0
    for bw in bandwidths:
        g = adaptive_gamma(soc) if gamma is None else gamma
        rung = bisect_right(bitrates, bw / g) - 1
        if rung < 0:
            rung = 0
            fallbacks += 1
        if bitrates[rung] > bw:
            stalls += 1
        ec = a * math.exp(-b * (bw / bitrates[rung])) + c
        rungs.append(rung)
        ecs.append(ec)
        gammas.append(g)
        if battery is not None:
            drain = (
                100.0 * battery.reference_current_ma * ec * duration / 3600.0
                / battery.capacity_mah
            )
            soc = max(soc - drain, 0.0)
            if soc <= 0.0:
                break
    return Session(rungs, ecs, gammas, soc, fallbacks, stalls)


def close(actual: object, expected: float, tol: float = REL_TOL) -> bool:
    return (
        isinstance(actual, (int, float))
        and not isinstance(actual, bool)
        and math.isclose(actual, expected, rel_tol=tol, abs_tol=0.0)
    )
