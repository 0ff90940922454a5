"""Exponential consumption model: parameters, evaluation and presets.

Relative consumption decays exponentially toward a floor as relative
bandwidth grows:

    ec_rel = a * exp(-b * bw_rel) + c

``a`` scales the surcharge paid when bandwidth barely covers the requested
bitrate, ``b`` controls how quickly that surcharge decays, and ``c`` is the
asymptotic floor (1.0 by construction of the normalization).  Fitting the
curve to measurements lives in ``fitting``.
"""

from __future__ import annotations

import math

from ._frozen import frozen
from .ladder import normalize_codec, normalize_connection


@frozen
class ModelParams:
    """Shape ``a``, decay rate ``b`` and floor ``c`` of the consumption curve.

    All three must be finite and non-negative, so predicted consumption is
    never negative and a simulated battery never charges, and ``a + c``,
    the largest consumption predicted, must be finite.  ``c = 0`` is
    allowed.
    """

    a: float
    b: float
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError(f"a must be non-negative, got {self.a}")
        if self.b < 0:
            raise ValueError(f"b must be non-negative, got {self.b}")
        if self.c < 0:
            raise ValueError(f"c must be non-negative, got {self.c}")
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if math.isinf(self.a + self.c):  # the largest consumption the curve predicts
            raise ValueError(f"a + c must be finite, got a={self.a}, c={self.c}")


def evaluate(params: ModelParams, bw_rel: float) -> float:
    """Relative consumption predicted at a relative bandwidth.

    Args:
        params: model parameters.
        bw_rel: bandwidth over requested bitrate; must be positive.

    Returns:
        a * exp(-b * bw_rel) + c
    """
    if bw_rel <= 0:
        raise ValueError(f"bw_rel must be positive, got {bw_rel}")
    return params.a * math.exp(-params.b * bw_rel) + params.c


#: Fitted presets per handset (SPA/SPB/SPC), radio link, and codec, plus a
#: pooled "overall" preset.  All share floor c = 1.
PRESETS: dict[str, ModelParams] = {
    "SPA/WIFI/AVC": ModelParams(0.653, 0.452, 1.000),
    "SPA/WIFI/HEVC": ModelParams(0.890, 0.628, 1.000),
    "SPA/WIFI/AVC+HEVC": ModelParams(0.704, 0.480, 1.000),
    "SPB/WIFI/AVC": ModelParams(0.947, 0.329, 1.000),
    "SPB/WIFI/HEVC": ModelParams(0.863, 0.256, 1.000),
    "SPB/WIFI/AVC+HEVC": ModelParams(0.911, 0.308, 1.000),
    "SPC/WIFI/AVC": ModelParams(0.828, 0.524, 1.000),
    "SPC/WIFI/HEVC": ModelParams(0.825, 0.476, 1.000),
    "SPC/WIFI/AVC+HEVC": ModelParams(0.826, 0.499, 1.000),
    "SPC/4G/AVC": ModelParams(1.121, 0.468, 1.000),
    "SPC/4G/HEVC": ModelParams(1.021, 0.356, 1.000),
    "SPC/4G/AVC+HEVC": ModelParams(1.051, 0.406, 1.000),
    "SPC/5G/AVC": ModelParams(0.238, 0.500, 1.000),
    "SPC/5G/HEVC": ModelParams(0.167, 0.373, 1.000),
    "SPC/5G/AVC+HEVC": ModelParams(0.229, 0.489, 1.000),
    "OVERALL": ModelParams(1.154, 0.677, 1.000),
}


def _preset_key(label: str) -> str:
    """A preset label uppercased, its connection and codec spelled as measurements are."""
    parts = label.strip().upper().split("/")
    if len(parts) == 3:
        parts[1] = normalize_connection(parts[1])
        parts[2] = normalize_codec(parts[2])
    return "/".join(parts)


_PRESETS_BY_KEY = {_preset_key(label): params for label, params in PRESETS.items()}


def preset(label: str) -> ModelParams:
    """Look up a preset by label, e.g. ``overall`` or ``SPC/5G/HEVC``.

    Labels are case-insensitive and accept every connection and codec
    spelling that measurement files do (``SPC/LTE/H265``), so each
    combination label ``fit`` writes resolves.
    """
    try:
        return _PRESETS_BY_KEY[_preset_key(label)]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {label!r}; known presets: {known}") from None
