"""Exponential consumption model: evaluation, fitting, and fit-quality metrics.

Relative consumption decays exponentially toward a floor as relative
bandwidth grows:

    ec_rel = a * exp(-b * bw_rel) + c

``a`` scales the surcharge paid when bandwidth barely covers the requested
bitrate, ``b`` controls how quickly that surcharge decays, and ``c`` is the
asymptotic floor (1.0 by construction of the normalization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ladder import normalize_codec
from .measurements import RelativePoint, normalize_connection


class FitError(ValueError):
    """Raised when a model cannot be fitted to the given points."""


@dataclass(frozen=True)
class ModelParams:
    """Shape ``a``, decay rate ``b`` and floor ``c`` of the consumption curve.

    All three must be finite and non-negative, so predicted consumption is
    never negative and a simulated battery never charges.  ``c = 0`` is
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


def evaluate_array(params: ModelParams, bw_rel: np.ndarray) -> np.ndarray:
    """``evaluate`` over an array, called once per distinct relative bandwidth.

    Every value goes through the scalar model (``math.exp``); ``np.exp``
    rounds differently in the last place for a few percent of inputs and
    would change the artifacts.
    """
    distinct, inverse = np.unique(bw_rel, return_inverse=True)
    return np.array([evaluate(params, x) for x in distinct.tolist()], dtype=float)[inverse]


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


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus agreement metrics on the points actually used."""

    params: ModelParams
    r_squared: float
    pcc: float
    srocc: float
    n_points: int
    n_excluded: int
    diagnostics: tuple[str, ...] = field(default=())

    def to_json_dict(self, combination: str) -> dict:
        return {
            "combination": combination,
            "a": self.params.a,
            "b": self.params.b,
            "c": self.params.c,
            "r2": self.r_squared,
            "pcc": self.pcc,
            "srocc": self.srocc,
            "n": self.n_points,
            "excluded": self.n_excluded,
        }


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two inputs as float arrays, checked to be 1-d, equally long, finite and
    of two samples or more."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be 1-d sequences of equal length")
    if xa.size < 2:
        raise ValueError("need at least two samples")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("inputs must be finite")
    return xa, ya


def pearson(x, y) -> float:
    """Pearson correlation coefficient.

    Raises:
        ValueError: on length mismatch, fewer than two samples, non-finite
            input, or zero variance in either input.
    """
    xa, ya = _paired(x, y)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance: correlation undefined")
    # rounding can push |r| a hair past 1
    return min(1.0, max(-1.0, float(dx @ dy) / (sx * sy)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson over average ranks (ties averaged)."""
    xa, ya = _paired(x, y)
    return pearson(_average_ranks(xa), _average_ranks(ya))


def r_squared(observed, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Constant observations make SS_tot zero; that degenerate case reports
    0.0 rather than raising, since tiny datasets can reach it.
    """
    obs, pred = _paired(observed, predicted)
    residual = obs - pred
    deviation = obs - obs.mean()
    ss_tot = float(deviation @ deviation)
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - float(residual @ residual) / ss_tot


#: The refinement's iteration cap, and the relative objective change at
#: which it has converged.
_MAX_ITERATIONS = 200
_REL_TOL = 1e-12


def _initial_guess(bw: np.ndarray, ec: np.ndarray, c: float) -> tuple[float, float]:
    # log-linear start: ln(ec - c) regressed on bw_rel where the log exists
    mask = ec > c + 1e-9
    if int(mask.sum()) >= 2 and np.unique(bw[mask]).size >= 2:
        slope, intercept = np.polyfit(bw[mask], np.log(ec[mask] - c), 1)
        return max(math.exp(intercept), 0.0), max(-slope, 0.0)
    if int(mask.sum()) == 1:
        idx = int(np.flatnonzero(mask)[0])
        return float((ec[idx] - c) * math.exp(bw[idx])), 1.0
    return 0.0, 1.0


def fit(
    points: list[RelativePoint],
    fix_c: float | None = 1.0,
    include_flagged: bool = False,
) -> FitResult:
    """Least-squares fit of the exponential model to relative points.

    Starts from a log-linear guess and refines with damped Gauss-Newton
    steps (step halved while the objective worsens), stopping when the
    relative objective change drops below 1e-12 or after 200 iterations.
    ``a`` and ``b`` are projected to stay non-negative.

    Args:
        points: relative measurement points.
        fix_c: hold the floor at this value; ``None`` frees it.
        include_flagged: also use points with ``bw_rel < 1``.

    Returns:
        FitResult over the points actually used; degenerate correlation
        metrics are reported as 0.0 with a diagnostic instead of raising.

    Raises:
        FitError: on too few usable points, unidentifiable data (all at
            one bw_rel), a non-finite objective, or a negative floor.
    """
    usable = [p for p in points if include_flagged or not p.flagged]
    n_excluded = len(points) - len(usable)
    needed = 2 if fix_c is not None else 3
    if len(usable) < needed:
        raise FitError(
            f"need at least {needed} usable points"
            f" ({'fixed' if fix_c is not None else 'free'} floor), got {len(usable)}"
        )
    bw = np.array([p.bw_rel for p in usable], dtype=float)
    ec = np.array([p.ec_rel for p in usable], dtype=float)
    if np.unique(bw).size == 1:
        raise FitError("all points share one bw_rel; decay rate is unidentifiable")

    free_c = fix_c is None
    if free_c:
        # floor guess just under the smallest observation
        spread = float(ec.max() - ec.min())
        c0 = float(ec.min()) - max(spread, 1e-3) * 1e-3
    else:
        c0 = float(fix_c)
    a0, b0 = _initial_guess(bw, ec, c0)
    theta = np.array([a0, b0, c0] if free_c else [a0, b0], dtype=float)

    def unpack(t: np.ndarray) -> tuple[float, float, float]:
        return float(t[0]), float(t[1]), (float(t[2]) if free_c else c0)

    def objective(t: np.ndarray) -> tuple[np.ndarray, float]:
        a, b, c = unpack(t)
        residual = ec - (a * np.exp(-b * bw) + c)
        return residual, float(residual @ residual)

    def clamp(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[0] = max(out[0], 0.0)
        out[1] = max(out[1], 0.0)
        return out

    theta = clamp(theta)
    residual, value = objective(theta)
    if not math.isfinite(value):
        raise FitError("objective is not finite at the initial guess")
    converged = False
    for _ in range(_MAX_ITERATIONS):
        a, b, _ = unpack(theta)
        decay = np.exp(-b * bw)
        columns = [decay, -a * bw * decay]
        if free_c:
            columns.append(np.ones_like(bw))
        jacobian = np.column_stack(columns)
        delta, *_ = np.linalg.lstsq(jacobian, residual, rcond=None)
        step = 1.0
        improved = False
        for _ in range(60):
            candidate = clamp(theta + step * delta)
            cand_residual, cand_value = objective(candidate)
            if math.isfinite(cand_value) and cand_value <= value:
                improved = True
                break
            step *= 0.5
        if not improved:
            converged = True  # no descent direction left at this scale
            break
        change = value - cand_value
        theta, residual, value = candidate, cand_residual, cand_value
        if not math.isfinite(value):
            raise FitError("objective diverged during refinement")
        if change <= _REL_TOL * max(value, 1e-300):
            converged = True
            break

    a, b, c = unpack(theta)
    if c < 0:
        raise FitError(
            f"floor c={c!r} is negative: predicted consumption would fall below zero"
            " far out on the curve; fix the floor instead"
        )
    params = ModelParams(a=a, b=b, c=c)
    predicted = evaluate_array(params, bw)
    diagnostics: list[str] = []
    if not converged:
        diagnostics.append(f"stopped after {_MAX_ITERATIONS} iterations without convergence")
    r2 = r_squared(ec, predicted)
    if float((ec - ec.mean()) @ (ec - ec.mean())) == 0.0:
        diagnostics.append("constant observations: r_squared reported as 0")
    try:
        pcc = pearson(ec, predicted)
    except ValueError:
        pcc = 0.0
        diagnostics.append("degenerate variance: pcc reported as 0")
    try:
        srocc = spearman(ec, predicted)
    except ValueError:
        srocc = 0.0
        diagnostics.append("degenerate variance: srocc reported as 0")
    return FitResult(
        params=params,
        r_squared=r2,
        pcc=pcc,
        srocc=srocc,
        n_points=len(usable),
        n_excluded=n_excluded,
        diagnostics=tuple(diagnostics),
    )
