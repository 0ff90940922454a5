"""The numpy fit that ``abrenergy.fitting`` replaced, kept as a test-side
reference: the same log-linear start and damped Gauss-Newton refinement,
with each step from ``np.linalg.lstsq`` on the Jacobian, the start from
``np.polyfit`` and ranks from ``np.unique``.

The property tests in ``test_fit_reference.py`` check the standard-library
fit against it.  It raises the package's ``FitError`` with the same
messages, so a refusal compares by type and text.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

import numpy as np

from abrenergy.fitting import FitError, FitResult
from abrenergy.measurements import _point_fault
from abrenergy.model import ModelParams, evaluate


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


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x @ y`` as the correctly rounded sum (``math.fsum``) of the elementwise
    products, which does not depend on the order they are summed in."""
    return math.fsum((x * y).tolist())


def pearson(x, y) -> float:
    """Pearson correlation coefficient.

    An input is of zero variance when its values are all equal, decided
    from the values (numpy's mean of equal values can be off by one ulp),
    or when its squared deviations underflow to a zero sum.

    Raises:
        ValueError: on length mismatch, fewer than two samples, non-finite
            input, or zero variance in either input.
    """
    xa, ya = _paired(x, y)
    if xa.min() == xa.max() or ya.min() == ya.max():
        raise ValueError("zero variance: correlation undefined")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = math.sqrt(_dot(dx, dx))
    sy = math.sqrt(_dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance: correlation undefined")
    # rounding can push |r| a hair past 1
    return min(1.0, max(-1.0, _dot(dx, dy) / (sx * sy)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson over average ranks (ties averaged)."""
    xa, ya = _paired(x, y)
    return pearson(_average_ranks(xa), _average_ranks(ya))


def _r_squared(observed, predicted) -> tuple[float, str | None]:
    """``r_squared``, and why it is reported as 0.0 where it is degenerate."""
    obs, pred = _paired(observed, predicted)
    if obs.min() == obs.max():
        return 0.0, "constant observations"
    residual = obs - pred
    deviation = obs - obs.mean()
    ss_tot = _dot(deviation, deviation)
    if ss_tot == 0.0:
        return 0.0, "constant observations"
    ratio = _dot(residual, residual) / ss_tot
    if not math.isfinite(ratio):
        return 0.0, "SS_res / SS_tot is beyond the float range"
    return 1.0 - ratio, None


#: The refinement's iteration cap, and the relative objective change at
#: which it has converged.
_MAX_ITERATIONS = 200
_REL_TOL = 1e-12

#: polyfit's warning that its regression is poorly conditioned, which numpy 2
#: keeps only in ``numpy.exceptions`` and numpy 1.24 only at the top level.
_RankWarning = getattr(np, "exceptions", np).RankWarning


def _initial_guess(bw: np.ndarray, ec: np.ndarray, c: float) -> tuple[float, float]:
    """The starting ``a`` and ``b``: a log-linear regression of ln(ec - c) on
    bw_rel where the log exists, or the curve through the one point where it
    does.

    Raises:
        FitError: when the starting ``a`` is beyond the float range, or the
            regression is poorly conditioned.
    """
    mask = ec > c + 1e-9
    try:
        if int(mask.sum()) >= 2 and np.unique(bw[mask]).size >= 2:
            # a column whose squares underflow to zero divides polyfit's scaling by zero
            with warnings.catch_warnings(), np.errstate(divide="raise"):
                warnings.simplefilter("error", _RankWarning)
                slope, intercept = np.polyfit(bw[mask], np.log(ec[mask] - c), 1)
            return max(math.exp(intercept), 0.0), max(-slope, 0.0)
        if int(mask.sum()) == 1:
            idx = int(np.flatnonzero(mask)[0])
            return float((ec[idx] - c) * math.exp(bw[idx])), 1.0
    except OverflowError:
        raise FitError("the starting guess is beyond the float range") from None
    except (_RankWarning, FloatingPointError):
        raise FitError("the starting regression is poorly conditioned") from None
    return 0.0, 1.0


# an overflow makes a value infinite, and infinity times zero is NaN; a check below refuses both
@np.errstate(over="ignore", invalid="ignore")
def fit_columns(
    bw_rel: Sequence[float] | np.ndarray,
    ec_rel: Sequence[float] | np.ndarray,
    fix_c: float | None,
    include_flagged: bool,
) -> FitResult:
    """Least-squares fit of the exponential model to relative points, given
    as a column of relative bandwidths and one of relative consumptions.

    Starts from a log-linear guess and refines with damped Gauss-Newton
    steps (step halved while the objective worsens), stopping when the
    relative objective change drops below 1e-12 or after 200 iterations.
    ``a`` and ``b`` are projected to stay non-negative.  numpy's overflow
    and invalid-value warnings are silenced for the call: a value that
    overflows is infinite, one computed from an infinity may be NaN, and the
    starting guess, the objective, each Jacobian and the fitted parameters
    are checked to be finite.

    Args:
        bw_rel: relative bandwidth of each point.
        ec_rel: relative consumption of each point.
        fix_c: hold the floor at this value; ``None`` frees it.
        include_flagged: also use the points with ``bw_rel < 1``.

    Returns:
        FitResult over the points actually used; degenerate metrics are
        reported as 0.0 with a diagnostic instead of raising: correlations
        of zero variance, and an r_squared of constant observations (all
        values equal) or whose SS_res / SS_tot is beyond the float range.

    Raises:
        ValueError: on a ``fix_c`` that is NaN, infinite or negative, before
            any numpy routine runs; when the columns are not 1-d and of
            equal length, or a value of either, flagged points included, is
            not positive and finite; the first such row (from 0) and its
            column are named.
        FitError: on too few usable points, unidentifiable data (all at
            one bw_rel), a starting guess beyond the float range, a poorly
            conditioned starting regression, a non-finite objective, a
            Jacobian beyond the float range, or a negative floor.
    """
    if fix_c is not None and not 0.0 <= fix_c < math.inf:
        raise ValueError(f"fix_c must be finite and non-negative, got {fix_c!r}")
    bw = np.asarray(bw_rel, dtype=float)
    ec = np.asarray(ec_rel, dtype=float)
    if bw.shape != ec.shape or bw.ndim != 1:
        raise ValueError("bw_rel and ec_rel must be 1-d columns of equal length")
    # checked before any numpy routine: LAPACK would print to stderr on a
    # non-finite value, and a non-positive one would be fitted or fail late.
    # The mask is RelativePoint's rule (NaN compares false); the scan that
    # names the value runs only when it fails.
    if not ((0.0 < bw) & (bw < math.inf) & (0.0 < ec) & (ec < math.inf)).all():
        row, message = _point_fault(bw.tolist(), ec.tolist())
        raise ValueError(f"row {row}: {message}")
    n_given = bw.size
    if not include_flagged:
        usable = ~(bw < 1.0)
        bw, ec = bw[usable], ec[usable]
    needed = 2 if fix_c is not None else 3
    if bw.size < needed:
        raise FitError(
            f"need at least {needed} usable points"
            f" ({'fixed' if fix_c is not None else 'free'} floor), got {bw.size}"
        )
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
    # the guess's a and b are non-negative, as each step keeps them
    theta = np.array([a0, b0, c0] if free_c else [a0, b0], dtype=float)

    def unpack(t: np.ndarray) -> tuple[float, float, float]:
        return float(t[0]), float(t[1]), (float(t[2]) if free_c else c0)

    def objective(t: np.ndarray) -> tuple[np.ndarray, float]:
        a, b, c = unpack(t)
        residual = ec - (a * np.exp(-b * bw) + c)
        return residual, _dot(residual, residual)

    def clamp(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[0] = max(out[0], 0.0)
        out[1] = max(out[1], 0.0)
        return out

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
        # LAPACK prints to stderr on a non-finite entry; the residual is
        # finite, since its squares sum to the finite objective
        if not np.isfinite(jacobian).all():
            raise FitError("the Jacobian is beyond the float range")
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
    # the scalar model (``math.exp``): ``np.exp`` rounds differently in the last
    # place for a few percent of inputs and would change the artifacts
    predicted = np.array([evaluate(params, x) for x in bw.tolist()])
    diagnostics: list[str] = []
    if not converged:
        diagnostics.append(f"stopped after {_MAX_ITERATIONS} iterations without convergence")
    r2, degenerate = _r_squared(ec, predicted)
    if degenerate:
        diagnostics.append(f"{degenerate}: r_squared reported as 0")
    correlations = {}
    for name, correlation in (("pcc", pearson), ("srocc", spearman)):
        try:
            correlations[name] = correlation(ec, predicted)
        except ValueError:
            correlations[name] = 0.0
            diagnostics.append(f"degenerate variance: {name} reported as 0")
    return FitResult(
        params=params,
        r_squared=r2,
        n_points=bw.size,
        n_excluded=n_given - bw.size,
        diagnostics=tuple(diagnostics),
        **correlations,
    )
