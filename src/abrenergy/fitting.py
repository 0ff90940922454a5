"""Fitting the consumption model to relative points, and fit-quality metrics.

Standard library only.  Every sum of floats is ``math.fsum``: correctly
rounded, so its bits depend neither on the order of its terms nor on the
Python version (the built-in ``sum`` compensates float sums from Python 3.12
on).  The bytes ``fit`` writes then rest on the platform's ``math.exp`` and
``math.log`` alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import compress, islice, repeat
from operator import add, eq, le, mul, sub
from typing import TYPE_CHECKING

from ._frozen import frozen
from .measurements import _point_fault
from .model import ModelParams

if TYPE_CHECKING:  # fit reads only the points' attributes
    from .measurements import RelativePoint


class FitError(ValueError):
    """Raised when a model cannot be fitted to the given points."""


@frozen
class FitResult:
    """Fitted parameters plus agreement metrics on the points actually used."""

    params: ModelParams
    r_squared: float
    pcc: float
    srocc: float
    n_points: int
    n_excluded: int
    diagnostics: tuple[str, ...] = ()

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


def _floats(x, y, message: str) -> tuple[list[float], list[float]]:
    """Two inputs as lists of floats; ``ValueError(message)`` unless both are
    1-d and equally long."""
    try:
        xs = list(map(float, x))
        ys = list(map(float, y))
    except TypeError:  # a scalar, or a sequence of sequences
        raise ValueError(message) from None
    if len(xs) != len(ys):
        raise ValueError(message)
    return xs, ys


def _paired(x, y) -> tuple[list[float], list[float]]:
    """Two inputs as lists of floats, checked to be 1-d, equally long, finite
    and of two samples or more."""
    xs, ys = _floats(x, y, "inputs must be 1-d sequences of equal length")
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        raise ValueError("inputs must be finite")
    return xs, ys


def _sum(values: Iterable[float]) -> float:
    """The correctly rounded sum (``math.fsum``), or a value that is not
    finite where no finite sum exists: finite terms whose partial sums pass
    the float range read as infinite, and ``inf - inf`` as NaN."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _dot(x: Iterable[float], y: Iterable[float]) -> float:
    """``x @ y`` as the ``_sum`` of the elementwise products."""
    return _sum(map(mul, x, y))


def _deviations(values: list[float]) -> tuple[list[float], float] | None:
    """Each value less the mean, and the sum of their squares; ``None`` for
    values of zero variance: all equal, decided from the values (a mean of
    equal values can be off by one ulp), or of squared deviations that
    underflow to a zero sum."""
    if min(values) == max(values):
        return None
    deviations = list(map(sub, values, repeat(_sum(values) / len(values))))
    total = _dot(deviations, deviations)
    return (deviations, total) if total != 0.0 else None


def _correlation(
    x: tuple[list[float], float] | None, y: tuple[list[float], float] | None
) -> float | None:
    """Pearson's r from the ``_deviations`` of two inputs, or ``None`` where
    either is of zero variance or a sum is beyond the float range."""
    if x is None or y is None:
        return None
    scale = math.sqrt(x[1]) * math.sqrt(y[1])  # zero where the product underflows
    r = _dot(x[0], y[0]) / scale if 0.0 < scale < math.inf else math.nan
    # rounding can push |r| a hair past 1
    return min(1.0, max(-1.0, r)) if math.isfinite(r) else None


def _checked(r: float | None) -> float:
    if r is None:
        raise ValueError("zero variance or a sum beyond the float range: correlation undefined")
    return r


def pearson(x, y) -> float:
    """Pearson correlation coefficient.

    An input is of zero variance when its values are all equal, decided
    from the values (a mean of equal values can be off by one ulp), or when
    its squared deviations underflow to a zero sum.

    Raises:
        ValueError: on length mismatch, fewer than two samples, non-finite
            input, zero variance in either input, or a variance or
            covariance beyond the float range.
    """
    return _checked(_correlation(*map(_deviations, _paired(x, y))))


def _doubled_ranks(values: Sequence[float]) -> list[int]:
    """Twice each value's 1-based average rank, an integer: tied values share
    the sum of the first and the last position they span."""
    ordered = sorted(values)
    size = len(ordered)
    # twice each value's last position: a later equal key overwrites it
    rank = dict(zip(ordered, range(2, 2 * size + 1, 2)))
    if len(rank) < size:
        for value in set(compress(ordered, map(eq, ordered, islice(ordered, 1, None)))):
            rank[value] = rank[value] // 2 + bisect_left(ordered, value) + 1
    return list(map(rank.__getitem__, values))


def _rank_correlation(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Spearman's rho, Pearson's r over the average ranks, or ``None`` where
    either input is constant.  The ranks' sums are exact integers, so only
    the closing square root and division round."""
    rx, ry = _doubled_ranks(x), _doubled_ranks(y)
    size = len(rx)
    total = size * (size + 1)  # the doubled ranks' sum, ties or not
    sxx = size * sum(map(mul, rx, rx)) - total * total
    syy = size * sum(map(mul, ry, ry)) - total * total
    if sxx == 0 or syy == 0:
        return None
    sxy = size * sum(map(mul, rx, ry)) - total * total
    return min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy)))


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson over average ranks (ties averaged)."""
    return _checked(_rank_correlation(*_paired(x, y)))


def r_squared(observed, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Two degenerate cases report 0.0 rather than raising, since tiny
    datasets can reach them: constant observations, which make SS_tot
    zero, and a quotient SS_res / SS_tot beyond the float range.
    Observations are constant when their values are all equal, decided
    from the values, or when their squared deviations underflow to a zero
    sum.
    """
    obs, pred = _paired(observed, predicted)
    residual = list(map(sub, obs, pred))
    return _r_squared(_deviations(obs), _dot(residual, residual))[0]


def _r_squared(
    observed: tuple[list[float], float] | None, ss_res: float
) -> tuple[float, str | None]:
    """``r_squared`` from the ``_deviations`` of the observations and the
    residuals' sum of squares, and why it is reported as 0.0 where it is
    degenerate."""
    if observed is None:
        return 0.0, "constant observations"
    ss_tot = observed[1]
    ratio = ss_res / ss_tot if ss_tot < math.inf else math.nan
    if not math.isfinite(ratio):
        return 0.0, "SS_res / SS_tot is beyond the float range"
    return 1.0 - ratio, None


#: The refinement's iteration cap, and the relative objective change at
#: which it has converged.
_MAX_ITERATIONS = 200
_REL_TOL = 1e-12

#: A pivot of the normal equations at most this share of its diagonal marks
#: its column as a combination of the columns before it.
_PIVOT_TOL = 1e-13


def _line(x: list[float], y: list[float]) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through the points.

    Raises:
        FitError: when the centred ``x`` has no spread in floats (its squares
            underflow to zero or sum past the float range), or the line is
            beyond the float range.
    """
    x_mean, y_mean = _sum(x) / len(x), _sum(y) / len(y)
    dx = list(map(sub, x, repeat(x_mean)))
    sxx = _dot(dx, dx)
    if not 0.0 < sxx < math.inf:
        raise FitError("the starting regression is poorly conditioned")
    slope = _dot(dx, map(sub, y, repeat(y_mean))) / sxx
    intercept = y_mean - slope * x_mean
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise FitError("the starting guess is beyond the float range")
    return slope, intercept


def _initial_guess(bw: list[float], ec: list[float], c: float) -> tuple[float, float]:
    """The starting ``a`` and ``b``: a log-linear regression of ln(ec - c) on
    bw_rel where the log exists, or the curve through the one point where it
    does.

    Raises:
        FitError: when the starting ``a`` is beyond the float range, or the
            regression is poorly conditioned.
    """
    floor = c + 1e-9
    x = [u for u, y in zip(bw, ec) if y > floor]
    try:
        if len(x) >= 2 and min(x) != max(x):
            log = math.log
            slope, intercept = _line(x, [log(y - c) for y in ec if y > floor])
            return max(math.exp(intercept), 0.0), max(-slope, 0.0)
        if len(x) == 1:
            return next(y - c for y in ec if y > floor) * math.exp(x[0]), 1.0
    except OverflowError:
        raise FitError("the starting guess is beyond the float range") from None
    return 0.0, 1.0


def _solve(gram: list[list[float]], rhs: list[float]) -> list[float]:
    """A solution of the normal equations ``gram @ x = rhs``.

    Gauss-Jordan elimination, pivoting in column order.  A pivot at most
    ``_PIVOT_TOL`` times its diagonal marks its column as a combination of
    the columns before it: its unknown is held at zero.  The d/db column is
    zero where ``a`` is, and the floor's column repeats the decay column
    where ``b`` is 0.
    """
    size = len(rhs)
    rows = [[*row, value] for row, value in zip(gram, rhs)]
    independent = []
    for k in range(size):
        pivot = rows[k][k]
        if not pivot > _PIVOT_TOL * gram[k][k]:
            continue
        independent.append(k)
        for i in range(size):
            if i != k and rows[i][k] != 0.0:
                factor = rows[i][k] / pivot
                rows[i] = list(map(sub, rows[i], map(mul, repeat(factor), rows[k])))
    x = [0.0] * size
    for k in independent:
        x[k] = rows[k][size] / rows[k][k]
    return x


def fit(
    points: list[RelativePoint],
    fix_c: float | None = 1.0,
    include_flagged: bool = False,
) -> FitResult:
    """``fit_columns`` over the points' ``bw_rel`` and ``ec_rel`` values."""
    return fit_columns(
        [p.bw_rel for p in points], [p.ec_rel for p in points], fix_c, include_flagged
    )


def fit_columns(
    bw_rel: Sequence[float],
    ec_rel: Sequence[float],
    fix_c: float | None,
    include_flagged: bool,
) -> FitResult:
    """Least-squares fit of the exponential model to relative points, given
    as a column of relative bandwidths and one of relative consumptions.

    Starts from a log-linear guess and refines with damped Gauss-Newton
    steps (step halved while the objective worsens), stopping when the
    relative objective change drops below 1e-12 or after 200 iterations.
    Each step solves the normal equations, whose entries are correctly
    rounded dot products.  ``a`` and ``b`` are projected to stay
    non-negative.  A value that overflows is infinite and one computed from
    an infinity may be NaN: the starting guess, the objective, each step's
    normal equations and the fitted parameters are checked to be finite.

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
        ValueError: on a ``fix_c`` that is NaN, infinite or negative; when
            the columns are not 1-d and of equal length, or a value of
            either, flagged points included, is not positive and finite; the
            first such row (from 0) and its column are named.
        FitError: on too few usable points, unidentifiable data (all at
            one bw_rel), a starting guess beyond the float range, a poorly
            conditioned starting regression, a non-finite objective, a
            Jacobian beyond the float range, or a negative floor.
    """
    if fix_c is not None and not 0.0 <= fix_c < math.inf:
        raise ValueError(f"fix_c must be finite and non-negative, got {fix_c!r}")
    bw, ec = _floats(bw_rel, ec_rel, "bw_rel and ec_rel must be 1-d columns of equal length")
    fault = _point_fault(bw, ec)
    if fault:
        raise ValueError(f"row {fault[0]}: {fault[1]}")
    n_given = len(bw)
    if not include_flagged:
        usable = list(map(le, repeat(1.0), bw))
        bw, ec = list(compress(bw, usable)), list(compress(ec, usable))
    needed = 2 if fix_c is not None else 3
    if len(bw) < needed:
        raise FitError(
            f"need at least {needed} usable points"
            f" ({'fixed' if fix_c is not None else 'free'} floor), got {len(bw)}"
        )
    if min(bw) == max(bw):
        raise FitError("all points share one bw_rel; decay rate is unidentifiable")

    free_c = fix_c is None
    if free_c:
        # floor guess just under the smallest observation
        spread = max(ec) - min(ec)
        c0 = min(ec) - max(spread, 1e-3) * 1e-3
    else:
        c0 = float(fix_c)
    a0, b0 = _initial_guess(bw, ec, c0)
    # the guess's a and b are non-negative, as each step keeps them
    theta = [a0, b0, c0] if free_c else [a0, b0]
    size = float(len(bw))

    def objective(t: list[float]) -> tuple[list[float], list[float], float]:
        """The decay column exp(-b bw), the residuals, and their sum of squares."""
        exp, rate, a, c = math.exp, -t[1], t[0], t[2] if free_c else c0
        decay = [exp(rate * x) for x in bw]
        residual = [y - (a * d + c) for y, d in zip(ec, decay)]
        return decay, residual, _dot(residual, residual)

    decay, residual, value = objective(theta)
    if not math.isfinite(value):
        raise FitError("objective is not finite at the initial guess")
    converged = False
    for _ in range(_MAX_ITERATIONS):
        # the Jacobian's columns: d/da, d/db and, with a free floor, d/dc = 1
        scale = -theta[0]
        slope = [scale * x * d for x, d in zip(bw, decay)]
        dd, ds, ss = _dot(decay, decay), _dot(decay, slope), _dot(slope, slope)
        rhs = [_dot(decay, residual), _dot(slope, residual)]
        if free_c:
            d1, s1 = _sum(decay), _sum(slope)
            gram = [[dd, ds, d1], [ds, ss, s1], [d1, s1, size]]
            rhs.append(_sum(residual))
        else:
            gram = [[dd, ds], [ds, ss]]
        # a non-finite entry, or products with it that sum past the float
        # range; the residual is finite, since its squares sum to the objective
        if not all(map(math.isfinite, [*gram[0], *gram[1], *rhs])):
            raise FitError("the Jacobian is beyond the float range")
        delta = _solve(gram, rhs)
        step = 1.0
        for _ in range(60):
            candidate = list(map(add, theta, map(mul, repeat(step), delta)))
            candidate[0] = max(candidate[0], 0.0)
            candidate[1] = max(candidate[1], 0.0)
            cand_decay, cand_residual, cand_value = objective(candidate)
            if math.isfinite(cand_value) and cand_value <= value:
                break
            step *= 0.5
        else:
            converged = True  # no descent direction left at this scale
            break
        change = value - cand_value
        theta, decay, residual, value = candidate, cand_decay, cand_residual, cand_value
        if change <= _REL_TOL * max(value, 1e-300):
            converged = True
            break

    a, b = theta[0], theta[1]
    c = theta[2] if free_c else c0
    if c < 0:
        raise FitError(
            f"floor c={c!r} is negative: predicted consumption would fall below zero"
            " far out on the curve; fix the floor instead"
        )
    params = ModelParams(a=a, b=b, c=c)
    # the model's values, as ``evaluate`` computes each
    predicted = [a * d + c for d in decay]
    diagnostics: list[str] = []
    if not converged:
        diagnostics.append(f"stopped after {_MAX_ITERATIONS} iterations without convergence")
    observed = _deviations(ec)
    r2, degenerate = _r_squared(observed, value)
    if degenerate:
        diagnostics.append(f"{degenerate}: r_squared reported as 0")
    correlations = {
        "pcc": _correlation(observed, _deviations(predicted)),
        "srocc": _rank_correlation(ec, predicted),
    }
    for name, r in correlations.items():
        if r is None:
            correlations[name] = 0.0
            diagnostics.append(f"degenerate variance: {name} reported as 0")
    return FitResult(
        params=params,
        r_squared=r2,
        n_points=len(bw),
        n_excluded=n_given - len(bw),
        diagnostics=tuple(diagnostics),
        **correlations,
    )
