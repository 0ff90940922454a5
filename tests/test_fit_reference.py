"""The standard-library fit against the numpy fit it replaced.

``numpy_fit`` keeps the numpy implementation: the same start and damped
Gauss-Newton refinement, with each step from ``np.linalg.lstsq`` on the
Jacobian where ``abrenergy.fitting`` solves the normal equations.  Both stop
when the objective changes by less than 1e-12 of itself, which fixes the
parameters to about the square root of that on noisy data, so the two agree
within ``PARAM_REL`` there, and far closer on points on the curve.  A
refusal must be the same ``FitError``, its text equal up to the digits of a
negative floor.

Normal equations square the Jacobian's condition number, which a narrow
``bw_rel`` spread makes large.  On points on a curve with ``b`` times the
spread down to 0.01 (fixed floor) and 0.05 (free floor), every fit the
numpy solver brings to the generating parameters, the normal equations bring
there too; below that neither does, the refinement rather than the linear
solve being what stalls.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import numpy_fit
from abrenergy import FitError, fit_columns, group_measurements, normalize_columns
from abrenergy.measurements import read_measurements
from test_golden import MEASUREMENTS_CSV

#: The largest relative difference allowed between the two sides' fitted
#: parameters, and between their r2, pcc and srocc.
PARAM_REL = 1e-6
METRIC_REL = 1e-9

#: How close a side must come to the generating parameters to have found
#: them, and how close the two sides then are.
FOUND_REL = 1e-6
FOUND_AGREE_REL = 1e-9


def relative(x: float, y: float) -> float:
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def outcome(fitter, bw_rel, ec_rel, fix_c, include_flagged):
    try:
        return fitter(bw_rel, ec_rel, fix_c, include_flagged)
    except FitError as error:
        return error


def assert_same_outcome(bw_rel, ec_rel, fix_c, include_flagged=False, param_rel=PARAM_REL,
                        converged_alike=True):
    """Both sides' fits agree, or both refuse alike; return the fit or None.

    On points on the curve the objective ends at its rounding floor, where
    whether an accepted step still changes it by 1e-12 of itself is noise:
    there ``converged_alike=False`` leaves the iteration-cap note out.
    """
    new = outcome(fit_columns, bw_rel, ec_rel, fix_c, include_flagged)
    ref = outcome(numpy_fit.fit_columns, bw_rel, ec_rel, fix_c, include_flagged)
    if isinstance(ref, FitError) or isinstance(new, FitError):
        assert type(new) is type(ref), (new, ref)
        # a negative floor's message names its value, which may differ in the last digits
        number = r"-?\d+\.\d+(?:e[-+]\d+)?"
        assert re.sub(number, "#", str(new)) == re.sub(number, "#", str(ref))
        for x, y in zip(re.findall(number, str(new)), re.findall(number, str(ref))):
            assert relative(float(x), float(y)) <= param_rel
        return None
    for name in ("a", "b", "c"):
        assert relative(getattr(new.params, name), getattr(ref.params, name)) <= param_rel, name
    for name in ("r_squared", "pcc", "srocc"):
        assert relative(getattr(new, name), getattr(ref, name)) <= METRIC_REL, name
    notes = [(r.n_points, r.n_excluded, r.diagnostics) for r in (new, ref)]
    if not converged_alike:
        notes = [(n, x, tuple(d for d in ds if not d.startswith("stopped"))) for n, x, ds in notes]
    assert notes[0] == notes[1]
    return new


def found(result, truth) -> bool:
    """Whether a fit came within ``FOUND_REL`` of the generating parameters."""
    return not isinstance(result, FitError) and all(
        relative(getattr(result.params, name), value) <= FOUND_REL
        for name, value in zip("abc", truth))  # fmt: skip


@st.composite
def curve_points(draw, free: bool, spread: tuple[float, float], noisy: bool):
    """Points on a * exp(-b bw) + c, with multiplicative noise of up to 0.5 %
    when ``noisy``; ``b`` times the ``bw_rel`` spread lies in ``spread``, and
    the curve still stands clear of its floor at the smallest ``bw_rel``."""
    a = draw(st.floats(0.3, 2.0))
    b = draw(st.floats(0.2, 1.5))
    c = draw(st.floats(0.5, 1.5)) if free else 1.0
    low = draw(st.floats(1.0, 1.0 + 1.0 / b))
    width = draw(st.floats(*spread)) / b
    n = draw(st.integers(8, 40))
    # both ends of the spread are taken, so that the points span it; a grid
    # keeps two points either at one bw_rel or apart, for a bw_rel one ulp
    # off another ties the fitted values of one side and not of the other,
    # and so moves its srocc
    inner = draw(st.lists(st.integers(0, 1000), min_size=n - 2, max_size=n - 2))
    bw = [low + width * (k / 1000) for k in [0, 1000, *inner]]
    level = draw(st.floats(0.0, 0.005)) if noisy else 0.0
    shocks = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    ec = [(a * math.exp(-b * x) + c) * (1.0 + level * e) for x, e in zip(bw, shocks)]
    return (a, b, c), bw, ec


class TestAgainstTheNumpyFit:
    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda free: st.tuples(
        st.just(free), curve_points(free, (1.0, 6.0), noisy=True))))
    def test_well_conditioned_sets(self, case):
        free, (_, bw, ec) = case
        assert_same_outcome(bw, ec, None if free else 1.0)

    @pytest.mark.parametrize("fix_c", [1.0, None])
    @pytest.mark.parametrize("include_flagged", [False, True])
    def test_fixture_groups_and_their_pool(self, fix_c, include_flagged):
        groups = {
            combination: normalize_columns(group, combination)[1:]
            for combination, group in group_measurements(
                read_measurements(MEASUREMENTS_CSV)).items()
        }  # fmt: skip
        columns = list(groups.values())
        pooled = [[v for bw, _ in columns for v in bw], [v for _, ec in columns for v in ec]]
        fitted = [assert_same_outcome(*c, fix_c, include_flagged) for c in [*columns, pooled]]
        # the guard must compare fits, not only refusals
        assert sum(result is not None for result in fitted) >= 4

    @settings(max_examples=40, deadline=None)
    @given(curve_points(False, (0.01, 0.05), noisy=False))
    def test_a_narrow_spread_with_a_fixed_floor(self, case):
        truth, bw, ec = case
        result = assert_same_outcome(bw, ec, 1.0, param_rel=FOUND_AGREE_REL,
                                     converged_alike=False)  # fmt: skip
        assert found(result, truth)

    @settings(max_examples=25, deadline=None)
    @given(curve_points(True, (0.05, 0.5), noisy=False))
    def test_a_narrow_spread_with_a_free_floor(self, case):
        truth, bw, ec = case
        # where lstsq's steps reach the generating curve, so do the normal equations'
        if found(outcome(numpy_fit.fit_columns, bw, ec, None, False), truth):
            result = assert_same_outcome(bw, ec, None, param_rel=FOUND_AGREE_REL,
                                         converged_alike=False)  # fmt: skip
            assert found(result, truth)


def test_scipy_curve_fit_finds_the_same_curve():
    optimize = pytest.importorskip("scipy.optimize")
    groups = group_measurements(read_measurements(MEASUREMENTS_CSV))
    for combination, group in groups.items():
        bw, ec = normalize_columns(group, combination)[1:]
        usable = [(x, y) for x, y in zip(bw, ec) if x >= 1.0]
        xs, ys = (np.array(column) for column in zip(*usable))
        for fix_c in (1.0, None):
            params = fit_columns(bw, ec, fix_c, False).params
            mine = (params.a, params.b) if fix_c is not None else (params.a, params.b, params.c)

            def model(x, a, b, c=fix_c):
                return a * np.exp(-b * x) + c

            # Levenberg-Marquardt from a start a tenth off must land on the same curve
            start = [1.1 * mine[0], 0.9 * mine[1], *mine[2:]]
            theirs, _ = optimize.curve_fit(model, xs, ys, p0=start, ftol=1e-15, xtol=1e-15,
                                           gtol=1e-15)  # fmt: skip
            for name, x, y in zip("abc", mine, theirs):
                assert relative(x, float(y)) <= PARAM_REL, (combination.label, fix_c, name)
