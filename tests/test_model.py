"""Model evaluation, presets, correlation metrics, and fitting."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abrenergy import (
    LTE_4G,
    NR_5G,
    PRESETS,
    WIFI,
    Combination,
    FitError,
    ModelParams,
    RelativePoint,
    evaluate,
    fit,
    fit_columns,
    normalize_codec,
    normalize_connection,
    pearson,
    preset,
    r_squared,
    spearman,
)
from abrenergy.ladder import _CODEC_ALIASES
from abrenergy.ladder import _CONNECTION_ALIASES
from abrenergy.fitting import _average_ranks

SYNTH = Combination("synth", "WIFI", "HEVC")


def points_from(params: ModelParams, bw_values) -> list[RelativePoint]:
    return [
        RelativePoint(bw, evaluate(params, bw), SYNTH)
        for bw in bw_values
    ]


class TestEvaluate:
    def test_pooled_preset_value(self, overall):
        assert evaluate(overall, 1.1) == pytest.approx(1.5480077598007158, rel=1e-12)
        assert evaluate(overall, 1.1) == pytest.approx(1.5480, abs=5e-4)

    def test_asymptote_is_the_floor(self, overall):
        assert evaluate(overall, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_positive_bw_rel(self, overall):
        with pytest.raises(ValueError):
            evaluate(overall, 0.0)
        with pytest.raises(ValueError):
            evaluate(overall, -1.0)

    @given(
        a=st.floats(min_value=0.01, max_value=10),
        b=st.floats(min_value=0.05, max_value=2),
        bw=st.floats(min_value=0.1, max_value=8),
        step=st.floats(min_value=0.05, max_value=2),
    )
    def test_strictly_decreasing_when_surcharge_present(self, a, b, bw, step):
        # ranges keep the surcharge above float resolution at the floor,
        # where strictness is meaningful
        params = ModelParams(a, b, 1.0)
        assert evaluate(params, bw) > evaluate(params, bw + step)

    def test_always_above_floor_when_surcharge_present(self):
        params = ModelParams(0.5, 0.0, 1.0)
        assert evaluate(params, 100.0) > params.c


class TestParams:
    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            ModelParams(0.5, -0.1)

    def test_floor_may_differ_from_one(self):
        assert ModelParams(0.5, 0.5, 0.0).c == 0.0

    def test_negative_floor_rejected(self):
        # a negative floor would let consumption go negative and charge the battery
        with pytest.raises(ValueError, match="c must be non-negative"):
            ModelParams(1.0, 1.0, -5.0)


class TestPresets:
    def test_catalog_values(self):
        expected = {
            "SPA/WIFI/AVC": (0.653, 0.452),
            "SPA/WIFI/HEVC": (0.890, 0.628),
            "SPA/WIFI/AVC+HEVC": (0.704, 0.480),
            "SPB/WIFI/AVC": (0.947, 0.329),
            "SPB/WIFI/HEVC": (0.863, 0.256),
            "SPB/WIFI/AVC+HEVC": (0.911, 0.308),
            "SPC/WIFI/AVC": (0.828, 0.524),
            "SPC/WIFI/HEVC": (0.825, 0.476),
            "SPC/WIFI/AVC+HEVC": (0.826, 0.499),
            "SPC/4G/AVC": (1.121, 0.468),
            "SPC/4G/HEVC": (1.021, 0.356),
            "SPC/4G/AVC+HEVC": (1.051, 0.406),
            "SPC/5G/AVC": (0.238, 0.500),
            "SPC/5G/HEVC": (0.167, 0.373),
            "SPC/5G/AVC+HEVC": (0.229, 0.489),
            "OVERALL": (1.154, 0.677),
        }
        assert set(PRESETS) == set(expected)
        for label, (a, b) in expected.items():
            assert PRESETS[label] == ModelParams(a, b, 1.000)

    def test_lookup_is_case_insensitive_with_aliases(self):
        assert preset("overall") == PRESETS["OVERALL"]
        assert preset("spc/5g/hevc") == PRESETS["SPC/5G/HEVC"]
        assert preset("SPC/NR_5G/HEVC") == PRESETS["SPC/5G/HEVC"]

    def test_unknown_label_lists_choices(self):
        with pytest.raises(ValueError, match="unknown preset.*OVERALL"):
            preset("nonsense")

    def test_every_measurement_spelling_resolves(self):
        # each connection and codec spelling a measurement file may use, in
        # either case; the canonical ones are the labels fit writes
        catalogue_name = {WIFI: "WIFI", LTE_4G: "4G", NR_5G: "5G"}
        assert set(catalogue_name) <= set(_CONNECTION_ALIASES)
        for connection in _CONNECTION_ALIASES:
            catalogue = catalogue_name[normalize_connection(connection)]
            for codec in [*_CODEC_ALIASES, "AVC+HEVC"]:
                expected = PRESETS[f"SPC/{catalogue}/{normalize_codec(codec)}"]
                assert preset(f"SPC/{connection}/{codec}") == expected
                assert preset(f" spc/{connection.lower()}/{codec.lower()} ") == expected


def loop_average_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks by walking the sorted runs of equal values: the
    reference ``_average_ranks`` must match byte for byte."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    ordered = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and ordered[j + 1] == ordered[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestCorrelation:
    @given(
        st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -2.5, 7.25]) | st.floats(allow_nan=False),
            max_size=80,
        )
    )
    def test_average_ranks_match_the_loop(self, values):
        # the small pool makes long runs of ties, -0.0 and 0.0 among them
        array = np.array(values, dtype=float)
        ranks = _average_ranks(array)
        assert ranks.dtype == np.float64
        assert ranks.tobytes() == loop_average_ranks(array).tobytes()

    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
        assert spearman([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_nonlinear(self):
        # pearson has a closed form: -4*sqrt(3)/7
        assert pearson([1, 2, 3], [9, 4, 1]) == pytest.approx(-0.9897433186107870, abs=1e-12)
        assert spearman([1, 2, 3], [9, 4, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_ties_on_both_sides(self):
        assert spearman([1, 2, 2, 3], [10, 20, 20, 30]) == pytest.approx(1.0, abs=1e-12)

    def test_ties_on_one_side(self):
        assert spearman([1, 2, 3, 4], [5, 5, 6, 7]) == pytest.approx(
            math.sqrt(0.9), abs=1e-12
        )
        assert pearson([1, 2, 3, 4], [5, 5, 6, 7]) == pytest.approx(
            3.5 / math.sqrt(13.75), abs=1e-12
        )

    def test_partial_agreement(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_r_squared_hand_value(self):
        assert r_squared([1, 2, 3], [1.1, 1.9, 3.2]) == pytest.approx(0.97, abs=1e-12)

    @pytest.mark.parametrize("measure", [pearson, spearman, r_squared])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_rejected(self, measure, bad):
        # pearson once clamped a NaN correlation to -1.0; spearman ranked NaN as a value
        with pytest.raises(ValueError, match="inputs must be finite"):
            measure([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="inputs must be finite"):
            measure([1.0, 2.0, 3.0], [3.0, bad, 1.0])

    def test_r_squared_perfect_and_degenerate(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert r_squared([2, 2, 2], [1, 2, 3]) == 0.0
        # numpy's mean of six 1.1s is one ulp off, so the deviations are not zero
        assert r_squared([1.1] * 6, [1, 2, 3, 4, 5, 6]) == 0.0
        assert r_squared([1.1] * 6, [1.1] * 6) == 0.0
        # SS_tot is subnormal: SS_res / SS_tot overflowed and r_squared was -inf
        assert r_squared([1e-158, 2e-158], [1.0, 1.0]) == 0.0

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="zero variance"):
            spearman([1, 2, 3], [5, 5, 5])
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1.1] * 6, [1, 2, 3, 4, 5, 6])

    def test_length_mismatch_and_tiny_inputs(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])

    def test_affine_invariance(self):
        x = [0.3, 1.7, 2.2, 4.9, 5.1]
        y = [2.0, 1.1, 3.3, 4.0, 3.9]
        base = pearson(x, y)
        assert pearson(x, [2.0 * v + 3.0 for v in y]) == pytest.approx(base, abs=1e-12)
        assert pearson(x, [-2.0 * v + 1.0 for v in y]) == pytest.approx(-base, abs=1e-12)

    def test_spearman_invariant_under_monotone_transform(self):
        x = [0.3, 1.7, 2.2, 4.9, 5.1, 0.1]
        y = [2.0, 1.1, 3.3, 4.0, 3.9, 0.5]
        assert spearman(x, [math.exp(v) for v in y]) == spearman(x, y)


class TestFit:
    def test_exact_recovery_fixed_floor(self):
        truth = ModelParams(0.8, 1.3, 1.0)
        result = fit(points_from(truth, [1.0, 1.5, 2.5, 4.0, 6.0, 9.0]))
        assert result.params.a == pytest.approx(truth.a, abs=1e-9)
        assert result.params.b == pytest.approx(truth.b, abs=1e-9)
        assert result.params.c == 1.0
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)
        assert result.pcc == pytest.approx(1.0, abs=1e-12)
        assert result.srocc == pytest.approx(1.0, abs=1e-12)
        assert result.n_points == 6
        assert result.n_excluded == 0

    def test_exact_recovery_free_floor(self):
        truth = ModelParams(0.9, 0.5, 1.2)
        result = fit(points_from(truth, [1.0, 1.4, 2.0, 3.0, 4.5, 7.0, 10.0]), fix_c=None)
        assert result.params.a == pytest.approx(truth.a, abs=1e-6)
        assert result.params.b == pytest.approx(truth.b, abs=1e-6)
        assert result.params.c == pytest.approx(truth.c, abs=1e-6)

    def test_free_floor_landing_below_zero_is_a_fit_error(self):
        # on-curve points of 0.9 exp(-0.5 x) - 0.2: the free floor fits below zero
        bw = [1.0, 1.3, 1.6, 2.0, 2.4, 2.8]
        points = [RelativePoint(x, 0.9 * math.exp(-0.5 * x) - 0.2, SYNTH) for x in bw]
        with pytest.raises(FitError, match="negative"):
            fit(points, fix_c=None)

    def test_refit_of_predictions_is_idempotent(self):
        rng = np.random.default_rng(99)
        bw = np.sort(rng.uniform(1.0, 8.0, size=24))
        truth = ModelParams(1.1, 0.6, 1.0)
        noisy = [
            RelativePoint(float(w), evaluate(truth, float(w)) + float(e), SYNTH)
            for w, e in zip(bw, rng.normal(0, 0.04, size=24))
        ]
        first = fit(noisy)
        refit = fit(points_from(first.params, [float(w) for w in bw]))
        assert refit.params.a == pytest.approx(first.params.a, abs=1e-9)
        assert refit.params.b == pytest.approx(first.params.b, abs=1e-9)

    def test_flagged_points_excluded_by_default(self):
        truth = ModelParams(0.8, 1.3, 1.0)
        clean = points_from(truth, [1.0, 2.0, 3.0, 5.0])
        outlier = RelativePoint(0.7, 9.0, SYNTH)  # below-rate point, far off curve
        result = fit(clean + [outlier])
        assert result.n_excluded == 1
        assert result.n_points == 4
        assert result.params.a == pytest.approx(truth.a, abs=1e-9)
        included = fit(clean + [outlier], include_flagged=True)
        assert included.n_excluded == 0
        assert included.params.a != pytest.approx(truth.a, abs=1e-3)

    @pytest.mark.parametrize("value, bws", [
        (1.3, (1.0, 2.0, 3.0)),
        # numpy's mean of these constants is one ulp off: the deviations
        # were not zero, and r2 and pcc came out as 1.0
        (2.7, (1.0, 2.0, 3.0)),
        (1.1, (1.5, 2.0, 3.0, 4.0, 6.0, 9.0)),
    ])  # fmt: skip
    def test_constant_data_lands_on_the_floor_offset(self, value, bws):
        # every observation at one value with the floor at 1: exact optimum
        # is a = value - 1 with no decay, and the degenerate metrics are
        # reported as 0 with diagnostics rather than raised
        pts = [RelativePoint(bw, value, SYNTH) for bw in bws]
        result = fit(pts)
        for bw in bws:
            assert evaluate(result.params, bw) == pytest.approx(value, abs=1e-9)
        assert result.params.a == pytest.approx(value - 1.0, abs=1e-6)
        assert result.params.b == pytest.approx(0.0, abs=1e-6)
        assert result.r_squared == 0.0
        assert result.pcc == 0.0
        assert result.srocc == 0.0
        assert result.diagnostics == (
            "constant observations: r_squared reported as 0",
            "degenerate variance: pcc reported as 0",
            "degenerate variance: srocc reported as 0",
        )

    def test_too_few_points(self):
        pts = points_from(ModelParams(0.8, 1.3, 1.0), [2.0])
        with pytest.raises(FitError, match="at least 2"):
            fit(pts)
        pts3 = points_from(ModelParams(0.8, 1.3, 1.0), [2.0, 3.0])
        with pytest.raises(FitError, match="at least 3"):
            fit(pts3, fix_c=None)

    @pytest.mark.parametrize("bw_rel, ec_rel, fix_c, include_flagged, where, got", [
        # a non-finite value used to reach numpy's routines: a NaN bw_rel
        # made LAPACK print to stderr and raise LinAlgError
        ([1.0, math.nan, 2.0, 3.0], [2.0, 1.8, 1.5, 1.3], 1.0, False, "row 1: bw_rel", "nan"),
        ([1.0, 1.5, 2.0, 3.0], [2.0, 1.8, math.inf, 1.3], None, False, "row 2: ec_rel", "inf"),
        # a flagged point is checked too, included or not: included, it used
        # to be refined first and then fail inside evaluate
        ([0.5, -1.0, 2.0, 3.0], [2.0, 1.8, 1.5, 1.3], 1.0, True, "row 1: bw_rel", "-1.0"),
        ([0.5, 0.0, 2.0, 3.0], [2.0, 1.8, 1.5, 1.3], 1.0, False, "row 1: bw_rel", "0.0"),
        # a negative consumption used to be fitted
        ([1.0, 1.5, 2.0, 3.0], [2.0, -0.9, 1.5, 1.3], 1.0, False, "row 1: ec_rel", "-0.9"),
        # the first bad row is named, bw_rel before ec_rel within a row
        ([1.0, 1.5, -2.0, 3.0], [2.0, 1.8, -1.5, -1.3], 1.0, False, "row 2: bw_rel", "-2.0"),
    ])  # fmt: skip
    def test_fit_columns_refuses_a_value_that_is_not_positive_and_finite(
        self, capfd, bw_rel, ec_rel, fix_c, include_flagged, where, got
    ):
        message = f"{where} must be positive and finite, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_columns(bw_rel, ec_rel, fix_c, include_flagged)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("bw_rel, ec_rel, fix_c, error, message", [
        # the starting guess's math.exp used to raise OverflowError: in the
        # log-linear start, and in the start through the one point above the floor
        ([1.0, 2.0, 3.0], [1e304, 1e260, 1e216], 1.0, FitError,
         "the starting guess is beyond the float range"),
        ([1.0, 1000.0], [1.0, 2.0], 1.0, FitError,
         "the starting guess is beyond the float range"),
        # a NaN or infinite floor used to fail as a non-finite objective, and
        # a negative one only after the whole refinement
        ([1.0, 2.0, 3.0], [2.0, 1.5, 1.3], math.nan, ValueError,
         "fix_c must be finite and non-negative, got nan"),
        ([1.0, 2.0, 3.0], [2.0, 1.5, 1.3], math.inf, ValueError,
         "fix_c must be finite and non-negative, got inf"),
        ([1.0, 2.0, 3.0], [2.0, 1.5, 1.3], -1.0, ValueError,
         "fix_c must be finite and non-negative, got -1.0"),
        # an objective that overflows used to print numpy's overflow warning first
        ([1.0, 2.0], [1.0, 1e300], 1.0, FitError, "objective is not finite at the initial guess"),
        ([1.0, 2.0, 3.0], [2.0, 1.5, 1.3], 1e308, FitError,
         "objective is not finite at the initial guess"),
        # a Jacobian entry of inf times 0 used to print numpy's invalid-value
        # warning, and LAPACK's DLASCL lines before "SVD did not converge"
        ([100.0, 1e200], [1e200, 1e-100], 1.0, FitError, "the Jacobian is beyond the float range"),
        # polyfit's scaled column, 1e200 / inf, is zero: its RankWarning and LAPACK's lines
        ([1e200, 1e300], [1e10, 1e100], 1.0, FitError,
         "the starting regression is poorly conditioned"),
    ])  # fmt: skip
    def test_fit_columns_refuses_values_beyond_the_float_range_quietly(
        self, capfd, bw_rel, ec_rel, fix_c, error, message
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            fit_columns(bw_rel, ec_rel, fix_c, False)
        assert capfd.readouterr() == ("", "")

    def test_fit_columns_refuses_a_regression_column_that_underflows_quietly(self, capfd):
        # the flagged points' squares underflow to zero, and polyfit divided its
        # column by that scale: numpy's divide-by-zero warning and LAPACK's lines
        message = "the starting regression is poorly conditioned"
        with pytest.raises(FitError, match=f"^{message}$"):
            fit_columns([1e-200, 2e-200], [3.0, 2.0], 1.0, True)
        assert capfd.readouterr() == ("", "")

    def test_r_squared_beyond_the_float_range_scores_zero_with_a_note(self):
        result = fit_columns([1.0, 2.0], [1e-158, 2e-158], 1.0, False)
        assert result.r_squared == 0.0
        assert result.diagnostics[0] == (
            "SS_res / SS_tot is beyond the float range: r_squared reported as 0")

    def test_single_bandwidth_is_unidentifiable(self):
        pts = [RelativePoint(2.0, v, SYNTH) for v in (1.1, 1.2, 1.3)]
        with pytest.raises(FitError, match="unidentifiable"):
            fit(pts)

    def test_shape_stays_non_negative(self):
        # increasing observations would pull b negative; projection holds it
        pts = [RelativePoint(bw, ec, SYNTH) for bw, ec in
               [(1.0, 1.05), (2.0, 1.2), (3.0, 1.4), (4.0, 1.9)]]
        result = fit(pts)
        assert result.params.a >= 0.0
        assert result.params.b >= 0.0

    def test_json_record_shape(self):
        result = fit(points_from(ModelParams(0.8, 1.3, 1.0), [1.0, 2.0, 4.0]))
        record = result.to_json_dict("synth/WIFI/HEVC")
        assert list(record) == ["combination", "a", "b", "c", "r2", "pcc", "srocc", "n", "excluded"]
        assert record["n"] == 3 and record["excluded"] == 0
