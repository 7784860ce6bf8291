"""Tests for the measurement-statistics layer.

Expected values fall in three groups: closed-form quantile arithmetic
checked against scipy.stats, constructed ensembles whose statistics
are known exactly, and frozen outputs of the deterministic synthetic
pipeline at the default seed.
"""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from casimetry import metrology as mt
from casimetry.corrections import SphereGeometry
from casimetry.lifshitz import (PressureCurve, ReflectionModel, ThermalState,
                                compute_pressure_curve)
from casimetry.optics import DrudeParameters, PermittivityFn

W_P = 1.37e16
GAMMA = 5.3e13


@pytest.fixture(scope="module")
def curves():
    eps = PermittivityFn.from_drude(DrudeParameters(W_P, GAMMA))
    st = ThermalState(300.0)
    lo, hi = mt.DEFAULT_Z_RANGE
    grid = np.geomspace(0.92 * lo, 1.02 * hi, 80)
    return {
        "imp": compute_pressure_curve(
            ReflectionModel("impedance", eps, W_P), grid, st),
        "drude": compute_pressure_curve(
            ReflectionModel("drude", eps), grid, st),
        "schw": compute_pressure_curve(
            ReflectionModel("schwinger", eps), grid, st),
    }


@pytest.fixture(scope="module")
def default_ensemble(curves):
    return mt.generate_synthetic_ensemble(curve=curves["imp"],
                                          seed=mt.DEFAULT_SEED)


@pytest.fixture(scope="module")
def verdicts(curves, default_ensemble):
    return {conf: mt.run_exclusion_analysis(default_ensemble, curves,
                                            "imp", conf)
            for conf in (0.95, 0.99)}


def single_bin_ensemble(pressures, z=300.5e-9):
    rows = np.column_stack([np.full(len(pressures), z), pressures])
    return mt.MeasurementEnsemble((rows,), z_range=(300e-9, 301.2e-9))


def two_bin_ensemble(pressures):
    """The same pressures in two adjacent bins: a band needs two rows."""
    rows = [np.column_stack([np.full(len(pressures), z), pressures])
            for z in (300.5e-9, 301.7e-9)]
    return mt.MeasurementEnsemble((np.concatenate(rows),),
                                  z_range=(300e-9, 302.4e-9))


class TestQuantiles:
    """The package's quantiles equal scipy.stats bit for bit, not nearly."""

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_normal_table_is_scipy_exactly(self, confidence):
        assert mt._NORMAL_Q[confidence] == stats.norm.ppf((1 + confidence) / 2)

    def test_confidences_are_the_table_keys(self):
        assert mt.CONFIDENCE_LEVELS == tuple(mt._NORMAL_Q) == (0.95, 0.99)


Z_GRID = np.geomspace(160e-9, 750e-9, 25)
# a sphere so large that its z/R curvature term falls below rounding
FLAT = SphereGeometry(1e9)
# an experimental half-width whose square underflows to 0 Pa^2, so a
# band built on it is exactly its theory term
NEGLIGIBLE = 1e-200


def expt_band(half_width, z=Z_GRID, confidence=0.95):
    """An experimental band on z, the grid of every band built from it."""
    return mt.ConfidenceBand(z, np.broadcast_to(half_width, np.shape(z)), confidence)


def theory_terms(z, sphere=mt.DEFAULT_SPHERE, dz=mt.DEFAULT_SEPARATION_ERROR,
                 optical_rel=mt.DEFAULT_OPTICAL_REL, confidence=0.95):
    """Curvature, optical and separation half-widths of theory_error_curve,
    from the uniform quantile c*v and the normal quantile of scipy."""
    z = np.asarray(z, dtype=float)
    q = stats.norm.ppf((1 + confidence) / 2) / stats.norm.ppf(0.975)
    return np.array([confidence * z / sphere.radius,
                     np.full_like(z, confidence * optical_rel),
                     q * 4.0 * dz / z])


def theory_error(z, sphere=mt.DEFAULT_SPHERE, dz=mt.DEFAULT_SEPARATION_ERROR,
                 optical_rel=mt.DEFAULT_OPTICAL_REL, **kwargs):
    """theory_error_curve on another budget, set through the module
    constants it reads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mt, "DEFAULT_SPHERE", sphere)
        patch.setattr(mt, "DEFAULT_SEPARATION_ERROR", dz)
        patch.setattr(mt, "DEFAULT_OPTICAL_REL", optical_rel)
        return mt.theory_error_curve(z, **kwargs)


def scaled(curve, factor):
    return PressureCurve(curve.z, factor * curve.pressure)


class TestErrorCombination:
    """The mixing rules, seen through theory_error_curve and
    confidence_band: "quantile" is min(sum, 1.1 rss), "variance" is rss."""

    def test_single_normal_component(self):
        for confidence in (0.95, 0.99):
            got = theory_error(300e-9, FLAT, dz=1e-9, optical_rel=0.0,
                               confidence=confidence)
            q = stats.norm.ppf((1 + confidence) / 2) / stats.norm.ppf(0.975)
            assert got == pytest.approx(q * 4e-9 / 300e-9, rel=1e-12)

    def test_single_uniform_component(self):
        for confidence in (0.95, 0.99):
            got = theory_error(300e-9, FLAT, dz=0.0, optical_rel=0.004,
                               confidence=confidence)
            assert got == pytest.approx(confidence * 0.004, rel=1e-12)

    def test_reference_budget_total(self):
        # curvature 0.2%, optical 0.5% (uniform ranges), separation-derived
        # 0.8% of |P| (95% half-width) at 300 nm
        got = theory_error(300e-9, SphereGeometry(150e-6), dz=0.6e-9,
                           optical_rel=0.005)
        assert got == pytest.approx(1.0445512194e-2, rel=1e-8)
        assert 0.009 < got < 0.0115

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    @pytest.mark.parametrize("setting", [
        {},
        {"sphere": FLAT, "dz": 1e-12},          # one term dominates
        {"sphere": SphereGeometry(40e-6), "dz": 2e-9, "optical_rel": 0.02},
    ])
    def test_quantile_rule_is_capped_sum(self, setting, confidence):
        terms = theory_terms(Z_GRID, confidence=confidence, **setting)
        want = np.minimum(terms.sum(axis=0),
                          1.1 * np.sqrt((terms ** 2).sum(axis=0)))
        got = theory_error(Z_GRID, confidence=confidence, **setting)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        bare = theory_error(Z_GRID, confidence=confidence,
                            include_separation_term=False, **setting)
        want = np.minimum(terms[:2].sum(axis=0),
                          1.1 * np.sqrt((terms[:2] ** 2).sum(axis=0)))
        np.testing.assert_allclose(bare, want, rtol=1e-12)

    def test_band_quantile_rule_is_capped_sum(self, curves):
        # theory/experiment ratios from 1e-2 to 1e2 reach both branches
        # of the quantile minimum
        curve = curves["imp"]
        ratio = np.geomspace(1e-2, 1e2, Z_GRID.size)
        p_abs = np.abs(curve.pressure_at(Z_GRID))
        th, ex = 0.01, expt_band(ratio * 0.01 * p_abs)
        quant = mt.confidence_band(lambda z: np.full_like(z, th), ex, curve, 0.95)
        want = np.minimum(1 + ratio, 1.1 * np.hypot(1, ratio)) * th * p_abs
        np.testing.assert_allclose(quant.half_width, want, rtol=1e-12)
        assert np.any(1 + ratio < 1.1 * np.hypot(1, ratio))
        assert np.any(1 + ratio > 1.1 * np.hypot(1, ratio))

    def test_variance_rule_is_rss(self, curves):
        curve = curves["imp"]
        p_abs = np.abs(curve.pressure_at(Z_GRID))
        band = mt.confidence_band(mt.theory_error_curve, expt_band(0.02 * p_abs),
                                  curve, 0.95, rule="variance")
        want = np.hypot(mt.theory_error_curve(Z_GRID), 0.02) * p_abs
        np.testing.assert_allclose(band.half_width, want, rtol=1e-12)

    def test_total_scales_with_pressure(self, curves):
        curve = curves["imp"]
        bands = [mt.confidence_band(mt.theory_error_curve, expt_band(NEGLIGIBLE),
                                    scaled(curve, k), 0.95)
                 for k in (0.5, 1.5)]
        np.testing.assert_allclose(bands[1].half_width,
                                   3 * bands[0].half_width, rtol=1e-12)

    def test_absolute_component_ignores_pressure(self, curves):
        curve = curves["imp"]
        for k in (0.5, 1.5):
            band = mt.confidence_band(lambda z: np.zeros_like(z), expt_band(0.02),
                                      scaled(curve, k), 0.95)
            np.testing.assert_allclose(band.half_width, 0.02, rtol=1e-12)

    def test_enlarging_any_component_never_shrinks_total(self):
        base = dict(sphere=mt.DEFAULT_SPHERE, dz=mt.DEFAULT_SEPARATION_ERROR,
                    optical_rel=mt.DEFAULT_OPTICAL_REL)
        t0 = theory_error(Z_GRID, **base)
        for key, grown in (("sphere", SphereGeometry(148.7e-6 / 1.5)),
                           ("dz", 1.5 * base["dz"]),
                           ("optical_rel", 1.5 * base["optical_rel"])):
            t1 = theory_error(Z_GRID, **{**base, key: grown})
            assert np.all(t1 >= t0)

    def test_higher_confidence_is_wider(self, curves):
        expt = 0.01 * np.abs(curves["imp"].pressure_at(Z_GRID))
        for separation in (True, False):
            h95, h99 = (mt.theory_error_curve(
                Z_GRID, confidence=c, include_separation_term=separation)
                for c in (0.95, 0.99))
            assert np.all(h99 >= h95)
            b95, b99 = (mt.confidence_band(
                lambda z: mt.theory_error_curve(
                    z, confidence=c, include_separation_term=separation),
                expt_band(expt, confidence=c), curves["imp"], c) for c in (0.95, 0.99))
            assert np.all(b99.half_width >= b95.half_width)

    def test_total_at_least_dominant_component(self):
        for confidence in (0.95, 0.99):
            terms = theory_terms(Z_GRID, confidence=confidence)
            got = mt.theory_error_curve(Z_GRID, confidence=confidence)
            assert np.all(got >= terms.max(axis=0))

    def test_validation(self):
        with pytest.raises(ValueError, match="confidence"):
            mt.theory_error_curve(300e-9, confidence=0.9)
        curve = PressureCurve(Z_GRID, -np.ones_like(Z_GRID))
        with pytest.raises(ValueError, match="combination rule"):
            mt.confidence_band(mt.theory_error_curve, expt_band(NEGLIGIBLE),
                               curve, 0.95, rule="median")
        # a 95 % experimental band does not make a 99 % difference band
        with pytest.raises(ValueError, match="confidence 0.99 is not expt_abs's 0.95"):
            mt.confidence_band(mt.theory_error_curve, expt_band(NEGLIGIBLE), curve, 0.99)


class TestTheoryErrorCurve:

    @pytest.mark.parametrize("z_nm,expected", [
        (160.0, 1.7344017019e-2),
        (300.0, 1.0449183437e-2),
        (750.0, 8.2140784291e-3),
    ])
    def test_frozen_values(self, z_nm, expected):
        assert mt.theory_error_curve(z_nm * 1e-9) == pytest.approx(
            expected, rel=1e-8)

    def test_single_component_limit(self):
        got = theory_error(300e-9, dz=0.0, optical_rel=0.0)
        assert got == pytest.approx(0.95 * 300e-9 / 148.7e-6, rel=1e-12)

    def test_without_separation_term(self):
        full = mt.theory_error_curve(300e-9)
        bare = mt.theory_error_curve(300e-9, include_separation_term=False)
        assert bare == pytest.approx(5.6343086985e-3, rel=1e-8)
        assert bare < full

    def test_shape_in_separation(self):
        # separation term dominates short range, curvature long range
        th = mt.theory_error_curve
        assert th(160e-9) > th(300e-9) > th(500e-9)
        assert th(2000e-9) > th(750e-9)

    def test_vectorized(self):
        z = np.array([200e-9, 400e-9, 600e-9])
        got = mt.theory_error_curve(z)
        for zi, gi in zip(z, got):
            assert gi == pytest.approx(mt.theory_error_curve(float(zi)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mt.theory_error_curve(-1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_separation_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mt.theory_error_curve([2e-7, bad])


class TestEnsembleType:

    def test_point_count(self, default_ensemble):
        assert len(default_ensemble.sets) == 14
        assert all(len(s) == 290 for s in default_ensemble.sets)
        assert default_ensemble.n_points == 4060

    def test_validation(self):
        good = np.array([[200e-9, -1.0]])
        with pytest.raises(ValueError, match="z_range"):
            mt.MeasurementEnsemble((good,), z_range=(750e-9, 160e-9))
        with pytest.raises(ValueError, match="outside"):
            mt.MeasurementEnsemble((np.array([[900e-9, -1.0]]),))
        with pytest.raises(ValueError, match="nonempty"):
            mt.MeasurementEnsemble((np.zeros((0, 2)),))
        with pytest.raises(ValueError):
            mt.MeasurementEnsemble(())

    @pytest.mark.parametrize("row", [[math.nan, -1.0], [200e-9, math.nan],
                                     [200e-9, math.inf]])
    def test_non_finite_point_rejected(self, row):
        rows = np.array([[190e-9, -1.0], row])
        with pytest.raises(ValueError, match="finite"):
            mt.MeasurementEnsemble((rows,))

    def test_infinite_range_rejected(self):
        with pytest.raises(ValueError, match="z_range"):
            mt.MeasurementEnsemble((np.array([[2e-7, -1.0]]),),
                                   z_range=(1e-7, math.inf))


class TestBinning:

    def test_point_conservation(self, default_ensemble):
        binned = mt.bin_ensemble(default_ensemble)
        assert int(binned.count.sum()) == default_ensemble.n_points
        assert len(binned.z) == 492
        assert np.all(np.diff(binned.z) > 0)

    def test_set_permutation_invariance(self, default_ensemble):
        binned = mt.bin_ensemble(default_ensemble)
        shuffled = mt.MeasurementEnsemble(
            tuple(reversed(default_ensemble.sets)), default_ensemble.z_range)
        other = mt.bin_ensemble(shuffled)
        assert np.array_equal(binned.count, other.count)
        np.testing.assert_allclose(binned.pressure_mean, other.pressure_mean,
                                   rtol=1e-12)
        np.testing.assert_allclose(binned.variance, other.variance,
                                   rtol=1e-9, equal_nan=True)

    def test_translation_covariance(self, default_ensemble):
        w = mt.DEFAULT_BIN_WIDTH
        binned = mt.bin_ensemble(default_ensemble)
        lo, hi = default_ensemble.z_range
        moved = mt.MeasurementEnsemble(
            tuple(s + [w, 0.0] for s in default_ensemble.sets),
            (lo + w, hi + w))
        other = mt.bin_ensemble(moved)
        assert np.array_equal(binned.count, other.count)
        np.testing.assert_allclose(other.z, binned.z + w, rtol=1e-12)
        np.testing.assert_allclose(other.pressure_mean, binned.pressure_mean,
                                   rtol=1e-12)

    def test_singleton_bin_flagged(self):
        ens = mt.MeasurementEnsemble((np.array([[165e-9, -1.0]]),))
        binned = mt.bin_ensemble(ens)
        assert int(binned.count.sum()) == 1
        assert binned.count[0] == 1
        assert math.isnan(binned.variance[0])
        assert binned.dof[0] == 0

    def test_linear_trend_does_not_inflate_variance(self):
        z = np.linspace(160.1e-9, 161.0e-9, 6)
        rows = np.column_stack([z, -2.0 + 3e6 * z])
        binned = mt.bin_ensemble(mt.MeasurementEnsemble((rows,)))
        assert len(binned.z) == 1
        assert binned.dof[0] == 4
        assert binned.variance[0] < 1e-24

    def test_pair_bin_plain_variance(self):
        rows = np.array([[300.2e-9, -1.0], [300.4e-9, -1.2]])
        binned = mt.bin_ensemble(
            mt.MeasurementEnsemble((rows,), z_range=(300e-9, 301.2e-9)))
        assert binned.dof[0] == 1
        assert binned.variance[0] == pytest.approx(
            np.var([-1.0, -1.2], ddof=1), rel=1e-12)


# a binary grid where a bin must be exactly linear, a decimal one elsewhere
_Z_UNIT = 2.0 ** -36
_P_UNIT = {"linear": 2.0 ** -30, "scatter": 1e-9, "repeated": 1e-9}


@st.composite
def binnable_ensembles(draw):
    """Small ensembles with known bins of 1, 2 and more points.

    Each bin is "scatter" (alternating-sign noise about a steep line,
    so the residuals are small but never vanish), "repeated" (one
    off-grid z for every point, whose rounded mean need not equal it)
    or "linear" (points exactly on a line).  Returns the ensemble and
    each point's bin.
    """
    lo, width = mt.DEFAULT_Z_RANGE[0], mt.DEFAULT_BIN_WIDTH
    rows, bins = [], []
    for k in draw(st.lists(st.integers(0, 490), min_size=1, max_size=8,
                           unique=True)):
        n = draw(st.integers(1, 6))
        kind = draw(st.sampled_from(("scatter", "repeated", "linear")))
        m = sorted(draw(st.lists(st.integers(0, 78), min_size=n, max_size=n)))
        if kind == "repeated":
            m = [m[0]] * n
        p0 = draw(st.integers(-2 ** 27, -2 ** 26))
        slope = draw(st.integers(-64, 64))
        first = math.ceil((lo + k * width) / _Z_UNIT) + 1   # inside bin k
        for j in range(n):
            noise = (0 if kind == "linear"
                     else (-1) ** j * draw(st.integers(1, 16)))
            z = ((first + m[j]) * _Z_UNIT if kind != "repeated"
                 else lo + (k + (m[j] + 0.5) / 80) * width)
            rows.append((z, (p0 + slope * m[j] + noise) * _P_UNIT[kind]))
            bins.append(k)
    order = draw(st.permutations(range(len(rows))))
    points = np.array(rows)[order]
    return (mt.MeasurementEnsemble((points,)), np.array(bins)[order])


def exact_bin(zs, ps):
    """Mean z, mean p, variance and dof of one bin in rational arithmetic."""
    z, p = [Fraction(v) for v in zs], [Fraction(v) for v in ps]
    n = len(z)
    zm, pm = sum(z) / n, sum(p) / n
    if n == 1:
        return zm, pm, None, 0
    if n >= 3 and max(z) > min(z):
        slope = (sum((a - zm) * (b - pm) for a, b in zip(z, p))
                 / sum((a - zm) ** 2 for a in z))
        rss = sum((b - pm - slope * (a - zm)) ** 2 for a, b in zip(z, p))
        return zm, pm, rss / (n - 2), n - 2
    return zm, pm, sum((b - pm) ** 2 for b in p) / (n - 1), n - 1


def looped_c4(n):
    """E[s]/sigma for normal samples of sizes n, one lgamma pair per element."""
    n = np.asarray(n, dtype=float)
    lg = [math.lgamma(k / 2) - math.lgamma((k - 1) / 2) for k in n.tolist()]
    return np.sqrt(2.0 / (n - 1)) * np.exp(lg)


def looped_smoothed_sigma(binned):
    """The per-bin moving median that `_smoothed_sigma` replaced."""
    with np.errstate(invalid="ignore"):
        s = np.sqrt(binned.variance) / looped_c4(np.maximum(binned.dof + 1, 2))
    half = mt.SMOOTHING_BINS // 2
    out = np.empty_like(s)
    for i in range(len(s)):
        window = s[max(0, i - half):i + half + 1]
        out[i] = np.nanmedian(window) if np.any(np.isfinite(window)) else np.nan
    return out


class TestBinningReference:
    """The closed-form binning against exact arithmetic, and the
    one-window smoothing against the loop it replaced."""

    @given(case=binnable_ensembles())
    def test_bins_match_exact_arithmetic(self, case):
        ensemble, bins = case
        z, p = ensemble.all_points()
        binned = mt.bin_ensemble(ensemble)
        keys = np.unique(bins)
        assert binned.count.tolist() == [int((bins == k).sum()) for k in keys]
        for row, k in enumerate(keys):
            zm, pm, var, dof = exact_bin(z[bins == k], p[bins == k])
            assert binned.dof[row] == dof
            assert abs(binned.z[row] - zm) <= 1e-15 * abs(zm)
            assert abs(binned.pressure_mean[row] - pm) <= 1e-15 * abs(pm)
            if var is None:
                assert math.isnan(binned.variance[row])
            elif var == 0:
                assert 0 <= binned.variance[row] < 1e-24
            else:
                assert abs(binned.variance[row] - var) <= 1e-12 * var

    @given(variance=arrays(np.float64, st.integers(1, 40),
                           elements=st.one_of(st.just(math.nan),
                                              st.floats(0.0, 1e3))),
           data=st.data())
    def test_smoothing_matches_loop_exactly(self, variance, data):
        n = len(variance)
        dof = data.draw(arrays(np.int64, n, elements=st.integers(0, 30)))
        binned = mt.BinnedStatistics(np.arange(1.0, n + 1), np.ones(n),
                                     variance, dof + 1, dof)
        got = mt._smoothed_sigma(binned)
        want = looped_smoothed_sigma(binned)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.all((got == want) | np.isnan(want))


class TestRandomErrorCurve:

    def test_zero_scatter_envelope_raises(self):
        binned = mt.bin_ensemble(two_bin_ensemble(np.full(14, -0.1)))
        with pytest.raises(ValueError, match="positive"):
            mt.random_error_curve(binned, 0.95)

    def test_point_envelope_bias_correction(self):
        p = -0.1 + 1e-4 * np.linspace(-1.0, 1.0, 14)
        binned = mt.bin_ensemble(two_bin_ensemble(p))
        env = mt.random_error_curve(binned, 0.95)
        c4_14 = 0.980971437      # E[s]/sigma for n = 14
        expected = stats.norm.ppf(0.975) * np.std(p, ddof=1) / c4_14
        assert env.half_width == pytest.approx([expected] * 2, rel=1e-6)

    def test_envelope_is_a_band_at_its_confidence(self):
        p = -0.1 + 1e-4 * np.linspace(-1.0, 1.0, 14)
        binned = mt.bin_ensemble(two_bin_ensemble(p))
        for confidence in (0.95, 0.99):
            env = mt.random_error_curve(binned, confidence)
            assert isinstance(env, mt.ConfidenceBand)
            assert env.confidence == confidence
            assert np.array_equal(env(env.z), env.half_width)

    def test_scatter_only_ensemble_reproduces_target_envelope(
            self, curves, monkeypatch):
        # generator tuned to a 0.55-0.6% relative envelope at short
        # separation; without separation jitter the recovered
        # per-point curve must sit on that envelope (the systematics
        # are smooth in z and do not widen it)
        monkeypatch.setattr(mt, "DEFAULT_SEPARATION_ERROR", 0.0)
        ens = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=11)
        env = mt.random_error_curve(mt.bin_ensemble(ens), 0.95)
        m = (env.z >= 170e-9) & (env.z <= 300e-9)
        ratio = env.half_width[m] / np.abs(curves["imp"].pressure_at(env.z[m]))
        assert 0.0050 < ratio.mean() < 0.0065
        assert ratio.min() > 0.0035
        assert ratio.max() < 0.0080

    def test_all_degenerate_raises(self):
        ens = mt.MeasurementEnsemble((np.array([[165e-9, -1.0]]),))
        with pytest.raises(ValueError, match="variance"):
            mt.random_error_curve(mt.bin_ensemble(ens), 0.95)

    def test_one_defined_bin_raises(self):
        # a band needs two rows, so one bin with a variance is too few
        ens = single_bin_ensemble(np.array([-0.1, -0.2, -0.3]))
        with pytest.raises(mt.SparseEnsembleError, match="1 of 1 "):
            mt.random_error_curve(mt.bin_ensemble(ens), 0.95)

    def test_bad_arguments(self):
        binned = mt.bin_ensemble(single_bin_ensemble(np.full(3, -0.1)))
        for kind in ("mean", "median"):
            with pytest.raises(ValueError, match="kind"):
                mt.random_error_curve(binned, 0.95, kind=kind)
        with pytest.raises(ValueError, match="confidence"):
            mt.random_error_curve(binned, 0.5)


class TestConfidenceBand:

    def test_zero_experimental_error_leaves_theory(self, curves):
        grid = np.linspace(200e-9, 700e-9, 21)
        band = mt.confidence_band(mt.theory_error_curve, expt_band(NEGLIGIBLE, grid),
                                  curves["imp"], 0.95)
        expected = mt.theory_error_curve(grid) * np.abs(
            curves["imp"].pressure_at(grid))
        np.testing.assert_allclose(band.half_width, expected, rtol=1e-12)

    def test_measured_band_to_pressure_ratio_anchors(self, curves):
        # experiment-level relative error: flat 0.586% at short range
        # rising towards 15% at the far end of the scan
        def expt_rel(z):
            s = 1.0 / (1.0 + np.exp(-(np.asarray(z) - 625e-9) / 82e-9))
            return np.sqrt(0.586 ** 2 + (14.82 * s) ** 2) / 100.0

        curve = curves["imp"]
        grid = np.geomspace(160e-9, 750e-9, 120)
        band = mt.confidence_band(
            mt.theory_error_curve,
            expt_band(expt_rel(grid) * np.abs(curve.pressure_at(grid)), grid),
            curve, 0.95)

        def ratio(z_nm):
            z = z_nm * 1e-9
            return 100 * band(z) / abs(curve.pressure_at(z))

        assert ratio(170) == pytest.approx(1.9, abs=0.3)
        for z_nm in (270, 300, 370):
            assert ratio(z_nm) == pytest.approx(1.4, abs=0.3)
        assert 12.0 < ratio(750) < 14.0

    def test_variance_rule_never_wider(self, curves):
        grid = np.linspace(200e-9, 700e-9, 21)
        expt = expt_band(0.01 * np.abs(curves["imp"].pressure_at(grid)), grid)
        quant = mt.confidence_band(mt.theory_error_curve, expt,
                                   curves["imp"], 0.95)
        var = mt.confidence_band(mt.theory_error_curve, expt,
                                 curves["imp"], 0.95, rule="variance")
        assert np.all(var.half_width <= quant.half_width * (1 + 1e-12))

    def test_curve_must_cover_the_grid(self, curves):
        # the band is not clipped to the curve: the curve's range is named
        lo, hi = curves["imp"].z[[0, -1]]
        for grid in (np.linspace(1e-6, 2e-6, 5), np.linspace(0.5 * lo, hi, 5)):
            with pytest.raises(ValueError, match=re.escape(
                    f"z outside curve range [{lo:.4e}, {hi:.4e}]")):
                mt.confidence_band(mt.theory_error_curve, expt_band(1.0, grid),
                                   curves["imp"], 0.95)

    def test_experimental_side_must_be_a_band(self, curves):
        with pytest.raises(TypeError, match="ConfidenceBand"):
            mt.confidence_band(mt.theory_error_curve, lambda z: np.ones_like(z),
                               curves["imp"], 0.95)

    def test_validation(self):
        z = np.linspace(200e-9, 400e-9, 5)
        with pytest.raises(ValueError, match="positive"):
            mt.ConfidenceBand(z, np.zeros(5), 0.95)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                mt.ConfidenceBand(z, np.append(np.ones(4), bad), 0.95)
        for bad in (z[::-1], np.append(z[:4], np.inf),
                    np.append(z[:4], np.nan)):
            with pytest.raises(ValueError, match="increasing"):
                mt.ConfidenceBand(bad, np.ones(5), 0.95)
        # an increasing grid that starts at or below z = 0
        for first in (0.0, -1e-7):
            with pytest.raises(ValueError, match="band z must be positive"):
                mt.ConfidenceBand(np.append(first, z[1:]), np.ones(5), 0.95)
        with pytest.raises(ValueError, match="confidence"):
            mt.ConfidenceBand(z, np.ones(5), 0.5)


class TestSyntheticGenerator:

    def test_same_seed_reproduces(self, curves):
        a = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=3,
                                           n_sets=2, points_per_set=40)
        b = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=3,
                                           n_sets=2, points_per_set=40)
        for sa, sb in zip(a.sets, b.sets):
            assert np.array_equal(sa, sb)

    def test_different_seeds_differ(self, curves):
        a = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=3,
                                           n_sets=1, points_per_set=40)
        b = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=4,
                                           n_sets=1, points_per_set=40)
        assert not np.array_equal(a.sets[0], b.sets[0])

    def test_set_prefix_stable_under_n_sets(self, curves):
        a = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=3,
                                           n_sets=2, points_per_set=40)
        b = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=3,
                                           n_sets=5, points_per_set=40)
        assert np.array_equal(a.sets[0], b.sets[0])
        assert np.array_equal(a.sets[1], b.sets[1])

    def test_zero_noise_lies_on_curve(self, curves):
        ens = mt.generate_synthetic_ensemble(curve=curves["imp"], noise=False,
                                             seed=5, n_sets=2,
                                             points_per_set=50)
        for s in ens.sets:
            assert np.array_equal(s[:, 1], curves["imp"].pressure_at(s[:, 0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-6])
    def test_point_sigma_needs_positive_finite_separations(self, bad):
        with pytest.raises(ValueError, match="z must be positive and finite"):
            mt.default_point_sigma([2e-7, bad])

    def test_uniform_systematic_drawn_once(self, curves, monkeypatch):
        # without per-point noise, the optical, curvature and radius
        # terms leave p/P - 1 = a + b z, one line across all sets
        monkeypatch.setattr(mt, "default_point_sigma", lambda z: 0.0)
        monkeypatch.setattr(mt, "DEFAULT_SEPARATION_ERROR", 0.0)
        ens = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=5,
                                             n_sets=3, points_per_set=50)
        z, p = ens.all_points()
        offsets = p / curves["imp"].pressure_at(z) - 1.0
        b, a = np.polyfit(z, offsets, 1)
        assert np.max(np.abs(offsets - (a + b * z))) < 1e-13
        # both coefficients are resolved and inside their half-ranges
        sphere = mt.DEFAULT_SPHERE
        assert 1e-4 < abs(a) <= (mt.DEFAULT_OPTICAL_REL
                                 + sphere.radius_error / sphere.radius)
        assert 1e-2 < abs(b) * sphere.radius <= 1.0

    @pytest.mark.parametrize("noise,expected", [
        (True, "799ff07ed3e2e1aadebd43480b0d31e8924dd175f9a1cd899c2404cdae0b4063"),
        (False, "505115ed6a37b988deda43dbd296719a52e5bd635ab89832e9f663ab204648ab"),
    ])
    def test_seed_7_ensemble_frozen(self, noise, expected):
        # bytes of the default ensemble around a closed-form curve
        lo, hi = mt.DEFAULT_Z_RANGE
        z = np.geomspace(0.92 * lo, 1.02 * hi, 80)
        ens = mt.generate_synthetic_ensemble(
            curve=PressureCurve(z, -1.3e-27 / z ** 4), noise=noise, seed=7)
        digest = hashlib.sha256()
        for s in ens.sets:
            digest.update(s.tobytes())
        assert digest.hexdigest() == expected

    def test_model_or_curve_required(self):
        with pytest.raises(ValueError, match="curve is required"):
            mt.generate_synthetic_ensemble(seed=1)

    @pytest.mark.parametrize("noise", [True, False])
    def test_curve_must_cover_range(self, noise):
        z = np.linspace(300e-9, 400e-9, 20)
        with pytest.raises(ValueError, match=re.escape(
                "z_range [1.6e-07, 7.5e-07] m is not covered by the "
                "generating curve's [3e-07, 4e-07] m")):
            mt.generate_synthetic_ensemble(
                curve=PressureCurve(z, -1.3e-27 / z ** 4), noise=noise)

    def test_separations_respect_range(self, default_ensemble):
        z, _ = default_ensemble.all_points()
        lo, hi = default_ensemble.z_range
        assert z.min() >= lo and z.max() <= hi


class TestExclusionTest:

    @staticmethod
    def flat_band(confidence=0.95):
        z = np.linspace(200e-9, 400e-9, 201)
        return mt.ConfidenceBand(z, np.ones_like(z), confidence)

    def test_zero_differences_accepted(self):
        band = self.flat_band()
        d = np.column_stack([np.linspace(210e-9, 390e-9, 100), np.zeros(100)])
        v = mt.exclusion_test(d, band, model_tag="ref")
        assert v.accepted and v.fraction_outside == 0.0
        assert v.excluded_windows == ()

    def test_concentrated_violations_open_a_window(self):
        band = self.flat_band()
        z_out = np.linspace(240e-9, 260e-9, 40)
        z_in = np.concatenate([np.linspace(200e-9, 219e-9, 300),
                               np.linspace(280e-9, 400e-9, 700)])
        d = np.column_stack([
            np.concatenate([z_out, z_in]),
            np.concatenate([np.full(40, 2.0), np.zeros(1000)])])
        v = mt.exclusion_test(d, band)
        assert not v.accepted
        assert v.n_outside == 40
        assert len(v.excluded_windows) == 1
        a, b = v.excluded_windows[0]
        assert 232e-9 <= a <= 236e-9
        assert 264e-9 <= b <= 269e-9

    def test_sparse_window_is_not_flagged(self):
        # ten blatant outliers with no neighbors cannot open a window
        band = self.flat_band()
        z_out = np.linspace(299e-9, 301e-9, 10)
        z_in = np.concatenate([np.linspace(200e-9, 265e-9, 55),
                               np.linspace(335e-9, 400e-9, 55)])
        d = np.column_stack([
            np.concatenate([z_out, z_in]),
            np.concatenate([np.full(10, 3.0), np.zeros(110)])])
        v = mt.exclusion_test(d, band)
        assert v.excluded_windows == ()
        assert v.n_outside == 10
        assert v.accepted     # 10/120 is below twice the miss rate

    def test_diffuse_violations_fail_global_fraction(self):
        band = self.flat_band()
        z = np.linspace(200e-9, 400e-9, 1000)
        d8 = np.column_stack([z, np.where(np.arange(1000) % 8 == 0, 2.0, 0.0)])
        v = mt.exclusion_test(d8, band)
        assert v.excluded_windows == ()
        assert v.fraction_outside == pytest.approx(0.125)
        assert not v.accepted
        d15 = np.column_stack([z, np.where(np.arange(1000) % 15 == 0,
                                           2.0, 0.0)])
        assert mt.exclusion_test(d15, band).accepted

    def test_windows_match_pointwise_vote(self):
        # three clumps of violations, the last one running off the band's
        # upper edge; windows must be the runs of the per-point vote
        band = self.flat_band()
        rng = np.random.default_rng(3)
        z = np.sort(rng.uniform(200e-9, 400e-9, 3000))
        bad = (((z > 230e-9) & (z < 262e-9)) | ((z > 295e-9) & (z < 325e-9))
               | (z > 372e-9)) & (rng.uniform(size=z.size) < 0.8)
        d = np.column_stack([z, np.where(bad, 2.0, 0.0)])
        flags = []
        for c in band.z:
            m = ((z >= c - mt.WINDOW_HALF_WIDTH)
                 & (z < c + mt.WINDOW_HALF_WIDTH))
            flags.append(m.sum() >= mt.MIN_WINDOW_POINTS
                         and bad[m].mean() > 0.5)
        expected, start = [], None
        for i, f in enumerate(flags + [False]):
            if f and start is None:
                start = i
            elif not f and start is not None:
                expected.append((band.z[start], band.z[i - 1]))
                start = None
        v = mt.exclusion_test(d, band)
        assert len(expected) == 3
        assert v.excluded_windows == tuple(expected)
        assert v.excluded_windows[-1][1] == band.z[-1]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mt.exclusion_test(np.zeros((0, 2)), self.flat_band())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_differences_rejected(self, bad):
        # a NaN fails the outside test and would count as inside the band
        d = np.column_stack([np.linspace(210e-9, 390e-9, 40),
                             np.full(40, bad)])
        with pytest.raises(ValueError, match="finite"):
            mt.exclusion_test(d, self.flat_band())
        d[:, 1] = 0.0
        d[7, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            mt.exclusion_test(d, self.flat_band())

    def test_verdict_serializes(self):
        band = self.flat_band()
        d = np.column_stack([np.linspace(210e-9, 390e-9, 50), np.zeros(50)])
        v = mt.exclusion_test(d, band, model_tag="ref")
        blob = json.loads(json.dumps(v.to_dict(), sort_keys=True))
        assert blob["model"] == "ref"
        assert blob["accepted"] is True
        assert blob["excluded_windows"] == []


class TestDefaultPipeline:
    """Frozen verdicts of the synthetic analysis at the default seed."""

    def test_generating_model_accepted(self, verdicts):
        v95, v99 = verdicts[0.95]["imp"], verdicts[0.99]["imp"]
        assert v95.accepted and v99.accepted
        assert v95.excluded_windows == () and v99.excluded_windows == ()
        assert v95.n_points == 4060
        assert v95.n_outside == 200
        assert v99.n_outside == 48

    def test_alternative_models_rejected(self, verdicts):
        for conf in (0.95, 0.99):
            for tag in ("drude", "schw"):
                v = verdicts[conf][tag]
                assert not v.accepted
                assert len(v.excluded_windows) == 1

    @pytest.mark.parametrize("conf,tag,a_nm,b_nm", [
        (0.95, "drude", 160.541, 469.031),
        (0.99, "drude", 160.541, 442.581),
        (0.95, "schw", 160.541, 337.009),
        (0.99, "schw", 160.541, 326.129),
    ])
    def test_window_edges_frozen(self, verdicts, conf, tag, a_nm, b_nm):
        (a, b), = verdicts[conf][tag].excluded_windows
        assert a == pytest.approx(a_nm * 1e-9, abs=2e-9)
        assert b == pytest.approx(b_nm * 1e-9, abs=3e-9)

    def test_fraction_ordering(self, verdicts):
        v = verdicts[0.95]
        assert (v["drude"].fraction_outside > v["schw"].fraction_outside
                > v["imp"].fraction_outside)

    def test_drude_differences_predominantly_positive(self, curves,
                                                      default_ensemble):
        z, p = default_ensemble.all_points()
        d = curves["drude"].pressure_at(z) - p
        assert (d > 0).mean() > 0.9


class TestSelfConsistency:

    def test_mean_outside_fraction_across_seeds(self, curves):
        # the generating model must miss its own band at close to the
        # nominal 5% rate when averaged over many syntheses
        fracs = []
        for seed in range(100):
            ens = mt.generate_synthetic_ensemble(curve=curves["imp"],
                                                 seed=seed)
            res = mt.run_exclusion_analysis(ens, {"imp": curves["imp"]},
                                            "imp", 0.95)
            fracs.append(res["imp"].fraction_outside)
        mean = float(np.mean(fracs))
        assert 0.035 < mean < 0.065


def band_and_test_per_model(ensemble, curves, reference, confidence):
    """run_exclusion_analysis as a band and a test for each model, on a
    fresh copy of the ensemble, with nothing shared between the models."""
    ensemble = mt.MeasurementEnsemble(ensemble.sets, ensemble.z_range)
    env = mt.random_error_curve(mt.bin_ensemble(ensemble), confidence)
    ref = curves[reference]
    rad = confidence * (mt.DEFAULT_SPHERE.radius_error / mt.DEFAULT_SPHERE.radius)

    expt_abs = mt.ConfidenceBand(env.z, np.sqrt(
        env(env.z) ** 2 + (rad * np.abs(ref.pressure_at(env.z))) ** 2), confidence)

    def theory_rel(zz):
        return mt.theory_error_curve(zz, confidence=confidence,
                                     include_separation_term=False)

    z, p = ensemble.all_points()
    out = {}
    for tag, curve in curves.items():
        band = mt.confidence_band(theory_rel, expt_abs, curve, confidence,
                                  rule="variance")
        out[tag] = mt.exclusion_test(
            np.column_stack([z, curve.pressure_at(z) - p]), band, model_tag=tag)
    return out


def assert_same_verdicts(got, want):
    """Counts, windows and verdicts, and the band and differences behind
    them, bit for bit."""
    assert list(got) == list(want)
    for tag in want:
        assert got[tag] == want[tag]
        for name in ("z", "half_width"):
            assert np.array_equal(getattr(got[tag].band, name),
                                  getattr(want[tag].band, name))
        assert np.array_equal(got[tag].differences, want[tag].differences)


class TestOnePassBandTest:
    """run_exclusion_analysis shares the envelope, the sort of z and the
    window indices across models, and an ensemble's binning and smoothed
    scatter across calls; the results are those of a band and a test per
    model."""

    @pytest.fixture(scope="class")
    def with_narrow(self, curves):
        # a curve on the sampling range only, not the padded generator grid
        grid = np.geomspace(*mt.DEFAULT_Z_RANGE, 50)
        return {**curves,
                "narrow": PressureCurve(grid, curves["schw"].pressure_at(grid))}

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_equals_a_band_and_a_test_per_model(self, curves, with_narrow,
                                                confidence):
        for seed in range(1, 21):
            ens = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=seed)
            assert_same_verdicts(
                mt.run_exclusion_analysis(ens, with_narrow, "imp", confidence),
                band_and_test_per_model(ens, with_narrow, "imp", confidence))

    def test_kept_arrays_are_read_only(self, curves):
        sets = tuple(mt.generate_synthetic_ensemble(
            curve=curves["imp"], seed=3, n_sets=2, points_per_set=200).sets)
        source = [np.array(s) for s in sets]
        ens = mt.MeasurementEnsemble(source)
        binned = mt.bin_ensemble(ens)
        env = mt.random_error_curve(binned, 0.95)
        kept = [*ens.sets, *ens.all_points(), binned.z, binned.pressure_mean,
                binned.variance, binned.count, binned.dof, *binned._smoothed,
                env.z, env.half_width, curves["imp"].z, curves["imp"].pressure]
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        # the ensemble holds a copy: its source stays writable, and
        # writing into it changes nothing that was kept
        source[0][0, 1] = 1.0
        assert ens.sets[0][0, 1] == sets[0][0, 1]
        assert mt.bin_ensemble(ens) is binned

    def test_envelope_is_smoothed_once_for_both_levels(self, curves,
                                                       monkeypatch):
        calls = []

        def spy(binned):
            calls.append(binned)
            return smoothed(binned)

        smoothed = mt._smoothed_sigma
        monkeypatch.setattr(mt, "_smoothed_sigma", spy)
        ens = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=4)
        verdicts = mt.run_exclusion_analysis(ens, curves, "imp", 0.95)
        binned = mt.bin_ensemble(ens)
        env = mt.random_error_curve(binned, 0.95, kind="point")
        assert len(calls) == 1 and calls[0] is binned
        assert mt.bin_ensemble(ens) is binned
        assert np.array_equal(verdicts["imp"].band.z, env.z)
        mt.run_exclusion_analysis(ens, curves, "imp", 0.99)
        again = mt.random_error_curve(binned, 0.99)
        for name in ("z", "half_width"):
            assert np.array_equal(getattr(mt.random_error_curve(binned, 0.99), name),
                                  getattr(again, name))
        assert len(calls) == 1

    def test_levels_in_turn_match_fresh_ensembles(self, curves):
        # the model_exclusion demo tests 95 % and then 99 % on one ensemble
        for seed in (7, 12):
            shared = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=seed)
            for confidence in (0.95, 0.99):
                fresh = mt.generate_synthetic_ensemble(curve=curves["imp"],
                                                       seed=seed)
                assert_same_verdicts(
                    mt.run_exclusion_analysis(shared, curves, "imp", confidence),
                    mt.run_exclusion_analysis(fresh, curves, "imp", confidence))


class TestEnsembleCsv:

    def test_round_trip(self, curves, tmp_path):
        ens = mt.generate_synthetic_ensemble(curve=curves["imp"], seed=2,
                                             n_sets=3, points_per_set=20)
        path = tmp_path / "ensemble.csv"
        mt.save_ensemble_csv(ens, path)
        back = mt.load_ensemble_csv(path)
        assert len(back.sets) == 3
        assert back.z_range == ens.z_range
        for sa, sb in zip(ens.sets, back.sets):
            np.testing.assert_allclose(sb, sa, rtol=1e-9)

    def test_range_is_stated_exactly(self, tmp_path):
        # 15 significant digits, more than the .10e data columns carry
        z_range = (1.60000000000001e-7, 7.49999999999999e-7)
        ens = mt.MeasurementEnsemble((np.column_stack([z_range, (-1.0, -0.5)]),), z_range)
        path = tmp_path / "ensemble.csv"
        mt.save_ensemble_csv(ens, path, ["note"])
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# note", f"# z_range_m = {z_range[0]!r}, {z_range[1]!r}"]
        assert mt.load_ensemble_csv(path).z_range == z_range

    @pytest.mark.parametrize("comments", [
        "", "# z_range_m = 1.6e-07, 7.5e-07\n# z_range_m = 1.6e-07, 7.5e-07\n"])
    def test_range_comment_required_once(self, tmp_path, comments):
        path = tmp_path / "ensemble.csv"
        path.write_text(comments + "set_index,z_m,pressure_Pa\n0,3e-07,-1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expected one '# z_range_m = lo, hi' comment")):
            mt.load_ensemble_csv(path)

    @pytest.mark.parametrize("stated", ["1.6e-07", "1.6e-07, 7.5e-07, 8e-07",
                                        "1.6e-07, far", "7.5e-07, 1.6e-07"])
    def test_bad_range_comment_names_the_file(self, tmp_path, stated):
        path = tmp_path / "ensemble.csv"
        path.write_text(f"# z_range_m = {stated}\n"
                        "set_index,z_m,pressure_Pa\n0,3e-07,-1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            mt.load_ensemble_csv(path)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,p\n1e-7,-1.0\n")
        with pytest.raises(ValueError, match="header"):
            mt.load_ensemble_csv(path)

    def test_value_check_names_the_file(self, tmp_path):
        path = tmp_path / "ensemble.csv"
        path.write_text("# z_range_m = 1.6e-07, 7.5e-07\n"
                        "set_index,z_m,pressure_Pa\n0,3e-07,-1.0\n0,9e-07,-0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: set 0 has "
                                                       "separations outside")):
            mt.load_ensemble_csv(path)

    @pytest.mark.parametrize("index", ["1.0", "-1", "1e0", "one"])
    def test_set_index_must_be_a_count(self, tmp_path, index):
        path = tmp_path / "ensemble.csv"
        path.write_text("set_index,z_m,pressure_Pa\n0,2e-07,-1.0\n"
                        f"{index},3e-07,-0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            mt.load_ensemble_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("set_index,z_m,pressure_Pa\n")
        with pytest.raises(ValueError, match="no data"):
            mt.load_ensemble_csv(path)
