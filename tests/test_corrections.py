"""Tests for geometry conversion and roughness averaging."""

import math
import re

import numpy as np
import pytest

from casimetry import corrections
from casimetry.corrections import (RoughnessProfile, SphereGeometry,
                                   load_roughness_profile, pft_pressure,
                                   roughness_corrected_pressure)
from casimetry.lifshitz import (ReflectionModel, ThermalState,
                                compute_pressure_curve)
from casimetry.optics import DrudeParameters, PermittivityFn

R_SPHERE = 148.7e-6


@pytest.fixture(scope="module")
def gold_curve():
    eps = PermittivityFn.from_drude(DrudeParameters(1.37e16, 5.3e13))
    model = ReflectionModel("impedance", eps, 1.37e16)
    z = np.geomspace(120e-9, 800e-9, 45)
    return compute_pressure_curve(model, z, ThermalState(300.0))


class TestSphereGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            SphereGeometry(0.0)
        with pytest.raises(ValueError):
            SphereGeometry(R_SPHERE, -1e-6)
        with pytest.raises(ValueError, match="finite"):
            SphereGeometry(R_SPHERE, math.nan)
        assert SphereGeometry(R_SPHERE).radius_error == 0.0


class TestPftPressure:
    def test_zero_gradient(self):
        assert pft_pressure(0.0, SphereGeometry(R_SPHERE)) == 0.0

    def test_measured_scale(self):
        p = pft_pressure(1.869e-3, SphereGeometry(R_SPHERE))
        assert p == pytest.approx(-1.869e-3 / (2 * math.pi * R_SPHERE), rel=1e-15)
        assert p == pytest.approx(-2.0, rel=1e-3)

    def test_linearity_and_radius_scaling(self):
        s1 = SphereGeometry(R_SPHERE)
        s2 = SphereGeometry(2 * R_SPHERE)
        g = 7.7e-4
        assert pft_pressure(3 * g, s1) == pytest.approx(3 * pft_pressure(g, s1),
                                                        rel=1e-15)
        assert pft_pressure(g, s2) == pytest.approx(0.5 * pft_pressure(g, s1),
                                                    rel=1e-15)

    @pytest.mark.parametrize("gradient", [math.nan, math.inf, -math.inf, "1e-3"])
    def test_non_finite_gradient_raises(self, gradient):
        # a numeric string is refused, not parsed
        with pytest.raises(ValueError, match="force_gradient must be finite"):
            pft_pressure(gradient, SphereGeometry(R_SPHERE))


class TestRoughnessProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoughnessProfile(np.array([1e-9, -1e-9]), np.array([0.5, -0.5]))
        with pytest.raises(ValueError, match="positive sum"):
            RoughnessProfile(np.array([1e-9, -1e-9]), np.array([0.0, 0.0]))
        for heights, weights in (([1e-9, 2e-9], [0.5]), ([[1e-9]], [[1.0]]), ([], [])):
            with pytest.raises(ValueError, match="matching 1-d arrays"):
                RoughnessProfile(np.array(heights), np.array(weights))

    @pytest.mark.parametrize("heights, weights", [
        ([1e-9], [0.5]), ([1e-9, -1e-9], [0.7, 0.4]), ([1e-9, 2e-9], [0.5, 0.5]),
        ([0.0, 4e-9], [3.0, 1.0])])
    def test_weights_normalized_and_heights_recentered(self, heights, weights):
        prof = RoughnessProfile(heights, weights)
        assert prof.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert prof.weights @ prof.heights == pytest.approx(0.0, abs=1e-24)
        np.testing.assert_allclose(prof.weights, np.divide(weights, sum(weights)),
                                   rtol=1e-15)
        np.testing.assert_allclose(np.diff(prof.heights), np.diff(heights), rtol=1e-12)

    def test_gaussian_moments(self, monkeypatch):
        sigma = 2.2e-9
        monkeypatch.setattr(corrections, "_GAUSSIAN_LEVELS", 31)
        prof = RoughnessProfile.gaussian(sigma)
        assert prof.weights @ prof.heights == pytest.approx(0.0, abs=1e-22)
        rms = math.sqrt(prof.weights @ prof.heights ** 2)
        assert rms == pytest.approx(sigma, rel=0.02)
        span = np.max(np.abs(prof.heights))
        assert span == pytest.approx(3 * sigma, rel=1e-12)

    def test_gaussian_degenerate(self):
        assert np.max(np.abs(RoughnessProfile.gaussian(0.0).heights)) == 0.0
        with pytest.raises(ValueError):
            RoughnessProfile.gaussian(-1e-9)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_gaussian_non_finite_width_rejected(self, sigma):
        with pytest.raises(ValueError):
            RoughnessProfile.gaussian(sigma)

    @pytest.mark.parametrize("heights, weights", [
        ([math.nan, 0.0], [0.5, 0.5]), ([-math.inf, math.inf], [0.5, 0.5]),
        ([-1e-9, 1e-9], [math.nan, 1.0]), ([-1e-9, 1e-9], [math.inf, 0.0])])
    def test_non_finite_levels_rejected(self, heights, weights):
        with pytest.raises(ValueError):
            RoughnessProfile(np.array(heights), np.array(weights))


def pair_sum(kernel, a, b, z):
    """The roughness average written out one height pair at a time."""
    return sum(wa * wb * kernel(z + (ha + hb))
               for ha, wa in zip(a.heights, a.weights)
               for hb, wb in zip(b.heights, b.weights))


class TestRoughnessAveraging:
    def test_identity_for_flat_surfaces(self):
        flat = RoughnessProfile.flat()
        p = roughness_corrected_pressure(lambda z: -1.0 / z ** 4, flat, flat, 2e-7)
        assert p == -1.0 / (2e-7) ** 4

    def test_two_point_closed_form(self):
        # 1/z^4 kernel: ratio = (1/2)[(1+x)^-4 + (1-x)^-4] - 1, about 10 x^2
        z = 200e-9
        h = 6e-9
        x = h / z
        two = RoughnessProfile(np.array([-h, h]), np.array([0.5, 0.5]))
        flat = RoughnessProfile.flat()
        kernel = lambda s: -1.0 / s ** 4
        p = roughness_corrected_pressure(kernel, two, flat, z)
        ratio = p / kernel(z) - 1.0
        exact = 0.5 * ((1 + x) ** -4 + (1 - x) ** -4) - 1.0
        assert ratio == pytest.approx(exact, rel=1e-12)
        assert ratio == pytest.approx(10 * x * x, rel=0.02)

    def test_jensen_direction_power_law(self):
        a = RoughnessProfile.gaussian(2.2e-9)
        b = RoughnessProfile.gaussian(3.5e-9)
        kernel = lambda s: -1.0 / s ** 4
        for z in (160e-9, 300e-9, 750e-9):
            assert roughness_corrected_pressure(kernel, a, b, z) < kernel(z)

    def test_jensen_direction_lifshitz(self, gold_curve):
        a = RoughnessProfile.gaussian(2.2e-9)
        b = RoughnessProfile.gaussian(3.5e-9)
        for z in (160e-9, 300e-9, 500e-9, 750e-9):
            p = roughness_corrected_pressure(gold_curve.pressure_at, a, b, z)
            assert p < gold_curve.pressure_at(z)

    def test_correction_small_and_decreasing(self, gold_curve):
        # synthetic profiles bounded by the measured peak heights give a
        # sub-percent correction that falls off with separation
        a = RoughnessProfile.gaussian(2.2e-9)
        b = RoughnessProfile.gaussian(3.5e-9)
        z = np.array([160e-9, 200e-9, 300e-9, 500e-9])
        p0 = gold_curve.pressure_at(z)
        p = roughness_corrected_pressure(gold_curve.pressure_at, a, b, z)
        ratios = list(np.abs(p / p0 - 1.0))
        assert ratios[0] < 0.01
        assert ratios == sorted(ratios, reverse=True)

    def test_monotone_ratio_power_law(self):
        a = RoughnessProfile(np.array([-5e-9, 5e-9]), np.array([0.5, 0.5]))
        b = RoughnessProfile(np.array([-8e-9, 8e-9]), np.array([0.5, 0.5]))
        kernel = lambda s: -1.0 / s ** 4
        zs = np.linspace(160e-9, 750e-9, 12)
        ratios = roughness_corrected_pressure(kernel, a, b, zs) / kernel(zs) - 1
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_kinked_kernel_takes_every_pair(self, gold_curve):
        # the log-log interpolant has a kink at every grid point; the
        # average reads it at every pair, in one call
        a = RoughnessProfile.gaussian(2.2e-9)
        b = RoughnessProfile.gaussian(3.5e-9)
        z = np.array([160e-9, 300e-9, 500e-9, 750e-9])
        calls = []

        def kernel(s):
            calls.append(s.size)
            return gold_curve.pressure_at(s)

        p = roughness_corrected_pressure(kernel, a, b, z)
        assert calls == [z.size * 81]
        np.testing.assert_allclose(p, pair_sum(gold_curve.pressure_at, a, b, z),
                                   rtol=1e-15, atol=0)

    def test_sign_changing_kernel_takes_every_pair(self):
        # a period of 19 nm puts nodes of both signs in every span; the
        # pairs cancel, so rounding is measured against the sum of |terms|
        a = RoughnessProfile.gaussian(3.0e-9)
        b = RoughnessProfile.gaussian(4.0e-9)
        kernel = lambda s: np.cos(s / 3e-9)
        z = np.array([160e-9, 300e-9, 750e-9])
        p = roughness_corrected_pressure(kernel, a, b, z)
        scale = pair_sum(lambda s: np.abs(kernel(s)), a, b, z)
        assert np.all(np.abs(p - pair_sum(kernel, a, b, z)) <= 1e-15 * scale)

    def test_nan_kernel_is_not_finite(self):
        a = RoughnessProfile.gaussian(2.2e-9)
        kernel = lambda s: np.where(s > 300e-9, np.nan, -1.0 / s ** 4)
        p = roughness_corrected_pressure(kernel, a, a, np.array([200e-9, 310e-9]))
        assert np.isfinite(p[0]) and np.isnan(p[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -200e-9])
    def test_bad_separation_is_refused_before_the_kernel(self, bad):
        # refused before the kernel runs: a NaN, which fails every
        # comparison, is never sorted among the other separations
        def kernel(s):
            raise AssertionError("the kernel ran")

        a = RoughnessProfile.gaussian(2.2e-9)
        with pytest.raises(ValueError, match="z must be positive and finite"):
            roughness_corrected_pressure(kernel, a, a, np.array([200e-9, bad]))

    def test_nine_pairs_pass_every_separation(self, monkeypatch):
        monkeypatch.setattr(corrections, "_GAUSSIAN_LEVELS", 3)
        a = RoughnessProfile.gaussian(2.2e-9)
        b = RoughnessProfile.gaussian(3.5e-9)
        z = np.array([160e-9, 300e-9])
        calls = []

        def kernel(s):
            calls.append(s.copy())
            return -1.0 / s ** 4

        p = roughness_corrected_pressure(kernel, a, b, z)
        assert len(calls) == 1 and np.all(np.diff(calls[0]) > 0)
        assert np.array_equal(calls[0], np.sort((z[:, None] + np.add.outer(
            a.heights, b.heights).ravel()).ravel()))
        assert p == pytest.approx(pair_sum(lambda s: -1.0 / s ** 4, a, b, z),
                                  rel=1e-15)

    @pytest.mark.parametrize("profile, most", [
        (RoughnessProfile(np.array([-2e-9, 0.0, 2e-9]),
                          np.array([0.25, 0.5, 0.25])), 5),
        (RoughnessProfile.gaussian(2.2e-9), 45)], ids=["three-level", "gaussian"])
    def test_coinciding_pairs_share_one_separation(self, profile, most):
        # the same profile on both faces: h_i + h_j = h_j + h_i exactly, so
        # at most n(n + 1)/2 of the n^2 sums per z are distinct, and on the
        # three-level grid -2 + 2 = 0 + 0 leaves 5
        z = np.array([160e-9, 300e-9, 750e-9])
        calls = []

        def kernel(s):
            calls.append(s.copy())
            return -1.0 / s ** 4

        p = roughness_corrected_pressure(kernel, profile, profile, z)
        pairs = z[:, None, None] + np.add.outer(profile.heights, profile.heights)
        assert len(calls) == 1 and np.all(np.diff(calls[0]) > 0)
        assert np.array_equal(calls[0], np.unique(pairs))
        assert calls[0].size <= z.size * most
        np.testing.assert_allclose(
            p, pair_sum(lambda s: -1.0 / s ** 4, profile, profile, z),
            rtol=1e-15, atol=0)

    def test_contact_is_an_error(self):
        two = RoughnessProfile(np.array([-30e-9, 30e-9]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="touch"):
            roughness_corrected_pressure(lambda s: -1.0 / s ** 4, two, two, 50e-9)


class TestLoader:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "prof.txt"
        f.write_text("# sphere side\n"
                     "-4.0 1.0\n"
                     "0.0  2.0   # flat part\n"
                     "4.0  1.0\n")
        prof = load_roughness_profile(f)
        assert prof.weights == pytest.approx([0.25, 0.5, 0.25])
        assert prof.heights == pytest.approx([-4e-9, 0.0, 4e-9], abs=1e-21)

    def test_bad_rows(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expected"):
            load_roughness_profile(f)
        f.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no histogram"):
            load_roughness_profile(f)

    @pytest.mark.parametrize("row", ["0.0 abc", "0.0 nan", "nan 1.0",
                                     "0.0", "0.0, 1.0, 2.0"])
    def test_bad_field_names_path_and_line(self, tmp_path, row):
        f = tmp_path / "prof.txt"
        f.write_text(f"# sphere side\n-4.0 1.0  # low\n\n{row}\n4.0 1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:4: expected 2")):
            load_roughness_profile(f)

    def test_profile_check_names_the_file(self, tmp_path):
        f = tmp_path / "prof.txt"
        f.write_text("-4.0 1.0\n4.0 -1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}: histogram needs")):
            load_roughness_profile(f)
