"""Tests for the thermal Lifshitz pressure engine."""

import math

import numpy as np
import pytest

from casimetry import lifshitz
from casimetry.constants import C_LIGHT, HBAR, K_B
from casimetry.lifshitz import (MODELS, ConvergenceError, PressureCurve,
                                ReflectionModel, ThermalState,
                                casimir_free_energy, casimir_pressure,
                                compute_pressure_curve, default_l_max,
                                entropy_probe, matsubara_frequency)
from casimetry.optics import DrudeParameters, PermittivityFn

W_P = 1.37e16
GAMMA = 5.3e13
ZETA3 = 1.2020569031595943

EPS_DRUDE = PermittivityFn.from_drude(DrudeParameters(W_P, GAMMA))
EPS_PLASMA = PermittivityFn.from_drude(DrudeParameters(W_P, 0.0))

IDEAL = ReflectionModel("ideal")
IMP = ReflectionModel("impedance", EPS_DRUDE, W_P)
EXACT = ReflectionModel("exact", EPS_DRUDE, W_P)
DRUDE = ReflectionModel("drude", EPS_DRUDE)
SCHW = ReflectionModel("schwinger", EPS_DRUDE)
PLASMA = ReflectionModel("plasma", None, W_P)

ST300 = ThermalState(300.0)
ST1 = ThermalState(1.0)


class TestMatsubara:
    def test_first_frequency_at_room_temperature(self):
        # 2 pi k_B T / hbar at 300 K
        assert matsubara_frequency(300.0, 1) == pytest.approx(2.467790e14, rel=1e-6)

    def test_zero_index_is_zero(self):
        assert matsubara_frequency(77.0, 0) == 0.0

    def test_linear_in_index(self):
        assert matsubara_frequency(300.0, 7) == pytest.approx(
            7 * matsubara_frequency(300.0, 1), rel=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matsubara_frequency(-1.0, 1)
        with pytest.raises(ValueError):
            matsubara_frequency(300.0, -2)

    def test_default_l_max_reaches_target(self):
        l_max = default_l_max(300.0, 160e-9)
        assert l_max == 114
        y = 2 * 160e-9 * matsubara_frequency(300.0, l_max) / C_LIGHT
        assert y >= 30.0
        y_prev = 2 * 160e-9 * matsubara_frequency(300.0, l_max - 1) / C_LIGHT
        assert y_prev < 30.0

    def test_default_l_max_grows_at_low_temperature(self):
        assert default_l_max(1.0, 0.5e-6) == 10934


class TestThermalState:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalState(0.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ReflectionModel("impedance", EPS_DRUDE, 0.0)
        with pytest.raises(ValueError):
            ReflectionModel("drude", None)
        with pytest.raises(ValueError):
            ReflectionModel("NoSuchKind", EPS_DRUDE, W_P)
        assert ReflectionModel("ideal").kind == "ideal"

    @pytest.mark.parametrize("omega_p", [math.inf, -math.inf, math.nan, "1.37e16"])
    @pytest.mark.parametrize("kind", ["impedance", "exact", "plasma"])
    def test_non_finite_omega_p_rejected(self, kind, omega_p):
        with pytest.raises(ValueError, match="finite omega_p"):
            ReflectionModel(kind, EPS_DRUDE, omega_p)

    def test_factories_give_their_keys(self):
        # the three factories left build the models of their keys
        assert ReflectionModel.impedance(EPS_DRUDE, W_P) == IMP
        assert ReflectionModel.lifshitz_drude(EPS_DRUDE) == DRUDE
        assert ReflectionModel.lifshitz_schwinger(EPS_DRUDE) == SCHW
        models = (IMP, EXACT, DRUDE, SCHW, PLASMA, IDEAL)
        assert [m.kind for m in models] == [
            "impedance", "exact", "drude", "schwinger", "plasma", "ideal"]
        # the plasma model evaluates its own plasma permittivity
        xi = matsubara_frequency(300.0, 2)
        assert PLASMA.permittivity(xi) == EPS_PLASMA(xi)
        assert PLASMA.permittivity.label == EPS_PLASMA.label


def closed_reflection_pair(key, k, xi, eps):
    """(r_TM^2, r_TE^2) of an l >= 1 Matsubara term, written from the physics
    and not from lifshitz: k the wave number along the plates in 1/m, xi
    the imaginary frequency in rad/s, eps = eps(i xi)."""
    c = C_LIGHT
    if key in ("impedance", "exact"):
        # Leontovich impedance Z = 1/sqrt(eps); the exact one carries the
        # angle factor sqrt(1 - sin^2(theta0)/eps) with sin^2(theta0) =
        # (c k)^2 / ((c k)^2 + xi^2), into Z_TM and out of Z_TE
        z_tm = z_te = 1.0 / math.sqrt(eps)
        if key == "exact":
            angle = math.sqrt(1.0 - (c * k) ** 2 / ((c * k) ** 2 + xi ** 2) / eps)
            z_tm, z_te = z_tm * angle, z_te / angle
        cq = math.sqrt((c * k) ** 2 + xi ** 2)  # c times the vacuum q
        r_tm = (cq - z_tm * xi) / (cq + z_tm * xi)
        r_te = (z_te * cq - xi) / (z_te * cq + xi)
    else:
        # Fresnel coefficients of a half-space: q and k_eps the normal wave
        # numbers in vacuum and in the metal
        q = math.sqrt(k * k + (xi / c) ** 2)
        k_eps = math.sqrt(k * k + eps * (xi / c) ** 2)
        r_tm = (eps * q - k_eps) / (eps * q + k_eps)
        r_te = (q - k_eps) / (q + k_eps)
    return r_tm ** 2, r_te ** 2


class TestReflectionRules:
    """The rows of lifshitz.MODELS, called as the engine calls them: te_zero
    is the l = 0 TE coefficient r_perp^2, a constant or a function of
    (k, omega_p/c), and thermal maps (q, xi_l/c, eps(i xi_l)), with
    q = sqrt(k^2 + (xi_l/c)^2), to the l >= 1 pair (r_par^2, r_perp^2).
    Zero-frequency rules are exact statements, not approximations."""

    def test_zero_frequency_rules(self):
        k = 3.0e6
        rt = MODELS["impedance"].te_zero(k, W_P / C_LIGHT)
        expect = ((C_LIGHT * k - W_P) / (C_LIGHT * k + W_P)) ** 2
        assert rt == pytest.approx(expect, rel=1e-14)

        assert MODELS["drude"].te_zero == 0.0
        assert MODELS["schwinger"].te_zero == 1.0

        rt = MODELS["plasma"].te_zero(k, W_P / C_LIGHT)
        k0 = math.sqrt(k * k + (W_P / C_LIGHT) ** 2)
        assert rt == pytest.approx(((k0 - k) / (k0 + k)) ** 2, rel=1e-14)

        assert MODELS["ideal"].te_zero == 1.0

    @pytest.mark.parametrize("key", MODELS)
    def test_zero_frequency_tm_is_the_unit_channel(self, key, monkeypatch):
        # r_par^2 = 1 at l = 0: the engine's l = 0 term is the closed-form
        # r2 = 1 channel, 2 zeta(3), plus the TE channel's term
        rule = MODELS[key]
        y_p = 2.0 * np.geomspace(160e-9, 750e-9, 5) * W_P / C_LIGHT
        term, _ = lifshitz._zero_frequency_term(rule, y_p, "pressure")
        if rule.needs_omega_p:  # the TE channel alone, on the engine's panels
            monkeypatch.setitem(lifshitz._UNIT_CHANNEL, "pressure", 0.0)
            te, _ = lifshitz._zero_frequency_term(rule, y_p, "pressure")
        else:
            te = rule.te_zero * 2.0 * ZETA3
        assert np.all(term == 2.0 * ZETA3 + te)

    def test_impedance_kinds_share_zero_frequency_rule(self):
        k = np.logspace(4, 9, 40)
        imp, exact = MODELS["impedance"], MODELS["exact"]
        assert exact.te_zero is imp.te_zero
        np.testing.assert_array_equal(exact.te_zero(k, W_P / C_LIGHT),
                                      imp.te_zero(k, W_P / C_LIGHT))

    @pytest.mark.parametrize("key", ["impedance", "exact", "drude", "schwinger", "plasma"])
    def test_thermal_forms_match_their_closed_expressions(self, key):
        # each l >= 1 pair against its textbook form in physical variables
        # (k = k_perp in 1/m, xi in rad/s), at the model's own eps(i xi) and at
        # a small eps where the exact impedance's angle factor is large
        own = EPS_PLASMA if key == "plasma" else EPS_DRUDE
        for l in (1, 8, 60):
            xi = matsubara_frequency(300.0, l)
            for eps in (float(own(xi)), 3.0):
                for k in (2e5, 4e6, 9e7):
                    q = math.sqrt(k * k + (xi / C_LIGHT) ** 2)
                    got = MODELS[key].thermal(q, xi / C_LIGHT, eps)
                    expect = closed_reflection_pair(key, k, xi, eps)
                    assert got == pytest.approx(expect, rel=1e-12, abs=0.0), (l, eps, k)

    def test_bounded_on_grid(self):
        xi = matsubara_frequency(300.0, 3)
        k = np.logspace(3, 10, 60)
        xic = xi / C_LIGHT
        for model in (IMP, EXACT, DRUDE, SCHW, PLASMA, IDEAL):
            eps = model.permittivity(xi) if model.permittivity else None
            rp, rt = MODELS[model.kind].thermal(np.sqrt(k * k + xic * xic), xic, eps)
            assert np.all((rp >= 0.0) & (rp <= 1.0))
            assert np.all((rt >= 0.0) & (rt <= 1.0))

    def test_large_permittivity_approaches_ideal(self):
        huge = PermittivityFn(lambda xi: np.full_like(np.asarray(xi, float), 1e14),
                              label="huge")
        for key in ("impedance", "drude"):
            xi = matsubara_frequency(300.0, 1)
            k, xic = 1e7, xi / C_LIGHT
            rp, rt = MODELS[key].thermal(np.sqrt(k * k + xic * xic), xic, huge(xi))
            assert rp > 1 - 1e-5
            assert rt > 1 - 1e-5

    def test_exact_impedance_first_order_bound(self):
        # the mass-shell refinement shifts either squared coefficient by
        # at most sin^2(theta0)/eps to first order
        for l in (1, 5, 20, 50, 114):
            xi = matsubara_frequency(300.0, l)
            eps = float(EPS_DRUDE(xi))
            k = np.logspace(5, 8.5, 50)
            xic = xi / C_LIGHT
            q = np.sqrt(k * k + xic * xic)
            s = (k / q) ** 2
            rp_a, rt_a = MODELS["impedance"].thermal(q, xic, eps)
            rp_b, rt_b = MODELS["exact"].thermal(q, xic, eps)
            assert np.all(np.abs(rp_b - rp_a) <= s / eps + 1e-12)
            assert np.all(np.abs(rt_b - rt_a) <= s / eps + 1e-12)


class TestIdealMetalLimits:
    """Analytic limits of the ideal-metal pressure pin the engine."""

    @pytest.mark.parametrize("z", [0.5e-6, 1.0e-6, 2.0e-6])
    def test_low_temperature_limit(self, z):
        p = casimir_pressure(IDEAL, z, ST1)
        p0 = -math.pi ** 2 * HBAR * C_LIGHT / (240.0 * z ** 4)
        assert p == pytest.approx(p0, rel=1e-3)
        # far tighter than the 0.1% physics requirement
        assert p == pytest.approx(p0, rel=1e-8)

    def test_classical_limit(self):
        # high-T limit is the l = 0 term alone: P -> -zeta(3) k_B T/(4 pi z^3)
        z = 8.0e-6
        p = casimir_pressure(IDEAL, z, ST300)
        p_cl = -ZETA3 * K_B * 300.0 / (4.0 * math.pi * z ** 3)
        assert p == pytest.approx(p_cl, rel=1e-3)

    def test_classical_approach_from_above(self):
        # at 5 um and 300 K the finite-T remainder is still about +1.9%
        z = 5.0e-6
        p = casimir_pressure(IDEAL, z, ST300)
        p_cl = -ZETA3 * K_B * 300.0 / (4.0 * math.pi * z ** 3)
        assert 1.015 < p / p_cl < 1.025

    def test_half_coefficient_constant_is_the_drude_limit(self):
        # -zeta(3) k_B T/(8 pi z^3) is reached only when the zero-frequency
        # transverse-electric channel is switched off; the full ideal-metal
        # pressure sits at twice that constant
        z = 8.0e-6
        p = casimir_pressure(IDEAL, z, ST300)
        p_half = -ZETA3 * K_B * 300.0 / (8.0 * math.pi * z ** 3)
        assert p / p_half == pytest.approx(2.0, abs=2e-3)

    def test_free_energy_low_temperature_limit(self):
        z = 1.0e-6
        f = casimir_free_energy(IDEAL, z, ST1)
        f0 = -math.pi ** 2 * HBAR * C_LIGHT / (720.0 * z ** 3)
        assert f == pytest.approx(f0, rel=1e-6)

    def test_zero_frequency_te_term_is_zeta3(self):
        # Schwinger minus Drude isolates the l = 0 transverse-electric
        # channel with unit reflectivity: exactly zeta(3) in scaled units
        z = 230e-9
        p_s = casimir_pressure(SCHW, z, ST300)
        p_d = casimir_pressure(DRUDE, z, ST300)
        pref = K_B * 300.0 / (8.0 * math.pi * z ** 3)
        assert (p_d - p_s) / pref == pytest.approx(ZETA3, rel=1e-8)


class TestFrozenValues:
    """Regression pins for separations used across the package."""

    @pytest.mark.parametrize("model,z,state,expect", [
        (IDEAL, 0.5e-6, ST1, -2.08020160e-02),
        (IDEAL, 1.0e-6, ST1, -1.30012600e-03),
        (IDEAL, 2.0e-6, ST1, -8.12578749e-05),
        (IDEAL, 5.0e-6, ST300, -3.23020112e-06),
        (IDEAL, 8.0e-6, ST300, -7.74085026e-07),
        (IMP, 160e-9, ST300, -1.10008407e+00),
        (IMP, 300e-9, ST300, -1.12842757e-01),
    ])
    def test_pressure(self, model, z, state, expect):
        assert casimir_pressure(model, z, state) == pytest.approx(expect, rel=1e-6)

    def test_free_energy(self):
        f = casimir_free_energy(IMP, 300e-9, ST300)
        assert f == pytest.approx(-1.22640701e-08, rel=1e-6)

    def test_model_differences_at_room_temperature(self):
        p_i = casimir_pressure(IMP, 300e-9, ST300)
        p_d = casimir_pressure(DRUDE, 300e-9, ST300)
        p_s = casimir_pressure(SCHW, 160e-9, ST300)
        p_i160 = casimir_pressure(IMP, 160e-9, ST300)
        assert (p_d - p_i) / p_i == pytest.approx(-0.041807, abs=2e-5)
        assert (p_s - p_i160) / p_i160 == pytest.approx(0.026875, abs=2e-5)


class TestModelRelations:
    def test_zero_frequency_dominance_ordering(self):
        # at separations past 1 um the l = 0 treatment dominates the spread
        z = np.array([1.0e-6, 2.0e-6])
        p_s = casimir_pressure(SCHW, z, ST300)
        p_i = casimir_pressure(IMP, z, ST300)
        p_d = casimir_pressure(DRUDE, z, ST300)
        assert np.all(-p_s >= -p_i) and np.all(-p_i >= -p_d)
        assert np.all(p_s < 0) and np.all(p_d < 0)

    def test_drude_gap_grows_with_separation(self):
        z = np.array([200e-9, 300e-9, 500e-9, 750e-9])
        p_i = casimir_pressure(IMP, z, ST300)
        p_d = casimir_pressure(DRUDE, z, ST300)
        gaps = list((p_d - p_i) / p_i)
        assert all(g < 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)

    def test_exact_impedance_close_to_leontovich(self):
        p_i = casimir_pressure(IMP, 200e-9, ST300)
        p_e = casimir_pressure(EXACT, 200e-9, ST300)
        assert abs((p_e - p_i) / p_i) < 1e-3


class TestEngineConsistency:
    def test_pressure_is_energy_gradient(self):
        z = 300e-9
        dz = 0.3e-9
        fp = casimir_free_energy(IMP, z + dz, ST300)
        fm = casimir_free_energy(IMP, z - dz, ST300)
        p = casimir_pressure(IMP, z, ST300)
        assert -(fp - fm) / (2 * dz) == pytest.approx(p, rel=1e-4)

    @pytest.mark.parametrize("z", [160e-9, 400e-9, 750e-9])
    def test_doubling_l_max_within_tail_bound(self, z, monkeypatch):
        l_max = default_l_max(300.0, z)
        p1, diag = casimir_pressure(IMP, z, ST300, return_diagnostics=True)
        monkeypatch.setattr(lifshitz, "default_l_max", lambda t, s: 2 * l_max)
        p2 = casimir_pressure(IMP, z, ST300)
        assert abs(p2 - p1) <= diag.tail_bound + 1e-30
        assert diag.l_max == l_max

    def test_quadrature_error_within_tolerance(self, monkeypatch):
        monkeypatch.setattr(lifshitz, "QUAD_TOL", 1e-10)
        p, diag = casimir_pressure(IMP, 300e-9, ST300, return_diagnostics=True)
        assert diag.quad_error <= 10 * lifshitz.QUAD_TOL * abs(p)

    def test_truncation_failure_is_loud(self, monkeypatch):
        monkeypatch.setattr(lifshitz, "default_l_max", lambda t, s: 3)
        with pytest.raises(ConvergenceError):
            casimir_pressure(IMP, 160e-9, ST300)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            casimir_pressure(IMP, 0.0, ST300)


class TestDimensionalScaling:
    """Every length scales by s and every frequency and temperature by 1/s:
    the Matsubara sum keeps its terms, the pressure scales by s^-4 and the
    free energy by s^-3, for every model."""

    Z = np.array([160e-9, 300e-9, 750e-9])

    @staticmethod
    def model(key, s):
        eps = PermittivityFn.from_drude(DrudeParameters(W_P / s, GAMMA / s))
        return ReflectionModel(key, eps, W_P / s)

    @pytest.mark.parametrize("key", MODELS)
    def test_pressure_and_free_energy_scale(self, key):
        base = self.model(key, 1.0)
        p0 = casimir_pressure(base, self.Z, ST300)
        f0 = casimir_free_energy(base, self.Z, ST300)
        for s in (2.0, 3.0, 0.37):
            model, state = self.model(key, s), ThermalState(300.0 / s)
            p = casimir_pressure(model, s * self.Z, state) * s ** 4
            f = casimir_free_energy(model, s * self.Z, state) * s ** 3
            np.testing.assert_allclose(p, p0, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(f, f0, rtol=1e-13, atol=0.0)


# S(3 K)/S(300 K) at 300 nm, bounds by class, and the sign of S(300 K)
NERNST_CLASSES = {
    "vanishes": (0.0, 1e-3),  # Nernst holds: measured 1.07e-4
    "rises": (2.0, math.inf),  # measured x6.8 (impedance, exact) and x2.4 (schwinger)
    "shrinks": (0.0, 0.5),  # measured x0.36
    "plateau": (0.8, 1.2),  # measured x1.06 (drude) and x0.86 (schwinger)
}
# (model, gamma of its Drude eps, class, sign): the CLI's relaxing eps and
# its gamma -> 0 limit; plasma builds its own gamma = 0 eps either way
NERNST_TABLE = [
    ("impedance", GAMMA, "rises", 1), ("impedance", 0.0, "vanishes", 1),
    ("exact", GAMMA, "rises", 1), ("exact", 0.0, "vanishes", 1),
    ("drude", GAMMA, "shrinks", -1), ("drude", 0.0, "plateau", -1),
    ("schwinger", GAMMA, "rises", 1), ("schwinger", 0.0, "plateau", 1),
    ("plasma", GAMMA, "vanishes", 1), ("plasma", 0.0, "vanishes", 1),
]


class TestEntropyProbe:
    @pytest.mark.parametrize("key, gamma, behaviour, sign", NERNST_TABLE,
                             ids=[f"{k}-gamma{g:g}" for k, g, *_ in NERNST_TABLE])
    def test_cooling_behaviour_of_each_shipped_pair(self, key, gamma, behaviour, sign):
        eps = PermittivityFn.from_drude(DrudeParameters(W_P, gamma))
        s = dict(entropy_probe(ReflectionModel(key, eps, W_P), 300e-9, [300.0, 3.0]))
        lo, hi = NERNST_CLASSES[behaviour]
        assert np.sign(s[300.0]) == sign
        assert lo < s[3.0] / s[300.0] < hi

    @pytest.mark.parametrize("temperatures", [[3.0, 10.0], [10.0, 10.0], [10.0, 0.0],
                                              [math.inf, 3.0], [10.0, math.nan], ["10", "3"],
                                              []])
    def test_scan_must_descend_through_positive_temperatures(self, temperatures):
        with pytest.raises(ValueError, match="^temperatures must be positive, finite "
                                             "and strictly descending$"):
            entropy_probe(DRUDE, 300e-9, temperatures)

    def test_drude_plateau_matches_asymptotic_series(self):
        # T -> 0 entropy defect of the dissipative metal:
        # S -> -(k_B zeta(3)/16 pi z^2) [1 - 4x + 12x^2 - 24x^3], x = c/(w_p z)
        z = 300e-9
        model = ReflectionModel("drude", EPS_PLASMA)
        (_, s3), = entropy_probe(model, z, [3.0])
        x = C_LIGHT / (W_P * z)
        series = -(K_B * ZETA3 / (16 * math.pi * z ** 2)) * (
            1 - 4 * x + 12 * x ** 2 - 24 * x ** 3)
        assert s3 == pytest.approx(series, rel=1e-2)

    def test_drude_entropy_defect_survives_cooling(self):
        z = 300e-9
        model = ReflectionModel("drude", EPS_PLASMA)
        results = dict(entropy_probe(model, z, [10.0, 3.0]))
        assert results[3.0] < 0
        assert abs(results[3.0] - results[10.0]) < 0.2 * abs(results[10.0])

    def test_impedance_and_plasma_entropy_vanish(self):
        z = 300e-9
        for model in (ReflectionModel("impedance", EPS_PLASMA, W_P), PLASMA):
            results = dict(entropy_probe(model, z, [300.0, 3.0]))
            assert results[300.0] > 0
            assert abs(results[3.0]) < abs(results[300.0]) / 10

    def test_plasma_entropy_scales_quadratically(self):
        z = 300e-9
        results = dict(entropy_probe(PLASMA, z, [10.0, 3.0]))
        ratio = results[3.0] / results[10.0]
        assert 0.06 < ratio < 0.13

    def test_frozen_values(self):
        z = 300e-9
        model = ReflectionModel("drude", EPS_PLASMA)
        (_, s3), = entropy_probe(model, z, [3.0])
        assert s3 == pytest.approx(-2.7951e-12, rel=1e-3)
        (_, s300), = entropy_probe(PLASMA, z, [300.0])
        assert s300 == pytest.approx(1.4528e-13, rel=1e-3)

    def test_rejects_bad_temperature_order(self):
        with pytest.raises(ValueError):
            entropy_probe(PLASMA, 300e-9, [3.0, 300.0])
        with pytest.raises(ValueError):
            entropy_probe(PLASMA, 300e-9, [300.0, -3.0])


class TestPressureCurve:
    def _curve(self, n=40):
        z = np.geomspace(160e-9, 750e-9, n)
        return compute_pressure_curve(IMP, z, ST300)

    def test_interpolation_accuracy(self):
        curve = self._curve()
        z_mid = np.sqrt(curve.z[:-1] * curve.z[1:])
        direct = casimir_pressure(IMP, z_mid, ST300)
        interp = curve.pressure_at(z_mid)
        assert np.max(np.abs(interp / direct - 1)) < 5e-4

    def test_range_is_enforced(self):
        curve = self._curve(10)
        with pytest.raises(ValueError):
            curve.pressure_at(100e-9)
        with pytest.raises(ValueError):
            curve.pressure_at(800e-9)
        with pytest.raises(ValueError):
            curve.pressure_at(np.array([200e-9, math.nan]))

    def test_validation(self):
        z = np.array([1e-7, 2e-7])
        with pytest.raises(ValueError):
            PressureCurve(z, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            PressureCurve(z[::-1], np.array([-1.0, -2.0]))

    @pytest.mark.parametrize("z, p", [
        ([1e-7, math.nan], [-2.0, -1.0]),
        ([1e-7, math.inf], [-2.0, -1.0]),
        ([math.nan, 1e-7], [-2.0, -1.0]),
        ([1e-7, 2e-7], [-2.0, math.nan]),
        ([1e-7, 2e-7], [-math.inf, -1.0]),
    ])
    def test_non_finite_input_rejected(self, z, p):
        with pytest.raises(ValueError):
            PressureCurve(np.array(z), np.array(p))
