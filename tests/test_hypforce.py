"""Tests for the hypothetical-force layer.

The closed-form plate pressure is checked against an independent
brute-force depth integration, against analytic limiting cases, and
the constraint inversion against exact linearity and monotonicity
properties.
"""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from casimetry import hypforce as hf
from casimetry.constants import G_NEWTON
from casimetry.lifshitz import ReflectionModel, ThermalState, compute_pressure_curve
from casimetry.metrology import (ConfidenceBand, generate_synthetic_ensemble,
                                 run_exclusion_analysis)
from casimetry.optics import DrudeParameters, PermittivityFn


def _depth_integral(stack, lam):
    # integral of rho(xi) exp(-xi/lam) over depth, truncated where the
    # weight falls to 1e-16 of its surface value
    nodes, weights = leggauss(24)
    xi_max = lam * math.log(1e16)
    total = 0.0
    depth = 0.0
    for layer in stack.layers:
        top = depth
        bottom = min(depth + layer.thickness, xi_max)
        if top >= xi_max:
            break
        n_panels = max(1, int(math.ceil((bottom - top) / (lam / 3.0))))
        edges = np.linspace(top, bottom, n_panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            total += (layer.density * 0.5 * (b - a)
                      * np.dot(weights, np.exp(-x / lam)))
        depth = bottom
    return total


def yukawa_pressure_oracle(stack_a, stack_b, z, params):
    """Brute-force check of the plate pressure by depth integration.

    Integrates the piecewise-constant density profiles of both stacks
    against the exponential kernel numerically, with no knowledge of
    the closed-form density factors.
    """
    if not 0 < z < math.inf:
        raise ValueError("separation must be positive and finite")
    lam = params.lam
    ia = _depth_integral(stack_a, lam)
    ib = _depth_integral(stack_b, lam)
    return (-2.0 * math.pi * G_NEWTON * params.alpha_g
            * math.exp(-z / lam) * ia * ib)


@pytest.fixture(scope="module")
def stacks():
    return hf.coated_sphere_stack(), hf.coated_plate_stack()


@pytest.fixture(scope="module")
def powerlaw_band():
    z = np.geomspace(160e-9, 750e-9, 40)
    return ConfidenceBand(z, 2e-3 * (z / 3e-7) ** -3.3, 0.95)


class TestDensityFactor:

    def test_short_range_sees_surface(self, stacks):
        sphere, _ = stacks
        assert hf.density_factor(sphere, 1e-9) == pytest.approx(
            hf.DENSITY_AU, rel=1e-12)

    def test_long_range_sees_substrate(self, stacks):
        sphere, plate = stacks
        assert hf.density_factor(sphere, 1e-2) == pytest.approx(
            hf.DENSITY_SAPPHIRE, rel=1e-3)
        assert hf.density_factor(plate, 1e-2) == pytest.approx(
            hf.DENSITY_SI, rel=1e-3)

    def test_homogeneous_is_density(self):
        gold = hf.LayerStack((hf.Layer(hf.DENSITY_AU, math.inf),))
        for lam in (1e-9, 1e-7, 1e-3):
            assert hf.density_factor(gold, lam) == hf.DENSITY_AU

    def test_buried_layer_removal_is_attenuated(self, stacks):
        # dropping the Ti adhesion layer changes phi by at most the
        # density step attenuated through the 200 nm gold above it
        sphere, _ = stacks
        bare = hf.LayerStack((hf.Layer(hf.DENSITY_AU, 200e-9),
                              hf.Layer(hf.DENSITY_SAPPHIRE, math.inf)))
        for lam in (50e-9, 150e-9, 400e-9):
            delta = hf.density_factor(sphere, lam) - hf.density_factor(
                bare, lam)
            bound = (hf.DENSITY_TI - hf.DENSITY_SAPPHIRE) * math.exp(
                -200e-9 / lam)
            assert 0.0 < delta <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-7])
    def test_range_must_be_positive_and_finite(self, stacks, bad):
        with pytest.raises(ValueError, match="interaction range must be positive"):
            hf.density_factor(stacks[0], np.array([1e-7, bad]))


class TestPlatePressure:

    def test_homogeneous_gold_value(self):
        gold = hf.LayerStack((hf.Layer(hf.DENSITY_AU, math.inf),))
        got = hf.yukawa_plate_pressure(gold, gold, 200e-9,
                                       hf.YukawaParams(1.0, 100e-9))
        assert got == pytest.approx(-2.1095565e-16, rel=1e-6)
        assert got == pytest.approx(-2.11e-16, rel=5e-3)

    def test_closed_form_structure(self, stacks):
        # doubling alpha doubles the pressure; range enters through
        # lam^2 exp(-z/lam) and the density factors only
        sphere, plate = stacks
        p1 = hf.yukawa_plate_pressure(sphere, plate, 300e-9,
                                      hf.YukawaParams(1.0, 150e-9))
        p2 = hf.yukawa_plate_pressure(sphere, plate, 300e-9,
                                      hf.YukawaParams(2.0, 150e-9))
        assert p2 == pytest.approx(2 * p1, rel=1e-12)
        assert p1 < 0

    def test_zero_strength(self, stacks):
        sphere, plate = stacks
        prm = hf.YukawaParams(0.0, 100e-9)
        assert hf.yukawa_plate_pressure(sphere, plate, 300e-9, prm) == 0.0
        assert yukawa_pressure_oracle(sphere, plate, 300e-9, prm) == 0.0

    def test_oracle_matches_homogeneous(self):
        gold = hf.LayerStack((hf.Layer(hf.DENSITY_AU, math.inf),))
        prm = hf.YukawaParams(1.0, 100e-9)
        c = hf.yukawa_plate_pressure(gold, gold, 200e-9, prm)
        o = yukawa_pressure_oracle(gold, gold, 200e-9, prm)
        assert o == pytest.approx(c, rel=1e-9)

    def test_oracle_matches_coated_stacks(self, stacks):
        sphere, plate = stacks
        prm = hf.YukawaParams(1.0, 150e-9)
        c = hf.yukawa_plate_pressure(sphere, plate, 200e-9, prm)
        o = yukawa_pressure_oracle(sphere, plate, 200e-9, prm)
        assert o == pytest.approx(c, rel=1e-9)

    def test_oracle_agreement_over_grid(self, stacks):
        sphere, plate = stacks
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for z in np.geomspace(160e-9, 750e-9, 10):
                for lam in np.geomspace(10e-9, 1e-6, 10):
                    prm = hf.YukawaParams(1.0, float(lam))
                    c = hf.yukawa_plate_pressure(sphere, plate, float(z), prm)
                    o = yukawa_pressure_oracle(sphere, plate, float(z), prm)
                    assert o == pytest.approx(c, rel=1e-8)

    def test_long_range_warns(self, stacks):
        sphere, plate = stacks
        with pytest.warns(UserWarning, match="plate extent"):
            hf.yukawa_plate_pressure(sphere, plate, 300e-9,
                                     hf.YukawaParams(1.0, 800e-9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hf.yukawa_plate_pressure(sphere, plate, 300e-9,
                                     hf.YukawaParams(1.0, 650e-9))

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_separation(self, stacks, z):
        sphere, plate = stacks
        with pytest.raises(ValueError, match="finite"):
            hf.yukawa_plate_pressure(sphere, plate, [2e-7, z],
                                     hf.YukawaParams(1.0, 1e-7))

    def test_invalid_separation(self, stacks):
        sphere, plate = stacks
        with pytest.raises(ValueError):
            hf.yukawa_plate_pressure(sphere, plate, -1e-9,
                                     hf.YukawaParams(1.0, 1e-7))

    @pytest.mark.parametrize("alpha_g,lam", [
        (math.nan, 1e-7), (math.inf, 1e-7), (-math.inf, 1e-7),
        (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1e-7),
        ("1e10", 1e-7), (1.0, "1e-7")])
    def test_non_finite_parameters_rejected(self, alpha_g, lam):
        # before, alpha_g = nan gave a nan pressure and lam = inf gave -inf;
        # a numeric string is refused, not parsed
        with pytest.raises(ValueError, match="finite"):
            hf.YukawaParams(alpha_g, lam)

    @pytest.mark.parametrize("z", [math.nan, math.inf, 0.0, -1e-9])
    def test_oracle_rejects_bad_separation(self, stacks, z):
        sphere, plate = stacks
        with pytest.raises(ValueError, match="finite"):
            yukawa_pressure_oracle(sphere, plate, z,
                                      hf.YukawaParams(1.0, 1e-7))


class TestStackValidation:

    def test_terminal_layer_must_be_infinite(self):
        with pytest.raises(ValueError, match="semi-infinite"):
            hf.LayerStack((hf.Layer(1e3, 1e-7),))

    def test_only_terminal_layer_infinite(self):
        with pytest.raises(ValueError, match="terminal"):
            hf.LayerStack((hf.Layer(1e3, math.inf),
                           hf.Layer(2e3, math.inf)))

    def test_positive_properties(self):
        with pytest.raises(ValueError):
            hf.Layer(-1e3, 1e-7)
        with pytest.raises(ValueError):
            hf.Layer(1e3, 0.0)
        # a numeric string is refused with the field's message
        with pytest.raises(ValueError, match="^layer thickness must be positive$"):
            hf.Layer(19e3, "1e-7")
        with pytest.raises(ValueError, match="^layer density must be positive and finite$"):
            hf.Layer("19e3", 1e-7)
        with pytest.raises(ValueError):
            hf.LayerStack(())
        with pytest.raises(ValueError):
            hf.YukawaParams(1.0, 0.0)

    def test_non_finite_density_rejected(self):
        for density in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                hf.Layer(density, 1e-7)
        # an infinite thickness is the substrate, not an error
        assert hf.Layer(1e3, math.inf).thickness == math.inf


class TestConstraintCurve:

    def test_band_scaling_is_exact(self, stacks, powerlaw_band):
        sphere, plate = stacks
        lams = np.geomspace(40e-9, 370e-9, 8)
        base = hf.constraint_curve(powerlaw_band, sphere, plate, lams)
        doubled_band = ConfidenceBand(powerlaw_band.z,
                                      2 * powerlaw_band.half_width, 0.95)
        doubled = hf.constraint_curve(doubled_band, sphere, plate, lams)
        np.testing.assert_allclose(doubled.alpha_max, 2 * base.alpha_max,
                                   rtol=1e-12)
        np.testing.assert_allclose(doubled.z_best, base.z_best, rtol=1e-12)

    def test_monotone_trends(self, stacks, powerlaw_band):
        sphere, plate = stacks
        lams = np.geomspace(40e-9, 370e-9, 12)
        cur = hf.constraint_curve(powerlaw_band, sphere, plate, lams)
        assert np.all(np.diff(cur.alpha_max) < 0)
        assert np.all(np.diff(cur.z_best) >= -1e-12)

    def test_minimizer_moves_into_interior(self, stacks, powerlaw_band):
        # short ranges are best constrained at the closest separation;
        # longer ranges move the optimum into the scan interior
        sphere, plate = stacks
        cur = hf.constraint_curve(powerlaw_band, sphere, plate,
                                  [40e-9, 100e-9])
        assert cur.z_best[0] == pytest.approx(160e-9, rel=1e-3)
        assert cur.z_best[1] > 200e-9

    def test_grid_refinement_stable(self, stacks, powerlaw_band):
        sphere, plate = stacks
        lams = np.geomspace(40e-9, 370e-9, 6)
        a = hf.constraint_curve(powerlaw_band, sphere, plate, lams)
        fine = np.array([scalar_constraint(powerlaw_band, sphere, plate, lam,
                                           240) for lam in lams])
        np.testing.assert_allclose(fine[:, 1], a.alpha_max, rtol=1e-2)

    def test_flat_band_linear_in_sigma(self, stacks):
        sphere, plate = stacks
        z = np.geomspace(160e-9, 750e-9, 30)
        lams = [60e-9, 150e-9]
        a = hf.constraint_curve(ConfidenceBand(z, np.full_like(z, 5e-4), 0.95),
                                sphere, plate, lams)
        b = hf.constraint_curve(ConfidenceBand(z, np.full_like(z, 5e-3), 0.95),
                                sphere, plate, lams)
        np.testing.assert_allclose(b.alpha_max, 10 * a.alpha_max, rtol=1e-12)

    def test_band_method_dominates_flat_worst_case(self, stacks,
                                                   powerlaw_band):
        sphere, plate = stacks
        lams = np.geomspace(40e-9, 370e-9, 6)
        banded = hf.constraint_curve(powerlaw_band, sphere, plate, lams)
        worst = np.full_like(powerlaw_band.z, powerlaw_band.half_width.max())
        flat = hf.constraint_curve(
            ConfidenceBand(powerlaw_band.z, worst, 0.95), sphere, plate, lams)
        assert np.all(banded.alpha_max <= flat.alpha_max * (1 + 1e-12))

    def test_interpolation(self, stacks, powerlaw_band):
        sphere, plate = stacks
        lams = np.geomspace(40e-9, 370e-9, 8)
        cur = hf.constraint_curve(powerlaw_band, sphere, plate, lams)
        assert cur.alpha_at(float(lams[3])) == pytest.approx(
            cur.alpha_max[3], rel=1e-12)
        mid = math.sqrt(lams[3] * lams[4])
        lo, hi = sorted((cur.alpha_max[3], cur.alpha_max[4]))
        assert lo < cur.alpha_at(mid) < hi

    def test_alpha_at_refuses_a_range_outside_the_curve(self):
        cur = hf.ConstraintCurve(((1e-7, 4.0, 2e-7), (2e-7, 1.0, 3e-7)))
        # the ends, as the file format writes them, are inside
        assert cur.alpha_at([1e-7 * (1 - 5e-13), 2e-7 * (1 + 5e-13)]) == pytest.approx(
            [4.0, 1.0], rel=1e-12)
        for lam in (4e-8, 9.99e-8, 2.01e-7, [1.5e-7, 3.7e-7], math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    "lambda outside curve range [1.0000e-07, 2.0000e-07] m")):
                cur.alpha_at(lam)

    def test_alpha_at_takes_a_curve_read_back_over_its_own_range(self, tmp_path):
        lams = np.geomspace(40e-9, 3.7000000000123e-7, 5)
        cur = hf.ConstraintCurve(np.column_stack([lams, 1.0 / lams, 2 * lams]))
        path = tmp_path / "constraints.csv"
        hf.save_constraint_csv(cur, path)
        back = hf.load_constraint_csv(path)
        assert back.lambdas[-1] == 3.7e-7 < lams[-1]
        assert back.alpha_at(lams) == pytest.approx(cur.alpha_max, rel=1e-9)
        for lam in (float(lams[0]) * (1 - 1e-6), float(lams[-1]) * (1 + 1e-6)):
            for curve in (cur, back):
                with pytest.raises(ValueError, match=re.escape(
                        "lambda outside curve range [4.0000e-08, 3.7000e-07] m: "
                        f"{lam!r}")):
                    curve.alpha_at([lams[2], lam])

    def test_entries_are_one_array_with_column_views(self):
        rows = ((1e-7, 4.0, 2e-7), (2e-7, 1.0, 3e-7))
        cur = hf.ConstraintCurve(rows)
        assert cur.entries.shape == (2, 3) and not cur.entries.flags.writeable
        for k, column in enumerate((cur.lambdas, cur.alpha_max, cur.z_best)):
            assert np.shares_memory(column, cur.entries)
            assert column.tolist() == [row[k] for row in rows]
        for bad in ((), (1e-7, 4.0, 2e-7), ((1e-7, 4.0),), [[[1e-7, 4.0, 2e-7]]]):
            with pytest.raises(ValueError, match=re.escape("(n, 3) array")):
                hf.ConstraintCurve(bad)

    def test_validation(self, stacks, powerlaw_band):
        sphere, plate = stacks
        with pytest.raises(ValueError):
            hf.constraint_curve(powerlaw_band, sphere, plate, [])
        with pytest.raises(ValueError):
            hf.constraint_curve(powerlaw_band, sphere, plate, [-1e-9])
        # a repeated range is refused before the search runs
        with pytest.raises(ValueError, match="distinct"):
            hf.constraint_curve(powerlaw_band, sphere, plate, [1e-7, 2e-7, 1e-7])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                hf.constraint_curve(powerlaw_band, sphere, plate, [1e-7, bad])
        with pytest.raises(ValueError, match="increasing"):
            hf.ConstraintCurve(((2e-7, 1.0, 2e-7), (1e-7, 2.0, 2e-7)))
        with pytest.raises(ValueError, match="positive"):
            hf.ConstraintCurve(((1e-7, 0.0, 2e-7),))

    @pytest.mark.parametrize("entry,message", [
        ((math.nan, 1.0, 2e-7), "ranges must be increasing, positive and finite"),
        ((1e-7, 1.0, math.nan), "z_best must be finite"),
        ((1e-7, math.inf, 2e-7), "alpha_max must be positive and finite"),
    ])
    def test_non_finite_entry_rejected(self, entry, message):
        # each used to slip past a `<=` or `>` comparison
        with pytest.raises(ValueError, match=message):
            hf.ConstraintCurve(((5e-8, 1.0, 2e-7), entry))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_constraint(band, stack_a, stack_b, lam, coarse_points):
    """The per-range search that `constraint_curve` replaced: a coarse
    grid, then a scalar golden-section search on log z."""
    params = hf.YukawaParams(1.0, lam)

    def objective(z):
        return (float(band(z))
                / abs(hf.yukawa_plate_pressure(stack_a, stack_b, z, params)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = np.geomspace(band.z[0], band.z[-1], coarse_points)
        vals = band(grid) / np.abs(
            hf.yukawa_plate_pressure(stack_a, stack_b, grid, params))
        i = int(np.argmin(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        a, b = math.log(lo), math.log(hi)
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = objective(math.exp(c)), objective(math.exp(d))
        while (b - a) > 1e-4:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = objective(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = objective(math.exp(d))
        z = math.exp(0.5 * (a + b))
        return z, objective(z)


class TestLockstepSearch:
    """The all-range search equals the scalar search it replaced."""

    @pytest.mark.parametrize("exponent", [-3.3, -8.0])
    @pytest.mark.parametrize("coarse_points", [60])
    def test_matches_scalar_search(self, stacks, exponent, coarse_points):
        # -3.3 puts short ranges at the lower grid edge, -8 puts long
        # ranges at the upper one; 60 is constraint_curve's coarse grid
        sphere, plate = stacks
        z = np.geomspace(160e-9, 750e-9, 40)
        band = ConfidenceBand(z, 2e-3 * (z / 3e-7) ** exponent, 0.95)
        lams = np.geomspace(40e-9, 370e-9, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cur = hf.constraint_curve(band, sphere, plate, lams)
        want = np.array([scalar_constraint(band, sphere, plate, lam,
                                           coarse_points) for lam in lams])
        np.testing.assert_allclose(cur.z_best, want[:, 0], rtol=1e-15, atol=0)
        np.testing.assert_allclose(cur.alpha_max, want[:, 1], rtol=1e-15,
                                   atol=0)

    def test_short_range_underflowing_at_the_far_end(self, stacks,
                                                      powerlaw_band):
        # e^{-z/lam} underflows to 0 near 750 nm for lam = 1 nm, but the
        # bound is set near 160 nm, where the pressure is finite
        sphere, plate = stacks
        lams = [1e-9, 3e-9, 1e-7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = hf.constraint_curve(powerlaw_band, sphere, plate, lams)
        assert np.all(np.isfinite(mixed.alpha_max) & (mixed.alpha_max > 0))
        alone = [hf.constraint_curve(powerlaw_band, sphere, plate, [lam])
                 for lam in lams]
        for k, curve in enumerate(alone):
            assert np.array_equal(curve.entries[0], mixed.entries[k])
        want = scalar_constraint(powerlaw_band, sphere, plate, 1e-9, 60)
        assert mixed.z_best[0] == pytest.approx(want[0], rel=1e-15)
        assert mixed.alpha_max[0] == pytest.approx(want[1], rel=1e-15)
        assert mixed.z_best[0] == pytest.approx(powerlaw_band.z[0], rel=1e-3)

    def test_range_with_no_finite_pressure_rejected(self, stacks,
                                                    powerlaw_band):
        sphere, plate = stacks
        with pytest.raises(ValueError, match="zero reference pressure"):
            hf.constraint_curve(powerlaw_band, sphere, plate, [1e-10, 1e-7])

    def test_warns_once_for_the_longest_range(self, stacks, powerlaw_band):
        sphere, plate = stacks
        with pytest.warns(UserWarning, match="plate extent") as record:
            hf.constraint_curve(powerlaw_band, sphere, plate,
                                [1e-6, 3e-6, 2e-6])
        assert len(record) == 1
        assert "3e-06 m" in str(record[0].message)


@pytest.fixture(scope="module")
def exclusion_band():
    """The impedance band that `casimetry exclusion` writes at 95 %, seed 1."""
    eps = PermittivityFn.from_drude(DrudeParameters(1.37e16, 5.3e13))
    model = ReflectionModel("impedance", eps, 1.37e16)
    grid = np.geomspace(0.92 * 160e-9, 1.02 * 750e-9, 80)
    curve = compute_pressure_curve(model, grid, ThermalState(300.0))
    ensemble = generate_synthetic_ensemble(curve=curve, seed=1)
    verdicts = run_exclusion_analysis(ensemble, {"impedance": curve},
                                      "impedance", 0.95)
    return verdicts["impedance"].band


@pytest.mark.xfail(strict=True, reason="the golden-section search stops up to "
                   "a few percent above the minimum on the band's nodes")
def test_bound_is_the_minimum_over_the_band_nodes(stacks, exclusion_band):
    # the band is linear between its nodes, and on each segment
    # (a + b z) e^{z/lam} has at most an interior maximum, so the minimum
    # of half_width / |P_Yuk| over z lies on a node
    sphere, plate = stacks
    band = exclusion_band
    lams = np.geomspace(40e-9, 370e-9, 100)
    curve = hf.constraint_curve(band, sphere, plate, lams)
    ratio = np.array([band.half_width / np.abs(hf.yukawa_plate_pressure(
        sphere, plate, band.z, hf.YukawaParams(1.0, lam))) for lam in lams])
    np.testing.assert_allclose(curve.alpha_max, ratio.min(axis=1), rtol=1e-9,
                               atol=0)
    np.testing.assert_allclose(curve.z_best, band.z[ratio.argmin(axis=1)],
                               rtol=1e-9, atol=0)


class TestFileFormats:

    def test_stack_round_trip(self, tmp_path, stacks):
        sphere, _ = stacks
        path = tmp_path / "stack.txt"
        path.write_text("# sphere coating\n"
                        "19.28e3 200\n"
                        "4.51e3 10\n"
                        "4.1e3 inf\n")
        loaded = hf.load_layer_stack(path)
        assert len(loaded.layers) == 3
        for got, want in zip(loaded.layers, sphere.layers):
            assert got.density == pytest.approx(want.density)
            assert got.thickness == pytest.approx(want.thickness)

    def test_stack_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("19.28e3 200 77\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            hf.load_layer_stack(bad)
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no layers"):
            hf.load_layer_stack(empty)

    @pytest.mark.parametrize("row", ["4.51e3 abc", "4.51e3 nan", "nan 10",
                                     "4.51e3", "4.51e3, 10, 1"])
    def test_bad_field_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "stack.txt"
        path.write_text(f"# coating\n19.28e3 200  # gold\n{row}\n4.1e3 inf\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 2")):
            hf.load_layer_stack(path)

    def test_layer_check_names_the_file(self, tmp_path):
        path = tmp_path / "stack.txt"
        path.write_text("19.28e3 inf\n4.1e3 inf\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: only the terminal layer may be infinite")):
            hf.load_layer_stack(path)

    def test_constraint_csv_round_trip(self, tmp_path, stacks,
                                       powerlaw_band):
        sphere, plate = stacks
        cur = hf.constraint_curve(powerlaw_band, sphere, plate,
                                  np.geomspace(40e-9, 370e-9, 5))
        path = tmp_path / "constraints.csv"
        hf.save_constraint_csv(cur, path)
        back = hf.load_constraint_csv(path)
        np.testing.assert_allclose(back.lambdas, cur.lambdas, rtol=1e-9)
        np.testing.assert_allclose(back.alpha_max, cur.alpha_max, rtol=1e-9)
        np.testing.assert_allclose(back.z_best, cur.z_best, rtol=1e-9)

    def test_constraint_value_check_names_the_file(self, tmp_path):
        path = tmp_path / "constraints.csv"
        path.write_text("lambda_m,alpha_max,z_best_m\n"
                        "2e-07,1.0,2e-07\n1e-07,2.0,2e-07\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: interaction ranges must be increasing")):
            hf.load_constraint_csv(path)

    def test_save_refuses_ranges_equal_on_disk(self, tmp_path):
        curve = hf.ConstraintCurve(((1e-7, 1.0, 2e-7),
                                    (1.00000000001e-7, 2.0, 2e-7)))
        path = tmp_path / "constraints.csv"
        with pytest.raises(ValueError, match="collide"):
            hf.save_constraint_csv(curve, path)
        assert not path.exists()

    def test_constraint_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,alpha\n1e-7,1.0\n")
        with pytest.raises(ValueError, match="header"):
            hf.load_constraint_csv(path)
