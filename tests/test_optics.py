import ast
import math
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from casimetry import optics
from casimetry.constants import EV_TO_RAD_S
from casimetry.lifshitz import ReflectionModel, matsubara_frequency
from casimetry.optics import (
    DrudeParameters,
    OpticalDataset,
    PermittivityFn,
    QuadratureError,
    drude_permittivity,
    load_optical_table,
    permittivity_imag_axis,
)

GOLD = DrudeParameters(omega_p=1.37e16, gamma=5.3e13)
PLASMA = PermittivityFn.from_drude(DrudeParameters(1.37e16, 0.0))  # 1 + wp^2/xi^2


def drude_table(omega_lo=1e12, omega_hi=1e18, per_decade=60,
                drude=GOLD) -> OpticalDataset:
    """Synthetic table sampled exactly from the Drude Im eps.

    Written against the closed form Im eps = wp^2 g / (w (w^2 + g^2)) so the
    dispersion transform has an independent analytic oracle.  n is pinned to
    0.5 and k chosen so that 2 n k reproduces Im eps.
    """
    decades = math.log10(omega_hi / omega_lo)
    omega = np.logspace(math.log10(omega_lo), math.log10(omega_hi),
                        int(round(decades * per_decade)) + 1)
    im_eps = drude.omega_p ** 2 * drude.gamma / (omega * (omega ** 2 + drude.gamma ** 2))
    n = np.full_like(omega, 0.5)
    k = im_eps / (2.0 * n)
    return OpticalDataset(omega, n, k, metal_name="Au-synthetic")


class TestLoadOpticalTable:
    def test_ev_conversion(self):
        ds = load_optical_table("# Au\n0.1 10.0 30.0\n1.0 0.2 6.5", unit_spec="eV")
        assert ds.omega == pytest.approx([0.1 * EV_TO_RAD_S, 1.0 * EV_TO_RAD_S])
        assert ds.n[0] == 10.0 and ds.k[1] == 6.5

    def test_wavelength_rows_sorted_ascending_in_omega(self):
        # micrometer rows in decreasing-frequency order
        text = "#unit: um\n0.5 1.0 2.0\n2.0 0.3 9.0\n1.0 0.5 4.0\n"
        ds = load_optical_table(text)
        assert np.all(np.diff(ds.omega) > 0)
        # the 2 um row has the lowest omega
        assert ds.k[0] == 9.0 and ds.k[-1] == 2.0

    def test_missing_column_names_row(self):
        with pytest.raises(ValueError, match="gold.txt:2: expected 3"):
            load_optical_table("0.1 10.0 30.0\n1.0 0.2", unit_spec="eV",
                               source="gold.txt")

    def test_non_numeric_names_row(self):
        with pytest.raises(ValueError, match="gold.txt:1: expected 3"):
            load_optical_table("a b c\n1.0 0.2 6.5", unit_spec="eV",
                               source="gold.txt")

    @pytest.mark.parametrize("x", ["0.0", "-0.3", "-inf"])
    def test_non_positive_frequency_names_row(self, x):
        text = f"#unit: eV\n0.1 1 1\n\n{x} 1 1\n0.2 1 1"
        with pytest.raises(ValueError,
                           match="gold.txt:4: frequency column must be > 0"):
            load_optical_table(text, source="gold.txt")

    def test_header_unit_used_when_no_override(self):
        ds = load_optical_table("#unit: eV\n0.1 1 1\n0.2 1 1")
        assert ds.omega[0] == pytest.approx(0.1 * EV_TO_RAD_S)

    def test_explicit_unit_beats_header(self):
        ds = load_optical_table("#unit: eV\n1e14 1 1\n2e14 1 1", unit_spec="rad/s")
        assert ds.omega[0] == pytest.approx(1e14)

    def test_no_unit_anywhere_is_an_error(self):
        with pytest.raises(ValueError, match="unit"):
            load_optical_table("0.1 1 1\n0.2 1 1")

    def test_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            load_optical_table("# only comments\n", unit_spec="eV")

    def test_comma_delimited_rows(self):
        ds = load_optical_table("0.1, 10.0, 30.0\n1.0, 0.2, 6.5", unit_spec="eV")
        assert ds.n[0] == 10.0

    def test_duplicate_omega_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_optical_table("0.1 1 1\n0.1 2 2", unit_spec="eV")

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="2"):
            load_optical_table("0.1 1 1", unit_spec="eV")

    @pytest.mark.parametrize("row", ["0.2 abc 1", "0.2 nan 1", "0.2 1 nan",
                                     "0.2 1", "0.2 1 1 1"])
    def test_bad_field_names_source_and_line(self, row):
        text = f"#unit: eV\n0.1 1 1  # inline comment\n\n{row}\n"
        with pytest.raises(ValueError, match="gold.txt:4: expected 3"):
            load_optical_table(text, source="gold.txt")

    def test_unknown_header_unit_names_the_line(self):
        with pytest.raises(ValueError, match="gold.txt:2: unknown unit"):
            load_optical_table("0.1 1 1\n#unit: parsec\n0.2 1 1",
                               source="gold.txt")

    def test_conflicting_header_units_name_the_line(self):
        # one unit may be declared twice, two different units may not
        ds = load_optical_table("#unit: eV\n0.1 1 1\n#unit: ev\n0.2 1 1")
        assert ds.omega[0] == pytest.approx(0.1 * EV_TO_RAD_S)
        with pytest.raises(ValueError, match="gold.txt:2: conflicting unit"):
            load_optical_table("#unit: eV\n#unit: um\n0.1 1 1\n0.2 1 1",
                               source="gold.txt")

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            load_optical_table("0.1 1 1\n0.0 1 1", unit_spec="eV")


class TestDatasetInvariants:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            OpticalDataset(np.array([1e14, 2e14]), np.array([1.0, 1.0]),
                           np.array([1.0, -0.1]))

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ValueError):
            OpticalDataset(np.array([0.0, 2e14]), np.array([1.0, 1.0]),
                           np.array([1.0, 0.1]))

    @pytest.mark.parametrize("n, k", [([math.nan, 1.0], [1.0, 1.0]),
                                      ([1.0, 1.0], [1.0, math.inf]),
                                      ([10.0, 10.0], [1.0, 1e308])])  # 2 n k = inf
    def test_non_finite_n_or_k_rejected(self, n, k):
        with pytest.raises(ValueError, match="finite"):
            OpticalDataset(np.array([1e14, 2e14]), np.array(n), np.array(k))

    def test_infinite_omega_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            OpticalDataset(np.array([1e14, math.inf]), np.ones(2), np.ones(2))


class TestDrudeParameters:
    @pytest.mark.parametrize("omega_p, gamma", [(math.inf, 5.3e13), (math.nan, 5.3e13),
                                                (1.37e16, math.inf), (1.37e16, math.nan)])
    def test_non_finite_rejected(self, omega_p, gamma):
        with pytest.raises(ValueError, match="finite"):
            DrudeParameters(omega_p, gamma)


class TestDispersionTransform:
    def test_vacuum_limit(self):
        # Im eps identically zero and a vanishing Drude weight: eps = 1
        omega = np.logspace(13, 17, 40)
        ds = OpticalDataset(omega, np.ones_like(omega), np.zeros_like(omega))
        weak = DrudeParameters(omega_p=1e-3, gamma=1e10)
        for xi in (1e13, 1e15, 1e17):
            assert permittivity_imag_axis(ds, weak, xi) == pytest.approx(1.0, abs=1e-12)

    def test_drude_oracle_at_1e15(self):
        # closed form: 1 + wp^2/(xi (xi+gamma)) = 179.2431 at xi = 1e15
        ds = drude_table()
        expected = 1.0 + GOLD.omega_p ** 2 / (1e15 * (1e15 + GOLD.gamma))
        assert expected == pytest.approx(179.2431, abs=2e-3)
        got = permittivity_imag_axis(ds, GOLD, 1e15)
        assert got == pytest.approx(expected, rel=5e-3)

    def test_drude_oracle_across_four_decades(self):
        ds = drude_table()
        for xi in np.logspace(13, 17, 25):
            got = permittivity_imag_axis(ds, GOLD, float(xi))
            expected = drude_permittivity(GOLD, float(xi))
            assert got == pytest.approx(expected, rel=5e-3), f"xi={xi:.3e}"

    def test_strictly_decreasing_in_xi(self):
        ds = drude_table(per_decade=30)
        xi_grid = np.logspace(13, 17, 17)
        values = [permittivity_imag_axis(ds, GOLD, float(x)) for x in xi_grid]
        assert np.all(np.diff(values) < 0)

    def test_large_xi_tends_to_one_from_above(self):
        ds = drude_table(per_decade=30)
        eps = permittivity_imag_axis(ds, GOLD, 5e18)
        assert 1.0 < eps < 1.001

    def test_xi_equal_gamma_branch_is_continuous(self):
        ds = drude_table(per_decade=30)
        g = GOLD.gamma
        at = permittivity_imag_axis(ds, GOLD, g)
        lo = permittivity_imag_axis(ds, GOLD, g * (1.0 - 1e-6))
        hi = permittivity_imag_axis(ds, GOLD, g * (1.0 + 1e-6))
        assert lo > at > hi
        assert at == pytest.approx(0.5 * (lo + hi), rel=1e-4)

    def test_xi_nonpositive_rejected(self):
        ds = drude_table(per_decade=10)
        with pytest.raises(ValueError):
            permittivity_imag_axis(ds, GOLD, 0.0)


class TestAnalyticModels:
    def test_drude_value(self):
        assert drude_permittivity(GOLD, 1e15) == pytest.approx(179.2431, abs=2e-3)

    def test_drude_gamma_zero_equals_plasma(self):
        free = DrudeParameters(omega_p=GOLD.omega_p, gamma=0.0)
        plasma = ReflectionModel("plasma", None, GOLD.omega_p).permittivity
        for xi in np.logspace(12, 18, 13):
            assert drude_permittivity(free, xi) == plasma(xi)

    def test_drude_large_xi_limit(self):
        assert drude_permittivity(GOLD, 1e22) == pytest.approx(1.0, abs=1e-10)

    def test_plasma_at_omega_p(self):
        assert PLASMA(1.37e16) == pytest.approx(2.0)

    def test_plasma_tenth_of_omega_p(self):
        assert PLASMA(1.37e15) == pytest.approx(101.0)

    def test_nonpositive_xi_rejected(self):
        with pytest.raises(ValueError):
            drude_permittivity(GOLD, -1.0)
        with pytest.raises(ValueError):
            PLASMA(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_xi_rejected(self, bad):
        # NaN used to come back as NaN and inf as 1.0; the wrapper named
        # its own output check instead of the argument
        table = PermittivityFn(lambda xi: np.full_like(xi, 2.0), "table")
        ds = drude_table(per_decade=10)
        for evaluate in (lambda xi: drude_permittivity(GOLD, xi),
                         lambda xi: permittivity_imag_axis(ds, GOLD, xi),
                         PermittivityFn.from_drude(GOLD), table):
            for xi in (bad, np.array([1e15, bad])):
                with pytest.raises(ValueError,
                                   match="xi must be positive and finite"):
                    evaluate(xi)


class TestPermittivityFn:
    def test_validates_output(self):
        bad = PermittivityFn(lambda xi: 0.5 * np.ones_like(xi), "bad")
        with pytest.raises(ValueError, match="< 1"):
            bad(1e15)
        nan = PermittivityFn(lambda xi: np.full_like(xi, math.nan), "nan")
        with pytest.raises(ValueError, match="non-finite or < 1"):
            nan(1e15)

    def test_from_drude_tags(self):
        # the static behaviour the removed zero_frequency tag declared:
        # eps ~ wp^2/(gamma xi) is drude-like, eps ~ wp^2/xi^2 plasma-like
        xi = 1e6
        assert PermittivityFn.from_drude(GOLD)(xi) * xi == pytest.approx(
            GOLD.omega_p ** 2 / GOLD.gamma, rel=1e-6)
        free = DrudeParameters(omega_p=1e16, gamma=0.0)
        assert PermittivityFn.from_drude(free)(xi) * xi ** 2 == pytest.approx(
            1e32, rel=1e-6)

    def test_from_table_matches_direct_call(self):
        ds = drude_table(per_decade=20)
        fn = PermittivityFn.from_table(ds, GOLD)
        direct = permittivity_imag_axis(ds, GOLD, 1e15)
        assert fn(1e15) == pytest.approx(direct, rel=1e-12)
        # second call hits the cache and must agree exactly
        assert fn(1e15) == fn(1e15)

    def test_from_table_memo_survives_a_change_to_the_callers_arrays(self):
        omega = np.geomspace(1e13, 1e17, 50)
        n, k = np.full(50, 0.5), np.linspace(40.0, 1.0, 50)
        ds = OpticalDataset(omega, n, k)
        fn = PermittivityFn.from_table(ds, GOLD)
        first = fn(1e15)
        k *= 2.0
        assert fn(1e15) == first
        assert first == pytest.approx(permittivity_imag_axis(ds, GOLD, 1e15), rel=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            ds.k[0] = 1.0

    def test_from_table_thread_safety(self):
        ds = drude_table(per_decade=15)
        fn = PermittivityFn.from_table(ds, GOLD)
        xi_grid = np.logspace(13, 16, 20)
        results = {}

        def worker(tag):
            results[tag] = [fn(float(x)) for x in xi_grid]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        baseline = results[0]
        for tag in range(1, 4):
            assert results[tag] == baseline

    def test_array_evaluation(self):
        fn = PermittivityFn.from_drude(GOLD)
        xi = np.array([1e14, 1e15, 1e16])
        out = fn(xi)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(drude_permittivity(GOLD, 1e15))


# ---------------------------------------------------------------- reference
# The dispersion transform as it was before it took arrays: one scalar
# adaptive quadrature per (xi, segment).  The batched transform must
# reproduce it, so it is kept here as the oracle.

def _reference_tail(omega_hi, drude, xi):
    g = drude.gamma
    if g == 0.0:
        return 0.0
    a = omega_hi
    if abs(xi - g) > 1e-8 * g:
        j = (math.atan(a / g) / g - math.atan(a / xi) / xi) / (xi * xi - g * g)
    else:
        j = a / (2.0 * g * g * (a * a + g * g)) + math.atan(a / g) / (2.0 * g ** 3)
    return (2.0 / math.pi) * drude.omega_p ** 2 * g * j


def _reference_segment(w_lo, w_hi, im_lo, im_hi, xi, abs_tol, rel_tol, orders):
    power_law = im_lo > 0.0 and im_hi > 0.0
    if power_law:
        slope = math.log(im_hi / im_lo) / math.log(w_hi / w_lo)
    t_lo, t_hi = math.log(w_lo), math.log(w_hi)
    half, mid = 0.5 * (t_hi - t_lo), 0.5 * (t_hi + t_lo)
    prev, err = None, math.inf
    for order in (8, 16, 32, 64):
        orders.add(order)
        nodes, weights = np.polynomial.legendre.leggauss(order)
        w = np.exp(mid + half * nodes)
        if power_law:
            im = im_lo * (w / w_lo) ** slope
        else:
            im = im_lo + (im_hi - im_lo) * (w - w_lo) / (w_hi - w_lo)
        value = half * float(np.sum(weights * w * w * im / (w * w + xi * xi)))
        if prev is not None:
            err = abs(value - prev)
            if err <= max(abs_tol, rel_tol * abs(value)):
                return value, err, True
        prev = value
    return prev, err, False


def reference_transform(ds, drude, xi, abs_tol=1e-12, rel_tol=1e-9, orders=None):
    """Scalar eps(i xi); `orders` collects every quadrature order used."""
    orders = set() if orders is None else orders
    omega, im_eps = ds.omega, ds.im_eps
    total = _reference_tail(omega[0], drude, xi)
    edges = []
    for i in range(omega.size - 1):
        w_lo, w_hi, il, ih = omega[i], omega[i + 1], im_eps[i], im_eps[i + 1]
        if w_lo < xi < w_hi:
            if il > 0.0 and ih > 0.0:
                p = math.log(ih / il) / math.log(w_hi / w_lo)
                im_mid = il * (xi / w_lo) ** p
            else:
                im_mid = il + (ih - il) * (xi - w_lo) / (w_hi - w_lo)
            edges += [(w_lo, xi, il, im_mid), (xi, w_hi, im_mid, ih)]
        else:
            edges.append((w_lo, w_hi, il, ih))
    seg_abs_tol = abs_tol / len(edges)
    worst, failed, acc = 0.0, False, 0.0
    for w_lo, w_hi, il, ih in edges:
        if il == 0.0 and ih == 0.0:
            continue
        value, err, ok = _reference_segment(w_lo, w_hi, il, ih, xi,
                                            seg_abs_tol, rel_tol, orders)
        acc += value
        worst = max(worst, err)
        failed = failed or not ok
    total += (2.0 / math.pi) * acc
    if failed and worst > max(abs_tol, rel_tol * abs(total)):
        raise QuadratureError(f"no convergence at xi={xi:.6e}")
    return 1.0 + total


def step_table(jump):
    """Im eps = 1 on a log grid except one node raised by `jump`.

    The log-log interpolation then makes the two segments at that node
    steep exponentials in log w, which need high quadrature orders."""
    omega = np.logspace(13, 17, 41)
    n = np.ones_like(omega)
    k = np.full_like(omega, 0.5)
    k[20] *= jump
    return OpticalDataset(omega, n, k, metal_name="step")


class TestLegendreRule:
    """optics._leggauss stands in for numpy.polynomial, which no run loads."""

    @pytest.mark.parametrize("order", [8, 16, 24, 32, 48, 64])
    def test_equals_numpy_leggauss(self, order):
        from numpy.polynomial.legendre import leggauss

        for got, want in zip(optics._leggauss(order), leggauss(order)):
            assert np.array_equal(got, want)

    def test_no_module_uses_numpy_polynomial(self):
        # code only: comments and docstrings may still name it
        found = []
        for path in sorted(Path(optics.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    name = ast.unparse(node)
                elif isinstance(node, ast.Import):
                    name = " ".join(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    name = " ".join(f"{node.module}.{a.name}" for a in node.names)
                else:
                    continue
                if "np.polynomial" in name or "numpy.polynomial" in name:
                    found.append(f"{path.name}:{node.lineno}: {name}")
        assert found == []


class _SumOrders:
    """Stands in for numpy inside optics and records the length of the
    last axis of every non-empty sum, i.e. the quadrature orders used."""

    def __init__(self):
        self.orders = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def sum(self, a, *args, **kwargs):
        if np.size(a):
            self.orders.add(np.shape(a)[-1])
        return np.sum(a, *args, **kwargs)


def assert_matches_reference(ds, xi, drude=GOLD):
    got = permittivity_imag_axis(ds, drude, np.asarray(xi))
    want = np.array([reference_transform(ds, drude, float(x)) for x in xi])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestBatchedTransform:
    def test_drude_table_below_inside_above(self):
        ds = drude_table(per_decade=20)
        assert_matches_reference(ds, [3e11, 1e12 * 0.999, 2.2e13, GOLD.gamma,
                                      1e15, 3.7e16, 9.9e17, 1e18, 1e19])

    def test_xi_on_table_nodes(self):
        ds = drude_table(per_decade=20)
        assert_matches_reference(ds, ds.omega[[0, 1, 17, 60, -2, -1]])

    def test_matsubara_grid(self):
        ds = drude_table(per_decade=20)
        assert_matches_reference(ds, [matsubara_frequency(300.0, l)
                                      for l in (1, 2, 3, 10, 50, 150)])

    def test_zero_im_eps_segments_use_linear_fallback(self):
        ds0 = drude_table(per_decade=20)
        k = ds0.k.copy()
        k[30:40] = 0.0      # both endpoints zero inside, one zero at the ends
        k[55] = 0.0
        ds = OpticalDataset(ds0.omega, ds0.n, k)
        inside = ds.omega[[29, 35, 54, 55]] * 1.01
        assert_matches_reference(ds, [*inside, ds.omega[33], 1e15])

    @pytest.mark.parametrize("abs_tol", [1e9, 1e10])
    def test_absolute_tolerance_shared_between_edges(self, abs_tol, monkeypatch):
        # on the step table these abs_tol / (number of edges) decide where
        # rows stop; an undivided abs_tol would stop some a level earlier
        ds = step_table(1e20)
        xi = [ds.omega[19] * 1.02, ds.omega[20] * 1.05, 1e16]
        monkeypatch.setattr(optics, "_ABS_TOL", abs_tol)
        monkeypatch.setattr(optics, "_REL_TOL", 1e-12)
        got = permittivity_imag_axis(ds, GOLD, np.array(xi))
        want = [reference_transform(ds, GOLD, x, abs_tol, 1e-12) for x in xi]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_sharp_step_reaches_orders_32_and_64(self, monkeypatch):
        ds = step_table(1e20)
        xi = np.array([1e13 * 0.5, ds.omega[19], ds.omega[20] * 1.05, 1e16])
        reference_orders = set()
        for x in xi:
            reference_transform(ds, GOLD, float(x), orders=reference_orders)
        spy = _SumOrders()
        monkeypatch.setattr(optics, "np", spy)
        permittivity_imag_axis(ds, GOLD, xi)
        monkeypatch.undo()
        assert {32, 64} <= reference_orders
        assert {8, 16, 32, 64} == spy.orders
        assert_matches_reference(ds, xi)

    def test_smooth_table_builds_orders_8_and_16_only(self, monkeypatch):
        # no row of a smooth table misses the tolerance at 16 nodes, so the
        # rules and node data of 32 and 64 are never built
        orders = []
        leggauss = optics._leggauss
        monkeypatch.setattr(optics, "_leggauss",
                            lambda n: orders.append(n) or leggauss(n))
        xi = matsubara_frequency(300.0, 1) * np.arange(1, 152)
        permittivity_imag_axis(drude_table(per_decade=20), GOLD, xi)
        assert set(orders) == {8, 16}

    def test_both_paths_raise_when_the_ladder_runs_out(self):
        ds = step_table(1e80)
        xi = ds.omega[20] * 1.05
        with pytest.raises(QuadratureError):
            reference_transform(ds, GOLD, xi)
        with pytest.raises(QuadratureError, match="did not converge"):
            permittivity_imag_axis(ds, GOLD, np.array([1e15, xi]))

    def test_non_finite_table_fails_the_convergence_guard(self):
        # a table that skips OpticalDataset's checks, with an infinite
        # Im eps: the error estimates are NaN, and a NaN must not pass
        omega = np.array([1e14, 1e15, 1e16])
        table = SimpleNamespace(omega=omega, im_eps=np.array([1.0, math.inf, 1.0]))
        with np.errstate(invalid="ignore"), pytest.raises(
                QuadratureError, match="did not converge"):
            permittivity_imag_axis(table, GOLD, np.array([1e15, 2e15]))

    def test_scalar_gives_float_and_array_keeps_shape(self):
        ds = drude_table(per_decade=10)
        assert type(permittivity_imag_axis(ds, GOLD, 1e15)) is float
        xi = np.geomspace(1e13, 1e17, 6).reshape(2, 3)
        out = permittivity_imag_axis(ds, GOLD, xi)
        assert out.shape == (2, 3)
        assert out[1, 2] == permittivity_imag_axis(ds, GOLD, float(xi[1, 2]))
        assert permittivity_imag_axis(ds, GOLD, np.array([])).shape == (0,)

    def test_any_nonpositive_xi_rejected(self):
        ds = drude_table(per_decade=10)
        for bad in ([1e15, 0.0], [1e15, -1e14], [math.nan]):
            with pytest.raises(ValueError):
                permittivity_imag_axis(ds, GOLD, np.array(bad))

    def test_from_table_transforms_misses_in_one_call(self, monkeypatch):
        ds = drude_table(per_decade=10)
        calls = []

        def counted(dataset, drude, xi):
            calls.append(np.size(xi))
            return permittivity_imag_axis(dataset, drude, xi)

        monkeypatch.setattr(optics, "permittivity_imag_axis", counted)
        fn = PermittivityFn.from_table(ds, GOLD)
        xi = np.geomspace(1e13, 1e17, 9)
        first = fn(xi)
        assert np.array_equal(fn(xi[::-1]), first[::-1])
        fn(np.append(xi, [xi[0], 2e15]))
        assert calls == [9, 1]
