"""Delivery acceptance gate.

One test per acceptance criterion.  Each prints a single
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``; the verbose
test status carries the same information) and then asserts, so the
suite fails exactly on the criteria that fail.  Criterion 1b was first
stated with 8 pi where the derived pressure limit has 4 pi; its test
asserts the derived target.  Criterion 5b is asserted as stated and
fails: whether the paper's measured exclusion ranges bind the synthetic
pipeline is not yet decided.  Both docstrings carry the derivation and
the evidence.  No tolerance is wider than the criterion states.
"""

import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from casimetry import hypforce, lifshitz
from casimetry import metrology as mt
from casimetry.constants import C_LIGHT, HBAR, K_B
from casimetry.lifshitz import (
    ReflectionModel,
    ThermalState,
    casimir_free_energy,
    casimir_pressure,
    compute_pressure_curve,
    entropy_probe,
)
from casimetry.optics import (
    DrudeParameters,
    OpticalDataset,
    PermittivityFn,
    drude_permittivity,
)

# The ideal metal's pressure in closed form is the benchmark's reference
# oracle; it is imported, not copied, so the two cannot drift apart.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import ideal_pressure  # noqa: E402
# criterion 6's depth-integration oracle, kept with the hypforce tests
from test_hypforce import yukawa_pressure_oracle  # noqa: E402

ZETA3 = 1.2020569031595943
GOLD = DrudeParameters(omega_p=1.37e16, gamma=5.3e13)
IDEAL = ReflectionModel("ideal")


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


# ------------------------------------------------------------ criterion 1

def test_criterion_1a_ideal_metal_zero_temperature_limit():
    """Pressure approaches -pi^2 hbar c / 240 z^4 within 0.1%."""
    state = ThermalState(1.0)
    worst = 0.0
    for z in (0.5e-6, 1.0e-6, 2.0e-6):
        p = casimir_pressure(IDEAL, z, state)
        p0 = -math.pi ** 2 * HBAR * C_LIGHT / (240.0 * z ** 4)
        worst = max(worst, abs(p / p0 - 1.0))
    ok = report("criterion 1a: ideal metal, zero-temperature limit",
                worst <= 1e-3, f"worst rel dev {worst:.2e}")
    assert ok


def test_criterion_1b_ideal_metal_classical_limit_as_stated():
    """Classical limit: P -> -k_B T zeta(3)/(4 pi z^3), F -> .../(8 pi z^2).

    In the engine's form (`casimetry.lifshitz` module docstring),
    P = -(k_B T / 8 pi z^3)[I_0/2 + sum_{l>=1} I_l].  Two channels with
    unit reflectivity give I_0 = 4 zeta(3), so the l = 0 term alone is
    -k_B T zeta(3)/(4 pi z^3).  The criterion was first stated with
    8 pi in the pressure, and the engine sat at 2.0382 and 2.0006
    times that value at 5 and 8 um.  The 8 pi constant belongs to two
    other quantities: the free-energy limit -k_B T zeta(3)/(8 pi z^2)
    (weight y ln(1 - e^{-y}), whose integral is -zeta(3) per channel),
    and the pressure of a single static channel, which is exactly
    P_schwinger - P_drude.  `tests/test_lifshitz.py::TestIdealMetalLimits`
    pins both (`test_zero_frequency_te_term_is_zeta3`,
    `test_half_coefficient_constant_is_the_drude_limit`).

    At 5 um the l = 1 term is not yet negligible: y1 = 2 xi_1 z / c =
    8.23 and the l >= 1 terms add 1.9 %, more than the 1 % tolerance
    (`test_classical_approach_from_above` pins this).  The pressure is
    therefore held to the ideal metal's whole Matsubara sum in closed
    form, -k_B T zeta(3)/(4 pi z^3) (1 + R(y1)), with R the l >= 1
    remainder.  That closed form is `perfbench/checks.py::ideal_pressure`,
    the benchmark's oracle for the same curve; the engine meets it to
    1e-9 relative, as the benchmark requires.  The free energy is a true
    limit and keeps the 1 % tolerance: its gap to the 8 pi form is
    0.41 % at 5 um and 0.0045 % at 8 um.  An engine that halved the
    l = 0 term would sit near half of both targets.
    """
    state = ThermalState(300.0)
    kt = K_B * 300.0
    p_devs, remainders, f_ratios = [], [], []
    for z in (5e-6, 8e-6):
        p_sum = float(ideal_pressure(z, 300.0)[0])
        p_devs.append(abs(casimir_pressure(IDEAL, z, state) / p_sum - 1.0))
        p_cl = -kt * ZETA3 / (4.0 * math.pi * z ** 3)
        remainders.append(p_sum / p_cl - 1.0)
        f_cl = -kt * ZETA3 / (8.0 * math.pi * z ** 2)
        f_ratios.append(casimir_free_energy(IDEAL, z, state) / f_cl)
    ok = report("criterion 1b: ideal metal, classical limit",
                max(p_devs) <= 1e-9
                and max(abs(r - 1.0) for r in f_ratios) <= 1e-2,
                "P vs 4pi form (1+R): rel dev "
                + ", ".join(f"{d:.1e}" for d in p_devs)
                + ", R = " + ", ".join(f"{r:.4f}" for r in remainders)
                + "; F/8pi form = "
                + ", ".join(f"{r:.6f}" for r in f_ratios))
    assert ok


# ------------------------------------------------------------ criterion 2

def test_criterion_2_dispersion_transform_oracle():
    """Tabulated route matches the closed Drude form to <0.5%."""
    omega = np.logspace(12, 18, 361)
    im_eps = GOLD.omega_p ** 2 * GOLD.gamma / (
        omega * (omega ** 2 + GOLD.gamma ** 2))
    n = np.full_like(omega, 0.5)
    dataset = OpticalDataset(omega, n, im_eps / (2 * n),
                             metal_name="Au-synthetic")
    eps_fn = PermittivityFn.from_table(dataset, GOLD)
    xi = np.geomspace(1e13, 1e17, 41)
    got = np.array([eps_fn(x) for x in xi])
    want = drude_permittivity(GOLD, xi)
    worst = np.max(np.abs(got / want - 1.0))
    ok = report("criterion 2: dispersion transform vs closed form",
                worst < 5e-3, f"worst rel dev {worst:.2e}")
    assert ok


# ------------------------------------------------------------ criterion 3

def test_criterion_3_zero_frequency_prescriptions_exact(monkeypatch):
    """Static reflection values are exact by construction.

    They are read where the engine reads them.  TE: te_zero of the rows of
    lifshitz.MODELS, the constants 0 (drude) and 1 (schwinger), and for
    impedance a function of omega_p.  TM (r_par^2 = 1): the engine's own
    l = 0 pressure term, (1 + te_zero) 2 zeta(3) for a constant te_zero,
    and 2 zeta(3) plus the TE channel alone for impedance."""
    y_p = 2.0 * np.geomspace(160e-9, 750e-9, 7) * GOLD.omega_p / C_LIGHT
    imp, dru, sch = (lifshitz.MODELS[key] for key in ("impedance", "drude", "schwinger"))

    def l0_term(rule):
        return lifshitz._zero_frequency_term(rule, y_p, "pressure")[0]

    with monkeypatch.context() as patch:  # no r2 = 1 channel: TE alone
        patch.setitem(lifshitz._UNIT_CHANNEL, "pressure", 0.0)
        te_i = l0_term(imp)
    ok_imp = imp.needs_omega_p and bool(np.all(l0_term(imp) == 2 * ZETA3 + te_i))
    ok_dru = dru.te_zero == 0.0 and bool(np.all(l0_term(dru) == 2 * ZETA3))
    ok_sch = sch.te_zero == 1.0 and bool(np.all(l0_term(sch) == 4 * ZETA3))
    ok = report("criterion 3: zero-frequency prescriptions exact",
                ok_imp and ok_dru and ok_sch,
                f"impedance {ok_imp}, drude {ok_dru}, schwinger {ok_sch}")
    assert ok


# ------------------------------------------------------------ criterion 4

def test_criterion_4_entropy_probe_nernst_discrimination():
    """Entropy vanishes on cooling except for the dissipative rule."""
    z = 300e-9
    eps_p = PermittivityFn.from_drude(DrudeParameters(GOLD.omega_p, 0.0))
    imp = ReflectionModel("impedance", eps_p, GOLD.omega_p)
    pla = ReflectionModel("plasma", None, GOLD.omega_p)
    dru = ReflectionModel("drude", eps_p)

    drops = {}
    for tag, model in (("impedance", imp), ("plasma", pla)):
        s = dict(entropy_probe(model, z, [300.0, 3.0]))
        drops[tag] = abs(s[300.0]) / abs(s[3.0])
    vanish_ok = all(drop >= 10.0 for drop in drops.values())

    s_d = dict(entropy_probe(dru, z, [10.0, 3.0]))
    plateau_ok = (s_d[3.0] < 0.0
                  and abs(s_d[3.0] - s_d[10.0]) <= 0.2 * abs(s_d[10.0]))

    ok = report(
        "criterion 4: entropy probe discriminates the static rules",
        vanish_ok and plateau_ok,
        f"drop impedance {drops['impedance']:.0f}x, "
        f"plasma {drops['plasma']:.0f}x, "
        f"drude plateau {s_d[3.0]:.3e} vs {s_d[10.0]:.3e}")
    assert ok


# ------------------------------------------------------------ criterion 5

@pytest.fixture(scope="module")
def exclusion_results():
    """Default pipeline at the shipped seed, both confidence levels."""
    eps = PermittivityFn.from_drude(GOLD)
    models = {
        "impedance": ReflectionModel("impedance", eps, GOLD.omega_p),
        "drude": ReflectionModel("drude", eps),
        "schwinger": ReflectionModel("schwinger", eps),
    }
    lo, hi = mt.DEFAULT_Z_RANGE
    grid = np.geomspace(0.92 * lo, 1.02 * hi, 80)
    state = ThermalState(300.0)
    curves = {tag: compute_pressure_curve(model, grid, state)
              for tag, model in models.items()}
    ensemble = mt.generate_synthetic_ensemble(curve=curves["impedance"],
                                              seed=mt.DEFAULT_SEED)
    return {conf: mt.run_exclusion_analysis(ensemble, curves, "impedance",
                                            conf)
            for conf in (0.95, 0.99)}


def _windows_nm(verdict):
    return [(a * 1e9, b * 1e9) for a, b in verdict.excluded_windows]


def test_criterion_5a_generating_model_accepted(exclusion_results):
    v = exclusion_results[0.95]["impedance"]
    ok = report("criterion 5a: generating model accepted at 95%",
                v.accepted and 0.035 <= v.fraction_outside <= 0.065,
                f"outside fraction {v.fraction_outside:.4f}")
    assert ok


def test_criterion_5b_drude_rule_excluded_inside_stated_ranges(
        exclusion_results):
    """Stated check: windows inside [230, 500] / [300, 500] nm.

    These are the ranges in which the source paper excludes the
    Drude-based approach from its measured data and error budget.  At
    the shipped seed the synthetic pipeline gives (160.5, 469.0) nm at
    95 % and (160.5, 442.6) nm at 99 %, so containment fails at the
    lower edge.  `tests/test_metrology.py::TestDefaultPipeline`
    (`test_window_edges_frozen`) and the README quick start pin those
    edges to 2-3 nm, so no program change can meet this test without
    moving that one too.

    The gap P_drude/P_impedance - 1 is -1.7 % at 160 nm, -3.0 % at
    230 nm, -4.2 % at 300 nm and -7.4 % at 500 nm; its core is the
    exact static transverse-electric term (criterion 1b and
    `tests/test_lifshitz.py::TestIdealMetalLimits`).  The synthetic
    95 % half-width is 1.0-1.6 % of |P| over 160-300 nm, below the gap,
    so the rule is told apart down to the data edge.  Adding the
    4 dz/z separation term to the band moves the lower edges only to
    172.7 / 205.0 nm; halving the gap gives (230.2, 330.9) /
    (253.4, 321.2) nm, still failing at 99 %.  The package ships no
    measured data (criterion 8), and no document yet says whether the
    paper's ranges are a promise for the synthetic error budget, so the
    criterion stays asserted as stated.  If they are, the fault is in
    that budget and in the frozen edges together.
    """
    v95 = exclusion_results[0.95]["drude"]
    v99 = exclusion_results[0.99]["drude"]
    w95 = _windows_nm(v95)
    w99 = _windows_nm(v99)
    in95 = any(230.0 <= a and b <= 500.0 for a, b in w95)
    in99 = any(300.0 <= a and b <= 500.0 for a, b in w99)
    ok = report(
        "criterion 5b: dissipative rule excluded inside stated ranges",
        (not v95.accepted) and (not v99.accepted) and in95 and in99,
        f"95% windows {[(round(a, 1), round(b, 1)) for a, b in w95]}, "
        f"99% windows {[(round(a, 1), round(b, 1)) for a, b in w99]}")
    assert ok


def test_criterion_5c_schwinger_rule_excluded_inside_stated_range(
        exclusion_results):
    v = exclusion_results[0.95]["schwinger"]
    windows = _windows_nm(v)
    contained = any(160.0 <= a and b <= 350.0 for a, b in windows)
    ok = report(
        "criterion 5c: unit-static rule excluded inside [160, 350] nm",
        (not v.accepted) and contained,
        f"95% windows {[(round(a, 1), round(b, 1)) for a, b in windows]}")
    assert ok


# ------------------------------------------------------------ criterion 6

def test_criterion_6_yukawa_closed_form_vs_oracle():
    sphere = hypforce.coated_sphere_stack()
    plate = hypforce.coated_plate_stack()
    z_grid = np.geomspace(160e-9, 750e-9, 10)
    lam_grid = np.geomspace(10e-9, 1e-6, 10)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lam in lam_grid:
            params = hypforce.YukawaParams(alpha_g=1e10, lam=float(lam))
            for z in z_grid:
                closed = hypforce.yukawa_plate_pressure(sphere, plate,
                                                        float(z), params)
                oracle = yukawa_pressure_oracle(sphere, plate, float(z),
                                                params)
                worst = max(worst, abs(closed / oracle - 1.0))
    ok = report("criterion 6: layered closed form matches depth oracle",
                worst < 1e-8, f"worst rel dev {worst:.2e}")
    assert ok


# ------------------------------------------------------------ criterion 7

def test_criterion_7_constraint_curve_structure():
    z = np.geomspace(160e-9, 750e-9, 40)
    hw = 2e-3 * (z / 3e-7) ** -3.3
    band = mt.ConfidenceBand(z, hw, 0.95)
    sphere = hypforce.coated_sphere_stack()
    plate = hypforce.coated_plate_stack()
    lambdas = np.geomspace(40e-9, 370e-9, 12)
    curve = hypforce.constraint_curve(band, sphere, plate, lambdas)
    doubled = hypforce.constraint_curve(
        mt.ConfidenceBand(z, 2 * hw, 0.95), sphere, plate, lambdas)
    decreasing = bool(np.all(np.diff(curve.alpha_max) < 0))
    z_best = curve.z_best
    non_decreasing = bool(np.all(np.diff(z_best) >= -1e-12))
    linear = np.allclose(doubled.alpha_max, 2 * curve.alpha_max, rtol=1e-9)
    ok = report(
        "criterion 7: constraint curve structure",
        decreasing and non_decreasing and linear,
        f"alpha decreasing {decreasing}, z_best non-decreasing "
        f"{non_decreasing}, band linearity {linear}")
    assert ok


# ------------------------------------------------------------ criterion 8

def test_criterion_8_no_unpublished_numbers_reproduced():
    """The package carries no measured data; comparisons need input.

    Absolute values tied to laboratory records are out of reach by
    construction: ensembles must be synthesized from a named model,
    and the reference-curve comparison runs only when the caller
    supplies a curve file (CASIMETRY_REFERENCE_CONSTRAINTS).
    """
    package_root = Path(hypforce.__file__).parent
    bundled = [p for p in package_root.rglob("*")
               if p.suffix in (".csv", ".dat", ".txt", ".json", ".npz")]
    no_data = not bundled

    with pytest.raises(ValueError):
        mt.generate_synthetic_ensemble()  # no model, no curve, no data

    ref_path = os.environ.get("CASIMETRY_REFERENCE_CONSTRAINTS", "")
    if ref_path:
        reference = hypforce.load_constraint_csv(ref_path)
        detail = (f"external reference with {len(reference.lambdas)} rows "
                  "compared")
        ran_ok = np.all(np.isfinite(reference.alpha_max))
    else:
        detail = "no external reference supplied; comparison not run"
        ran_ok = True

    ok = report("criterion 8: unpublished lab numbers not reproduced",
                no_data and ran_ok, detail)
    assert ok
