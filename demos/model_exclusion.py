"""Synthesize a measurement campaign and band-test the static rules.

Fourteen runs of 290 sphere-plate points are drawn from the impedance
model with the full noise budget: separation jitter, calibration
systematics and the separation-dependent scatter envelope.  The
analysis then pretends not to know the generator and asks, for each
candidate rule, where its curve leaves the combined confidence band.

The generating model should be rejected at roughly the nominal miss
rate; the rival static rules should be rejected over contiguous
separation windows.
"""

import numpy as np

from casimetry.lifshitz import ReflectionModel, ThermalState, compute_pressure_curve
from casimetry.metrology import (
    DEFAULT_SEED,
    DEFAULT_Z_RANGE,
    generate_synthetic_ensemble,
    run_exclusion_analysis,
)
from casimetry.optics import DrudeParameters, PermittivityFn

GOLD = DrudeParameters(omega_p=1.37e16, gamma=5.3e13)


def main():
    eps = PermittivityFn.from_drude(GOLD)
    models = {
        "impedance": ReflectionModel("impedance", eps, GOLD.omega_p),
        "drude": ReflectionModel("drude", eps),
        "schwinger": ReflectionModel("schwinger", eps),
    }
    lo, hi = DEFAULT_Z_RANGE
    grid = np.geomspace(0.92 * lo, 1.02 * hi, 80)
    state = ThermalState(300.0)
    curves = {tag: compute_pressure_curve(m, grid, state)
              for tag, m in models.items()}

    ensemble = generate_synthetic_ensemble(curve=curves["impedance"],
                                           seed=DEFAULT_SEED)
    print(f"ensemble: {len(ensemble.sets)} sets, "
          f"{ensemble.n_points} points, seed {DEFAULT_SEED}\n")

    for confidence in (0.95, 0.99):
        verdicts = run_exclusion_analysis(ensemble, curves, "impedance",
                                          confidence)
        print(f"confidence {confidence:.0%}")
        for tag, v in verdicts.items():
            windows = ", ".join(
                f"[{a * 1e9:.0f}, {b * 1e9:.0f}] nm"
                for a, b in v.excluded_windows) or "none"
            state_word = "accepted" if v.accepted else "REJECTED"
            print(f"  {tag:<10} {state_word:<9} "
                  f"outside {v.fraction_outside:6.2%}   windows: {windows}")
        print()


if __name__ == "__main__":
    main()
