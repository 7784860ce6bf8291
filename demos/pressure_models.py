"""Compare thermal pressure predictions of the reflection rules.

All six rules see the same gold response; they differ in how the
static (l = 0) term is filled in.  The table prints each model's
deviation from the impedance baseline over the working separation
range.  The dissipative rule softens the attraction by percents, the
unit-static rule strengthens it; both gaps are far larger than the
theory error column, which is what makes them testable.
"""

import numpy as np

from casimetry.lifshitz import ReflectionModel, ThermalState, casimir_pressure
from casimetry.metrology import theory_error_curve
from casimetry.optics import DrudeParameters, PermittivityFn

GOLD = DrudeParameters(omega_p=1.37e16, gamma=5.3e13)


def main():
    eps = PermittivityFn.from_drude(GOLD)
    models = {
        "impedance": ReflectionModel.impedance(eps, GOLD.omega_p),
        "exact impedance": ReflectionModel.exact_impedance(eps, GOLD.omega_p),
        "drude": ReflectionModel.lifshitz_drude(eps),
        "schwinger": ReflectionModel.lifshitz_schwinger(eps),
        "plasma": ReflectionModel.lifshitz_plasma(GOLD.omega_p),
        "ideal metal": ReflectionModel.ideal_metal(),
    }
    state = ThermalState(300.0)
    separations = np.array([160e-9, 300e-9, 500e-9, 750e-9])

    pressures = {tag: casimir_pressure(m, separations, state)
                 for tag, m in models.items()}
    theory = theory_error_curve(separations)

    print("thermal pressure at 300 K, deviation from the impedance rule\n")
    header = "separation".ljust(14) + "".join(
        f"{z * 1e9:>9.0f} nm" for z in separations)
    print(header)
    print("-" * len(header))
    base = pressures["impedance"]
    print("impedance".ljust(14) + "".join(f"{p:>12.3e}" for p in base)
          + "   (Pa)")
    for tag in ("exact impedance", "drude", "schwinger", "plasma",
                "ideal metal"):
        dev = (pressures[tag] - base) / np.abs(base)
        print(tag.ljust(14) + "".join(f"{100 * d:>+11.2f}%" for d in dev))
    print("theory error".ljust(14)
          + "".join(f"{100 * t:>11.2f}%" for t in theory)
          + "   (95% half width)")


if __name__ == "__main__":
    main()
