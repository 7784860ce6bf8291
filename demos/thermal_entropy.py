"""Cool the plates and watch which static rules keep their entropy.

The entropy per unit area S = -dF/dT must vanish as T -> 0 for a
system in equilibrium.  The impedance and plasma rules obey this; the
dissipative rule settles on a negative plateau instead, because its
transverse-electric channel stays switched off at zero frequency no
matter how small the relaxation gets.  The plateau value is compared
with its asymptotic series.
"""

import math

from casimetry.constants import C_LIGHT, K_B
from casimetry.lifshitz import ReflectionModel, entropy_probe
from casimetry.optics import DrudeParameters, PermittivityFn

ZETA3 = 1.2020569031595943
W_P = 1.37e16
Z = 300e-9


def main():
    eps = PermittivityFn.from_drude(DrudeParameters(W_P, 0.0))
    models = {
        "impedance": ReflectionModel("impedance", eps, W_P),
        "plasma": ReflectionModel("plasma", None, W_P),
        "drude": ReflectionModel("drude", eps),
    }
    temperatures = [300.0, 100.0, 30.0, 10.0, 3.0]

    print(f"entropy per area at z = {Z * 1e9:.0f} nm, J/(m^2 K)\n")
    print("T (K)".rjust(8) + "".join(tag.rjust(16) for tag in models))
    rows = {tag: dict(entropy_probe(model, Z, temperatures))
            for tag, model in models.items()}
    for t in temperatures:
        print(f"{t:8.0f}" + "".join(f"{rows[tag][t]:>16.3e}"
                                    for tag in models))

    x = C_LIGHT / (W_P * Z)
    series = -(K_B * ZETA3 / (16 * math.pi * Z ** 2)) * (
        1 - 4 * x + 12 * x ** 2 - 24 * x ** 3)
    print(f"\ndrude plateau, asymptotic series: {series:.3e}")
    print(f"drude probe at 3 K:               {rows['drude'][3.0]:.3e}")
    drop = abs(rows["plasma"][300.0] / rows["plasma"][3.0])
    print(f"plasma entropy drop 300 K -> 3 K: {drop:.0f}x")


if __name__ == "__main__":
    main()
