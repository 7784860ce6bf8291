"""From raw force gradients to comparable plate pressures.

A sphere-plate instrument records the force gradient dF/dz; dividing
by 2 pi R converts it into the pressure two flat plates would feel at
the same separation.  Real surfaces are rough, so the measured
pressure is the smooth-plate curve averaged over the distribution of
local separations.  The demo shows both steps and the size of the
roughness correction across the working range.
"""

import math

import numpy as np

from casimetry.corrections import (
    RoughnessProfile,
    SphereGeometry,
    pft_pressure,
    roughness_corrected_pressure,
)
from casimetry.lifshitz import (ReflectionModel, ThermalState, casimir_pressure,
                                compute_pressure_curve)
from casimetry.optics import DrudeParameters, PermittivityFn

GOLD = DrudeParameters(omega_p=1.37e16, gamma=5.3e13)
SPHERE = SphereGeometry(radius=148.7e-6, radius_error=0.2e-6)


def main():
    eps = PermittivityFn.from_drude(GOLD)
    model = ReflectionModel.impedance(eps, GOLD.omega_p)
    state = ThermalState(300.0)

    def smooth(z):
        return casimir_pressure(model, z, state)

    z0 = 300e-9
    gradient = -2.0 * math.pi * SPHERE.radius * smooth(z0)
    print("proximity conversion at z = 300 nm")
    print(f"  measured force gradient : {gradient:.4e} N/m")
    print(f"  equivalent pressure     : {pft_pressure(gradient, SPHERE):.4e} Pa")
    print(f"  direct plate pressure   : {smooth(z0):.4e} Pa\n")

    # gaussian height scatter of 4 nm rms on both faces
    profile = RoughnessProfile.gaussian(sigma=4e-9)
    print("roughness correction, 4 nm rms on each face")
    print(f"{'z (nm)':>8} {'smooth (Pa)':>14} {'rough (Pa)':>14} {'shift':>8}")
    separations = np.array([160e-9, 200e-9, 300e-9, 500e-9, 750e-9])
    smooth_p = smooth(separations)
    rough_p = roughness_corrected_pressure(
        lambda s: compute_pressure_curve(model, s, state).pressure,
        profile, profile, separations)
    for z, p0, p1 in zip(separations, smooth_p, rough_p):
        print(f"{z * 1e9:>8.0f} {p0:>14.4e} {p1:>14.4e} "
              f"{100 * (p1 - p0) / abs(p0):>+7.2f}%")
    print("\nthe shift decays with separation: height scatter matters "
          "most where the curve is steepest")


if __name__ == "__main__":
    main()
