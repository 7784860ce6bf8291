"""Library driver of the ``campaign`` workload: many band tests in one process.

It follows the band-testing example of the package README.  Three 80-point
pressure curves are computed once.  Then, for each ensemble seed, it draws a
synthetic ensemble from the impedance curve, band-tests all three curves
against it, and turns the impedance band into a Yukawa constraint curve over
100 interaction ranges.  Verdicts and limits go to one JSON file, so repeated
runs with the same seeds must write identical bytes.

Run it as ``python campaign_driver.py --first-seed 100 --out driver.json``
with ``src`` on ``PYTHONPATH``; it runs `DRIVER_SEEDS` seeds from the first.
Besides ``casimetry`` it imports only the benchmark's ``workloads``
constants: the benchmark times it as a subprocess and must measure the
untraced program.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from casimetry.hypforce import coated_plate_stack, coated_sphere_stack, constraint_curve
from casimetry.lifshitz import ReflectionModel, ThermalState, compute_pressure_curve
from casimetry.metrology import (
    DEFAULT_Z_RANGE,
    bin_ensemble,
    confidence_band,
    generate_synthetic_ensemble,
    random_error_curve,
    run_exclusion_analysis,
    theory_error_curve,
)
from casimetry.optics import DrudeParameters, PermittivityFn
from workloads import DRIVER_SEEDS

GOLD = DrudeParameters(omega_p=1.37e16, gamma=5.3e13)
CONFIDENCE = 0.95
GENERATOR = "impedance"


def _theory_rel(z):
    # the measured envelope already carries the separation scatter
    return theory_error_curve(z, confidence=CONFIDENCE,
                              include_separation_term=False)


def run(seeds, out: Path) -> None:
    eps = PermittivityFn.from_drude(GOLD)
    models = {
        "impedance": ReflectionModel.impedance(eps, GOLD.omega_p),
        "drude": ReflectionModel.lifshitz_drude(eps),
        "schwinger": ReflectionModel.lifshitz_schwinger(eps),
    }
    lo, hi = DEFAULT_Z_RANGE
    grid = np.geomspace(0.92 * lo, 1.02 * hi, 80)
    state = ThermalState(300.0)
    curves = {tag: compute_pressure_curve(m, grid, state)
              for tag, m in models.items()}
    lambdas = np.geomspace(40e-9, 370e-9, 100)
    sphere, plate = coated_sphere_stack(), coated_plate_stack()

    results = {}
    for seed in seeds:
        ensemble = generate_synthetic_ensemble(curve=curves[GENERATOR],
                                               seed=seed)
        verdicts = run_exclusion_analysis(ensemble, curves, GENERATOR,
                                          CONFIDENCE)
        envelope = random_error_curve(bin_ensemble(ensemble), CONFIDENCE,
                                      kind="point")
        band = confidence_band(_theory_rel, envelope, curves[GENERATOR],
                               CONFIDENCE, rule="variance")
        limits = constraint_curve(band, sphere, plate, lambdas)
        results[str(seed)] = {
            "verdicts": {tag: v.to_dict() for tag, v in verdicts.items()},
            "alpha_max": [float(a) for a in limits.alpha_max],
        }
    out.write_text(json.dumps({"confidence": CONFIDENCE,
                               "generator": GENERATOR,
                               "runs": results}, indent=1, sort_keys=True)
                   + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    run(range(args.first_seed, args.first_seed + DRIVER_SEEDS), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
