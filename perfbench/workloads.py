"""Workload definitions: generated inputs and the jobs that consume them.

Each workload is a fixed list of real user jobs: ``casimetry`` CLI runs and,
for ``campaign``, the library driver in this directory.  The seed changes
the generated inputs (roughness widths, the optical table, the ensemble
seeds) but never their sizes, so every seed costs the same work.  The jobs
see only the files written here, through relative paths, so the config hash
stamped into every output does not depend on where the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
DRIVER = BENCH_DIR / "campaign_driver.py"

WORKLOADS = ("curves", "tables", "campaign")

# the package's conventional gold Drude parameters, rad/s
OMEGA_P = 1.37e16
GAMMA = 5.3e13
TEMPERATURE = 300.0
MODELS = ("ideal", "impedance", "exact", "drude", "schwinger", "plasma")
TABLE_MODELS = ("impedance", "exact", "drude", "schwinger")
ROUGH_MODELS = ("impedance", "drude")
ROUGH_LEVELS = 9
TABLE_ROWS = 300
KK_L_MAX = 150
CURVE_POINTS = 80
ROUGH_POINTS = 5
TABLE_POINTS = 30
LAMBDA_POINTS = 100
DRIVER_SEEDS = 25
ENSEMBLE_POINTS = 14 * 290  # exclusion defaults: 14 sets of 290 points
PROBE_Z_NM = (160, 300, 750)  # the ROADMAP's single-pressure rows


@dataclass(frozen=True)
class Job:
    """One user job.

    ``kind`` is "cli" (argv goes to ``casimetry.cli``) or "driver" (argv
    goes to ``campaign_driver``).  ``outputs`` are paths relative to the
    workload directory that the job must write.
    """

    name: str
    kind: str
    argv: tuple
    outputs: tuple

    def command(self, python: str) -> list:
        if self.kind == "cli":
            return [python, "-m", "casimetry.cli", *self.argv]
        return [python, str(DRIVER), *self.argv]


@dataclass
class Workload:
    """Jobs of one workload plus what the checks need to know about them."""

    name: str
    seed: int
    jobs: list
    roughness: dict = field(default_factory=dict)   # file -> (heights_m, weights)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _gaussian_profile(sigma_nm: float):
    # 9-level Gaussian histogram clipped at 3 sigma, heights in nm
    heights = np.linspace(-3.0 * sigma_nm, 3.0 * sigma_nm, ROUGH_LEVELS)
    weights = np.exp(-0.5 * (heights / sigma_nm) ** 2)
    return heights, weights


def _drude_nk_table(omega_p: float, gamma: float) -> str:
    """(omega, n, k) rows of Drude gold on a fixed log grid, 0.1-30 eV."""
    omega = np.geomspace(1.5e14, 4.5e16, TABLE_ROWS)
    eps = 1.0 - omega_p ** 2 / (omega * (omega + 1j * gamma))
    nk = np.sqrt(eps)
    rows = [f"{float(w)!r} {float(c.real)!r} {float(c.imag)!r}"
            for w, c in zip(omega, nk)]
    return "#unit: rad/s\n" + "\n".join(rows) + "\n"


def _curves(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    sigmas = (rng.uniform(1.5, 3.5), rng.uniform(1.0, 3.0))
    roughness = {}
    for tag, sigma in zip(("a", "b"), sigmas):
        heights, weights = _gaussian_profile(sigma)
        rel = f"inputs/rough_{tag}.txt"
        _write(root / rel, "".join(f"{float(h)!r} {float(w)!r}\n"
                                   for h, w in zip(heights, weights)))
        roughness[rel] = (heights * 1e-9, weights)
    _write(root / "inputs/smooth.ini",
           "[pressure]\n"
           f"models = {', '.join(MODELS)}\n"
           f"z_points = {CURVE_POINTS}\n")
    _write(root / "inputs/rough.ini",
           "[pressure]\n"
           f"models = {', '.join(ROUGH_MODELS)}\n"
           f"z_points = {ROUGH_POINTS}\n"
           "roughness_a = inputs/rough_a.txt\n"
           "roughness_b = inputs/rough_b.txt\n")
    jobs = [
        Job("pressure_smooth", "cli",
            ("pressure", "--config", "inputs/smooth.ini", "--out", "out/smooth"),
            tuple(f"out/smooth/pressure_{m}.csv" for m in MODELS)),
        Job("pressure_rough", "cli",
            ("pressure", "--config", "inputs/rough.ini", "--out", "out/rough"),
            tuple(f"out/rough/pressure_{m}.csv" for m in ROUGH_MODELS)),
    ]
    return Workload("curves", seed, jobs, roughness=roughness)


def _tables(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    omega_p = OMEGA_P * (1.0 + rng.uniform(-0.03, 0.03))
    gamma = GAMMA * (1.0 + rng.uniform(-0.1, 0.1))
    _write(root / "inputs/gold.txt", _drude_nk_table(omega_p, gamma))
    drude = (f"plasma_frequency_rad_s = {omega_p!r}\n"
             f"relaxation_rad_s = {gamma!r}\n"
             "optical_table = inputs/gold.txt\n")
    _write(root / "inputs/kk.ini", f"[kk]\nl_max = {KK_L_MAX}\n" + drude)
    _write(root / "inputs/table_pressure.ini",
           "[pressure]\n"
           f"models = {', '.join(TABLE_MODELS)}\n"
           f"z_points = {TABLE_POINTS}\n" + drude)
    jobs = [
        Job("kk", "cli",
            ("kk", "--config", "inputs/kk.ini", "--out", "out/kk"),
            ("out/kk/dispersion.csv",)),
        Job("pressure_table", "cli",
            ("pressure", "--config", "inputs/table_pressure.ini",
             "--out", "out/pressure"),
            tuple(f"out/pressure/pressure_{m}.csv" for m in TABLE_MODELS)),
    ]
    return Workload("tables", seed, jobs)


def _campaign(seed: int, root: Path) -> Workload:
    cli_seed = 1000 + seed
    first = 100_000 + DRIVER_SEEDS * seed
    _write(root / "inputs/constraints.ini",
           "[constraints]\n"
           "band_file = out/band_impedance.csv\n"
           f"lambda_points = {LAMBDA_POINTS}\n")
    tested = ("impedance", "drude", "schwinger")
    jobs = [
        Job("exclusion", "cli",
            ("exclusion", "--seed", str(cli_seed), "--out", "out"),
            ("out/ensemble.csv", "out/verdicts.json",
             *(f"out/band_{m}.csv" for m in tested),
             *(f"out/differences_{m}.csv" for m in tested))),
        Job("constraints", "cli",
            ("constraints", "--config", "inputs/constraints.ini", "--out", "out"),
            ("out/constraints.csv",)),
        Job("driver", "driver",
            ("--first-seed", str(first), "--out", "out/driver.json"),
            ("out/driver.json",)),
    ]
    return Workload("campaign", seed, jobs)


_BUILDERS = {"curves": _curves, "tables": _tables, "campaign": _campaign}


def prepare(name: str, seed: int, root: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` under `root`."""
    return _BUILDERS[name](seed, root)
