"""Correctness gate for every benchmark job.

A job passes when it exits with 0, writes every declared output, and the
outputs satisfy the invariants below.  Outputs that the seed does not
change (the six-model ``pressure_smooth`` job) must match the frozen
reference in ``reference/`` on every seed; for the reference seed every
job must match it.  `gate` adds byte identity from pass to pass.

Invariants, for any seed:

- pressures are finite and negative, and |P| falls strictly with z;
- |P_drude| <= |P_schwinger| wherever a job writes both;
- |P| <= |P_ideal|, the ideal-metal pressure from its closed form (averaged
  over the same height pairs for roughness-corrected curves), and the
  program's own ideal curve equals that closed form to 1e-9 relative;
- eps(i xi) >= 1;
- alpha_max > 0, and every exclusion verdict is internally consistent.

Against the reference: pressures, eps and alpha_max to 1e-9 relative
(``quad_tol``); verdicts, point counts and ``accepted`` identical; excluded
windows identical in number, with edges to 1e-12 relative, since the edges
are bin means that a reordered summation may move in the last digits.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from casimetry.constants import C_LIGHT, HBAR, K_B

from workloads import (
    DRIVER_SEEDS,
    ENSEMBLE_POINTS,
    KK_L_MAX,
    LAMBDA_POINTS,
    TEMPERATURE,
    Job,
    Workload,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 1
VALUE_RTOL = 1e-9
WINDOW_RTOL = 1e-12
IDEAL_RTOL = 1e-9    # the program's ideal curve against the closed form
SEED_FREE_JOBS = ("pressure_smooth",)   # inputs that no seed changes

ZETA3 = 1.2020569031595942


def ideal_pressure(z, temperature: float = TEMPERATURE):
    """Thermal pressure between ideal metal plates, Pa, in closed form.

    With r^2 = 1 every Matsubara term integrates term by term:
    P = -(k_B T / 8 pi z^3) [2 zeta(3) + 2 sum_{l,n>=1} e^{-n l y1}
    ((l y1)^2/n + 2 l y1/n^2 + 2/n^3)], y1 = 4 pi k_B T z / (hbar c).
    The sum over l is geometric and is done exactly; the sum over n runs
    until e^{-n y1} < 1e-22.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        y1 = 4.0 * math.pi * K_B * temperature * zi / (HBAR * C_LIGHT)
        n = np.arange(1, math.ceil(51.0 / y1) + 1, dtype=float)
        x = np.exp(-n * y1)
        s0 = x / (1.0 - x)                      # sum_l x^l
        s1 = x / (1.0 - x) ** 2                 # sum_l l x^l
        s2 = x * (1.0 + x) / (1.0 - x) ** 3     # sum_l l^2 x^l
        terms = y1 * y1 * s2 / n + 2.0 * y1 * s1 / n ** 2 + 2.0 * s0 / n ** 3
        total = 2.0 * ZETA3 + 2.0 * float(np.sum(terms))
        out[i] = -K_B * temperature / (8.0 * math.pi * zi ** 3) * total
    return out


def rough_ideal_pressure(z, heights_a, weights_a, heights_b, weights_b):
    """Ideal-metal pressure averaged over both height distributions.

    Heights are recentred and weights normalised the way the program
    reads a roughness file.  Averaging with positive weights keeps the
    bound: |sum w P_model| <= sum w |P_ideal|.
    """
    wa = np.asarray(weights_a, float) / np.sum(weights_a)
    wb = np.asarray(weights_b, float) / np.sum(weights_b)
    ha = np.asarray(heights_a, float) - wa @ heights_a
    hb = np.asarray(heights_b, float) - wb @ heights_b
    w = np.outer(wa, wb).ravel()
    return np.array([w @ ideal_pressure(zi + np.add.outer(ha, hb).ravel())
                     for zi in np.atleast_1d(z)])


# ---------------------------------------------------------------- parsing

def read_csv(path: Path) -> dict:
    """Columns of a CLI CSV file; '#' lines are comments, then a header."""
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"{path.name}: no header")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    return {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}


def _verdict_digest(v: dict) -> dict:
    return {"accepted": v["accepted"], "n_outside": v["n_outside"],
            "n_points": v["n_points"],
            "windows": [[w["z_min"], w["z_max"]] for w in v["excluded_windows"]]}


def digest(job: Job, root: Path) -> dict:
    """The values of a job's outputs that the checks and references use."""
    out = {}
    for rel in job.outputs:
        path = root / rel
        stem = path.stem
        if stem.startswith("pressure_"):
            cols = read_csv(path)
            out["z"] = cols["z_m"]
            out[f"pressure.{stem[len('pressure_'):]}"] = cols["pressure_Pa"]
        elif stem == "dispersion":
            out["epsilon"] = read_csv(path)["epsilon"]
        elif stem == "constraints":
            out["alpha_max"] = read_csv(path)["alpha_max"]
        elif stem == "verdicts":
            body = json.loads(path.read_text())
            for tag, v in body["verdicts"].items():
                out[f"verdict.{tag}"] = _verdict_digest(v)
        elif stem == "driver":
            body = json.loads(path.read_text())
            for seed, run in body["runs"].items():
                out[f"alpha_max.{seed}"] = np.array(run["alpha_max"])
                for tag, v in run["verdicts"].items():
                    out[f"verdict.{seed}.{tag}"] = _verdict_digest(v)
        elif stem == "ensemble":
            out["ensemble.pressure"] = read_csv(path)["pressure_Pa"]
        elif stem.startswith("band_"):
            out[f"band.{stem[len('band_'):]}"] = read_csv(path)["half_width_Pa"]
        elif stem.startswith("differences_"):
            out[f"differences.{stem[len('differences_'):]}"] = (
                read_csv(path)["difference_Pa"])
    return out


# ---------------------------------------------------------------- invariants

def _check_pressures(d: dict, bound, errors: list) -> None:
    for key, p in d.items():
        if not key.startswith("pressure."):
            continue
        if p.shape != d["z"].shape or p.size == 0:
            errors.append(f"{key}: {p.size} rows for {d['z'].size} separations")
            continue
        if not np.all(np.isfinite(p)) or not np.all(p < 0.0):
            errors.append(f"{key}: pressures must be finite and negative")
            continue
        if not np.all(np.diff(np.abs(p)) < 0.0):
            errors.append(f"{key}: |P| does not fall strictly with z")
        if key == "pressure.ideal":
            if not _close(p, bound, IDEAL_RTOL):
                errors.append(f"{key}: differs from the closed form")
        elif not np.all(np.abs(p) <= np.abs(bound)):
            errors.append(f"{key}: |P| exceeds the ideal-metal bound")
    if "pressure.drude" in d and "pressure.schwinger" in d:
        if not np.all(np.abs(d["pressure.drude"])
                      <= np.abs(d["pressure.schwinger"])):
            errors.append("|P_drude| exceeds |P_schwinger|")


def _check_verdict(key: str, v: dict, errors: list) -> None:
    if v["n_points"] != ENSEMBLE_POINTS or not 0 <= v["n_outside"] <= v["n_points"]:
        errors.append(f"{key}: inconsistent point counts")
    if v["accepted"] and v["windows"]:
        errors.append(f"{key}: accepted with excluded windows")
    for lo, hi in v["windows"]:
        if not 0.0 < lo <= hi:
            errors.append(f"{key}: malformed window")


def check_invariants(workload: Workload, job: Job, d: dict) -> list:
    """Messages for every invariant the job's outputs break."""
    errors = []
    if any(k.startswith("pressure.") for k in d):
        if job.name == "pressure_rough":
            (ha, wa), (hb, wb) = workload.roughness.values()
            bound = rough_ideal_pressure(d["z"], ha, wa, hb, wb)
        else:
            bound = ideal_pressure(d["z"])
        _check_pressures(d, bound, errors)
    if "epsilon" in d:
        eps = d["epsilon"]
        if eps.size != KK_L_MAX:
            errors.append(f"dispersion: {eps.size} rows, expected {KK_L_MAX}")
        if not np.all(np.isfinite(eps)) or not np.all(eps >= 1.0):
            errors.append("dispersion: eps(i xi) must be finite and >= 1")
    alphas = {k: v for k, v in d.items() if k.startswith("alpha_max")}
    for key, alpha in alphas.items():
        if alpha.size != LAMBDA_POINTS or not np.all(np.isfinite(alpha)) \
                or not np.all(alpha > 0.0):
            errors.append(f"{key}: need {LAMBDA_POINTS} finite alpha_max > 0")
    if job.kind == "driver" and len(alphas) != DRIVER_SEEDS:
        errors.append(f"driver: {len(alphas)} runs, expected {DRIVER_SEEDS}")
    for key, v in d.items():
        if key.startswith("verdict."):
            _check_verdict(key, v, errors)
    if "ensemble.pressure" in d:
        p = d["ensemble.pressure"]
        if p.size != ENSEMBLE_POINTS or not np.all(np.isfinite(p)):
            errors.append("ensemble: expected finite pressures at every point")
    for key, v in d.items():
        if key.startswith("band.") and not np.all(v > 0.0):
            errors.append(f"{key}: half-widths must be positive")
        if key.startswith("differences.") and not np.all(np.isfinite(v)):
            errors.append(f"{key}: differences must be finite")
    return errors


# ---------------------------------------------------------------- reference

def _close(a, b, rtol) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


REFERENCE_KEYS = ("pressure.", "epsilon", "alpha_max", "verdict.")


def reference_view(d: dict) -> dict:
    """The part of a digest frozen as reference, in JSON-ready form."""
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in d.items() if k.startswith(REFERENCE_KEYS)}


def compare_reference(d: dict, reference: dict) -> list:
    """Messages for every value that differs from the frozen reference."""
    errors = []
    mine = reference_view(d)
    if set(mine) != set(reference):
        errors.append(f"reference keys differ: {sorted(set(mine) ^ set(reference))}")
    for key in sorted(set(mine) & set(reference)):
        got, want = mine[key], reference[key]
        if key.startswith("verdict."):
            same = (got["accepted"] == want["accepted"]
                    and got["n_outside"] == want["n_outside"]
                    and got["n_points"] == want["n_points"]
                    and len(got["windows"]) == len(want["windows"])
                    and _close(got["windows"], want["windows"], WINDOW_RTOL))
        else:
            same = _close(got, want, VALUE_RTOL)
        if not same:
            errors.append(f"{key}: differs from the reference")
    return errors


def load_reference(workload: str, seed: int) -> dict:
    """Frozen reference views, by job name, of the jobs `seed` must match.

    That is every job for the reference seed, and otherwise only the jobs
    in `SEED_FREE_JOBS`, whose outputs no seed changes.
    """
    frozen = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    if seed == REFERENCE_SEED:
        return frozen
    return {name: view for name, view in frozen.items() if name in SEED_FREE_JOBS}


# ---------------------------------------------------------------- job gate

def output_hashes(job: Job, root: Path) -> dict:
    return {rel: hashlib.sha256((root / rel).read_bytes()).hexdigest()
            for rel in job.outputs}


def check_job(workload: Workload, job: Job, root: Path, reference=None) -> list:
    """All failures of one finished job's outputs; empty means they pass.

    `reference` maps job names to frozen reference views, as
    `load_reference` gives them; jobs it leaves out are not compared.
    """
    missing = [rel for rel in job.outputs if not (root / rel).is_file()]
    if missing:
        return [f"missing output {rel}" for rel in missing]
    try:
        d = digest(job, root)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {exc}"]
    errors = check_invariants(workload, job, d)
    if reference is not None and job.name in reference:
        errors += compare_reference(d, reference[job.name])
    return errors


def gate(workload: Workload, job: Job, root: Path, code, reference,
         first_hashes: dict) -> list:
    """All failures of one job run; an empty list means it passed.

    `code` is the job's exit code, or a traceback if it raised in process.
    `first_hashes` keeps the output hashes of each job's first passing run,
    which every later run of the job must reproduce byte for byte.
    """
    if code != 0:
        return [f"job failed: {code}"]
    errors = check_job(workload, job, root, reference)
    if not errors:
        hashes = output_hashes(job, root)
        first = first_hashes.setdefault(job.name, hashes)
        errors = [f"{rel} differs from the first pass"
                  for rel in hashes if hashes[rel] != first[rel]]
    return errors
