"""Command line front end for tables, ensembles and constraints.

Four subcommands map onto the library layers:

``kk``
    Tabulate the imaginary-axis permittivity built from a measured
    optical table, one row per Matsubara frequency.
``pressure``
    Tabulate thermal pressure curves for a list of reflection models,
    optionally roughness corrected.
``exclusion``
    Generate a synthetic measurement ensemble, band-test candidate
    models against it and write the verdicts plus all intermediate
    curves.
``constraints``
    Convert a confidence band (or a flat RMS noise level) into limits
    on the strength of an added Yukawa interaction.

Configuration comes from an INI-style file with ``[section]`` headers
matching the subcommand names, overridden first by environment
variables (``CASIMETRY_<SECTION>_<KEY>``) and then by command line
flags.  Every output file starts with comment lines recording a hash
of the effective configuration and the physical-constants version, so
artifacts can be traced back to the run that made them.  Runs with
identical configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import CONSTANTS_VERSION
from .corrections import (
    RoughnessProfile,
    load_roughness_profile,
    roughness_corrected_pressure,
)
from .hypforce import (
    coated_plate_stack,
    coated_sphere_stack,
    constraint_curve,
    load_constraint_csv,
    load_layer_stack,
    save_constraint_csv,
)
from .io import read_csv, write_csv
from .lifshitz import (
    ReflectionModel,
    ThermalState,
    casimir_pressure,
    compute_pressure_curve,
    matsubara_frequency,
)
from .metrology import (
    DEFAULT_N_SETS,
    DEFAULT_POINTS_PER_SET,
    DEFAULT_SEED,
    DEFAULT_Z_RANGE,
    ConfidenceBand,
    ErrorBudget,
    ErrorComponent,
    generate_synthetic_ensemble,
    run_exclusion_analysis,
    save_ensemble_csv,
    theory_error_curve,
)
from .optics import DrudeParameters, PermittivityFn, load_optical_table

ENV_PREFIX = "CASIMETRY_"
SECTIONS = ("kk", "pressure", "exclusion", "constraints")


@dataclass
class RunConfig:
    """Effective, flat configuration of one run.

    Values are kept as strings until a typed getter is called; the
    hash is recomputed from the current state so flag overrides are
    part of it.
    """

    sections: dict = field(default_factory=dict)

    def set(self, section: str, key: str, value: str) -> None:
        self.sections.setdefault(section, {})[key.lower()] = value

    def get(self, section: str, key: str, default=None, required: bool = False):
        value = self.sections.get(section, {}).get(key.lower())
        if value is None:
            if required:
                raise ValueError(f"missing config key {section}.{key}")
            return default
        return value

    def get_float(self, section, key, default=None, required=False):
        value = self.get(section, key, required=required)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"config {section}.{key}: not a number: {value!r}")

    def get_int(self, section, key, default=None, required=False):
        value = self.get(section, key, required=required)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"config {section}.{key}: not an integer: {value!r}")

    def get_list(self, section, key, default=()):
        value = self.get(section, key)
        if value is None:
            return list(default)
        items = [item.strip() for item in value.split(",") if item.strip()]
        if not items:
            raise ValueError(f"config {section}.{key}: empty list")
        return items

    def get_path(self, section, key, required=False):
        value = self.get(section, key, required=required)
        if value is None:
            return None
        path = Path(value)
        if not path.exists():
            raise ValueError(f"config {section}.{key}: no such file: {path}")
        return path

    def hash(self) -> str:
        lines = sorted(f"{section}.{key} = {value}"
                       for section, items in self.sections.items()
                       for key, value in items.items())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return digest[:12]


def load_run_config(path=None) -> RunConfig:
    """Parse a config file and fold in environment overrides.

    No file means an empty configuration; every key then takes its
    built-in default.  Environment variables named
    ``CASIMETRY_<SECTION>_<KEY>`` replace the file value for that key.
    """
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#",),
                                           delimiters=("=",))
        try:
            with open(path) as fh:
                parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ValueError(f"bad config file: {exc}")
        for section in parser.sections():
            if section not in SECTIONS:
                raise ValueError(f"{path}: unknown section [{section}]")
            for key, value in parser.items(section):
                cfg.set(section, key, value.strip())
    for name, value in os.environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        section, _, key = rest.partition("_")
        if not key or section.lower() not in SECTIONS:
            continue
        cfg.set(section.lower(), key.lower(), value)
    return cfg


# ---------------------------------------------------------------- writers

def _stamped(cfg: RunConfig, *comments) -> tuple:
    return (f"config_hash: {cfg.hash()}",
            f"constants_version: {CONSTANTS_VERSION}", *comments)


def _write_csv(path: Path, cfg: RunConfig, columns, rows, comments=()):
    write_csv(path, columns, rows, _stamped(cfg, *comments))
    print(f"wrote {path}")


def _write_json(path: Path, cfg: RunConfig, payload: dict):
    body = {"config_hash": cfg.hash(),
            "constants_version": CONSTANTS_VERSION, **payload}
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------- models

def _drude_from_config(cfg: RunConfig, section: str) -> DrudeParameters:
    return DrudeParameters(
        omega_p=cfg.get_float(section, "plasma_frequency_rad_s", 1.37e16),
        gamma=cfg.get_float(section, "relaxation_rad_s", 5.3e13))


def _permittivity_from_config(cfg: RunConfig, section: str):
    """Dielectric function for a section: tabulated if a file is named.

    Returns (DrudeParameters, PermittivityFn).  The Drude parameters
    always exist; they extend any table beyond its frequency range.
    """
    drude = _drude_from_config(cfg, section)
    table = cfg.get_path(section, "optical_table")
    if table is None:
        return drude, PermittivityFn.from_drude(drude)
    dataset = load_optical_table(table.read_text(),
                                 unit_spec=cfg.get(section, "optical_unit"),
                                 metal_name=table.stem, source=str(table))
    return drude, PermittivityFn.from_table(dataset, drude)


def build_model(key: str, drude: DrudeParameters,
                permittivity: PermittivityFn) -> ReflectionModel:
    """The reflection model of a key of lifshitz.MODELS; its row decides
    which of the config's permittivity and omega_p it reads."""
    return ReflectionModel(key, permittivity, drude.omega_p)


# ---------------------------------------------------------------- commands

def cmd_kk(cfg: RunConfig, out: Path) -> None:
    """Write the imaginary-axis permittivity on the Matsubara grid."""
    table = cfg.get_path("kk", "optical_table", required=True)
    temperature = cfg.get_float("kk", "temperature_K", 300.0)
    l_max = cfg.get_int("kk", "l_max", 500)
    if l_max < 1:
        raise ValueError("kk.l_max must be >= 1: the l = 0 term is not "
                         "dispersive and the grid would be empty")
    _, eps = _permittivity_from_config(cfg, "kk")
    xi = [matsubara_frequency(temperature, l) for l in range(1, l_max + 1)]
    _write_csv(out / "dispersion.csv", cfg, ("xi_rad_s", "epsilon"),
               zip(xi, eps(np.array(xi))),
               comments=(f"temperature_K = {temperature}",
                         f"source = {table.stem}"))


def cmd_pressure(cfg: RunConfig, out: Path) -> None:
    """Write one pressure table per requested reflection model."""
    model_keys = cfg.get_list("pressure", "models", ("impedance",))
    temperature = cfg.get_float("pressure", "temperature_K", 300.0)
    z_min = cfg.get_float("pressure", "z_min_m", 160e-9)
    z_max = cfg.get_float("pressure", "z_max_m", 750e-9)
    n_z = cfg.get_int("pressure", "z_points", 30)
    confidence = cfg.get_float("pressure", "confidence", 0.95)
    if not 0 < z_min <= z_max:
        raise ValueError("pressure: need 0 < z_min_m <= z_max_m")
    if n_z < 1:
        raise ValueError("pressure.z_points must be >= 1")
    if n_z > 1 and z_min == z_max:
        raise ValueError("pressure: z_points > 1 needs z_min_m < z_max_m")
    z = np.geomspace(z_min, z_max, n_z)
    state = ThermalState(temperature)
    drude, eps = _permittivity_from_config(cfg, "pressure")

    paths = [cfg.get_path("pressure", f"roughness_{side}") for side in "ab"]
    profile_a, profile_b = (RoughnessProfile.flat() if path is None
                            else load_roughness_profile(path) for path in paths)
    rough = any(path is not None for path in paths)

    rel_err = theory_error_curve(z, confidence=confidence)
    for key in model_keys:
        model = build_model(key, drude, eps)
        pressure = (roughness_corrected_pressure(
            lambda s: casimir_pressure(model, s, state), profile_a, profile_b, z)
            if rough else compute_pressure_curve(model, z, state).pressure)
        _write_csv(out / f"pressure_{key}.csv", cfg,
                   ("z_m", "pressure_Pa", "rel_theory_error"),
                   zip(z, pressure, rel_err),
                   comments=(f"model = {key}",
                             f"temperature_K = {temperature}"))


def cmd_exclusion(cfg: RunConfig, out: Path) -> None:
    """Synthesize an ensemble, band-test models, write all artifacts."""
    generator = cfg.get("exclusion", "generator", "impedance")
    tested = cfg.get_list("exclusion", "tested",
                          ("impedance", "drude", "schwinger"))
    confidence = cfg.get_float("exclusion", "confidence", 0.95)
    seed = cfg.get_int("exclusion", "seed", DEFAULT_SEED)
    n_sets = cfg.get_int("exclusion", "n_sets", DEFAULT_N_SETS)
    points = cfg.get_int("exclusion", "points_per_set", DEFAULT_POINTS_PER_SET)
    z_min = cfg.get_float("exclusion", "z_min_m", DEFAULT_Z_RANGE[0])
    z_max = cfg.get_float("exclusion", "z_max_m", DEFAULT_Z_RANGE[1])
    temperature = cfg.get_float("exclusion", "temperature_K", 300.0)
    noise_mode = cfg.get("exclusion", "noise", "default")
    if noise_mode not in ("default", "none"):
        raise ValueError("exclusion.noise must be 'default' or 'none'")

    state = ThermalState(temperature)
    drude, eps = _permittivity_from_config(cfg, "exclusion")
    keys = list(dict.fromkeys([generator, *tested]))
    # curve grid padded past the sampling range so jittered true
    # separations stay inside the interpolation table
    grid = np.geomspace(0.92 * z_min, 1.02 * z_max, 80)
    curves = {key: compute_pressure_curve(build_model(key, drude, eps),
                                          grid, state)
              for key in keys}

    kwargs = {}
    if noise_mode == "none":
        silent = ErrorBudget((ErrorComponent("none", "normal", 0.0),))
        kwargs = {"noise": silent, "z_jitter": 0.0}
    ensemble = generate_synthetic_ensemble(
        n_sets=n_sets, points_per_set=points, z_range=(z_min, z_max),
        seed=seed, curve=curves[generator], **kwargs)

    verdicts = run_exclusion_analysis(ensemble, curves, generator, confidence)

    save_ensemble_csv(ensemble, out / "ensemble.csv", _stamped(
        cfg, f"generator = {generator}", f"seed = {seed}"))
    print(f"wrote {out / 'ensemble.csv'}")
    for tag, verdict in verdicts.items():
        band = verdict.band
        _write_csv(out / f"band_{tag}.csv", cfg, ("z_m", "half_width_Pa"),
                   zip(band.z, band.half_width),
                   comments=(f"confidence = {band.confidence}",))
        _write_csv(out / f"differences_{tag}.csv", cfg,
                   ("z_m", "difference_Pa"), verdict.differences,
                   comments=(f"model = {tag}",))
    _write_json(out / "verdicts.json", cfg, {
        "confidence": confidence,
        "generator": generator,
        "seed": seed,
        "verdicts": {tag: v.to_dict() for tag, v in verdicts.items()}})


def _load_band_csv(path: Path, fallback: float) -> ConfidenceBand:
    """Read a band; only a ``# confidence = <level>`` comment sets it."""
    comments, data = read_csv(path, ("z_m", "half_width_Pa"))
    stated = None
    for lineno, text in comments:
        key, _, value = text.partition("=")
        if key.strip() != "confidence":
            continue
        try:
            level = float(value)
        except ValueError:
            level = None
        if level not in (0.95, 0.99) or stated not in (None, level):
            raise ValueError(f"{path}:{lineno}: bad or conflicting "
                             f"confidence {value.strip()!r}")
        stated = level
    if len(data) < 2:
        raise ValueError(f"{path}: need at least two band rows")
    return ConfidenceBand(data[:, 0], data[:, 1], stated or fallback)


def cmd_constraints(cfg: RunConfig, out: Path) -> None:
    """Turn a residual band into Yukawa strength limits."""
    stack_a_path = cfg.get_path("constraints", "stack_a")
    stack_b_path = cfg.get_path("constraints", "stack_b")
    stack_a = (load_layer_stack(stack_a_path) if stack_a_path is not None
               else coated_sphere_stack())
    stack_b = (load_layer_stack(stack_b_path) if stack_b_path is not None
               else coated_plate_stack())

    lam_min = cfg.get_float("constraints", "lambda_min_m", 40e-9)
    lam_max = cfg.get_float("constraints", "lambda_max_m", 370e-9)
    n_lam = cfg.get_int("constraints", "lambda_points", 20)
    if not 0 < lam_min <= lam_max:
        raise ValueError("constraints: need 0 < lambda_min_m <= lambda_max_m")
    if n_lam < 1:
        raise ValueError("constraints.lambda_points must be >= 1")
    lambdas = np.geomspace(lam_min, lam_max, n_lam)
    confidence = cfg.get_float("constraints", "confidence", 0.95)

    band_path = cfg.get_path("constraints", "band_file")
    sigma = cfg.get_float("constraints", "sigma_Pa")
    if band_path is not None:
        band = _load_band_csv(band_path, confidence)
        origin = f"band_file = {band_path}"
    elif sigma is not None:
        # a flat band: the Yukawa pressure may nowhere exceed sigma
        z_min = cfg.get_float("constraints", "z_min_m", 160e-9)
        z_max = cfg.get_float("constraints", "z_max_m", 750e-9)
        n_z = cfg.get_int("constraints", "z_points", 40)
        band = ConfidenceBand(np.geomspace(z_min, z_max, n_z),
                              np.full(n_z, sigma), confidence)
        origin = f"sigma_Pa = {sigma}"
    else:
        raise ValueError("constraints: need either band_file or sigma_Pa")

    curve = constraint_curve(band, stack_a, stack_b, lambdas)
    save_constraint_csv(curve, out / "constraints.csv", _stamped(cfg, origin))
    print(f"wrote {out / 'constraints.csv'}")

    ref_path = cfg.get_path("constraints", "reference_curve")
    if ref_path is not None:
        reference = load_constraint_csv(ref_path)
        ref_alpha = reference.alpha_at(curve.lambdas)
        overlay = zip(curve.lambdas, curve.alpha_max, ref_alpha,
                      curve.alpha_max / ref_alpha)
        _write_csv(out / "overlay.csv", cfg,
                   ("lambda_m", "alpha_max", "alpha_reference", "ratio"),
                   overlay, comments=(f"reference = {ref_path}",))


# ---------------------------------------------------------------- entry

_COMMANDS = {
    "kk": (cmd_kk, "tabulate imaginary-axis permittivity from optical data"),
    "pressure": (cmd_pressure, "tabulate thermal pressure curves"),
    "exclusion": (cmd_exclusion, "band-test models on a synthetic ensemble"),
    "constraints": (cmd_constraints, "derive Yukawa strength limits"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="casimetry",
        description="thermal pressure curves, model exclusion and "
                    "interaction constraints")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="INI config file; defaults apply without one")
        p.add_argument("--seed", type=int, default=None,
                       help="override exclusion.seed")
        p.add_argument("--confidence", type=float, default=None,
                       choices=(0.95, 0.99),
                       help="override the confidence level")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created if missing)")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)

    try:
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg.set("exclusion", "seed", str(args.seed))
        if args.confidence is not None:
            for section in ("pressure", "exclusion", "constraints"):
                cfg.set(section, "confidence", str(args.confidence))
        args.out.mkdir(parents=True, exist_ok=True)
        args.func(cfg, args.out)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
