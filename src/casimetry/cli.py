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

A run reads the INI ``[section]`` named after its subcommand (other
sections are checked only for their names), overridden first by
``CASIMETRY_<SUBCOMMAND>_<KEY>`` environment variables and then by the
subcommand's flags.  Every output file starts with comment lines
recording a hash of that effective section and the physical-constants
version, so artifacts can be traced back to the run that made them.
Runs with identical configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from ._record import dataclass, field
from pathlib import Path

# before numpy loads: the engine's BLAS products are too small for a per-core pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    casimir_pressure,  # not called here: perfbench/test_checks.py reads it
    compute_pressure_curve,
    matsubara_frequency,
)
from .metrology import (
    CONFIDENCE_LEVELS,
    DEFAULT_N_SETS,
    DEFAULT_POINTS_PER_SET,
    DEFAULT_SEED,
    DEFAULT_Z_RANGE,
    ConfidenceBand,
    SparseEnsembleError,
    generate_synthetic_ensemble,
    run_exclusion_analysis,
    save_ensemble_csv,
    theory_error_curve,
)
from .optics import DrudeParameters, PermittivityFn, load_optical_table

ENV_PREFIX = "CASIMETRY_"


@dataclass
class RunConfig:
    """Effective configuration of one run: its subcommand's section.

    Values are kept as strings until a typed getter is called; the
    hash is recomputed from the current state so flag overrides are
    part of it.
    """

    section: str
    values: dict = field(default_factory=dict)

    def set(self, key: str, value: str) -> None:
        self.values[key.lower()] = value

    def get(self, key: str, default=None, required: bool = False):
        value = self.values.get(key.lower())
        if value is None:
            if required:
                raise ValueError(f"missing config key {self.section}.{key}")
            return default
        return value

    def _typed(self, key, default, kind, what):
        value = self.get(key)
        if value is None:
            return default
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"config {self.section}.{key}: not {what}: {value!r}")

    def get_float(self, key, default=None):
        return self._typed(key, default, float, "a number")

    def get_int(self, key, default=None):
        return self._typed(key, default, int, "an integer")

    def get_checked(self, key, default, ok, what, integer=False):
        """A number (an integer if asked) that passes ok (a NaN must fail
        it), else a named error."""
        value = (self.get_int if integer else self.get_float)(key, default)
        if value is not None and not ok(value):
            raise ValueError(f"{self.section}.{key} must be {what}, not {value}")
        return value

    def get_list(self, key, default=()):
        value = self.get(key)
        if value is None:
            return list(default)
        items = [item.strip() for item in value.split(",") if item.strip()]
        if not items:
            raise ValueError(f"config {self.section}.{key}: empty list")
        return items

    def get_path(self, key, required=False):
        value = self.get(key, required=required)
        if value is None:
            return None
        path = Path(value)
        if not path.exists():
            raise ValueError(f"config {self.section}.{key}: no such file: {path}")
        return path

    def hash(self) -> str:
        lines = sorted(f"{self.section}.{key} = {value}"
                       for key, value in self.values.items())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return digest[:12]


def load_run_config(path, section: str) -> RunConfig:
    """Read one subcommand's section and fold in its environment overrides.

    No file means an empty configuration; every key then takes its
    built-in default.  The file's other sections are checked only for
    their names.  Environment variables named
    ``CASIMETRY_<SECTION>_<KEY>`` replace the file value for that key.
    """
    cfg = RunConfig(section)
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#",),
                                           delimiters=("=",))
        try:
            with open(path) as fh:
                parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ValueError(f"bad config file: {exc}")
        for name in parser.sections():
            if name not in _COMMANDS:
                raise ValueError(f"{path}: unknown section [{name}]")
        if parser.has_section(section):
            for key, value in parser.items(section):
                cfg.set(key, value.strip())
    for name, value in os.environ.items():
        env_section, _, key = name[len(ENV_PREFIX):].partition("_")
        if name.startswith(ENV_PREFIX) and key and env_section.lower() == section:
            cfg.set(key, value)
    return cfg


_POSITIVE = (lambda v: 0 < v < np.inf, "positive and finite")
_NON_NEGATIVE = (lambda v: 0 <= v < np.inf, "non-negative and finite")
_COUNT = (lambda v: v >= 1, ">= 1")
_LEVEL = (lambda v: v in CONFIDENCE_LEVELS, " or ".join(map(str, CONFIDENCE_LEVELS)))


def _log_grid(cfg: RunConfig, name: str, lo: float, hi: float, n: int):
    """The log-spaced grid of keys <name>_min_m, <name>_max_m, <name>_points."""
    lo_key, hi_key, n_key = f"{name}_min_m", f"{name}_max_m", f"{name}_points"
    lo, hi = cfg.get_float(lo_key, lo), cfg.get_float(hi_key, hi)
    n = cfg.get_checked(n_key, n, *_COUNT, integer=True)
    if not 0 < lo <= hi < np.inf:
        raise ValueError(f"{cfg.section}: need 0 < {lo_key} <= {hi_key} < inf")
    if n > 1 and lo == hi:
        raise ValueError(f"{cfg.section}: {n_key} > 1 needs {lo_key} < {hi_key}")
    return np.geomspace(lo, hi, n)


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

def _drude_from_config(cfg: RunConfig) -> DrudeParameters:
    return DrudeParameters(
        omega_p=cfg.get_checked("plasma_frequency_rad_s", 1.37e16, *_POSITIVE),
        gamma=cfg.get_checked("relaxation_rad_s", 5.3e13, *_NON_NEGATIVE))


def _permittivity_from_config(cfg: RunConfig):
    """Dielectric function of a run: tabulated if a file is named.

    Returns (DrudeParameters, PermittivityFn).  The Drude parameters
    always exist; they extend any table beyond its frequency range.
    """
    drude = _drude_from_config(cfg)
    table = cfg.get_path("optical_table")
    if table is None:
        return drude, PermittivityFn.from_drude(drude)
    dataset = load_optical_table(table.read_text(),
                                 unit_spec=cfg.get("optical_unit"),
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
    table = cfg.get_path("optical_table", required=True)
    temperature = cfg.get_checked("temperature_K", 300.0, *_POSITIVE)
    l_max = cfg.get_checked("l_max", 500, *_COUNT, integer=True)
    _, eps = _permittivity_from_config(cfg)
    # the xi_l = l xi_1 that the engine evaluates eps at
    xi = matsubara_frequency(temperature, 1) * np.arange(1, l_max + 1)
    _write_csv(out / "dispersion.csv", cfg, ("xi_rad_s", "epsilon"),
               zip(xi, eps(xi)),
               comments=(f"temperature_K = {temperature}",
                         f"source = {table.stem}"))


def cmd_pressure(cfg: RunConfig, out: Path) -> None:
    """Write one pressure table per requested reflection model."""
    model_keys = cfg.get_list("models", ("impedance",))
    temperature = cfg.get_checked("temperature_K", 300.0, *_POSITIVE)
    z = _log_grid(cfg, "z", 160e-9, 750e-9, 30)
    confidence = cfg.get_checked("confidence", 0.95, *_LEVEL)
    state = ThermalState(temperature)
    drude, eps = _permittivity_from_config(cfg)

    paths = [cfg.get_path(f"roughness_{side}") for side in "ab"]
    profile_a, profile_b = (RoughnessProfile.flat() if path is None
                            else load_roughness_profile(path) for path in paths)
    rough = any(path is not None for path in paths)

    rel_err = theory_error_curve(z, confidence=confidence)
    for key in model_keys:
        model = build_model(key, drude, eps)
        pressure = (roughness_corrected_pressure(
            lambda s: compute_pressure_curve(model, s, state).pressure,
            profile_a, profile_b, z)
            if rough else compute_pressure_curve(model, z, state).pressure)
        _write_csv(out / f"pressure_{key}.csv", cfg,
                   ("z_m", "pressure_Pa", "rel_theory_error"),
                   zip(z, pressure, rel_err),
                   comments=(f"model = {key}",
                             f"temperature_K = {temperature}"))


def cmd_exclusion(cfg: RunConfig, out: Path) -> None:
    """Synthesize an ensemble, band-test models, write all artifacts."""
    generator = cfg.get("generator", "impedance")
    tested = cfg.get_list("tested", ("impedance", "drude", "schwinger"))
    confidence = cfg.get_checked("confidence", 0.95, *_LEVEL)
    seed = cfg.get_checked("seed", DEFAULT_SEED, *_NON_NEGATIVE, integer=True)
    n_sets = cfg.get_checked("n_sets", DEFAULT_N_SETS, *_COUNT, integer=True)
    points = cfg.get_checked("points_per_set", DEFAULT_POINTS_PER_SET, *_COUNT,
                             integer=True)
    z_min = cfg.get_float("z_min_m", DEFAULT_Z_RANGE[0])
    z_max = cfg.get_float("z_max_m", DEFAULT_Z_RANGE[1])
    if not 0 < z_min < z_max < np.inf:
        raise ValueError("exclusion: need 0 < z_min_m < z_max_m < inf")
    temperature = cfg.get_checked("temperature_K", 300.0, *_POSITIVE)
    noise_mode = cfg.get("noise", "default")
    if noise_mode not in ("default", "none"):
        raise ValueError("exclusion.noise must be 'default' or 'none'")

    state = ThermalState(temperature)
    drude, eps = _permittivity_from_config(cfg)
    keys = list(dict.fromkeys([generator, *tested]))
    # curve grid padded past the sampling range so jittered true
    # separations stay inside the interpolation table
    grid = np.geomspace(0.92 * z_min, 1.02 * z_max, 80)
    curves = {key: compute_pressure_curve(build_model(key, drude, eps),
                                          grid, state)
              for key in keys}

    ensemble = generate_synthetic_ensemble(
        curve=curves[generator], noise=noise_mode == "default",
        n_sets=n_sets, points_per_set=points, z_range=(z_min, z_max),
        seed=seed)

    try:
        verdicts = run_exclusion_analysis(ensemble, curves, generator, confidence)
    except SparseEnsembleError as exc:
        raise ValueError(f"exclusion.n_sets = {n_sets} and exclusion.points_per_set"
                         f" = {points} are too few: {exc}") from None

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
        if level not in CONFIDENCE_LEVELS or stated not in (None, level):
            raise ValueError(f"{path}:{lineno}: bad or conflicting "
                             f"confidence {value.strip()!r}")
        stated = level
    try:
        return ConfidenceBand(data[:, 0], data[:, 1], stated or fallback)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_constraints(cfg: RunConfig, out: Path) -> None:
    """Turn a residual band into Yukawa strength limits."""
    paths = [cfg.get_path(f"stack_{side}") for side in "ab"]
    stack_a, stack_b = (default() if path is None else load_layer_stack(path)
                        for path, default in zip(
                            paths, (coated_sphere_stack, coated_plate_stack)))

    lambdas = _log_grid(cfg, "lambda", 40e-9, 370e-9, 20)
    confidence = cfg.get_checked("confidence", 0.95, *_LEVEL)

    band_path = cfg.get_path("band_file")
    sigma = cfg.get_checked("sigma_Pa", None, *_POSITIVE)
    if band_path is not None:
        band = _load_band_csv(band_path, confidence)
        if cfg.get("confidence") is not None and band.confidence != confidence:
            raise ValueError(f"constraints.confidence = {confidence} disagrees with "
                             f"{band_path}: confidence = {band.confidence}")
        origin = f"band_file = {band_path}"
    elif sigma is not None:
        # a flat band: the Yukawa pressure may nowhere exceed sigma
        z = _log_grid(cfg, "z", 160e-9, 750e-9, 40)
        band = ConfidenceBand(z, np.full(z.size, sigma), confidence)
        origin = f"sigma_Pa = {sigma}"
    else:
        raise ValueError("constraints: need either band_file or sigma_Pa")

    curve = constraint_curve(band, stack_a, stack_b, lambdas)
    save_constraint_csv(curve, out / "constraints.csv", _stamped(cfg, origin))
    print(f"wrote {out / 'constraints.csv'}")

    ref_path = cfg.get_path("reference_curve")
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
        if name == "exclusion":
            p.add_argument("--seed", type=int, help="override exclusion.seed")
        if name in ("pressure", "exclusion", "constraints"):
            p.add_argument("--confidence", type=float, choices=CONFIDENCE_LEVELS,
                           help=f"override {name}.confidence")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created if missing)")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)

    try:
        cfg = load_run_config(args.config, args.command)
        # a flag sets the key of its name in the subcommand's section
        for flag in ("seed", "confidence"):
            if getattr(args, flag, None) is not None:
                cfg.set(flag, str(getattr(args, flag)))
        args.out.mkdir(parents=True, exist_ok=True)
        args.func(cfg, args.out)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
