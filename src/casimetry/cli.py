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

A run reads the keys that ``KEYS`` declares for its subcommand from the
INI ``[section]`` of its name, then ``CASIMETRY_<SUBCOMMAND>_<KEY>``
variables, then its flags; any other key is an error.  Every output file
starts with comments recording a hash of the keys given (defaults are not
hashed) and the constants version.  Identical configuration and seed give
byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import hashlib
import json
import os
import sys
from pathlib import Path
from types import MappingProxyType

# before numpy loads: the engine's BLAS products are too small for a per-core pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ._record import dataclass, kept
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
from .io import format_column, read_csv, write_csv
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

    Only keys of ``KEYS[section]`` can be given, in any case, and they are
    kept lower-cased and read-only with the strings given; ``cfg[key]``
    parses and checks one by its row.  The hash covers the given strings
    alone, defaults left out.
    """

    section: str
    values: dict

    def __post_init__(self):
        values = {key.lower(): value for key, value in self.values.items()}
        for key in values:
            if key not in map(str.lower, KEYS[self.section]):
                raise ValueError(f"unknown key {self.section}.{key}; "
                                 f"[{self.section}] takes {', '.join(KEYS[self.section])}")
        object.__setattr__(self, "values", MappingProxyType(values))

    def __contains__(self, key: str) -> bool:
        return key.lower() in self.values

    def __getitem__(self, key: str):
        parse, check, default = KEYS[self.section][key]
        text = self.values.get(key.lower())
        if text is None:
            if default is _REQUIRED:
                raise ValueError(f"missing config key {self.section}.{key}")
            return default
        try:
            value = parse(text)
        except ValueError as exc:
            reason = f"not {_KINDS[parse]}: {text!r}" if parse in _KINDS else exc
            raise ValueError(f"config {self.section}.{key}: {reason}") from None
        if check is not None and not check[0](value):
            raise ValueError(f"{self.section}.{key} must be {check[1]}, not {value}")
        return value

    def hash(self) -> str:
        lines = sorted(f"{self.section}.{key} = {value}"
                       for key, value in self.values.items())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return digest[:12]


def load_run_config(path, section: str, flags=None) -> RunConfig:
    """Build one subcommand's configuration from its file section, then its
    ``CASIMETRY_<SECTION>_<KEY>`` variables, then its `flags` (key: string).

    Each replaces the one before.  No file means an empty section; every key
    then takes its built-in default.  The file's other sections are checked
    only for their names.
    """
    values = {}
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
            values.update((key, value.strip()) for key, value in parser.items(section))
    for name, value in os.environ.items():
        env_section, _, key = name[len(ENV_PREFIX):].partition("_")
        if name.startswith(ENV_PREFIX) and key and env_section.lower() == section:
            values[key.lower()] = value
    return RunConfig(section, {**values, **(flags or {})})


def _list(text):
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _path(text):
    if not Path(text).exists():
        raise ValueError(f"no such file: {Path(text)}")
    return Path(text)


_KINDS = {float: "a number", int: "an integer"}  # the words of their parse errors
_POSITIVE = (lambda v: 0 < v < np.inf, "positive and finite")
_NON_NEGATIVE = (lambda v: 0 <= v < np.inf, "non-negative and finite")
_COUNT = (lambda v: v >= 1, ">= 1")
_LEVEL = (lambda v: v in CONFIDENCE_LEVELS, " or ".join(map(str, CONFIDENCE_LEVELS)))
_NOISE = (lambda v: v in ("default", "none"), "'default' or 'none'")
_REQUIRED = object()  # the default of a key that must be given
_FILE = (_path, None, None)

_OPTICS = {"temperature_K": (float, _POSITIVE, 300.0),
           "plasma_frequency_rad_s": (float, _POSITIVE, 1.37e16),
           "relaxation_rad_s": (float, _NON_NEGATIVE, 5.3e13),
           "optical_table": _FILE, "optical_unit": (str, None, None)}
_CONFIDENCE = {"confidence": (float, _LEVEL, 0.95)}


def _grid_keys(name, lo, hi, n):
    """The rows of the log-spaced grid that _log_grid(cfg, name) reads."""
    return {f"{name}_min_m": (float, None, lo), f"{name}_max_m": (float, None, hi),
            f"{name}_points": (int, _COUNT, n)}


# each subcommand's keys: name -> (parser, check or None, default); a check fails a NaN
KEYS = {
    "kk": {**_OPTICS, "optical_table": (_path, None, _REQUIRED),
           "l_max": (int, _COUNT, 500)},
    "pressure": {**_OPTICS, **_CONFIDENCE, **_grid_keys("z", 160e-9, 750e-9, 30),
                 "models": (_list, None, ("impedance",)),
                 "roughness_a": _FILE, "roughness_b": _FILE},
    "exclusion": {**_OPTICS, **_CONFIDENCE, "generator": (str, None, "impedance"),
                  "tested": (_list, None, ("impedance", "drude", "schwinger")),
                  "seed": (int, _NON_NEGATIVE, DEFAULT_SEED),
                  "n_sets": (int, _COUNT, DEFAULT_N_SETS),
                  "points_per_set": (int, _COUNT, DEFAULT_POINTS_PER_SET),
                  "z_min_m": (float, None, DEFAULT_Z_RANGE[0]),
                  "z_max_m": (float, None, DEFAULT_Z_RANGE[1]),
                  "noise": (str, _NOISE, "default")},
    "constraints": {**_CONFIDENCE, **_grid_keys("lambda", 40e-9, 370e-9, 20),
                    "band_file": _FILE, "sigma_Pa": (float, _POSITIVE, None),
                    **_grid_keys("z", 160e-9, 750e-9, 40), "reference_curve": _FILE,
                    "z_points": (int, (lambda v: v >= 2, ">= 2"), 40),  # the flat band's nodes
                    "stack_a": _FILE, "stack_b": _FILE},
}


def _log_grid(cfg: RunConfig, name: str):
    """The log-spaced grid of keys <name>_min_m, <name>_max_m, <name>_points."""
    lo_key, hi_key, n_key = f"{name}_min_m", f"{name}_max_m", f"{name}_points"
    lo, hi, n = cfg[lo_key], cfg[hi_key], cfg[n_key]
    if not 0 < lo <= hi < np.inf:
        raise ValueError(f"{cfg.section}: need 0 < {lo_key} <= {hi_key} < inf")
    if n > 1 and lo == hi:
        raise ValueError(f"{cfg.section}: {n_key} > 1 needs {lo_key} < {hi_key}")
    return np.geomspace(lo, hi, n)


# ---------------------------------------------------------------- writers

def _stamped(cfg: RunConfig, *comments) -> tuple:
    return (f"config_hash: {cfg.hash()}",
            f"constants_version: {CONSTANTS_VERSION}", *comments)


def _write_csv(path: Path, cfg: RunConfig, columns, data, comments=()) -> None:
    write_csv(path, columns, data, _stamped(cfg, *comments))
    print(f"wrote {path}")


def _write_json(path: Path, cfg: RunConfig, payload: dict):
    body = {"config_hash": cfg.hash(),
            "constants_version": CONSTANTS_VERSION, **payload}
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------- models

def _permittivity_from_config(cfg: RunConfig):
    """Dielectric function of a run: tabulated if a file is named.

    Returns (DrudeParameters, PermittivityFn).  The Drude parameters
    always exist; they extend any table beyond its frequency range.
    """
    drude = DrudeParameters(cfg["plasma_frequency_rad_s"], cfg["relaxation_rad_s"])
    table = cfg["optical_table"]
    if table is None:
        if "optical_unit" in cfg:
            raise ValueError(f"{cfg.section}: optical_unit needs an optical_table")
        return drude, PermittivityFn.from_drude(drude)
    dataset = load_optical_table(table.read_text(), unit_spec=cfg["optical_unit"],
                                 metal_name=table.stem, source=str(table))
    return drude, PermittivityFn.from_table(dataset, drude)


# only perfbench/run.py calls it (ROADMAP item 1, stage A)
def build_model(key: str, drude: DrudeParameters,
                permittivity: PermittivityFn) -> ReflectionModel:
    """The reflection model of a key of lifshitz.MODELS; its row decides
    which of the config's permittivity and omega_p it reads."""
    return ReflectionModel(key, permittivity, drude.omega_p)


# ---------------------------------------------------------------- commands

def cmd_kk(cfg: RunConfig, out: Path) -> None:
    """Write the imaginary-axis permittivity on the Matsubara grid."""
    table, temperature, l_max = cfg["optical_table"], cfg["temperature_K"], cfg["l_max"]
    _, eps = _permittivity_from_config(cfg)
    # the xi_l = l xi_1 that the engine evaluates eps at
    xi = matsubara_frequency(temperature, 1) * np.arange(1, l_max + 1)
    _write_csv(out / "dispersion.csv", cfg, ("xi_rad_s", "epsilon"),
               (xi, eps(xi)),
               comments=(f"temperature_K = {temperature}",
                         f"source = {table.stem}"))


def cmd_pressure(cfg: RunConfig, out: Path) -> None:
    """Write one pressure table per requested reflection model."""
    model_keys, temperature = cfg["models"], cfg["temperature_K"]
    z, confidence = _log_grid(cfg, "z"), cfg["confidence"]
    state = ThermalState(temperature)
    drude, eps = _permittivity_from_config(cfg)

    paths = [cfg[f"roughness_{side}"] for side in "ab"]
    profile_a, profile_b = (RoughnessProfile.flat() if path is None
                            else load_roughness_profile(path) for path in paths)

    models = {key: ReflectionModel(key, eps, drude.omega_p)  # before any write
              for key in model_keys}
    rel_err = theory_error_curve(z, confidence=confidence)
    for key, model in models.items():
        pressure = roughness_corrected_pressure(
            lambda s: compute_pressure_curve(model, s, state).pressure,
            profile_a, profile_b, z)
        _write_csv(out / f"pressure_{key}.csv", cfg,
                   ("z_m", "pressure_Pa", "rel_theory_error"),
                   (z, pressure, rel_err),
                   comments=(f"model = {key}",
                             f"temperature_K = {temperature}"))


def cmd_exclusion(cfg: RunConfig, out: Path) -> None:
    """Synthesize an ensemble, band-test models, write all artifacts."""
    generator, tested, confidence = cfg["generator"], cfg["tested"], cfg["confidence"]
    seed, n_sets, points = cfg["seed"], cfg["n_sets"], cfg["points_per_set"]
    z_min, z_max = cfg["z_min_m"], cfg["z_max_m"]
    kept((z_min, z_max), "exclusion: need 0 < z_min_m < z_max_m < inf", grid=True)
    temperature, noise_mode = cfg["temperature_K"], cfg["noise"]

    state = ThermalState(temperature)
    drude, eps = _permittivity_from_config(cfg)
    keys = list(dict.fromkeys([generator, *tested]))
    # curve grid padded past the sampling range so jittered true
    # separations stay inside the interpolation table
    grid = np.geomspace(0.92 * z_min, 1.02 * z_max, 80)
    curves = {key: compute_pressure_curve(ReflectionModel(key, eps, drude.omega_p),
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

    # shared columns are formatted once: every differences file has the
    # ensemble's z, and every band lives on the one envelope grid
    z_text = save_ensemble_csv(ensemble, out / "ensemble.csv", _stamped(
        cfg, f"generator = {generator}", f"seed = {seed}"))
    print(f"wrote {out / 'ensemble.csv'}")
    first = next(iter(verdicts))
    grid = format_column(out / f"band_{first}.csv", verdicts[first].band.z)
    for tag, verdict in verdicts.items():
        band = verdict.band
        _write_csv(out / f"band_{tag}.csv", cfg, ("z_m", "half_width_Pa"),
                   (grid, band.half_width),
                   comments=(f"confidence = {band.confidence}",))
        _write_csv(out / f"differences_{tag}.csv", cfg,
                   ("z_m", "difference_Pa"), (z_text, verdict.differences[:, 1]),
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
    paths = [cfg[f"stack_{side}"] for side in "ab"]
    stack_a, stack_b = (default() if path is None else load_layer_stack(path)
                        for path, default in zip(
                            paths, (coated_sphere_stack, coated_plate_stack)))

    lambdas, confidence = _log_grid(cfg, "lambda"), cfg["confidence"]
    band_path, sigma, ref_path = cfg["band_file"], cfg["sigma_Pa"], cfg["reference_curve"]
    if band_path is not None:
        flat = [k for k in ("sigma_Pa", "z_min_m", "z_max_m", "z_points") if k in cfg]
        if flat:
            raise ValueError(f"constraints: band_file cannot be given with {', '.join(flat)}")
        band = _load_band_csv(band_path, confidence)
        if "confidence" in cfg and band.confidence != confidence:
            raise ValueError(f"constraints.confidence = {confidence} disagrees with "
                             f"{band_path}: confidence = {band.confidence}")
        origin = f"band_file = {band_path}"
    elif sigma is not None:
        # a flat band: the Yukawa pressure may nowhere exceed sigma
        z = _log_grid(cfg, "z")
        band = ConfidenceBand(z, np.full(z.size, sigma), confidence)
        origin = f"sigma_Pa = {sigma}"
    else:
        raise ValueError("constraints: need either band_file or sigma_Pa")

    curve = constraint_curve(band, stack_a, stack_b, lambdas)
    if ref_path is not None:  # checked before any file is written
        reference = load_constraint_csv(ref_path)
        try:
            ref_alpha = reference.alpha_at(curve.lambdas)
        except ValueError as exc:
            raise ValueError(f"{ref_path}: {exc}") from None
    save_constraint_csv(curve, out / "constraints.csv", _stamped(cfg, origin))
    print(f"wrote {out / 'constraints.csv'}")

    if ref_path is not None:
        overlay = (curve.lambdas, curve.alpha_max, ref_alpha,
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
        for flag in ("seed", "confidence"):  # each if the table declares its key
            if flag in KEYS[name]:
                p.add_argument(f"--{flag}", type=KEYS[name][flag][0],
                               help=f"override {name}.{flag}")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created if missing)")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)

    try:
        # a flag sets the key of its name in the subcommand's section
        cfg = load_run_config(args.config, args.command, {
            flag: str(value) for flag, value in vars(args).items()
            if flag in KEYS[args.command] and value is not None})
        args.out.mkdir(parents=True, exist_ok=True)
        args.func(cfg, args.out)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> int:
    """The process entry: `main`, with the import-time heap frozen so that
    no collection in the job or at exit walks it (importing this module or
    calling `main` leaves the collector alone)."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
