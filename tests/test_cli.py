"""End-to-end checks of the command line interface.

Each command is run in-process through main() against small
configurations, and the written artifacts are parsed back and
compared with library-level results.
"""

import filecmp
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest

from casimetry import cli
from casimetry.cli import KEYS, RunConfig, _load_band_csv, load_run_config, main
from casimetry.hypforce import load_constraint_csv
from casimetry.lifshitz import (MODELS, ReflectionModel, ThermalState,
                                compute_pressure_curve, matsubara_frequency)
from casimetry.metrology import (DEFAULT_Z_RANGE, load_ensemble_csv,
                                 run_exclusion_analysis, theory_error_curve)
from casimetry.optics import DrudeParameters, PermittivityFn, drude_permittivity

GOLD = DrudeParameters(omega_p=1.37e16, gamma=5.3e13)


def write_gold_table(path):
    """Synthetic n, k table sampled from the Drude loss function."""
    omega = np.logspace(12, 18, 361)
    im_eps = GOLD.omega_p ** 2 * GOLD.gamma / (
        omega * (omega ** 2 + GOLD.gamma ** 2))
    n = np.full_like(omega, 0.5)
    k = im_eps / (2.0 * n)
    lines = ["#unit: rad/s"]
    lines += [f"{o:.10e} {a:.10e} {b:.10e}" for o, a, b in zip(omega, n, k)]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path):
    """Parse a CLI CSV into (comments, column dict of float arrays)."""
    comments = []
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return comments, {name: data[:, i] for i, name in enumerate(header)}


def config_hash_of(path):
    for line in path.read_text().splitlines():
        if line.startswith("# config_hash:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"{path}: no config_hash comment")


class TestRunConfig:
    def test_file_sections_and_values(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[kk]\nl_max = 7\noptical_table = x.dat\n"
                       "[pressure]\nmodels = impedance, drude\n")
        kk = load_run_config(ini, "kk")
        assert kk["l_max"] == 7
        assert "models" not in kk
        pressure = load_run_config(ini, "pressure")
        assert pressure["models"] == ["impedance", "drude"]
        assert "l_max" not in pressure
        assert load_run_config(ini, "exclusion").values == {}

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        ini = tmp_path / "run.ini"
        ini.write_text("[kk]\nl_max = 7\n")
        monkeypatch.setenv("CASIMETRY_KK_L_MAX", "11")
        monkeypatch.setenv("CASIMETRY_PRESSURE_Z_POINTS", "3")
        cfg = load_run_config(ini, "kk")
        assert cfg["l_max"] == 11
        # another section's variable is ignored
        assert cfg.values == {"l_max": "11"}
        assert load_run_config(ini, "pressure").values == {"z_points": "3"}

    def test_unrelated_env_ignored(self, monkeypatch):
        monkeypatch.setenv("CASIMETRY_NOTASECTION_KEY", "1")
        monkeypatch.setenv("CASIMETRY_KK", "1")
        cfg = load_run_config(None, "kk")
        assert cfg.values == {}

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[kk]\nl_max = 7\n[nonsense]\nx = 1\n")
        with pytest.raises(ValueError, match="unknown section"):
            load_run_config(ini, "kk")

    def test_missing_required_key(self):
        cfg = RunConfig("kk", {})
        with pytest.raises(ValueError, match="kk.optical_table"):
            cfg["optical_table"]

    def test_bad_number(self):
        cfg = RunConfig("pressure", {"z_min_m": "tiny", "z_points": "3.5"})
        with pytest.raises(ValueError, match="pressure.z_min_m: not a number"):
            cfg["z_min_m"]
        with pytest.raises(ValueError,
                           match="pressure.z_points: not an integer"):
            cfg["z_points"]

    def test_missing_path(self):
        cfg = RunConfig("kk", {"optical_table": "/no/such/file.dat"})
        with pytest.raises(ValueError, match="no such file"):
            cfg["optical_table"]

    def test_hash_ignores_declaration_order(self, tmp_path):
        a = tmp_path / "a.ini"
        b = tmp_path / "b.ini"
        a.write_text("[kk]\nl_max = 7\ntemperature_K = 300\n")
        b.write_text("[kk]\ntemperature_K = 300\nl_max = 7\n")
        assert (load_run_config(a, "kk").hash()
                == load_run_config(b, "kk").hash())

    def test_hash_tracks_values(self):
        assert RunConfig("kk", {"l_max": "7"}).hash() != RunConfig("kk", {"l_max": "8"}).hash()

    def test_flags_override_environment_and_file(self, tmp_path, monkeypatch):
        ini = tmp_path / "run.ini"
        ini.write_text("[exclusion]\nseed = 1\nconfidence = 0.99\nn_sets = 4\n")
        monkeypatch.setenv("CASIMETRY_EXCLUSION_SEED", "2")
        cfg = load_run_config(ini, "exclusion", {"seed": "3"})
        assert cfg.values == {"seed": "3", "confidence": "0.99", "n_sets": "4"}

    def test_single_section_hash_is_frozen(self, tmp_path):
        # sorted `section.key = value` lines of the run's section alone:
        # the values of a one-section config hashed when every section
        # was kept (the other sections of this file are now left out)
        ini = tmp_path / "run.ini"
        ini.write_text("[kk]\nl_max = 7\ntemperature_K = 300\n"
                       "[pressure]\nz_points = 3\n")
        assert load_run_config(ini, "kk").hash() == "f834de79e18e"
        assert RunConfig("kk", {}).hash() == "e3b0c44298fc"


class TestDeclaredKeys:
    """A section accepts only the keys of its table in cli.KEYS, from the
    file, the environment or a flag; any other key fails before any file
    is written, naming <section>.<key> and the accepted keys."""

    def test_misspelt_file_keys_fail(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[exclusion]\nn_set = 3\npoints_per_sett = 5\n")
        out = tmp_path / "out"
        assert main(["exclusion", "--config", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"error: unknown key exclusion.n_set; [exclusion] takes "
                f"{', '.join(KEYS['exclusion'])}\n") in err
        assert not out.exists()

    def test_misspelt_variable_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CASIMETRY_PRESSURE_Z_POINT", "3")
        out = tmp_path / "out"
        assert main(["pressure", "--out", str(out)]) == 1
        assert "error: unknown key pressure.z_point; " in capsys.readouterr().err
        assert not out.exists()

    def test_flag_key_goes_through_the_table(self):
        with pytest.raises(ValueError,
                           match=re.escape("unknown key kk.seed; [kk] takes")):
            load_run_config(None, "kk", {"seed": "3"})

    def test_mixed_case_keys_read_in_their_declared_spelling(self, tmp_path,
                                                             monkeypatch):
        ini = tmp_path / "run.ini"
        ini.write_text("[kk]\ntemperature_K = 30\n[constraints]\nSIGMA_PA = 1e-3\n")
        assert load_run_config(ini, "kk")["temperature_K"] == 30.0
        assert load_run_config(ini, "constraints")["sigma_Pa"] == 1e-3
        monkeypatch.setenv("CASIMETRY_KK_TEMPERATURE_K", "40")
        monkeypatch.setenv("CASIMETRY_CONSTRAINTS_SIGMA_PA", "0")
        assert load_run_config(ini, "kk")["temperature_K"] == 40.0
        with pytest.raises(ValueError, match=re.escape(
                "constraints.sigma_Pa must be positive and finite, not 0.0")):
            load_run_config(ini, "constraints")["sigma_Pa"]

    @pytest.mark.parametrize("command", KEYS)
    @pytest.mark.parametrize("flag", ["seed", "confidence"])
    def test_flags_are_the_declared_keys(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert (f"--{flag}" in capsys.readouterr().out) == (flag in KEYS[command])


class TestRunScope:
    """A run reads, hashes and overrides only its subcommand's section."""

    def run_kk(self, tmp_path, tag, extra=""):
        write_gold_table(tmp_path / "gold.dat")
        ini = tmp_path / f"{tag}.ini"
        ini.write_text(f"[kk]\noptical_table = {tmp_path / 'gold.dat'}\n"
                       f"l_max = 5\n{extra}")
        assert main(["kk", "--config", str(ini),
                     "--out", str(tmp_path / tag)]) == 0
        return (tmp_path / tag / "dispersion.csv").read_bytes()

    def test_other_sections_and_variables_leave_kk_alone(self, tmp_path,
                                                        monkeypatch):
        plain = self.run_kk(tmp_path, "plain")
        assert self.run_kk(tmp_path, "section",
                           "[pressure]\nz_points = 3\n") == plain
        monkeypatch.setenv("CASIMETRY_PRESSURE_Z_POINTS", "3")
        assert self.run_kk(tmp_path, "env") == plain

    @pytest.mark.parametrize("argv", [["kk", "--seed", "3"],
                                      ["kk", "--confidence", "0.99"],
                                      ["pressure", "--seed", "3"],
                                      ["constraints", "--seed", "3"]])
    def test_flag_of_another_section_is_a_usage_error(self, tmp_path, capsys,
                                                      argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flag_sets_the_running_section(self, tmp_path):
        base = ("[pressure]\nmodels = ideal\n"
                "z_min_m = 1e-6\nz_max_m = 1e-6\nz_points = 1\n")
        flag_ini = tmp_path / "flag.ini"
        flag_ini.write_text(base)
        file_ini = tmp_path / "file.ini"
        file_ini.write_text(base + "confidence = 0.99\n")
        assert main(["pressure", "--config", str(flag_ini), "--confidence",
                     "0.99", "--out", str(tmp_path / "a")]) == 0
        assert main(["pressure", "--config", str(file_ini),
                     "--out", str(tmp_path / "b")]) == 0
        assert filecmp.cmp(tmp_path / "a" / "pressure_ideal.csv",
                           tmp_path / "b" / "pressure_ideal.csv",
                           shallow=False)


@pytest.fixture(scope="module")
def kk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("kk")
    write_gold_table(root / "gold.dat")
    ini = root / "run.ini"
    ini.write_text(f"[kk]\noptical_table = {root / 'gold.dat'}\nl_max = 40\n")
    out = root / "out"
    assert main(["kk", "--config", str(ini), "--out", str(out)]) == 0
    return out


class TestKkCommand:
    def test_grid_is_positive_matsubara(self, kk_run):
        _, cols = read_csv(kk_run / "dispersion.csv")
        xi = cols["xi_rad_s"]
        assert len(xi) == 40
        expected = [matsubara_frequency(300.0, l) for l in range(1, 41)]
        # CSV keeps 11 significant digits
        assert xi == pytest.approx(expected, rel=1e-9)
        # the static l = 0 term never appears
        assert xi[0] > 0

    def test_matches_drude_closed_form(self, kk_run):
        _, cols = read_csv(kk_run / "dispersion.csv")
        expected = drude_permittivity(GOLD, cols["xi_rad_s"])
        assert cols["epsilon"] == pytest.approx(expected, rel=5e-3)

    def test_header_comments(self, kk_run):
        comments, _ = read_csv(kk_run / "dispersion.csv")
        text = "\n".join(comments)
        assert "config_hash" in text and "constants_version" in text

    def test_empty_grid_is_an_error(self, tmp_path, capsys):
        write_gold_table(tmp_path / "gold.dat")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[kk]\noptical_table = {tmp_path / 'gold.dat'}\n"
                       "l_max = 0\n")
        assert main(["kk", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert "l_max" in capsys.readouterr().err

    def test_missing_table_is_an_error(self, tmp_path, capsys):
        assert main(["kk", "--out", str(tmp_path)]) == 1
        assert "optical_table" in capsys.readouterr().err

    def test_bad_table_row_names_path_and_line(self, tmp_path, capsys):
        table = tmp_path / "gold.dat"
        table.write_text("#unit: rad/s\n1e14 0.5 1.0\n2e14 nan 1.0\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[kk]\noptical_table = {table}\nl_max = 3\n")
        assert main(["kk", "--config", str(ini), "--out", str(tmp_path)]) == 1
        assert f"{table}:3:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pressure_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pressure")
    ini = root / "run.ini"
    ini.write_text("[pressure]\nmodels = impedance, drude\n"
                   "z_min_m = 160e-9\nz_max_m = 750e-9\nz_points = 3\n")
    out = root / "out"
    assert main(["pressure", "--config", str(ini), "--out", str(out)]) == 0
    return out


class TestPressureCommand:
    def test_models_share_the_grid(self, pressure_run):
        _, imp = read_csv(pressure_run / "pressure_impedance.csv")
        _, dru = read_csv(pressure_run / "pressure_drude.csv")
        assert np.array_equal(imp["z_m"], dru["z_m"])

    def test_engine_anchor_at_160nm(self, pressure_run):
        _, imp = read_csv(pressure_run / "pressure_impedance.csv")
        assert imp["z_m"][0] == pytest.approx(160e-9, rel=1e-12)
        assert imp["pressure_Pa"][0] == pytest.approx(-1.10008407, rel=1e-6)

    def test_error_column_matches_library(self, pressure_run):
        _, imp = read_csv(pressure_run / "pressure_impedance.csv")
        expected = theory_error_curve(imp["z_m"])
        assert imp["rel_theory_error"] == pytest.approx(expected, rel=1e-9)

    def test_ideal_metal_near_zero_temperature(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[pressure]\nmodels = ideal\ntemperature_K = 1\n"
                       "z_min_m = 1e-6\nz_max_m = 1e-6\nz_points = 1\n")
        assert main(["pressure", "--config", str(ini),
                     "--out", str(tmp_path)]) == 0
        _, cols = read_csv(tmp_path / "pressure_ideal.csv")
        assert cols["pressure_Pa"][0] == pytest.approx(-1.300e-3, rel=1e-3)
        assert cols["pressure_Pa"][0] == pytest.approx(-1.30012600e-3,
                                                       rel=1e-6)

    def test_roughness_shifts_pressure_only(self, tmp_path):
        hist = tmp_path / "rough.dat"
        # symmetric two-point histogram, 4 nm amplitude
        hist.write_text("-4.0 1.0\n4.0 1.0\n")
        base = ("[pressure]\nmodels = impedance\n"
                "z_min_m = 200e-9\nz_max_m = 400e-9\nz_points = 3\n")
        smooth_ini = tmp_path / "smooth.ini"
        smooth_ini.write_text(base)
        rough_ini = tmp_path / "rough.ini"
        rough_ini.write_text(base + f"roughness_a = {hist}\n"
                                    f"roughness_b = {hist}\n")
        out_s = tmp_path / "smooth"
        out_r = tmp_path / "rough"
        assert main(["pressure", "--config", str(smooth_ini),
                     "--out", str(out_s)]) == 0
        assert main(["pressure", "--config", str(rough_ini),
                     "--out", str(out_r)]) == 0
        _, s = read_csv(out_s / "pressure_impedance.csv")
        _, r = read_csv(out_r / "pressure_impedance.csv")
        assert np.array_equal(s["z_m"], r["z_m"])
        assert np.array_equal(s["rel_theory_error"], r["rel_theory_error"])
        # roughness strengthens the attraction at every separation
        assert np.all(r["pressure_Pa"] < s["pressure_Pa"])

    @pytest.mark.parametrize("models", ["casimir", "impedance, casimir"])
    def test_unknown_model_is_an_error(self, tmp_path, capsys, models):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[pressure]\nmodels = {models}\nz_points = 1\n")
        assert main(["pressure", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert "unknown model" in capsys.readouterr().err
        assert not list(tmp_path.glob("pressure_*.csv"))

    def test_flat_range_needs_one_point(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[pressure]\nmodels = ideal\n"
                       "z_min_m = 1e-6\nz_max_m = 1e-6\nz_points = 2\n")
        assert main(["pressure", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert ("pressure: z_points > 1 needs z_min_m < z_max_m"
                in capsys.readouterr().err)
        assert not (tmp_path / "pressure_ideal.csv").exists()


@pytest.fixture(scope="module")
def exclusion_run(tmp_path_factory):
    """Small but complete run: generator plus one rival model."""
    root = tmp_path_factory.mktemp("exclusion")
    ini = root / "run.ini"
    ini.write_text("[exclusion]\ntested = impedance, drude\n"
                   "n_sets = 4\npoints_per_set = 80\n")
    out = root / "out"
    assert main(["exclusion", "--config", str(ini), "--out", str(out)]) == 0
    return root, ini, out


class TestExclusionCommand:
    def test_artifact_set(self, exclusion_run):
        _, _, out = exclusion_run
        for name in ("ensemble.csv", "verdicts.json",
                     "band_impedance.csv", "band_drude.csv",
                     "differences_impedance.csv", "differences_drude.csv"):
            assert (out / name).exists(), name

    def test_verdict_payload(self, exclusion_run):
        _, _, out = exclusion_run
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["constants_version"]
        assert payload["generator"] == "impedance"
        assert payload["seed"] == 7
        verdicts = payload["verdicts"]
        assert set(verdicts) == {"impedance", "drude"}
        for v in verdicts.values():
            assert v["n_points"] == 4 * 80
            assert 0.0 <= v["fraction_outside"] <= 1.0

    def test_hash_consistent_across_artifacts(self, exclusion_run):
        _, _, out = exclusion_run
        payload = json.loads((out / "verdicts.json").read_text())
        assert config_hash_of(out / "ensemble.csv") == payload["config_hash"]
        assert config_hash_of(out / "band_drude.csv") == payload["config_hash"]

    def test_byte_identical_rerun(self, exclusion_run):
        root, ini, out = exclusion_run
        out2 = root / "out2"
        assert main(["exclusion", "--config", str(ini),
                     "--out", str(out2)]) == 0
        for name in ("ensemble.csv", "verdicts.json", "band_impedance.csv",
                     "differences_drude.csv"):
            assert filecmp.cmp(out / name, out2 / name, shallow=False), name

    def test_files_end_lines_in_lf(self, exclusion_run):
        _, _, out = exclusion_run
        for path in out.glob("*.csv"):
            assert b"\r" not in path.read_bytes(), path.name

    def test_seed_flag_changes_data(self, exclusion_run):
        root, ini, out = exclusion_run
        out3 = root / "out3"
        assert main(["exclusion", "--config", str(ini), "--seed", "8",
                     "--out", str(out3)]) == 0
        assert not filecmp.cmp(out / "ensemble.csv", out3 / "ensemble.csv",
                               shallow=False)

    def test_ensemble_round_trip(self, exclusion_run):
        _, _, out = exclusion_run
        ensemble = load_ensemble_csv(out / "ensemble.csv")
        assert ensemble.n_points == 4 * 80
        assert len(ensemble.sets) == 4

    def test_ensemble_range_round_trips_exactly(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[exclusion]\ntested = impedance\nn_sets = 4\n"
                       "points_per_set = 80\nz_min_m = 1.60000000000001e-7\n")
        assert main(["exclusion", "--config", str(ini), "--out", str(tmp_path)]) == 0
        ensemble = load_ensemble_csv(tmp_path / "ensemble.csv")
        assert ensemble.z_range == (1.60000000000001e-7, 750e-9)

    def test_default_ensemble_file_reproduces_the_verdicts(self, tmp_path):
        # the default run at seed 7, band-tested again from its ensemble.csv
        assert main(["exclusion", "--out", str(tmp_path)]) == 0
        ensemble = load_ensemble_csv(tmp_path / "ensemble.csv")
        assert ensemble.z_range == DEFAULT_Z_RANGE
        eps = PermittivityFn.from_drude(GOLD)
        grid = np.geomspace(0.92 * DEFAULT_Z_RANGE[0], 1.02 * DEFAULT_Z_RANGE[1], 80)
        curves = {key: compute_pressure_curve(ReflectionModel(key, eps, GOLD.omega_p),
                                              grid, ThermalState(300.0))
                  for key in ("impedance", "drude", "schwinger")}
        stored = json.loads((tmp_path / "verdicts.json").read_text())["verdicts"]
        verdicts = run_exclusion_analysis(ensemble, curves, "impedance", 0.95)
        assert sorted(verdicts) == sorted(stored)
        for tag, verdict in verdicts.items():
            got, want = verdict.to_dict(), stored[tag]
            windows = [(w["z_min"], w["z_max"]) for w in got.pop("excluded_windows")]
            wanted = [(w["z_min"], w["z_max"]) for w in want.pop("excluded_windows")]
            assert got == want
            assert len(windows) == len(wanted)
            for edges, wanted_edges in zip(windows, wanted):
                assert edges == pytest.approx(wanted_edges, rel=1e-11, abs=0)

    def test_differences_cover_every_point(self, exclusion_run):
        _, _, out = exclusion_run
        _, cols = read_csv(out / "differences_drude.csv")
        assert len(cols["z_m"]) == 4 * 80

    def test_band_has_confidence_comment(self, exclusion_run):
        _, _, out = exclusion_run
        comments, cols = read_csv(out / "band_impedance.csv")
        assert any("confidence = 0.95" in c for c in comments)
        assert np.all(cols["half_width_Pa"] > 0)

    def test_bands_share_one_grid(self, exclusion_run):
        # every band lives on the ensemble's envelope grid, byte for byte
        _, _, out = exclusion_run
        grids = {path.name: [line.partition(",")[0] for line in
                             path.read_text().splitlines() if line[0] != "#"]
                 for path in out.glob("band_*.csv")}
        assert sorted(grids) == ["band_drude.csv", "band_impedance.csv"]
        assert grids["band_drude.csv"] == grids["band_impedance.csv"]

    def test_zero_noise_reproduces_the_generator(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[exclusion]\ntested = impedance, drude\n"
                       "noise = none\nn_sets = 2\npoints_per_set = 60\n")
        out = tmp_path / "out"
        assert main(["exclusion", "--config", str(ini),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "verdicts.json").read_text())
        imp = payload["verdicts"]["impedance"]
        assert imp["fraction_outside"] == 0.0
        assert imp["accepted"] is True
        # the rival model still misses the noiseless data
        assert payload["verdicts"]["drude"]["fraction_outside"] > 0.5

    def test_bad_noise_mode(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[exclusion]\nnoise = gaussian\n")
        assert main(["exclusion", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert "noise" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [
        "z_min_m = 750e-9\nz_max_m = 160e-9",
        "z_max_m = inf",
        "z_min_m = 0",
        "z_min_m = nan",
        "z_min_m = 300e-9\nz_max_m = 300e-9",
    ], ids=["reversed", "inf", "zero", "nan", "equal"])
    def test_bad_separation_range(self, tmp_path, capsys, bounds):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[exclusion]\n{bounds}\n"
                       "n_sets = 2\npoints_per_set = 40\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["exclusion", "--config", str(ini),
                         "--out", str(tmp_path)]) == 1
        assert ("need 0 < z_min_m < z_max_m < inf"
                in capsys.readouterr().err)
        assert not (tmp_path / "ensemble.csv").exists()

    def test_bad_confidence(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[exclusion]\nconfidence = 0.9\n"
                       "n_sets = 2\npoints_per_set = 40\n")
        assert main(["exclusion", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert ("error: exclusion.confidence must be 0.95 or 0.99, not 0.9"
                in capsys.readouterr().err)
        assert not (tmp_path / "ensemble.csv").exists()


class TestKeysCheckedWhereRead:
    """A bad temperature, confidence, Drude parameter, seed or count fails
    where its key is read, with the key and the value in the message,
    before any file is written."""

    def run(self, tmp_path, section, keys):
        write_gold_table(tmp_path / "gold.dat")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\noptical_table = {tmp_path / 'gold.dat'}\n"
                       + keys)
        out = tmp_path / "out"
        status = main([section, "--config", str(ini), "--out", str(out)])
        return status, sorted(p.name for p in out.iterdir())

    @pytest.mark.parametrize("section", ["kk", "pressure", "exclusion"])
    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
    def test_bad_temperature_is_named(self, tmp_path, capsys, section, value):
        status, written = self.run(tmp_path, section, f"temperature_K = {value}\n")
        assert (status, written) == (1, [])
        assert (f"error: {section}.temperature_K must be positive and finite, "
                f"not {float(value)}") in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["kk", "pressure", "exclusion"])
    @pytest.mark.parametrize("key, value, what", [
        ("plasma_frequency_rad_s", "-1", "positive and finite"),
        ("plasma_frequency_rad_s", "0", "positive and finite"),
        ("plasma_frequency_rad_s", "inf", "positive and finite"),
        ("relaxation_rad_s", "nan", "non-negative and finite"),
        ("relaxation_rad_s", "-1", "non-negative and finite"),
    ])
    def test_bad_drude_key_is_named(self, tmp_path, capsys, section, key, value, what):
        status, written = self.run(tmp_path, section, f"{key} = {value}\n")
        assert (status, written) == (1, [])
        assert (f"error: {section}.{key} must be {what}, not {float(value)}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("section, key, value, message", [
        ("exclusion", "seed", "-1",
         "exclusion.seed must be non-negative and finite, not -1"),
        ("exclusion", "seed", "1.5", "config exclusion.seed: not an integer: '1.5'"),
        ("exclusion", "n_sets", "0", "exclusion.n_sets must be >= 1, not 0"),
        ("exclusion", "points_per_set", "-3",
         "exclusion.points_per_set must be >= 1, not -3"),
        ("pressure", "z_points", "0", "pressure.z_points must be >= 1, not 0"),
        ("kk", "l_max", "0", "kk.l_max must be >= 1, not 0"),
    ])
    def test_bad_integer_key_is_named(self, tmp_path, capsys, section, key, value,
                                      message):
        status, written = self.run(tmp_path, section, f"{key} = {value}\n")
        assert (status, written) == (1, [])
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("n_sets, points, seed", [
        (14, 1, 7), (14, 2, 7), (14, 3, 7), (14, 4, 7), (1, 40, 2)])
    def test_too_small_ensemble_is_named(self, tmp_path, capsys, n_sets, points,
                                         seed):
        # fewer than two separation bins with two or more points leave the
        # scatter envelope undefined; which draw does so is known only after it
        status, written = self.run(tmp_path, "exclusion",
                                   f"n_sets = {n_sets}\npoints_per_set = {points}\n"
                                   f"seed = {seed}\n")
        assert (status, written) == (1, [])
        assert (f"error: exclusion.n_sets = {n_sets} and exclusion.points_per_set"
                f" = {points} are too few: ") in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["pressure", "exclusion"])
    @pytest.mark.parametrize("value", ["0.9", "0.5"])
    def test_bad_confidence_is_named(self, tmp_path, capsys, section, value):
        status, written = self.run(tmp_path, section, f"confidence = {value}\n")
        assert (status, written) == (1, [])
        assert (f"error: {section}.confidence must be 0.95 or 0.99, "
                f"not {value}") in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["pressure", "exclusion"])
    def test_unit_without_table_is_named(self, tmp_path, capsys, section):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\noptical_unit = um\n")
        out = tmp_path / "out"
        assert main([section, "--config", str(ini), "--out", str(out)]) == 1
        assert (f"error: {section}: optical_unit needs an optical_table\n"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    # a value of each parser that it rejects; a path's is a missing file
    BAD = {float: "abc", int: "1.5", cli._list: " , ", str: "bogus"}

    @pytest.mark.parametrize("section, key", [(section, key) for section in KEYS
                                              for key in KEYS[section]])
    def test_bad_value_of_each_key_fails_before_any_file(self, tmp_path, capsys,
                                                         section, key):
        parse, check, _ = KEYS[section][key]
        write_gold_table(tmp_path / "gold.dat")
        # a key that lets every other key of the section be read, then the bad one
        keys = dict([("sigma_Pa", "1e-3") if section == "constraints"
                     else ("optical_table", tmp_path / "gold.dat")])
        keys[key] = self.BAD.get(parse, tmp_path / "missing.dat")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n"
                       + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = tmp_path / "out"
        assert main([section, "--config", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # the library checks a model name or an optical unit, and quotes it
        named = (f"'{keys[key]}'" if parse is str and check is None
                 else f"{section}.{key}")
        assert err.startswith("error: ") and named in err
        assert list(out.iterdir()) == []


class TestConstraintsCommand:
    def test_from_exclusion_band(self, exclusion_run, tmp_path):
        _, _, out = exclusion_run
        ini = tmp_path / "run.ini"
        ini.write_text("[constraints]\n"
                       f"band_file = {out / 'band_impedance.csv'}\n"
                       "lambda_min_m = 40e-9\nlambda_max_m = 370e-9\n"
                       "lambda_points = 6\n")
        cdir = tmp_path / "c"
        assert main(["constraints", "--config", str(ini),
                     "--out", str(cdir)]) == 0
        curve = load_constraint_csv(cdir / "constraints.csv")
        assert len(curve.lambdas) == 6
        assert np.all(np.diff(curve.alpha_max) < 0)

    def test_uniform_band_matches_legacy_noise_level(self, tmp_path):
        z = np.geomspace(160e-9, 750e-9, 40)
        band = tmp_path / "band.csv"
        band.write_text("z_m,half_width_Pa\n" + "\n".join(
            f"{v:.10e},{2e-3:.10e}" for v in z) + "\n")
        base = ("lambda_min_m = 50e-9\nlambda_max_m = 300e-9\n"
                "lambda_points = 5\n")
        ini_band = tmp_path / "band.ini"
        ini_band.write_text(f"[constraints]\nband_file = {band}\n" + base)
        ini_rms = tmp_path / "rms.ini"
        ini_rms.write_text("[constraints]\nsigma_Pa = 2e-3\n"
                           "z_min_m = 160e-9\nz_max_m = 750e-9\n"
                           "z_points = 40\n" + base)
        out_band = tmp_path / "ob"
        out_rms = tmp_path / "or"
        assert main(["constraints", "--config", str(ini_band),
                     "--out", str(out_band)]) == 0
        assert main(["constraints", "--config", str(ini_rms),
                     "--out", str(out_rms)]) == 0
        a = load_constraint_csv(out_band / "constraints.csv")
        b = load_constraint_csv(out_rms / "constraints.csv")
        assert a.alpha_max == pytest.approx(b.alpha_max, rel=1e-9)

    def test_single_lambda_row(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[constraints]\nsigma_Pa = 1e-3\n"
                       "lambda_min_m = 100e-9\nlambda_max_m = 100e-9\n"
                       "lambda_points = 1\nz_points = 20\n")
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 0
        curve = load_constraint_csv(tmp_path / "constraints.csv")
        assert len(curve.lambdas) == 1
        assert curve.lambdas[0] == pytest.approx(100e-9)

    def test_reference_overlay_ratio_is_unity(self, tmp_path):
        ini = tmp_path / "a.ini"
        cfg = ("[constraints]\nsigma_Pa = 1e-3\n"
               "lambda_min_m = 60e-9\nlambda_max_m = 200e-9\n"
               "lambda_points = 4\nz_points = 20\n")
        ini.write_text(cfg)
        out_a = tmp_path / "a"
        assert main(["constraints", "--config", str(ini),
                     "--out", str(out_a)]) == 0
        ini_b = tmp_path / "b.ini"
        ini_b.write_text(cfg +
                         f"reference_curve = {out_a / 'constraints.csv'}\n")
        out_b = tmp_path / "b"
        assert main(["constraints", "--config", str(ini_b),
                     "--out", str(out_b)]) == 0
        _, cols = read_csv(out_b / "overlay.csv")
        assert cols["ratio"] == pytest.approx(np.ones(4), rel=1e-6)
        # alpha_at takes the whole range array the overlay queries
        reference = load_constraint_csv(out_a / "constraints.csv")
        grid = np.geomspace(60e-9, 200e-9, 7)
        batch = reference.alpha_at(grid)
        assert isinstance(reference.alpha_at(grid[0]), float)
        assert batch.shape == (7,)
        assert batch == pytest.approx([reference.alpha_at(x) for x in grid],
                                      rel=1e-15)
        assert reference.alpha_at(grid.reshape(7, 1)).shape == (7, 1)
        assert cols["alpha_reference"] == pytest.approx(
            reference.alpha_at(reference.lambdas), rel=1e-9)

    def test_reference_written_by_the_same_config_covers_the_run(self, tmp_path):
        # an end with more digits than the .10e lambda column of the file
        cfg = ("[constraints]\nsigma_Pa = 1e-3\nz_points = 20\n"
               "lambda_max_m = 3.7000000000123e-7\n")
        (tmp_path / "a.ini").write_text(cfg)
        (tmp_path / "b.ini").write_text(
            cfg + f"reference_curve = {tmp_path / 'a' / 'constraints.csv'}\n")
        for run in "ab":
            assert main(["constraints", "--config", str(tmp_path / f"{run}.ini"),
                         "--out", str(tmp_path / run)]) == 0
        _, cols = read_csv(tmp_path / "b" / "overlay.csv")
        assert cols["lambda_m"][-1] == 3.7e-7
        assert np.all(np.abs(cols["ratio"] - 1.0) <= 1e-9)

    def test_reference_not_covering_the_run_fails_before_writing(self, tmp_path,
                                                                 capsys):
        # outside its range a reference has no value, only its clamped end values
        ref_ini = tmp_path / "ref.ini"
        ref_ini.write_text("[constraints]\nsigma_Pa = 1e-3\nlambda_min_m = 100e-9\n"
                           "lambda_max_m = 200e-9\nlambda_points = 4\nz_points = 20\n")
        assert main(["constraints", "--config", str(ref_ini),
                     "--out", str(tmp_path / "ref")]) == 0
        reference = tmp_path / "ref" / "constraints.csv"
        ini = tmp_path / "run.ini"
        ini.write_text("[constraints]\nsigma_Pa = 1e-3\nz_points = 20\n"
                       f"reference_curve = {reference}\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["constraints", "--config", str(ini), "--out", str(out)]) == 1
        assert (f"{reference}: lambda outside curve range [1.0000e-07, 2.0000e-07] m"
                in capsys.readouterr().err)
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("keys, message", [
        ("z_min_m = 750e-9\nz_max_m = 160e-9\n",
         "constraints: need 0 < z_min_m <= z_max_m < inf"),
        ("lambda_min_m = 100e-9\nlambda_max_m = 100e-9\nlambda_points = 3\n",
         "constraints: lambda_points > 1 needs lambda_min_m < lambda_max_m"),
        ("z_points = 1\n", "constraints.z_points must be >= 2, not 1"),
    ])
    def test_bad_grid_is_named(self, tmp_path, capsys, keys, message):
        ini = tmp_path / "run.ini"
        ini.write_text("[constraints]\nsigma_Pa = 1e-3\n" + keys)
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "constraints.csv").exists()

    @pytest.mark.parametrize("flat, named", [
        ("sigma_Pa = 1e-3\n", "sigma_Pa"),
        ("z_min_m = 200e-9\nz_points = 5\n", "z_min_m, z_points"),
        ("z_max_m = 700e-9\nsigma_Pa = 1e-3\n", "sigma_Pa, z_max_m"),
    ])
    def test_band_file_excludes_the_flat_band(self, tmp_path, capsys, flat, named):
        band = tmp_path / "band.csv"
        band.write_text("z_m,half_width_Pa\n1.6e-07,1e-03\n7.5e-07,2e-04\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nband_file = {band}\n{flat}")
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert (f"error: constraints: band_file cannot be given with {named}\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "constraints.csv").exists()

    @pytest.mark.parametrize("z_first", ["0", "-1e-07"])
    def test_band_separations_must_be_positive(self, tmp_path, capsys, z_first):
        band = tmp_path / "band.csv"
        band.write_text(f"z_m,half_width_Pa\n{z_first},1e-03\n7.5e-07,2e-04\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nband_file = {band}\n")
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert (f"error: {band}: band z must be positive, finite and strictly "
                "increasing\n") == capsys.readouterr().err
        assert not (tmp_path / "constraints.csv").exists()

    def test_needs_band_or_sigma(self, tmp_path, capsys):
        assert main(["constraints", "--out", str(tmp_path)]) == 1
        assert "band_file or sigma_Pa" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
    def test_bad_sigma_is_named(self, tmp_path, capsys, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nsigma_Pa = {value}\n")
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert ("error: constraints.sigma_Pa must be positive and finite, "
                f"not {float(value)}") in capsys.readouterr().err
        assert not (tmp_path / "constraints.csv").exists()


class TestBandFile:
    """Only a comment keyed exactly `confidence` sets a band's level."""

    @staticmethod
    def band(tmp_path, *comments):
        path = tmp_path / "band.csv"
        path.write_text("".join(f"# {c}\n" for c in comments)
                        + "z_m,half_width_Pa\n1.6e-07,1e-03\n7.5e-07,2e-04\n")
        return path

    def test_exclusion_band_keeps_its_level(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[exclusion]\ntested = impedance\nconfidence = 0.99\n"
                       "n_sets = 2\npoints_per_set = 60\n")
        assert main(["exclusion", "--config", str(ini),
                     "--out", str(tmp_path)]) == 0
        band = _load_band_csv(tmp_path / "band_impedance.csv", 0.95)
        assert band.confidence == 0.99
        assert band.z.size > 2

    def test_confidence_comment_sets_level(self, tmp_path):
        path = self.band(tmp_path, "config_hash: abc", "confidence = 0.99")
        assert _load_band_csv(path, 0.95).confidence == 0.99
        assert _load_band_csv(self.band(tmp_path), 0.99).confidence == 0.99

    def test_other_keys_are_ignored(self, tmp_path):
        path = self.band(tmp_path, "prior_confidence = 0.99",
                         "confidence interval used: 95 % = 2 sigma")
        assert _load_band_csv(path, 0.95).confidence == 0.95

    def test_same_level_may_repeat(self, tmp_path):
        path = self.band(tmp_path, "confidence = 0.99", "confidence=0.99")
        assert _load_band_csv(path, 0.95).confidence == 0.99

    @pytest.mark.parametrize("value", ["high", "", "0.9", "nan"])
    def test_bad_level_names_the_line(self, tmp_path, value):
        path = self.band(tmp_path, "config_hash: abc", f"confidence = {value}")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            _load_band_csv(path, 0.95)

    def test_conflicting_repeat_names_the_line(self, tmp_path):
        path = self.band(tmp_path, "confidence = 0.95", "model = x",
                         "confidence = 0.99")
        where = re.escape(f"{path}:3: ")
        with pytest.raises(ValueError, match=where + ".*conflicting"):
            _load_band_csv(path, 0.95)

    def test_constraints_command_reports_it(self, tmp_path, capsys):
        path = self.band(tmp_path, "confidence = 95 %")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nband_file = {path}\n")
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert f"{path}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["band_file", "sigma_Pa"])
    @pytest.mark.parametrize("value", ["0.9", "0.5"])
    def test_bad_confidence_key_is_named(self, tmp_path, capsys, source,
                                         value):
        path = self.band(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nconfidence = {value}\n"
                       + (f"band_file = {path}\n" if source == "band_file"
                          else "sigma_Pa = 1e-3\n"))
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: constraints.confidence must be 0.95 or 0.99, not {value}" in err
        assert str(path) not in err
        assert not (tmp_path / "constraints.csv").exists()

    def test_explicit_confidence_must_match_the_band(self, tmp_path, capsys):
        path = self.band(tmp_path, "confidence = 0.99")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nband_file = {path}\n"
                       "confidence = 0.95\nlambda_points = 3\n")
        argv = ["constraints", "--config", str(ini), "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert (f"error: constraints.confidence = 0.95 disagrees with {path}: "
                "confidence = 0.99") in err
        assert not (tmp_path / "constraints.csv").exists()
        # the same level, from the key or from the flag, is no conflict
        assert main(argv + ["--confidence", "0.99"]) == 0
        assert (tmp_path / "constraints.csv").exists()

    @pytest.mark.parametrize("row", ["7.5e-07,abc", "7.5e-07,nan",
                                     "inf,2e-04", "7.5e-07"])
    def test_bad_row_names_the_line(self, tmp_path, capsys, row):
        path = tmp_path / "band.csv"
        path.write_text(f"z_m,half_width_Pa\n1.6e-07,1e-03\n{row}\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nband_file = {path}\n")
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert f"{path}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        "7.5e-07,2e-04\n1.6e-07,1e-03\n",
        "1.6e-07,1e-03\n7.5e-07,0\n",
        "1.6e-07,1e-03\n",
    ], ids=["decreasing", "zero-width", "one-row"])
    def test_bad_band_names_the_file(self, tmp_path, capsys, rows):
        path = tmp_path / "band.csv"
        path.write_text("z_m,half_width_Pa\n" + rows)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[constraints]\nband_file = {path}\n")
        assert main(["constraints", "--config", str(ini),
                     "--out", str(tmp_path)]) == 1
        assert f"error: {path}: band " in capsys.readouterr().err
        assert not (tmp_path / "constraints.csv").exists()

    def test_header_is_required(self, tmp_path):
        path = tmp_path / "band.csv"
        path.write_text("1.6e-07,1e-03\n7.5e-07,2e-04\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")
                           + "expected header z_m,half_width_Pa"):
            _load_band_csv(path, 0.95)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script, cwd, **env):
    """Run `script` in a fresh interpreter whose environment lacks
    OPENBLAS_NUM_THREADS unless `env` sets it; the JSON value of its
    last output line."""
    environ = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env)
    code = f"import json, os, sys\nsys.path.insert(0, {str(SRC)!r})\n" + script
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=environ,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(script, cwd, *prefixes):
    """Run `script` in a fresh interpreter; the modules named by one of
    `prefixes`, or inside such a package, that it loaded."""
    return run_fresh(textwrap.dedent(script)
                     + "\nprint(json.dumps(sorted(m for m in sys.modules"
                       f" if m in {prefixes!r}"
                       f" or m.startswith({tuple(p + '.' for p in prefixes)!r}))))\n",
                     cwd)


class TestImports:
    """No subcommand loads scipy: the package runs on numpy alone.  No
    subcommand or band-test step loads numpy.ma or dataclasses either
    (the record classes are built without it).  The CLI module
    pins OpenBLAS to one thread before numpy loads, unless the variable
    is already set; the library modules leave it alone.  A CLI process
    freezes its import-time heap before the job runs; importing the
    module and calling `main` leave the collector alone.  Importing
    `casimetry.metrology` loads neither the engine nor the optics."""

    BLAS_STATE = textwrap.dedent("""
        tasks = "/proc/self/task"
        threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
        print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
        """)

    def test_cli_import_runs_one_blas_thread(self, tmp_path):
        value, threads = run_fresh("import casimetry.cli\n" + self.BLAS_STATE,
                                   tmp_path)
        assert value == "1"
        if threads is not None:
            assert threads == 1

    def test_explicit_blas_setting_wins(self, tmp_path):
        value, _ = run_fresh("import casimetry.cli\n" + self.BLAS_STATE,
                             tmp_path, OPENBLAS_NUM_THREADS="2")
        assert value == "2"

    def test_engine_curves_call_no_eigensolver(self, tmp_path):
        # the engine's Gauss-Kronrod rule is a table, so a curve of every
        # registry row on the exclusion job's grid needs no LAPACK call
        done = run_fresh(textwrap.dedent("""
            import numpy as np

            def refused(*args, **kwargs):
                raise AssertionError("numpy.linalg eigensolver called")

            np.linalg.eigh = np.linalg.eigvalsh = refused
            from casimetry.cli import KEYS
            from casimetry.lifshitz import (MODELS, ReflectionModel, ThermalState,
                                            compute_pressure_curve)
            from casimetry.optics import DrudeParameters, PermittivityFn
            cfg = {key: row[2] for key, row in KEYS["exclusion"].items()}
            drude = DrudeParameters(cfg["plasma_frequency_rad_s"], cfg["relaxation_rad_s"])
            eps = PermittivityFn.from_drude(drude)
            grid = np.geomspace(0.92 * cfg["z_min_m"], 1.02 * cfg["z_max_m"], 80)
            for key in MODELS:
                compute_pressure_curve(ReflectionModel(key, eps, drude.omega_p), grid,
                                       ThermalState(cfg["temperature_K"]))
            print(json.dumps(list(MODELS)))
            """), tmp_path)
        assert done == list(MODELS)

    def test_library_imports_leave_blas_alone(self, tmp_path):
        value, _ = run_fresh("import casimetry.lifshitz, casimetry.metrology, "
                             "casimetry.hypforce\n" + self.BLAS_STATE, tmp_path)
        assert value is None

    def test_metrology_import_loads_no_engine(self, tmp_path):
        # PressureCurve is only an annotation there
        loaded = modules_after("import casimetry.metrology", tmp_path,
                               "casimetry.lifshitz", "casimetry.optics")
        assert loaded == []

    FREEZE_COUNT = "\nimport gc\nprint(gc.get_freeze_count())\n"

    def test_process_entries_freeze_the_import_heap(self, tmp_path):
        # `python -m casimetry.cli`, then the installed `casimetry` command
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["casimetry"]
        module, _, name = script.partition(":")
        for entry in ('runpy.run_module("casimetry.cli", run_name="__main__")',
                      f"getattr(importlib.import_module({module!r}), {name!r})()"):
            count = run_fresh(textwrap.dedent(f"""
                import importlib, runpy
                sys.argv = ["casimetry", "--help"]
                try:
                    {entry}
                except SystemExit as exc:
                    assert exc.code == 0, exc.code
                """) + self.FREEZE_COUNT, tmp_path)
            assert count > 0, entry

    def test_main_in_process_leaves_the_collector_alone(self, tmp_path):
        (tmp_path / "run.ini").write_text("[pressure]\nz_points = 3\n")
        count = run_fresh(
            "from casimetry.cli import main\n"
            "assert main(['pressure', '--config', 'run.ini', '--out', 'out']) == 0\n"
            + self.FREEZE_COUNT, tmp_path)
        assert count == 0
        assert (tmp_path / "out" / "pressure_impedance.csv").exists()

    def test_cli_jobs_load_no_scipy(self, tmp_path):
        write_gold_table(tmp_path / "gold.dat")
        (tmp_path / "run.ini").write_text(
            "[kk]\noptical_table = gold.dat\nl_max = 12\n"
            "[pressure]\nz_points = 3\n"
            "[exclusion]\nn_sets = 3\npoints_per_set = 60\n"
            "[constraints]\nband_file = out/band_impedance.csv\n"
            "lambda_points = 3\n")
        loaded = modules_after("""
            from casimetry.cli import main
            for command in ("kk", "pressure", "exclusion", "constraints"):
                argv = [command, "--config", "run.ini", "--out", "out"]
                assert main(argv) == 0, command
            """, tmp_path, "scipy", "dataclasses")
        assert loaded == []
        for name in ("dispersion.csv", "pressure_impedance.csv",
                     "verdicts.json", "constraints.csv"):
            assert (tmp_path / "out" / name).exists(), name

    def test_table_jobs_load_no_numpy_polynomial(self, tmp_path):
        # the dispersion transform's Gauss-Legendre rules come from
        # optics._leggauss, which needs numpy alone
        write_gold_table(tmp_path / "gold.dat")
        (tmp_path / "run.ini").write_text(
            "[kk]\noptical_table = gold.dat\nl_max = 12\n"
            "[pressure]\noptical_table = gold.dat\nz_points = 3\n"
            "models = impedance, drude\n")
        loaded = modules_after("""
            from casimetry.cli import main
            from casimetry.optics import _leggauss
            for command in ("kk", "pressure"):
                argv = [command, "--config", "run.ini", "--out", "out"]
                assert main(argv) == 0, command
            assert _leggauss.cache_info().currsize, "no rule was built"
            """, tmp_path, "numpy.polynomial")
        assert loaded == []
        assert (tmp_path / "out" / "pressure_drude.csv").exists()

    def test_jobs_and_band_test_load_no_numpy_ma(self, tmp_path):
        # numpy loads numpy.ma lazily, from np.nanmedian (not np.unique);
        # every step asserts, so a failure names the step that loaded it
        write_gold_table(tmp_path / "gold.dat")
        (tmp_path / "rough.dat").write_text("-3 1\n-1 2\n1 2\n3 1\n")
        (tmp_path / "run.ini").write_text(
            "[kk]\noptical_table = gold.dat\nl_max = 12\n"
            "[pressure]\nz_points = 3\n"
            "[exclusion]\nn_sets = 3\npoints_per_set = 60\n"
            "[constraints]\nband_file = out/band_impedance.csv\n"
            "lambda_points = 3\n")
        (tmp_path / "rough.ini").write_text(
            "[pressure]\nz_points = 3\n"
            "roughness_a = rough.dat\nroughness_b = rough.dat\n")
        loaded = modules_after("""
            import numpy as np
            from casimetry.cli import main
            from casimetry.hypforce import (coated_plate_stack,
                                            coated_sphere_stack, constraint_curve)
            from casimetry.lifshitz import (ReflectionModel, ThermalState,
                                            compute_pressure_curve)
            from casimetry.metrology import (generate_synthetic_ensemble,
                                             load_ensemble_csv,
                                             run_exclusion_analysis,
                                             save_ensemble_csv)
            from casimetry.optics import DrudeParameters, PermittivityFn

            def check(step):
                assert "numpy.ma" not in sys.modules, step
                assert "dataclasses" not in sys.modules, step

            check("imports")
            for command, ini in (("kk", "run.ini"), ("pressure", "run.ini"),
                                 ("pressure", "rough.ini"),
                                 ("exclusion", "run.ini"),
                                 ("constraints", "run.ini")):
                argv = [command, "--config", ini, "--out", "out"]
                assert main(argv) == 0, argv
                check(argv)
            gold = DrudeParameters(1.37e16, 5.3e13)
            eps = PermittivityFn.from_drude(gold)
            grid = np.geomspace(0.92 * 160e-9, 1.02 * 750e-9, 80)
            state = ThermalState(300.0)
            curves = {
                "impedance": compute_pressure_curve(
                    ReflectionModel("impedance", eps, gold.omega_p), grid, state),
                "drude": compute_pressure_curve(
                    ReflectionModel("drude", eps), grid, state)}
            ensemble = generate_synthetic_ensemble(curve=curves["impedance"],
                                                   seed=7)
            check("generate")
            verdicts = run_exclusion_analysis(ensemble, curves, "impedance",
                                              0.95)
            check("run_exclusion_analysis")
            limits = constraint_curve(verdicts["impedance"].band,
                                      coated_sphere_stack(),
                                      coated_plate_stack(),
                                      np.geomspace(40e-9, 370e-9, 5))
            check("constraint_curve")
            save_ensemble_csv(ensemble, "ensemble.csv")
            back = load_ensemble_csv("ensemble.csv")
            check("save and reload")
            assert back.n_points == ensemble.n_points
            assert len(limits.entries) == 5
            """, tmp_path, "numpy.ma", "dataclasses")
        assert loaded == []
        assert (tmp_path / "out" / "constraints.csv").exists()
