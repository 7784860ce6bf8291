"""Self-test of the benchmark's correctness gate and tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
It runs one real job of the ``curves`` workload in-process (about two
seconds) and shows that an output perturbed by 1e-6 relative is counted as
a failed job: against the frozen reference, against the closed-form ideal
curve, and from pass to pass.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def smooth_job(tmp_path_factory):
    """The reference seed's six-model pressure job, run once."""
    import casimetry.cli

    root = tmp_path_factory.mktemp("curves")
    workload = workloads.prepare("curves", checks.REFERENCE_SEED, root)
    job = workload.jobs[0]
    previous = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert casimetry.cli.main(list(job.argv)) == 0
    finally:
        os.chdir(previous)
    return workload, job, root


def _perturb(path: Path, rel: float, row: int = 10) -> None:
    """Scale the pressure of one data row by (1 + rel)."""
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines)
            if not line.startswith("#") and not line.startswith("z_m")]
    z, p, err = lines[data[row]].rstrip("\n").split(",")
    lines[data[row]] = f"{z},{float(p) * (1.0 + rel):.10e},{err}\n"
    path.write_text("".join(lines))


def test_unperturbed_output_passes(smooth_job):
    workload, job, root = smooth_job
    reference = checks.load_reference("curves", checks.REFERENCE_SEED)
    assert checks.gate(workload, job, root, 0, reference, {}) == []


@pytest.mark.parametrize("seed", [checks.REFERENCE_SEED, 7])
def test_perturbed_output_counts_as_failed(smooth_job, seed):
    # the six-model job's inputs do not depend on the seed, so every seed
    # compares it with the reference
    workload, job, root = smooth_job
    reference = checks.load_reference("curves", seed)
    first_hashes = {}
    assert checks.gate(workload, job, root, 0, reference, first_hashes) == []
    target = root / "out/smooth/pressure_drude.csv"
    original = target.read_text()
    try:
        _perturb(target, 1e-6)
        errors = checks.gate(workload, job, root, 0, reference, first_hashes)
        assert errors == ["pressure.drude: differs from the reference"]
        # without a reference the pass-to-pass byte check catches it
        errors = checks.gate(workload, job, root, 0, {}, first_hashes)
        assert errors == ["out/smooth/pressure_drude.csv differs from the first pass"]
    finally:
        target.write_text(original)


def test_reference_covers_seed_free_jobs_only_off_seed():
    assert set(checks.load_reference("curves", checks.REFERENCE_SEED)) == {
        "pressure_smooth", "pressure_rough"}
    assert set(checks.load_reference("curves", 7)) == {"pressure_smooth"}
    assert checks.load_reference("tables", 7) == {}


def test_failed_exit_counts_as_failed(smooth_job):
    workload, job, root = smooth_job
    assert checks.gate(workload, job, root, 1, None, {}) == ["job failed: 1"]


def test_invariants_catch_unphysical_outputs(smooth_job):
    workload, job, root = smooth_job
    d = checks.digest(job, root)
    assert checks.check_invariants(workload, job, d) == []
    broken = dict(d)
    broken["pressure.drude"] = d["pressure.schwinger"] * 1.001
    assert any("P_drude" in e for e in checks.check_invariants(workload, job, broken))
    broken = dict(d)
    broken["pressure.plasma"] = d["pressure.ideal"] * 1.01
    assert any("ideal-metal bound" in e
               for e in checks.check_invariants(workload, job, broken))
    broken = dict(d)
    broken["pressure.ideal"] = d["pressure.ideal"] * (1.0 + 1e-6)
    assert any("closed form" in e
               for e in checks.check_invariants(workload, job, broken))
    broken = dict(d)
    broken["pressure.exact"] = d["pressure.exact"][::-1].copy()
    assert any("fall strictly" in e
               for e in checks.check_invariants(workload, job, broken))


def test_ideal_closed_form_low_temperature_limit():
    z = np.array([1e-7])
    casimir = np.pi ** 2 * checks.HBAR * checks.C_LIGHT / (240.0 * z ** 4)
    # at 1 K the thermal correction is of order y1^4 ~ 1e-13
    assert checks.ideal_pressure(z, temperature=1.0) == pytest.approx(-casimir,
                                                                      rel=1e-12)


def test_parse_importtime_splits_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       300 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |         50 |     scipy.stats._dist",
        "import time:        10 |         10 |       numpy.linalg",
        "import time:        70 |         80 |     scipy.stats._more",
        "import time:        40 |        770 |   casimetry.metrology",
        "import time:        30 |       1300 | casimetry.cli",
    ])
    m = run.parse_importtime(text)
    assert m["import.total_s"] == pytest.approx(1400e-6)
    # numpy.linalg loads inside scipy.stats, outside the first numpy import
    assert m["import.numpy_s"] == pytest.approx(510e-6)
    assert m["import.scipy_stats_s"] == pytest.approx(130e-6)
    assert m["import.casimetry_s"] == pytest.approx(70e-6)


def test_tracer_wraps_every_namespace_and_restores():
    import casimetry.cli
    import casimetry.lifshitz

    original = casimetry.lifshitz.casimir_pressure
    t = tracer.Tracer()
    with t.installed():
        assert casimetry.cli.casimir_pressure is casimetry.lifshitz.casimir_pressure
        assert casimetry.cli.casimir_pressure is not original
    assert casimetry.cli.casimir_pressure is original
    assert casimetry.lifshitz.casimir_pressure is original


def test_timed_jobs_never_import_the_tracer():
    code = ("import sys, campaign_driver, casimetry.cli; "
            "sys.exit('tracer' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR,
                          env=run.child_env(), timeout=120)
    assert proc.returncode == 0


def test_self_time_excludes_children():
    spans = [["lifshitz.casimir_pressure", -1, 0.0, 1.0, None, 0],
             ["optics.drude_permittivity", 0, 0.2, 0.5, None, 0]]
    m = tracer.layer_metrics(spans)
    assert m["lifshitz.pressure_self_s"] == pytest.approx(0.7)
    assert m["optics.eps_s"] == pytest.approx(0.3)
