"""casimetry benchmark: real user jobs, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 36 --trace 0

``--trace 0`` is the timed run.  It is a closed loop with one client: the
workload's jobs run one at a time, each in a fresh interpreter, in passes
until ``--seconds`` is used up, and every job's outputs are checked.  It
reports the wall time, child CPU time and peak RSS of a pass, built from
each job's median over the passes, plus ``setup_s``, the median over the
passes of one fresh ``import casimetry.cli`` timed at the start of each.
Every timed step is scaled to a nominal host speed with the two measures of
``calibrate.py``: the runs of that script just before and after the step,
and the ``SpeedProbe`` thread during it.

``--trace 1`` replays the same jobs in this process, alternately untraced
and traced with the wrappers of ``tracer.py``, and reports per-layer
metrics, the import breakdown from ``python -X importtime`` and, for
``curves``, single-pressure probe rows.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Inputs and outputs live under
``.perfbench_work/`` in the checkout.  The metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

IMPORTTIME_REPEATS = 3
PROBE_REPEATS = 5
MIN_PASSES = 3
# typical wall time of one calibrate.py run, and the typical median time of
# one SpeedProbe loop during a job, on the reference host (2-vCPU Xeon VM);
# timed steps are scaled to a host that runs them in these times
CAL_NOMINAL_S = 0.5
PROBE_NOMINAL_S = 1.5e-3
JOB_TIMEOUT_S = 150.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# which end-to-end metric each layer's metrics should move, and on which
# workloads the layer works mostly / not at all
PREDICTIONS = {
    "import": {"moves": ["setup_s", "wall_s"], "mainly_on": ["tables"],
               "unchanged_on": []},
    "cli": {"moves": ["wall_s"], "mainly_on": ["campaign"],
            "unchanged_on": ["curves"]},
    "optics": {"moves": ["wall_s", "cpu_s"], "mainly_on": ["tables"],
               "unchanged_on": ["curves", "campaign"]},
    "lifshitz": {"moves": ["wall_s", "cpu_s"], "mainly_on": ["curves"],
                 "unchanged_on": ["campaign"]},
    "corrections": {"moves": ["wall_s"], "mainly_on": ["curves"],
                    "unchanged_on": ["tables", "campaign"]},
    "metrology": {"moves": ["wall_s", "cpu_s"], "mainly_on": ["campaign"],
                  "unchanged_on": ["curves", "tables"]},
    "hypforce": {"moves": ["wall_s"], "mainly_on": ["campaign"],
                 "unchanged_on": ["curves", "tables"]},
    "trace": {"moves": [], "mainly_on": [], "unchanged_on": []},
}


def child_env() -> dict:
    """Environment of every child: ``src`` first on the path, no config overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CASIMETRY_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(cmd, cwd: Path, env: dict, log: Path):
    """Run one child to completion: (wall seconds, rusage, exit code)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


# ---------------------------------------------------------------- end to end

IMPORT_CLI = [sys.executable, "-c", "import casimetry.cli"]


def warm_import(env: dict, work: Path) -> None:
    """One untimed fresh import of the CLI module, to warm the bytecode cache."""
    _, _, code = spawn(IMPORT_CLI, work, env, work / "setup.log")
    if code != 0:
        raise RuntimeError("import casimetry.cli failed; see setup.log")


def calibrate_run(env: dict, work: Path) -> float:
    """Wall time of one fresh run of ``calibrate.py``."""
    wall, _, code = spawn([sys.executable, str(BENCH_DIR / "calibrate.py")],
                          work, env, work / "calibrate.log")
    if code != 0:
        raise RuntimeError("calibrate.py failed; see calibrate.log")
    return wall


def run_pass(workload, env: dict, work: Path, first_hashes: dict, reference,
             cal: float, probe):
    """One pass: a timed import, then the workload's jobs.

    ``cal`` is the calibration time just before the pass.  Each step is
    followed by a calibration.  The step's slowness is the mean of two
    ratios: the mean calibration time before and after it over
    ``CAL_NOMINAL_S``, and the median ``probe`` time during it over
    ``PROBE_NOMINAL_S``.  Its wall and CPU times are divided by it.
    Returns (row, raw, failures, last calibration time).
    """
    import checks

    shutil.rmtree(work / "out", ignore_errors=True)
    steps = [(None, IMPORT_CLI, work / "setup.log")]
    steps += [(job, job.command(sys.executable),
               work / "logs" / f"{job.name}.log") for job in workload.jobs]
    scaled, raw, rss, codes = [], [], [], []
    for job, cmd, log in steps:
        start = time.perf_counter()
        wall, usage, code = spawn(cmd, work, env, log)
        if job is None and code != 0:
            raise RuntimeError("import casimetry.cli failed; see setup.log")
        cpu = usage.ru_utime + usage.ru_stime
        probed = probe.median(start, start + wall)
        after = calibrate_run(env, work)
        speed = 1.0 / (0.5 * (0.5 * (cal + after) / CAL_NOMINAL_S
                              + probed / PROBE_NOMINAL_S))
        cal = after
        scaled.append((wall * speed, cpu * speed))
        raw.append((wall, cpu, speed, probed))
        rss.append(usage.ru_maxrss / 1024.0)   # KiB on Linux
        codes.append(code)
    failures = {}
    for job, code in zip(workload.jobs, codes[1:]):
        errors = checks.gate(workload, job, work, code, reference, first_hashes)
        if errors:
            failures[job.name] = errors
    row = {"setup_s": scaled[0][0],
           "wall_s": [w for w, _ in scaled[1:]],
           "cpu_s": [c for _, c in scaled[1:]],
           "peak_rss_mb": rss[1:]}
    return row, raw, failures, cal


def end_to_end(workload, env: dict, work: Path, seconds: float, reference):
    import calibrate

    (work / "logs").mkdir(exist_ok=True)
    warm_import(env, work)
    rows, raws, attempted, failed = [], [], 0, 0
    first_hashes = {}
    with calibrate.SpeedProbe() as probe:
        cal = calibrate_run(env, work)
        start = time.perf_counter()
        while True:
            row, raw, failures, cal = run_pass(workload, env, work, first_hashes,
                                               reference, cal, probe)
            rows.append(row)
            raws.append(raw)
            attempted += len(workload.jobs)
            failed += len(failures)
            for name, errors in failures.items():
                print(f"FAILED pass {len(rows)} job {name}: {'; '.join(errors)}")
            elapsed = time.perf_counter() - start
            # start another pass only if its expected midpoint is within budget
            if (len(rows) >= MIN_PASSES
                    and elapsed * (len(rows) + 0.5) / len(rows) > seconds):
                break
    # a pass's figures from each job's median over the passes, so that a
    # burst of host contention during one job inflates only that sample
    per_job = {key: [statistics.median(r[key][j] for r in rows)
                     for j in range(len(workload.jobs))]
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics = {"wall_s": sum(per_job["wall_s"]), "cpu_s": sum(per_job["cpu_s"]),
               "peak_rss_mb": max(per_job["peak_rss_mb"]),
               "setup_s": statistics.median(r["setup_s"] for r in rows)}
    for i, (row, raw) in enumerate(zip(rows, raws), 1):
        jobs = ", ".join(f"{job.name} {r[0]:.3f} x{r[2]:.3f}"
                         for job, r in zip(workload.jobs, raw[1:]))
        print(f"pass {i}: scaled import {row['setup_s']:.3f} s, "
              f"wall {sum(row['wall_s']):.3f} s, cpu {sum(row['cpu_s']):.3f} s; "
              f"raw import {raw[0][0]:.3f} s x{raw[0][2]:.3f}, "
              f"wall {sum(r[0] for r in raw[1:]):.3f} s, "
              f"cpu {sum(r[1] for r in raw[1:]):.3f} s ({jobs}); "
              f"peak rss {max(row['peak_rss_mb']):.1f} MB")
    print(f"failed_frac: {failed / attempted:.4g} ({failed} of {attempted} jobs, "
          f"{len(rows)} passes)")
    return metrics, attempted, failed


# ---------------------------------------------------------------- traced run

def parse_importtime(text: str) -> dict:
    """``import.*`` metrics from the stderr of ``python -X importtime``.

    ``numpy_s``, ``scipy_s`` and ``scipy_stats_s`` sum the cumulative time
    of every import of that package (or its submodules) not nested in
    another one of them, so lazily loaded submodules count too.
    ``casimetry_s`` is the self time of the package's own modules, and
    ``total_s`` the cumulative time of all top-level imports, start-up
    included.
    """
    entries = []   # (depth, name, self_us, cumulative_us), children first
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(head.split(":")[1]),
                        int(cumulative)))

    def package_us(prefix):
        total, stack = 0, []   # stack of (depth, matches) over ancestors
        for depth, name, _, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            matches = name == prefix or name.startswith(prefix + ".")
            if matches and not any(m for _, m in stack):
                total += cumulative
            stack.append((depth, matches))
        return total

    return {
        "import.total_s": sum(e[3] for e in entries if e[0] == 0) / 1e6,
        "import.numpy_s": package_us("numpy") / 1e6,
        "import.scipy_s": package_us("scipy") / 1e6,
        "import.scipy_stats_s": package_us("scipy.stats") / 1e6,
        "import.casimetry_s": sum(e[2] for e in entries
                                  if e[1] == "casimetry"
                                  or e[1].startswith("casimetry.")) / 1e6,
    }


def import_breakdown(env: dict, work: Path) -> dict:
    rows = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import casimetry.cli"], cwd=work, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import casimetry.cli failed: {proc.stderr[-500:]}")
        rows.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _written(job, work: Path):
    """(data rows, bytes) of a job's output files."""
    rows = size = 0
    for rel in job.outputs:
        path = work / rel
        size += path.stat().st_size
        if path.suffix == ".csv":
            lines = [ln for ln in path.read_text().splitlines()
                     if ln and not ln.startswith("#")]
            rows += max(len(lines) - 1, 0)
    return rows, size


def replay(workload, work: Path, tracer, reference, first_hashes):
    """Run every job in this process; returns (seconds, failures, written)."""
    import campaign_driver
    import casimetry.cli
    import checks

    shutil.rmtree(work / "out", ignore_errors=True)
    failures, written = {}, [0, 0]
    elapsed = 0.0
    for index, job in enumerate(workload.jobs):
        if tracer is not None:
            tracer.job = index
        entry = casimetry.cli.main if job.kind == "cli" else campaign_driver.main
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = entry(list(job.argv))
        except Exception:   # a failing job is counted, the replay goes on
            code = traceback.format_exc()
        elapsed += time.perf_counter() - start
        errors = checks.gate(workload, job, work, code, reference, first_hashes)
        if errors:
            failures[job.name] = errors
        elif job.kind == "cli":
            rows, size = _written(job, work)
            written[0] += rows
            written[1] += size
    return elapsed, failures, written


def probe_rows(measure: bool) -> dict:
    """Median ms of one casimir_pressure per model at 160, 300 and 750 nm.

    Only the ``curves`` workload measures them; the others report 0.
    """
    import casimetry.cli as cli
    from casimetry.lifshitz import ThermalState, casimir_pressure
    from casimetry.optics import DrudeParameters, PermittivityFn

    import workloads as wl

    gold = DrudeParameters(wl.OMEGA_P, wl.GAMMA)
    eps = PermittivityFn.from_drude(gold)
    state = ThermalState(wl.TEMPERATURE)
    repeats = PROBE_REPEATS if measure else 0
    rows = {"lifshitz.probe_repeats": repeats}
    for key in wl.MODELS:
        model = cli.build_model(key, gold, eps)
        for nm in wl.PROBE_Z_NM:
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                casimir_pressure(model, nm * 1e-9, state)
                samples.append(1e3 * (time.perf_counter() - start))
            rows[f"lifshitz.p_ms.{key}.{nm}nm"] = (statistics.median(samples)
                                                   if samples else 0.0)
    return rows


def traced(workload, env: dict, work: Path, seconds: float, reference):
    import campaign_driver
    import casimetry.cli  # noqa: F401  (import cost stays out of the replays)
    import tracer as tracing

    metrics = import_breakdown(env, work)
    previous = os.getcwd()
    os.chdir(work)
    try:
        plain, with_trace, layer_rows = [], [], []
        attempted = failed = 0
        first_hashes = {}
        written = (0, 0)
        last = None
        start = time.perf_counter()
        while True:
            # alternate the order so warm-up costs fall on both sides
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for use_tracer in order:
                tracer = tracing.Tracer() if use_tracer else None
                with (tracer.installed([campaign_driver]) if tracer
                      else contextlib.nullcontext()):
                    seconds_used, failures, written = replay(
                        workload, work, tracer, reference, first_hashes)
                attempted += len(workload.jobs)
                failed += len(failures)
                for name, errors in failures.items():
                    print(f"FAILED replay job {name}: {'; '.join(errors)}")
                if tracer:
                    with_trace.append(seconds_used)
                    layer_rows.append(tracing.layer_metrics(tracer.spans))
                    last = tracer
                else:
                    plain.append(seconds_used)
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 0.5) / len(plain) > seconds:
                break
        last.dump(work / "spans.json")
        probes = probe_rows(workload.name == "curves")
    finally:
        os.chdir(previous)
    for key in layer_rows[0]:
        metrics[key] = statistics.median(r[key] for r in layer_rows)
    metrics["cli.rows_written"], metrics["cli.bytes_written"] = written
    metrics.update(probes)
    metrics["trace.replay_s"] = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(with_trace)
                                      / statistics.median(plain) - 1.0)
    print("untraced replays: " + ", ".join(f"{t:.3f}" for t in plain) + " s; "
          "traced: " + ", ".join(f"{t:.3f}" for t in with_trace) + " s")
    print(f"failed_frac: {failed / attempted:.4g} ({failed} of {attempted} jobs)")
    return metrics, attempted, failed


# ---------------------------------------------------------------- provenance

def machine_info() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "casimetry" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no casimetry sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    for name in [k for k in os.environ if k.startswith("CASIMETRY_")]:
        del os.environ[name]   # the in-process CLI would read them
    import checks
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    workload = workloads.prepare(args.workload, args.seed, work)
    reference = checks.load_reference(args.workload, args.seed)
    env = child_env()
    if args.trace:
        metrics, attempted, failed = traced(workload, env, work, args.seconds,
                                            reference)
        declared = spec["per_layer"]
    else:
        metrics, attempted, failed = end_to_end(workload, env, work,
                                                args.seconds, reference)
        declared = spec["end_to_end"]

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why[args.workload],
        "loop": "closed, one client, one job at a time, each job a fresh process"
                if not args.trace else "in-process replay, untraced and traced",
        "reference_jobs": sorted(reference),
        "predictions": PREDICTIONS,
        "machine": {**machine_info(), "loadavg_before": load_before,
                    "loadavg_after": os.getloadavg()},
    }
    (work / "provenance.json").write_text(json.dumps(provenance, indent=1) + "\n")
    print("provenance: " + json.dumps(provenance))
    result = {}
    for entry in declared:
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<36} {value:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
