"""Freeze the reference outputs that the benchmark compares against.

Runs every job of every workload once for the reference seed, checks the
invariants, and writes ``reference/<workload>.json``.  Rerun it only when a
change is meant to alter the program's numbers, and say so in the change:

    python3 perfbench/freeze_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads

    env = run.child_env()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        work = run.WORK / "freeze" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = workloads.prepare(name, checks.REFERENCE_SEED, work)
        frozen = {}
        for job in workload.jobs:
            _, _, code = run.spawn(job.command(sys.executable), work, env,
                                    work / f"{job.name}.log")
            errors = checks.gate(workload, job, work, code, None, {})
            if errors:
                print(f"{name}/{job.name}: {'; '.join(errors)}", file=sys.stderr)
                return 1
            frozen[job.name] = checks.reference_view(checks.digest(job, work))
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(frozen, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
