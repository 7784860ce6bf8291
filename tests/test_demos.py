"""Every demo runs in a fresh interpreter and prints its recorded text.

The demos are the only scripts that call all six model factories, so
their printed tables pin the public API end to end.  The expected output
of each ``demos/<name>.py`` is ``tests/demo_output/<name>.txt``; a change
that is meant to move a printed number must update that file with it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "demo_output"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    assert DEMOS == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_unchanged(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (EXPECTED / f"{name}.txt").read_text()
