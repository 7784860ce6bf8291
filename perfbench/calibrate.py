"""Host-speed calibration: how fast the shared host runs right now.

The host's speed drifts over seconds to minutes as the neighbours of a
shared machine come and go.  ``run.py`` measures it two ways around every
timed step and scales the step's times by the result:

* this script, run as a fresh interpreter just before and just after the
  step.  Its work mirrors a job's: interpreter start-up, ``import numpy``,
  pure-Python arithmetic and calls, and numpy on small and large arrays.  It
  takes about half a second on a 2-vCPU Xeon VM;
* a ``SpeedProbe`` thread in the benchmark's process, which times a short
  pure-Python loop every ``INTERVAL_S`` while the step runs.  It follows the
  speed through a long step, where the two runs of the script see only its
  ends.

Neither imports anything from ``casimetry``, so no change to the program
can change them.

    python3 perfbench/calibrate.py      # exits 0, prints nothing
"""

import statistics
import threading
import time

import numpy as np


def _python_loop(n: int) -> float:
    total = 0.0
    for i in range(1, n):
        total += (i % 7) * 0.5 / i
    return total


def _callbacks(n: int) -> float:
    # many small calls into numpy, like an integrand evaluated by quadrature
    x = np.linspace(0.1, 2.0, 21)
    total = 0.0
    for k in range(n):
        total += float(np.sum(np.exp(-x * (1.0 + k * 1e-6)) / x))
    return total


def _vector(n: int) -> float:
    a = np.linspace(1.0, 2.0, 200_000)
    for _ in range(n):
        a = np.sqrt(a * a + 1.0) - 0.5
    return float(a[-1])


def main() -> int:
    values = (_python_loop(900_000), _callbacks(15_000), _vector(180))
    return 0 if all(np.isfinite(values)) else 1


class SpeedProbe:
    """Times ``_python_loop(PROBE_N)`` every ``INTERVAL_S`` on its own thread.

    The loop takes about a millisecond, so the probe keeps one core about
    2 % busy.  Use it as a context manager; leaving the block stops the
    thread and waits for it.
    """

    PROBE_N = 12_000
    INTERVAL_S = 0.05

    def __init__(self):
        self.samples = []   # (start, seconds), in time.perf_counter() time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            start = time.perf_counter()
            _python_loop(self.PROBE_N)
            self.samples.append((start, time.perf_counter() - start))
            self._stop.wait(self.INTERVAL_S)

    def median(self, start: float, end: float) -> float:
        """Median probe time among the probes started within [start, end]."""
        inside = [t for s, t in self.samples if start <= s <= end]
        if not inside:
            raise RuntimeError("no speed probe ran during the step")
        return statistics.median(inside)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


if __name__ == "__main__":
    raise SystemExit(main())
