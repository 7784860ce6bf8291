"""Span tracer for the benchmark's traced in-process replay.

The tracer wraps the public functions of ``casimetry.optics``, ``lifshitz``,
``corrections``, ``metrology``, ``hypforce`` and ``cli`` from outside the
program: nothing under ``src/`` changes.  Each wrapper is installed on every
module attribute that callers look up, in the defining module and in every
namespace that imported the name (``casimetry.cli.casimir_pressure`` as well
as ``casimetry.lifshitz.casimir_pressure``), so calls made inside the package
are seen too.  Spans stay in memory; `Tracer.dump` writes them out once the
run is over.  Only the traced run imports this module: the timed end-to-end
jobs run the untouched program in their own processes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "optics", "lifshitz", "corrections", "metrology", "hypforce")

# functions whose result carries a count the layer metrics need
_COUNTS = {
    "lifshitz.default_l_max": int,
    "lifshitz.compute_pressure_curve": lambda curve: int(curve.z.size),
    "metrology.generate_synthetic_ensemble": lambda ens: int(ens.n_points),
    "metrology.bin_ensemble": lambda binned: int(binned.z.size),
    "hypforce.constraint_curve": lambda curve: len(curve.entries),
    "optics.table_lookup": lambda eps: int(np.size(eps)),
}

_EXCLUSION = ("metrology.exclusion_details", "metrology.run_exclusion_analysis")
_CLOSED_FORM_EPS = ("optics.drude_permittivity", "optics.plasma_permittivity")


def public_functions(module) -> list:
    """Names of the plain functions a module defines without a leading _.

    ``__all__`` is not used: the CLI calls ``exclusion_details``, which
    ``metrology.__all__`` leaves out.
    """
    return [n for n, fn in vars(module).items()
            if not n.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[name, parent, start, end, count, job]``: ``parent`` indexes
    the enclosing span (-1 at top level), ``count`` is filled for the
    functions in ``_COUNTS``, and ``job`` is the replayed job's index, so
    the spans of one job share an identifier.
    """

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, extra_namespaces=()):
        """Wrap the public layer functions for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"casimetry.{layer}"]
            for name in public_functions(module):
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "casimetry" or n.startswith("casimetry.")]
        namespaces += list(extra_namespaces)
        patches = []
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        # table permittivities: count every xi requested through the cache
        table_cls = sys.modules["casimetry.optics"].PermittivityFn
        original = vars(table_cls)["from_table"]
        build = original.__func__

        def from_table(cls, *args, **kwargs):
            eps = build(cls, *args, **kwargs)
            object.__setattr__(eps, "fn", self._wrap("optics.table_lookup", eps.fn))
            return eps

        patches.append((table_cls, "from_table", original))
        table_cls.from_table = classmethod(self._wrap("optics.from_table",
                                                      from_table))
        try:
            yield self
        finally:
            for target, attr, value in reversed(patches):
                setattr(target, attr, value)

    def dump(self, path: Path) -> None:
        """Write the spans as one JSON list, times in seconds."""
        keys = ("name", "parent", "start", "end", "count", "job")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced replay.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap in this single-threaded program.
    """
    n = len(spans)
    duration = [s[3] - s[2] for s in spans]
    children = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]] += duration[i]
    own = [d - c for d, c in zip(duration, children)]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(duration[i] for i in by_name[name])

    def counted(name):
        return sum(spans[i][4] for i in by_name[name])

    def ms(name):
        return _median([1e3 * duration[i] for i in by_name[name]])

    def has_ancestor(i, names):
        parent = spans[i][1]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][1]
        return False

    def layer_self(layer):
        prefix = layer + "."
        return sum(own[i] for i, s in enumerate(spans) if s[0].startswith(prefix))

    m = {}
    m["cli.jobs"] = calls("cli.main")
    m["cli.self_s"] = layer_self("cli")

    requested = counted("optics.table_lookup")
    transforms = calls("optics.permittivity_imag_axis")
    m["optics.load_table_s"] = total("optics.load_optical_table")
    m["optics.table_xi_requested"] = requested
    m["optics.transforms"] = transforms
    m["optics.cache_hit_ratio"] = (1.0 - transforms / requested) if requested else 0.0
    m["optics.transform_s"] = total("optics.permittivity_imag_axis")
    m["optics.transform_ms_per_xi"] = ms("optics.permittivity_imag_axis")
    m["optics.eps_calls"] = sum(calls(f) for f in _CLOSED_FORM_EPS)
    m["optics.eps_s"] = sum(total(f) for f in _CLOSED_FORM_EPS)

    pressure = by_name["lifshitz.casimir_pressure"]
    m["lifshitz.pressure_calls"] = len(pressure)
    m["lifshitz.pressure_self_s"] = sum(own[i] for i in pressure)
    m["lifshitz.pressure_ms_per_call"] = ms("lifshitz.casimir_pressure")
    m["lifshitz.matsubara_terms"] = counted("lifshitz.default_l_max")
    curves = by_name["lifshitz.compute_pressure_curve"]
    m["lifshitz.curve_calls"] = len(curves)
    m["lifshitz.curve_s"] = total("lifshitz.compute_pressure_curve")
    m["lifshitz.curve80_s"] = _median([duration[i] for i in curves
                                       if spans[i][4] == 80])

    rough = calls("corrections.roughness_corrected_pressure")
    under_rough = sum(1 for i in pressure
                      if has_ancestor(i, ("corrections.roughness_corrected_pressure",)))
    m["corrections.rough_calls"] = rough
    m["corrections.engine_calls_per_point"] = under_rough / rough if rough else 0.0
    m["corrections.rough_s"] = total("corrections.roughness_corrected_pressure")
    m["corrections.self_s"] = layer_self("corrections")

    exclusion = [i for name in _EXCLUSION for i in by_name[name]]
    outer = [i for i in exclusion if not has_ancestor(i, _EXCLUSION)]
    m["metrology.points"] = counted("metrology.generate_synthetic_ensemble")
    m["metrology.generate_s"] = total("metrology.generate_synthetic_ensemble")
    m["metrology.bin_calls"] = calls("metrology.bin_ensemble")
    m["metrology.bin_s"] = total("metrology.bin_ensemble")
    m["metrology.bin_ms"] = ms("metrology.bin_ensemble")
    m["metrology.bins"] = counted("metrology.bin_ensemble")
    m["metrology.exclusion_calls"] = len(outer)
    m["metrology.exclusion_s"] = sum(duration[i] for i in outer)
    m["metrology.exclusion_ms"] = _median([1e3 * duration[i] for i in outer])
    m["metrology.exclusion_self_s"] = sum(own[i] for i in exclusion)
    m["metrology.band_s"] = total("metrology.confidence_band")
    m["metrology.theory_error_s"] = total("metrology.theory_error_curve")

    constraints = by_name["hypforce.constraint_curve"]
    m["hypforce.constraint_calls"] = len(constraints)
    m["hypforce.lambdas"] = counted("hypforce.constraint_curve")
    m["hypforce.constraint_s"] = total("hypforce.constraint_curve")
    m["hypforce.constraint_ms"] = ms("hypforce.constraint_curve")
    m["hypforce.ms_per_lambda"] = _median([1e3 * duration[i] / spans[i][4]
                                           for i in constraints])
    m["hypforce.yukawa_calls"] = calls("hypforce.yukawa_plate_pressure")

    m["trace.spans"] = n
    return m
