"""Optical data and the permittivity along the imaginary frequency axis.

Tabulated (n, k) data are turned into Im eps(w) = 2 n k and transformed to
the imaginary axis through

    eps(i xi) = 1 + (2/pi) * int_0^inf  w Im eps(w) / (w^2 + xi^2) dw,

with a Drude tail below the lowest tabulated frequency and zero above the
highest.  Analytic Drude/plasma forms and the Leontovich surface impedance
live here as well.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from casimetry.constants import C_LIGHT, EV_TO_RAD_S

__all__ = [
    "OpticalDataset",
    "DrudeParameters",
    "PermittivityFn",
    "QuadratureError",
    "load_optical_table",
    "permittivity_imag_axis",
    "drude_permittivity",
    "plasma_permittivity",
    "leontovich_impedance",
]

# Conventional gold values; configuration defaults, not fitted to any dataset.
DEFAULT_OMEGA_P = 1.37e16
DEFAULT_GAMMA = 5.3e13


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class DrudeParameters:
    """Plasma frequency and relaxation frequency, both in rad/s.

    gamma = 0 degenerates to the dissipationless plasma model.
    """

    omega_p: float
    gamma: float

    def __post_init__(self):
        if not self.omega_p > 0.0:
            raise ValueError("omega_p must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")


@dataclass(frozen=True)
class OpticalDataset:
    """Tabulated complex refractive index versus angular frequency.

    Parameters
    ----------
    omega : ndarray
        Angular frequencies in rad/s, strictly increasing.
    n : ndarray
        Real refractive index at each frequency.
    k : ndarray
        Extinction coefficient at each frequency.
    metal_name : str
        Label for the material.
    source : str
        Free-text provenance of the table.
    """

    omega: np.ndarray
    n: np.ndarray
    k: np.ndarray
    metal_name: str = ""
    source: str = ""

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        n = np.asarray(self.n, dtype=float)
        k = np.asarray(self.k, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        if omega.ndim != 1 or omega.size < 2:
            raise ValueError("need at least 2 tabulated points")
        if n.shape != omega.shape or k.shape != omega.shape:
            raise ValueError("omega, n, k must have matching lengths")
        if not np.all(omega > 0.0):
            raise ValueError("all omega must be positive")
        diffs = np.diff(omega)
        if np.any(diffs == 0.0):
            raise ValueError("duplicate omega values in table")
        if np.any(diffs < 0.0):
            raise ValueError("omega must be strictly increasing")
        if np.any(n < 0.0) or np.any(k < 0.0):
            raise ValueError("n and k must be non-negative")

    @property
    def im_eps(self) -> np.ndarray:
        """Im eps(w) = 2 n k on the tabulated grid."""
        return 2.0 * self.n * self.k


_UNIT_ALIASES = {
    "ev": "eV",
    "rad/s": "rad_per_s",
    "rad_per_s": "rad_per_s",
    "um": "micrometers",
    "micrometers": "micrometers",
}


def _to_omega(x: float, unit: str) -> float:
    if unit == "eV":
        return x * EV_TO_RAD_S
    if unit == "rad_per_s":
        return x
    # wavelength in micrometers
    return 2.0 * math.pi * C_LIGHT / (x * 1e-6)


def load_optical_table(raw_text: str, unit_spec: str | None = None,
                       metal_name: str = "", source: str = "") -> OpticalDataset:
    """Parse a whitespace- or comma-delimited (x, n, k) table.

    The unit of the first column comes from a "#unit: eV|rad/s|um" header
    line unless `unit_spec` overrides it.  Rows are sorted ascending in
    angular frequency; wavelength tables therefore end up reversed.

    Parameters
    ----------
    raw_text : str
        Table contents; '#' starts a comment.
    unit_spec : str, optional
        One of "eV", "rad_per_s" (alias "rad/s"), "micrometers" (alias
        "um").  Overrides any header declaration.

    Returns
    -------
    OpticalDataset

    Raises
    ------
    ValueError
        On malformed rows (the data row index is reported), unknown or
        missing units, or an empty table.
    """
    header_unit = None
    rows = []
    row_index = 0
    for line in raw_text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("unit:"):
                token = body[5:].strip().lower()
                if token not in _UNIT_ALIASES:
                    raise ValueError(f"unknown unit {token!r} in header")
                header_unit = _UNIT_ALIASES[token]
            continue
        row_index += 1
        parts = stripped.replace(",", " ").split()
        if len(parts) != 3:
            raise ValueError(
                f"malformed row {row_index}: expected 3 columns, got {len(parts)}")
        try:
            x, n, k = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"malformed row {row_index}: non-numeric entry") from None
        if x <= 0.0:
            raise ValueError(f"malformed row {row_index}: frequency column must be > 0")
        rows.append((x, n, k))

    if not rows:
        raise ValueError("empty optical table")
    if unit_spec is not None:
        key = unit_spec.strip().lower()
        if key not in _UNIT_ALIASES:
            raise ValueError(f"unknown unit spec {unit_spec!r}")
        unit = _UNIT_ALIASES[key]
    elif header_unit is not None:
        unit = header_unit
    else:
        raise ValueError("no unit declared: add a '#unit:' header or pass unit_spec")

    data = sorted((_to_omega(x, unit), n, k) for x, n, k in rows)
    omega = np.array([d[0] for d in data])
    n_arr = np.array([d[1] for d in data])
    k_arr = np.array([d[2] for d in data])
    return OpticalDataset(omega, n_arr, k_arr, metal_name=metal_name, source=source)


@lru_cache(maxsize=16)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _drude_tail_integral(omega_hi: float, drude: DrudeParameters, xi: float) -> float:
    # (2/pi) * wp^2 g * int_0^a dw / ((w^2+g^2)(w^2+xi^2)), closed form.
    g = drude.gamma
    if g == 0.0:
        return 0.0
    a = omega_hi
    if abs(xi - g) > 1e-8 * g:
        j = (math.atan(a / g) / g - math.atan(a / xi) / xi) / (xi * xi - g * g)
    else:
        # xi == g limit: int_0^a dw/(w^2+g^2)^2
        j = a / (2.0 * g * g * (a * a + g * g)) + math.atan(a / g) / (2.0 * g ** 3)
    return (2.0 / math.pi) * drude.omega_p ** 2 * g * j


def _segment_integral(w_lo, w_hi, im_lo, im_hi, xi, abs_tol, rel_tol):
    """Integrate w*Im eps/(w^2+xi^2) over one table segment in log-w.

    Im eps is interpolated log-log between the endpoints; if either
    endpoint vanishes the interpolation falls back to linear.  Returns
    (value, error_estimate, converged).
    """
    power_law = im_lo > 0.0 and im_hi > 0.0
    if power_law:
        slope = math.log(im_hi / im_lo) / math.log(w_hi / w_lo)
    t_lo = math.log(w_lo)
    t_hi = math.log(w_hi)
    half = 0.5 * (t_hi - t_lo)
    mid = 0.5 * (t_hi + t_lo)
    prev = None
    err = math.inf
    for order in (8, 16, 32, 64):
        nodes, weights = _leggauss(order)
        w = np.exp(mid + half * nodes)
        if power_law:
            im = im_lo * (w / w_lo) ** slope
        else:
            im = im_lo + (im_hi - im_lo) * (w - w_lo) / (w_hi - w_lo)
        # extra factor w from dw = w dt
        value = half * float(np.sum(weights * w * w * im / (w * w + xi * xi)))
        if prev is not None:
            err = abs(value - prev)
            if err <= max(abs_tol, rel_tol * abs(value)):
                return value, err, True
        prev = value
    return prev, err, False


def permittivity_imag_axis(dataset: OpticalDataset, drude: DrudeParameters,
                           xi: float, abs_tol: float = 1e-12,
                           rel_tol: float = 1e-9) -> float:
    """Dispersion transform of tabulated optical data to the imaginary axis.

    Parameters
    ----------
    dataset : OpticalDataset
        Tabulated (omega, n, k); Im eps = 2 n k inside the tabulated range.
    drude : DrudeParameters
        Supplies the Drude extension of Im eps below the table; above the
        table Im eps is taken as zero.
    xi : float
        Imaginary-axis angular frequency, rad/s, > 0.
    abs_tol, rel_tol : float
        Tolerance pair for the adaptive segment quadrature.

    Returns
    -------
    float
        eps(i xi), real and >= 1.

    Raises
    ------
    ValueError
        If xi <= 0.
    QuadratureError
        If a segment fails to converge at the maximum refinement; the
        achieved error estimate is reported in the message.
    """
    if not xi > 0.0:
        raise ValueError("xi must be positive")

    omega = dataset.omega
    im_eps = dataset.im_eps

    total = _drude_tail_integral(omega[0], drude, xi)

    # split any segment straddling xi: the integrand has a knee at w = xi
    edges = []
    for i in range(omega.size - 1):
        w_lo, w_hi = omega[i], omega[i + 1]
        il, ih = im_eps[i], im_eps[i + 1]
        if w_lo < xi < w_hi:
            if il > 0.0 and ih > 0.0:
                p = math.log(ih / il) / math.log(w_hi / w_lo)
                im_mid = il * (xi / w_lo) ** p
            else:
                im_mid = il + (ih - il) * (xi - w_lo) / (w_hi - w_lo)
            edges.append((w_lo, xi, il, im_mid))
            edges.append((xi, w_hi, im_mid, ih))
        else:
            edges.append((w_lo, w_hi, il, ih))

    seg_abs_tol = abs_tol / max(len(edges), 1)
    worst_err = 0.0
    failed = False
    acc = 0.0
    for w_lo, w_hi, il, ih in edges:
        if il == 0.0 and ih == 0.0:
            continue
        value, err, ok = _segment_integral(w_lo, w_hi, il, ih, xi,
                                           seg_abs_tol, rel_tol)
        acc += value
        worst_err = max(worst_err, err)
        failed = failed or not ok
    total += (2.0 / math.pi) * acc

    if failed and worst_err > max(abs_tol, rel_tol * abs(total)):
        raise QuadratureError(
            f"dispersion quadrature did not converge at xi={xi:.6e}; "
            f"achieved error estimate {worst_err:.3e}")
    return 1.0 + total


def drude_permittivity(drude: DrudeParameters, xi):
    """Drude permittivity 1 + wp^2/(xi (xi + gamma)) on the imaginary axis.

    xi may be a scalar or an array; all entries must be positive.
    """
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr <= 0.0):
        raise ValueError("xi must be positive")
    out = 1.0 + drude.omega_p ** 2 / (xi_arr * (xi_arr + drude.gamma))
    return float(out) if np.isscalar(xi) else out


def plasma_permittivity(omega_p: float, xi):
    """Plasma permittivity 1 + wp^2/xi^2 on the imaginary axis."""
    if not omega_p > 0.0:
        raise ValueError("omega_p must be positive")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr <= 0.0):
        raise ValueError("xi must be positive")
    out = 1.0 + omega_p ** 2 / xi_arr ** 2
    return float(out) if np.isscalar(xi) else out


def leontovich_impedance(epsilon):
    """Surface impedance Z = 1/sqrt(eps), in (0, 1] for eps >= 1."""
    eps_arr = np.asarray(epsilon, dtype=float)
    if np.any(eps_arr < 1.0):
        raise ValueError("epsilon must be >= 1")
    out = 1.0 / np.sqrt(eps_arr)
    return float(out) if np.isscalar(epsilon) else out


@dataclass(frozen=True, eq=False)
class PermittivityFn:
    """Evaluable eps(i xi) with a declared zero-frequency behavior.

    Every evaluation validates the output (real, >= 1); zero_frequency is
    one of "drude_like", "plasma_like", "finite" and records how eps
    behaves as xi -> 0 without ever evaluating there.  Instances are
    immutable and hash by identity, so models built on them can be keys.
    """

    fn: Callable
    zero_frequency: str
    label: str = ""

    _ALLOWED = ("drude_like", "plasma_like", "finite")

    def __post_init__(self):
        if self.zero_frequency not in self._ALLOWED:
            raise ValueError(f"zero_frequency must be one of {self._ALLOWED}")

    def __call__(self, xi):
        xi_arr = np.asarray(xi, dtype=float)
        if np.any(xi_arr <= 0.0):
            raise ValueError("xi must be positive")
        value = np.asarray(self.fn(xi_arr), dtype=float)
        if np.any(~np.isfinite(value)) or np.any(value < 1.0):
            raise ValueError(
                f"permittivity {self.label or 'fn'} returned a value < 1")
        return float(value) if np.isscalar(xi) else value

    @classmethod
    def from_drude(cls, drude: DrudeParameters) -> "PermittivityFn":
        tag = "plasma_like" if drude.gamma == 0.0 else "drude_like"
        return cls(lambda xi: drude_permittivity(drude, xi), tag,
                   label=f"drude(wp={drude.omega_p:.4g}, g={drude.gamma:.4g})")

    @classmethod
    def from_plasma(cls, omega_p: float) -> "PermittivityFn":
        return cls(lambda xi: plasma_permittivity(omega_p, xi), "plasma_like",
                   label=f"plasma(wp={omega_p:.4g})")

    @classmethod
    def from_table(cls, dataset: OpticalDataset, drude: DrudeParameters,
                   abs_tol: float = 1e-12, rel_tol: float = 1e-9) -> "PermittivityFn":
        """Memoized dispersion-transform permittivity.

        The cache is per-instance and lock-protected, so one PermittivityFn
        may be shared between threads.
        """
        cache: dict[float, float] = {}
        lock = threading.Lock()

        def evaluate_one(x: float) -> float:
            with lock:
                hit = cache.get(x)
            if hit is not None:
                return hit
            value = permittivity_imag_axis(dataset, drude, x, abs_tol, rel_tol)
            with lock:
                cache[x] = value
            return value

        def fn(xi):
            arr = np.atleast_1d(np.asarray(xi, dtype=float))
            out = np.array([evaluate_one(float(x)) for x in arr])
            return out.reshape(np.shape(xi))

        tag = "plasma_like" if drude.gamma == 0.0 else "drude_like"
        return cls(fn, tag, label=f"table({dataset.metal_name or 'metal'})")
