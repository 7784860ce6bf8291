"""Optical data and the permittivity along the imaginary frequency axis.

Tabulated (n, k) data are turned into Im eps(w) = 2 n k and transformed to
the imaginary axis through

    eps(i xi) = 1 + (2/pi) * int_0^inf  w Im eps(w) / (w^2 + xi^2) dw,

with a Drude tail below the lowest tabulated frequency and zero above the
highest.  The analytic Drude/plasma form lives here as well.
"""

from __future__ import annotations

import math
from ._record import dataclass, kept, positive
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from casimetry.constants import C_LIGHT, EV_TO_RAD_S
from casimetry.io import read_table

__all__ = [
    "OpticalDataset",
    "DrudeParameters",
    "PermittivityFn",
    "QuadratureError",
    "load_optical_table",
    "permittivity_imag_axis",
    "drude_permittivity",
]

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
        positive(self.omega_p, "omega_p must be positive and finite")
        positive(self.gamma, "gamma must be non-negative and finite", zero_ok=True)


@dataclass(frozen=True)
class OpticalDataset:
    """Tabulated complex refractive index versus angular frequency, held read-only.

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
    """

    omega: np.ndarray
    n: np.ndarray
    k: np.ndarray
    metal_name: str = ""

    def __post_init__(self):
        message = "n, k and Im eps = 2 n k must be finite and non-negative"
        omega = kept(self.omega, "omega must be positive, finite and strictly increasing "
                     "(no duplicate values)", grid=True)
        n, k = kept(self.n, message), kept(self.k, message)
        for name, value in (("omega", omega), ("n", n), ("k", k)):
            object.__setattr__(self, name, value)
        if omega.size < 2:
            raise ValueError("need at least 2 tabulated points")
        if n.shape != omega.shape or k.shape != omega.shape:
            raise ValueError("omega, n, k must have matching lengths")
        with np.errstate(over="ignore"):  # an overflowing 2 n k fails
            positive((n, k, self.im_eps), message, zero_ok=True)

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


def _to_omega(x, unit: str):
    if unit == "eV":
        return x * EV_TO_RAD_S
    if unit == "rad_per_s":
        return x
    # wavelength in micrometers
    return 2.0 * math.pi * C_LIGHT / (x * 1e-6)


def load_optical_table(raw_text: str, unit_spec: str | None = None,
                       metal_name: str = "", source: str = "") -> OpticalDataset:
    """Parse an (x, n, k) text table in the format of casimetry.io.read_table.

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
    source : str, optional
        Names the input (a path) in error messages.

    Returns
    -------
    OpticalDataset

    Raises
    ------
    ValueError
        On malformed rows or x <= 0 (``source:line`` is reported),
        unknown, missing or conflicting units, or an empty table.
    """
    where = source or "optical table"
    comments, rows, line_numbers = read_table(raw_text.splitlines(), where, 3)
    unit = None
    for lineno, text in comments:
        if text.lower().startswith("unit:"):
            named = _UNIT_ALIASES.get(text[5:].strip().lower())
            if named is None or unit not in (None, named):
                problem = "unknown" if named is None else "conflicting"
                raise ValueError(f"{where}:{lineno}: {problem} unit in header {text!r}")
            unit = named
    if not len(rows):
        raise ValueError(f"{where}: empty optical table")
    if unit_spec is not None:
        unit = _UNIT_ALIASES.get(unit_spec.strip().lower())
        if unit is None:
            raise ValueError(f"unknown unit spec {unit_spec!r}")
    if unit is None:
        raise ValueError(f"{where}: no unit declared: add a '#unit:' header or pass unit_spec")
    bad = np.nonzero(~(rows[:, 0] > 0.0))[0]
    if bad.size:
        raise ValueError(f"{where}:{line_numbers[bad[0]]}: "
                         "frequency column must be > 0")
    omega = _to_omega(rows[:, 0], unit)
    order = np.argsort(omega, kind="stable")
    return OpticalDataset(omega[order], rows[order, 1], rows[order, 2],
                          metal_name=metal_name)


def _legval(x, c):
    # Clenshaw sum of the Legendre series c (len >= 3) at x, as numpy's legval
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=16)
def _leggauss(order: int):
    """numpy's polynomial.legendre.leggauss(order), step for step and bit for
    bit: eigenvalues of the symmetric companion matrix (Golub & Welsch, Math.
    Comp. 23, 221 (1969)), one Newton step, then weights 1/(P_{n-1} P_n')
    made symmetric and scaled to sum to 2."""
    scale = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    x = np.linalg.eigvalsh(np.diag(np.arange(1, order) * scale[:-1] * scale[1:], -1))
    p_n = np.eye(order + 1)[-1]
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    k = np.arange(order)
    df = _legval(x, np.where((order - 1 - k) % 2 == 0, 2.0 * k + 1, 0.0))
    x -= _legval(x, p_n) / df
    fm = _legval(x, p_n[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2. / w.sum())


# orders of the dispersion ladder; (xi, segment) rows per vectorized step, which
# bounds the working arrays: 0.9 MB peak for 150 xi on 300 rows, 6.6 MB at 32768
_ORDERS = (8, 16, 32, 64)
_BLOCK_ROWS = 4096
# tolerance pair of the transform: absolute (shared among a xi's segments)
# and relative
_ABS_TOL, _REL_TOL = 1e-12, 1e-9


def _drude_tail_integral(omega_hi: float, drude: DrudeParameters, xi):
    # (2/pi) * wp^2 g * int_0^a dw / ((w^2+g^2)(w^2+xi^2)), closed form;
    # in the xi == g limit the integral is int_0^a dw/(w^2+g^2)^2
    g, a = drude.gamma, omega_hi
    if g == 0.0:
        return np.zeros_like(xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.where(np.abs(xi - g) > 1e-8 * g,
                     (math.atan(a / g) / g - np.arctan(a / xi) / xi) / (xi * xi - g * g),
                     a / (2.0 * g * g * (a * a + g * g)) + math.atan(a / g) / (2.0 * g ** 3))
    return (2.0 / math.pi) * drude.omega_p ** 2 * g * j


def _interpolate_im(w, w_lo, w_hi, im_lo, im_hi):
    # Im eps log-log between segment endpoints; linear if either vanishes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.log(im_hi / im_lo) / np.log(w_hi / w_lo)
        return np.where((im_lo > 0.0) & (im_hi > 0.0), im_lo * (w / w_lo) ** slope,
                        im_lo + (im_hi - im_lo) * (w - w_lo) / (w_hi - w_lo))


def _segment_nodes(w_lo, w_hi, im_lo, im_hi):
    # order -> the xi-independent (half, ww, num) of each segment, built on first
    # use: its integral of w Im eps / (w^2 + xi^2) dw is half * sum(num / (ww + xi^2))
    t_lo, t_hi = np.log(w_lo), np.log(w_hi)
    half, mid = 0.5 * (t_hi - t_lo), 0.5 * (t_hi + t_lo)
    ends = (w_lo[:, None], w_hi[:, None], im_lo[:, None], im_hi[:, None])
    @cache
    def nodes(order):
        x, weights = _leggauss(order)
        w = np.exp(mid[:, None] + half[:, None] * x)
        # extra factor w from dw = w dt
        return half, w * w, weights * w * w * _interpolate_im(w, *ends)
    return nodes


def _transform_block(omega, im_eps, table, drude, xi):
    """eps(i xi) - 1 over a 1-d block of xi; table(order) gives the node data
    of the table segments followed by one empty segment.  A ladder step over
    every row broadcasts it against xi^2 and picks each row's segment; only
    the split halves and the rows that escalate past 16 nodes are gathered."""
    n = omega.size
    # the integrand has a knee at w = xi: split the segment containing it
    k = np.searchsorted(omega, xi) - 1        # omega[k] < xi <= omega[k + 1]
    split = (k >= 0) & (k < n - 1) & (xi < omega[np.minimum(k + 1, n - 1)])
    ks, xs = k[split], xi[split]
    w_lo, w_hi, il, ih = omega[ks], omega[ks + 1], im_eps[ks], im_eps[ks + 1]
    im_mid = _interpolate_im(xs, w_lo, w_hi, il, ih)
    halves = _segment_nodes(*(np.column_stack(pair).ravel() for pair in
                              ((w_lo, xs), (xs, w_hi), (il, im_mid), (im_mid, ih))))

    # the n rows of an xi in integration order: its table segments, the split
    # one replaced by its two halves (columns n, n + 1, ... after the table's),
    # or else followed by the empty segment (column n - 1)
    cut = np.where(split, k, n - 1)[:, None]
    first = np.where(split, n + 2 * np.cumsum(split) - 2, n - 1)[:, None]
    j = np.arange(n)
    seg = np.select([j < cut, j == cut, j == cut + 1], [j, first, first + 1], j - 1)
    seg_abs_tol = _ABS_TOL / np.where(split, n, n - 1)    # row r belongs to xi r // n
    xi2 = xi * xi

    def integrals(order, rows):
        if rows.size == seg.size:
            half, ww, num = table(order)
            # one (xi, segment, node) temporary, divided in place: a second
            # one of its size would page-fault anew on every block
            quot = ww + xi2[:, None, None]
            on_table = half * np.sum(np.divide(num, quot, out=quot), axis=-1)
            half, ww, num = halves(order)
            on_halves = half * np.sum(num / (ww + np.repeat(xs * xs, 2)[:, None]), axis=-1)
            by_xi = np.hstack((on_table, np.broadcast_to(on_halves, (xi.size, half.size))))
            return np.take_along_axis(by_xi, seg, axis=1).ravel()
        half, ww, num = map(np.concatenate, zip(table(order), halves(order)))
        s = seg.ravel()[rows]
        return half[s] * np.sum(num[s] / (ww[s] + xi2[rows // n, None]), axis=-1)

    # the 8 -> 16 -> 32 -> 64 ladder: a row escalates while its embedded error
    # estimate, the change from the previous order, misses its tolerance
    active = np.arange(seg.size)
    prev = integrals(_ORDERS[0], active)
    value, err, ok = np.empty_like(prev), np.empty_like(prev), np.zeros(seg.size, bool)
    for order in _ORDERS[1:]:
        if not active.size:
            break
        cur = integrals(order, active)
        value[active], err[active] = cur, np.abs(cur - prev)
        ok[active] = done = err[active] <= np.maximum(seg_abs_tol[active // n],
                                                      _REL_TOL * np.abs(cur))
        active, prev = active[~done], cur[~done]

    value, err, ok = (a.reshape(-1, n) for a in (value, err, ok))
    # a running sum keeps the segments' order of accumulation
    total = (_drude_tail_integral(omega[0], drude, xi)
             + (2.0 / math.pi) * np.cumsum(value, axis=1)[:, -1])
    worst = err.max(axis=1)
    bad = ~ok.all(axis=1) & ~(worst <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(total)))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"dispersion quadrature did not converge at xi={xi[i]:.6e}; "
            f"achieved error estimate {worst[i]:.3e}")
    return total


def permittivity_imag_axis(dataset: OpticalDataset, drude: DrudeParameters, xi):
    """Dispersion transform of tabulated optical data to the imaginary axis.

    Each (xi, table segment) pair is a row of one Gauss-Legendre ladder of
    8, 16, 32 and 64 nodes, run in blocks of about _BLOCK_ROWS rows, to the
    tolerances _ABS_TOL and _REL_TOL; the node data of 32 and 64 nodes are
    built only if a row misses the tolerance at 16.

    Parameters
    ----------
    dataset : OpticalDataset
        Tabulated (omega, n, k); Im eps = 2 n k inside the tabulated range.
    drude : DrudeParameters
        Supplies the Drude extension of Im eps below the table; above the
        table Im eps is taken as zero.
    xi : float or array_like
        Imaginary-axis angular frequencies, rad/s, positive and finite.

    Returns
    -------
    float or ndarray
        eps(i xi) >= 1: a float for a scalar xi, else an array of its shape.

    Raises
    ------
    ValueError
        If any xi is not positive and finite.
    QuadratureError
        If a segment fails to converge at the maximum refinement; the first
        such xi and its achieved error estimate are reported.
    """
    xi_arr = positive(xi, "xi must be positive and finite")
    omega, im_eps = dataset.omega, dataset.im_eps
    # an empty segment (Im eps = 0) pads the rows of an xi that splits none
    table = _segment_nodes(np.append(omega[:-1], omega[0]), np.append(omega[1:], omega[1]),
                           np.append(im_eps[:-1], 0.0), np.append(im_eps[1:], 0.0))
    flat = xi_arr.ravel()
    out = np.empty_like(flat)
    step = max(1, _BLOCK_ROWS // omega.size)
    for lo in range(0, flat.size, step):
        out[lo:lo + step] = 1.0 + _transform_block(
            omega, im_eps, table, drude, flat[lo:lo + step])
    return float(out[0]) if xi_arr.ndim == 0 else out.reshape(xi_arr.shape)


def drude_permittivity(drude: DrudeParameters, xi):
    """Drude permittivity 1 + wp^2/(xi (xi + gamma)) on the imaginary axis.

    xi may be a scalar or an array; all entries must be positive and
    finite.
    """
    xi_arr = positive(xi, "xi must be positive and finite")
    out = 1.0 + drude.omega_p ** 2 / (xi_arr * (xi_arr + drude.gamma))
    return float(out) if np.isscalar(xi) else out


@dataclass(frozen=True, eq=False)
class PermittivityFn:
    """Evaluable eps(i xi).

    Every evaluation validates the output (real, >= 1).  The static term
    is set by the reflection model (lifshitz.MODELS), never by eps, which
    is not evaluated at xi = 0.  Instances are immutable and hash by
    identity, so models built on them can be keys.
    """

    fn: Callable
    label: str = ""

    def __call__(self, xi):
        xi_arr = positive(xi, "xi must be positive and finite")
        value = np.asarray(self.fn(xi_arr), dtype=float)
        if not np.all((value >= 1.0) & (value < math.inf)):  # a NaN fails it
            raise ValueError(f"permittivity {self.label or 'fn'} gave a value non-finite or < 1")
        return float(value) if np.isscalar(xi) else value

    @classmethod
    def from_drude(cls, drude: DrudeParameters) -> "PermittivityFn":
        return cls(lambda xi: drude_permittivity(drude, xi),
                   label=f"drude(wp={drude.omega_p:.4g}, g={drude.gamma:.4g})")

    @classmethod
    def from_table(cls, dataset: OpticalDataset,
                   drude: DrudeParameters) -> "PermittivityFn":
        """Memoized dispersion-transform permittivity; a call transforms its
        uncached xi in one batch.  Values are deterministic, so the memo
        needs no lock: a race between threads only recomputes."""
        cache: dict[float, float] = {}

        def fn(xi):
            keys = np.asarray(xi, dtype=float).ravel().tolist()
            missing = [x for x in dict.fromkeys(keys) if x not in cache]
            if missing:
                cache.update(zip(missing, permittivity_imag_axis(
                    dataset, drude, np.array(missing)).tolist()))
            return np.reshape([cache[x] for x in keys], np.shape(xi))

        return cls(fn, label=f"table({dataset.metal_name or 'metal'})")
