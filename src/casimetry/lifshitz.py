"""Thermal Casimir pressure and free energy between parallel plates.

The Matsubara sum is evaluated on the substitution y = 2 q_l z, which makes
the transverse-momentum integrand decay like e^{-y} uniformly in l and z:

    P(z)  = -(k_B T / 8 pi z^3) [ I_0/2 + sum_{l>=1} I_l ],
    I_l   = int_{y_l}^{ymax} y^2 [ f(r_par^2) + f(r_perp^2) ] dy,
    f(r2) = r2 e^{-y} / (1 - r2 e^{-y}),        y_l = 2 xi_l z / c,

and the free energy uses the weight y ln(1 - r2 e^{-y}) with a 1/(8 pi z^2)
prefactor.  One call takes an array of separations: every l >= 1 term of
every z is a (z, l) row, evaluated in vectorized blocks and summed back per
z.  At l = 0 a channel with r2 = 1 or 0 is a closed form (2 zeta(3) or 0;
-zeta(3) or 0 for the free energy).  Truncation tails in both l and y are
bounded with the r2 <= 1 majorant and reported, never silently dropped.
"""

from __future__ import annotations

import math
from ._record import dataclass, kept, numeric, positive, read_only
from functools import partial
from typing import Sequence

import numpy as np

from casimetry.constants import C_LIGHT, HBAR, K_B
from casimetry.optics import DrudeParameters, PermittivityFn, _leggauss

__all__ = [
    "MODELS",
    "ConvergenceError",
    "EngineDiagnostics",
    "ModelRule",
    "PressureCurve",
    "ReflectionModel",
    "ThermalState",
    "casimir_free_energy",
    "casimir_pressure",
    "compute_pressure_curve",
    "default_l_max",
    "entropy_probe",
    "matsubara_frequency",
]

_Y_MAX = 45.0
# relative tolerance of every evaluation: quadrature error and Matsubara tail
QUAD_TOL = 1e-9
_GRID_MESSAGE = "z grid must be a non-empty 1-d array, positive, finite and strictly increasing"


class ConvergenceError(RuntimeError):
    """Quadrature or Matsubara truncation missed the tolerance QUAD_TOL."""


def matsubara_frequency(temperature: float, l: int) -> float:
    """xi_l = 2 pi k_B T l / hbar in rad/s."""
    positive(temperature, "temperature must be positive and finite")
    if l < 0 or l != int(l):
        raise ValueError("l must be a non-negative integer")
    return 2.0 * math.pi * K_B * temperature * l / HBAR


def default_l_max(temperature: float, z: float) -> int:
    """Smallest l_max with 2 xi_l z / c >= 30.

    At y = 30 the geometric l-tail is below 1e-9 of the sum for every
    implemented model.
    """
    positive(z, "z must be positive and finite")
    xi1 = matsubara_frequency(temperature, 1)
    return max(1, math.ceil(30.0 * C_LIGHT / (2.0 * z * xi1)))


@dataclass
class ThermalState:
    """Temperature of an evaluation; each separation sums its Matsubara
    terms up to default_l_max, to the tolerance QUAD_TOL."""

    temperature: float

    def __post_init__(self):
        positive(self.temperature, "temperature must be positive and finite")


# ---------------------------------------------------------------------------
# reflection models
#
# All forms depend only on ratios of (q, xi_l/c, omega_p/c): the engine
# calls them in its scaled y-variables, and they take physical ones (q,
# xi_l/c and omega_p/c in 1/m) unchanged.

def _te_zero_plasma(k, kp):
    k0 = np.sqrt(k * k + kp * kp)
    return ((k0 - k) / (k0 + k)) ** 2


def _te_zero_impedance(k, kp):
    # the Leontovich impedance of a plasma-like metal tends to xi/omega_p,
    # which turns the TE coefficient into (c k - omega_p)/(c k + omega_p)
    return ((k - kp) / (k + kp)) ** 2


def _r_sq_ideal(q, xic, eps):
    return np.ones_like(q), np.ones_like(q)


def _r_sq_impedance(q, xic, eps, exact=False):
    z_par = z_perp = 1.0 / np.sqrt(eps)
    if exact:
        # sin^2 theta_0 = k_perp^2/q^2 = 1 - (xi/c q)^2, in [0, 1]: within
        # about 2e-4 of impedance at 300 K (not the continuation -(c k_perp/xi)^2)
        fac = np.sqrt(1.0 - (1.0 - (xic / q) ** 2) / eps)
        z_par, z_perp = z_par * fac, z_perp / fac
    r_par = ((q - z_par * xic) / (q + z_par * xic)) ** 2
    r_perp = ((z_perp * q - xic) / (z_perp * q + xic)) ** 2
    return r_par, r_perp


def _r_sq_lifshitz(q, xic, eps):
    kl = np.sqrt(q * q + (eps - 1.0) * xic * xic)
    r_par = ((eps * q - kl) / (eps * q + kl)) ** 2
    r_perp = ((q - kl) / (q + kl)) ** 2
    return r_par, r_perp


@dataclass
class ModelRule:
    """A row of MODELS.  te_zero is r_perp^2 at l = 0 (r_par^2 = 1): a
    constant, or a function of (k, omega_p/c) for rules that need omega_p.
    thermal maps (q, xi_l/c, eps(i xi_l)) to the l >= 1 (r_par^2, r_perp^2);
    own_permittivity maps omega_p to an eps(i xi) that replaces a given one."""

    te_zero: object
    thermal: object
    own_permittivity: object = None

    @property
    def needs_omega_p(self) -> bool:
        return callable(self.te_zero)

    @property
    def uses_permittivity(self) -> bool:
        return self.thermal is not _r_sq_ideal


# the one list of reflection models, keyed by the names that the CLI, its
# output files and the README use
MODELS = {
    "ideal": ModelRule(1.0, _r_sq_ideal),
    "impedance": ModelRule(_te_zero_impedance, _r_sq_impedance),
    "exact": ModelRule(_te_zero_impedance, partial(_r_sq_impedance, exact=True)),
    "drude": ModelRule(0.0, _r_sq_lifshitz),
    "schwinger": ModelRule(1.0, _r_sq_lifshitz),
    "plasma": ModelRule(_te_zero_plasma, _r_sq_lifshitz,  # eps = 1 + wp^2/xi^2
                        lambda wp: PermittivityFn.from_drude(DrudeParameters(wp, 0.0))),
}


@dataclass
class ReflectionModel:
    """A prescription for squared reflection coefficients.

    kind is a key of MODELS, whose row gives the zero-frequency rule and
    the l >= 1 form; permittivity supplies eps(i xi_l) where the form
    needs it; omega_p feeds the plasma-like zero-frequency TE rules.
    """

    kind: str
    permittivity: PermittivityFn | None = None
    omega_p: float = 0.0

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown model {self.kind!r}; expected one of "
                             + ", ".join(MODELS))
        rule = MODELS[self.kind]
        if rule.needs_omega_p:
            positive(self.omega_p, f"{self.kind} needs a finite omega_p > 0")
        if rule.own_permittivity is not None:
            object.__setattr__(self, "permittivity", rule.own_permittivity(self.omega_p))
        if rule.uses_permittivity and self.permittivity is None:
            raise ValueError(f"{self.kind} needs a permittivity")

    @classmethod  # only perfbench/campaign_driver.py calls it (ROADMAP item 1, stage A)
    def impedance(cls, permittivity: PermittivityFn,
                  omega_p: float) -> "ReflectionModel":
        return cls("impedance", permittivity, omega_p)

    @classmethod  # only perfbench/campaign_driver.py calls it (ROADMAP item 1, stage A)
    def lifshitz_drude(cls, permittivity: PermittivityFn) -> "ReflectionModel":
        return cls("drude", permittivity)

    @classmethod  # only perfbench/campaign_driver.py calls it (ROADMAP item 1, stage A)
    def lifshitz_schwinger(cls, permittivity: PermittivityFn) -> "ReflectionModel":
        return cls("schwinger", permittivity)


# ---------------------------------------------------------------------------
# quadrature engine

# l = 0 integral of one channel with r2 = 1 over [0, inf): Gamma(3) zeta(3)
# with the pressure weight, -zeta(3) with the free-energy weight
_ZETA3 = 1.2020569031595942
_UNIT_CHANNEL = {"pressure": 2.0 * _ZETA3, "free_energy": -_ZETA3}

# rows or panels per vectorized step: 50 KB temporaries, which glibc's heap
# reuses (100 KB ones, at 512, pass its 128 KiB trim threshold and page-fault)
_BLOCK_ROWS = 256


def _panel_values(weight: str, y, rp2, rt2, graded: bool):
    em = np.exp(-y)
    if not graded:  # every node has y >= 0.5: x = r2 e^{-y} <= e^{-1/2}, no cancellation
        xp, xt = rp2 * em, rt2 * em
        if weight == "pressure":
            return y * y * (xp / (1.0 - xp) + xt / (1.0 - xt))
        return y * (np.log1p(-xp) + np.log1p(-xt))
    # 1 - r2 e^{-y} evaluated as (1-r2) + r2 (1-e^{-y}) to stay accurate
    # when r2 -> 1 and y -> 0 simultaneously
    grow = -np.expm1(-y)
    denom_p = (1.0 - rp2) + rp2 * grow
    denom_t = (1.0 - rt2) + rt2 * grow
    if weight == "pressure":
        return y * y * (rp2 * em / denom_p + rt2 * em / denom_t)
    # ln(1 - x) as log1p(-x) where x = r2 e^{-y} <= 1/2: past y ~ 19 the
    # rounded denominator is noise, on which the G12/K25 pair disagrees
    xp, xt = rp2 * em, rt2 * em
    return y * (np.where(xp <= 0.5, np.log1p(-xp), np.log(denom_p))
                + np.where(xt <= 0.5, np.log1p(-xt), np.log(denom_t)))


# Gauss-Kronrod K25 on [-1, 1] and G12 on its odd-indexed nodes, rows (node, K25, G12 weight)
# at x >= 0, mirrored: Laurie's algorithm (Math. Comp. 66, 1133 (1997)), as the tests rebuild it
_KRONROD_HALF = np.array([(0.0, 0.1255568939054738, 0.0),
                          (0.12523340851146875, 0.12458416453615634, 0.24914704581340258),
                          (0.24850574832046934, 0.12162630352394777, 0.0),
                          (0.36783149899818024, 0.11671205350175673, 0.23349253653835522),
                          (0.4813394504781573, 0.11002260497764439, 0.0),
                          (0.5873179542866174, 0.10164973227906002, 0.20316742672306567),
                          (0.6840598954700559, 0.09154946829504929, 0.0),
                          (0.7699026741943047, 0.07992027533360213, 0.16007832854334614),
                          (0.843558124161153, 0.06725090705083964, 0.0),
                          (0.9041172563704749, 0.05369701760775621, 0.10693932599531851),
                          (0.9505377959431212, 0.03891523046929947, 0.0),
                          (0.9815606342467191, 0.023036084038982274, 0.04717533638651189),
                          (0.996933922529595, 0.008257711433168901, 0.0)])
_KRONROD = (np.r_[-_KRONROD_HALF[:0:-1, 0], _KRONROD_HALF[:, 0]],
            np.r_[_KRONROD_HALF[:0:-1, 1:], _KRONROD_HALF[:, 1:]])


def _graded_edges(y_start: float) -> list[float]:
    coarse = [1.0, 2.0, 3.5, 5.5, 8.5, 13.0, 19.0, 27.0, 36.0, _Y_MAX]
    if y_start == 0.0:
        lead = [0.0, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.4]
    else:
        lead = [y_start]
        step = 0.35 * y_start
        while lead[-1] < 2.0:
            lead.append(lead[-1] + step)
            step *= 1.8
    return lead + [e for e in coarse if e > lead[-1] + 1e-12]


def _panel_integrals(weight, edges, rsq_of, graded):
    """Per-row integrals and error estimates over edges (rows, panels + 1).

    rsq_of(y, rows) gives (r_par^2, r_perp^2) at nodes y (n, order) of the
    given rows.  One G12/K25 pass per panel gives the value K25 and the
    estimate |K25 - G12|; with graded, a panel whose pair disagrees is redone
    with 48 nodes, else every node has y >= 0.5 and takes the short forms.
    """
    n_panels = edges.shape[1] - 1
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    rows = np.repeat(np.arange(edges.shape[0]), n_panels)

    def integrate(x, w, panels=slice(None)):
        half, mid, owner = 0.5 * (b - a)[panels], 0.5 * (b + a)[panels], rows[panels]
        out = np.empty(w.shape[1:] + half.shape)  # one row per weight column
        for lo in range(0, half.size, _BLOCK_ROWS):
            part = slice(lo, lo + _BLOCK_ROWS)
            y = mid[part, None] + half[part, None] * x
            out[..., part] = half[part] * (_panel_values(
                weight, y, *rsq_of(y, owner[part]), graded) @ w).T
        return out

    value, check = integrate(*_KRONROD)
    err = np.abs(value - check)
    bad = np.nonzero(graded & (err > np.maximum(
        1e-16, 1e-3 * QUAD_TOL * (np.abs(value) + 1e-3))))[0]
    if bad.size:
        refined = integrate(*_leggauss(48), bad)
        err[bad] = np.abs(refined - value[bad])
        value[bad] = refined
    return (value.reshape(-1, n_panels).sum(axis=1),
            err.reshape(-1, n_panels).sum(axis=1))


# fractional panel positions between y_l and Y_MAX for rows with y_l >= 0.5;
# four panels of the G12/K25 pair resolve a curve's rows to about 1e-13 of
# its sum, and a row whose pair disagrees still goes to graded panels
_BLOCK_FRACTIONS = np.array([0.0, 0.045, 0.16, 0.42, 1.0])


def _thermal_integrals(thermal, y_ls, eps_arr, weight):
    """Integrals over [y_l, Y_MAX] of l >= 1 rows, per-row error, and the
    indices of the rows integrated on graded panels.

    Rows with y_l >= 0.5 run on fixed fractional panels; rows below it (the
    integrand varies on the scale y_l) and rows that miss the tolerance
    there run on graded panels, batched by panel count.
    """
    def rsq_for(sel):
        y_sel, eps_sel = y_ls[sel], eps_arr[sel]
        return lambda y, rows: thermal(y, y_sel[rows, None], eps_sel[rows, None])

    values, errs = np.zeros_like(y_ls), np.zeros_like(y_ls)
    fixed = np.nonzero(y_ls >= 0.5)[0]
    edges = y_ls[fixed, None] + _BLOCK_FRACTIONS * (_Y_MAX - y_ls[fixed, None])
    values[fixed], errs[fixed] = _panel_integrals(weight, edges, rsq_for(fixed),
                                                  False)
    redo = np.nonzero((y_ls < 0.5) | (errs > np.maximum(
        1e-15, 1e-2 * QUAD_TOL * (np.abs(values) + 1e-3))))[0]
    graded = [_graded_edges(y) for y in y_ls[redo].tolist()]
    counts = np.array([len(e) for e in graded])
    for count in sorted(set(counts.tolist())):
        sel = redo[counts == count]
        values[sel], errs[sel] = _panel_integrals(
            weight, np.array([e for e in graded if len(e) == count]),
            rsq_for(sel), True)
    return values, errs, redo


def _zero_frequency_term(rule, y_p, weight):
    """I_0 and its error estimate for every separation; y_p = 2 z omega_p / c.

    TM (r2 = 1) and the TE channel of the ideal, Schwinger and Drude rules
    are closed forms; only the plasma-like TE channel needs graded panels.
    """
    unit = _UNIT_CHANNEL[weight]
    if not rule.needs_omega_p:
        return np.full_like(y_p, (1.0 + rule.te_zero) * unit), np.zeros_like(y_p)
    te, err = _panel_integrals(
        weight, np.tile(_graded_edges(0.0), (y_p.size, 1)),
        lambda y, rows: (np.zeros_like(y), rule.te_zero(y, y_p[rows, None])),
        True)
    return unit + te, err


def _cutoff_remainder(weight, y_cut):
    """Majorant of the dropped y > y_cut piece, valid for any r2 <= 1."""
    e = np.exp(-y_cut)
    poly = y_cut * (y_cut + 2.0) + 2.0 if weight == "pressure" else y_cut + 1.0
    return 2.0 * poly * e / (1.0 - e)


@dataclass
class EngineDiagnostics:
    """Truncation and quadrature bookkeeping for one evaluation.

    tail_bound and quad_error carry the units of the result (Pa for
    pressures, J/m^2 for free energies).  escalated_rows counts the
    l >= 1 terms integrated on graded panels: those with y_l < 0.5 and
    those the fixed panels did not resolve.  Fields follow the shape of z.
    """

    l_max: int
    tail_bound: float
    quad_error: float
    escalated_rows: int


def _lifshitz_sum(model: ReflectionModel, z: np.ndarray, state: ThermalState,
                  weight: str):
    """Scaled sums (acc, l_max, tail, err, escalated), arrays over the 1-d
    array z."""
    l_max = np.array([default_l_max(state.temperature, s) for s in z.tolist()],
                     dtype=int)
    xi1 = matsubara_frequency(state.temperature, 1)
    y1 = 2.0 * z * xi1 / C_LIGHT
    rule = MODELS[model.kind]

    # rows l = 1..n_rows per separation; terms beyond the y cutoff are pure
    # tail.  l y1 rounds monotonically in l, so the kept rows are a prefix.
    n_rows = np.minimum(l_max, np.floor((_Y_MAX - 1.0) / y1) + 1).astype(int)
    while np.any(cut := (n_rows > 0) & (y1 * n_rows >= _Y_MAX - 1.0)):
        n_rows[cut] -= 1
    top_l = n_rows.max(initial=0)
    eps_l = np.ones(top_l)  # never read by the ideal metal's r2 = 1
    if rule.uses_permittivity and top_l:
        eps_l = model.permittivity(xi1 * np.arange(1, top_l + 1))

    # rows are made and summed block by block, in the order of z then l, so
    # memory does not grow with the total row count; np.add.at adds them in
    # that order, as one bincount over all rows would
    ends = np.cumsum(n_rows)
    row_sum, row_err = np.zeros_like(z), np.zeros_like(z)
    escalated = np.zeros(z.size, dtype=int)
    total = int(n_rows.sum())
    for lo in range(0, total, _BLOCK_ROWS):
        row = np.arange(lo, min(lo + _BLOCK_ROWS, total))
        zi = np.searchsorted(ends, row, side="right")
        ls = row - (ends[zi] - n_rows[zi]) + 1
        values, errs, redo = _thermal_integrals(
            rule.thermal, y1[zi] * ls, eps_l[ls - 1], weight)
        np.add.at(row_sum, zi, values)
        np.add.at(row_err, zi, errs)
        np.add.at(escalated, zi[redo], 1)
    # the l = 0 term in chunks of 64 separations (16 graded panels each),
    # so that its panel arrays stay as small as one row block's too
    value0, err0 = np.empty_like(z), np.empty_like(z)
    y_p = 2.0 * z * model.omega_p / C_LIGHT
    for lo in range(0, z.size, _BLOCK_ROWS // 4):
        part = slice(lo, lo + _BLOCK_ROWS // 4)
        value0[part], err0[part] = _zero_frequency_term(rule, y_p[part], weight)
    acc = 0.5 * value0 + row_sum
    err = 0.5 * err0 + row_err + (0.5 + n_rows) * _cutoff_remainder(weight, _Y_MAX)

    # geometric bound on the dropped l > l_max terms
    g1 = _cutoff_remainder(weight, y1 * (l_max + 1))
    g2 = _cutoff_remainder(weight, y1 * (l_max + 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(g1 > 0.0, g2 / g1, 0.0)
        tail = np.where(ratio < 1.0, g1 / (1.0 - ratio), math.inf)

    # written as not (x <= bound) so that a NaN fails the guard
    scale = np.abs(acc)
    bound = 10.0 * QUAD_TOL * scale + 1e-280
    failed = np.nonzero(~(tail <= bound) | ~(err <= bound))[0]
    if failed.size:
        i = failed[0]
        name, value = (("Matsubara tail bound", tail[i]) if not tail[i] <= bound[i]
                       else ("quadrature error estimate", err[i]))
        raise ConvergenceError(
            f"{name} {value:.3e} exceeds tolerance at z={z[i]:.4e} m, "
            f"l_max={l_max[i]} (sum magnitude {scale[i]:.3e})")
    return acc, l_max, tail, err, escalated


def _evaluate(model, z, state, weight, power, sign, return_diagnostics):
    z_arr = positive(z, "z must be positive and finite")
    flat = z_arr.ravel()
    acc, l_max, tail, err, escalated = _lifshitz_sum(model, flat, state, weight)
    pref = K_B * state.temperature / (8.0 * math.pi * flat ** power)
    result, *diag = (f.item() if z_arr.ndim == 0 else f.reshape(z_arr.shape)
                     for f in (sign * pref * acc, l_max, pref * tail, pref * err,
                               escalated))
    return (result, EngineDiagnostics(*diag)) if return_diagnostics else result


def casimir_pressure(model: ReflectionModel, z, state: ThermalState,
                     return_diagnostics: bool = False):
    """Lifshitz pressure P(z) in Pa (negative: attraction).

    Parameters
    ----------
    model : ReflectionModel
    z : float or array_like
        Plate separations, m, positive and finite.  A scalar gives a
        float; an array gives an array of its shape from one batched pass.
    state : ThermalState
        Temperature.
    return_diagnostics : bool
        When True, also return an EngineDiagnostics with the reported
        Matsubara tail bound and quadrature error estimate per point.

    Raises
    ------
    ConvergenceError
        If the truncation tail or the quadrature error estimate of a point
        exceeds 10x the relative tolerance QUAD_TOL (the first is named).
    """
    return _evaluate(model, z, state, "pressure", 3, -1.0, return_diagnostics)


def casimir_free_energy(model: ReflectionModel, z, state: ThermalState,
                        return_diagnostics: bool = False):
    """Free energy per area F(z, T) in J/m^2 (negative for all models here).

    z may be a scalar or an array, as in casimir_pressure.
    """
    return _evaluate(model, z, state, "free_energy", 2, 1.0,
                     return_diagnostics)


def entropy_probe(model: ReflectionModel, z: float,
                  temperatures: Sequence[float]):
    """Entropy per area S = -dF/dT at each temperature, J/(m^2 K).

    temperatures must be strictly descending and positive, mirroring a
    T -> 0 scan.  Central differences with one Richardson refinement;
    the step delta T = max(0.02 T, 0.05 K) is clipped so T - 2 delta
    stays positive.
    """
    temps = kept(np.flip(temperatures), "temperatures must be positive, finite and "
                 "strictly descending", grid=True)[::-1].tolist()
    out = []
    for temperature in temps:
        h = max(0.02 * temperature, 0.05)
        h = min(h, 0.4 * temperature)

        def free_energy(t: float) -> float:
            return casimir_free_energy(model, z, ThermalState(t))

        d1 = (free_energy(temperature + h) - free_energy(temperature - h)) / (2.0 * h)
        d2 = (free_energy(temperature + 2 * h) - free_energy(temperature - 2 * h)) / (4.0 * h)
        out.append((temperature, -(4.0 * d1 - d2) / 3.0))
    return out


@dataclass
class PressureCurve:
    """Separation grid and pressures of one model, held read-only."""

    z: np.ndarray
    pressure: np.ndarray

    def __post_init__(self):
        message = "pressures must be negative (attractive) and finite"
        z, p = kept(self.z, _GRID_MESSAGE, grid=True), kept(self.pressure, message)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "pressure", p)
        if p.shape != z.shape:
            raise ValueError("pressure array must match z")
        positive(-p, message)
        object.__setattr__(self, "_log_grid", tuple(map(read_only, (np.log(z), np.log(-p)))))

    def pressure_at(self, z):
        """Log-log interpolated pressure at z (within the curve range)."""
        message = f"z outside curve range [{self.z[0]:.4e}, {self.z[-1]:.4e}]"
        zq = np.asarray(numeric(z, message), dtype=float)
        if not np.all((zq >= self.z[0] * (1 - 1e-12)) & (zq <= self.z[-1] * (1 + 1e-12))):
            raise ValueError(message)
        if self.z.size == 1:
            out = np.full(zq.shape, self.pressure[0])
        else:
            out = -np.exp(np.interp(np.log(zq), *self._log_grid))
        return float(out) if np.isscalar(z) else out


# 16 Chebyshev points of the first kind; values there -> degree-15 coefficients
_CURVE_ANGLES = np.pi * (np.arange(16) + 0.5) / 16
_CURVE_FIT = np.cos(np.outer(np.arange(16), _CURVE_ANGLES)) * np.r_[1, [2] * 15][:, None] / 16


def compute_pressure_curve(model: ReflectionModel, z_values,
                           state: ThermalState) -> PressureCurve:
    """Pressures on a grid of separations, packaged as a PressureCurve.

    A grid that PressureCurve refuses raises its error before the engine
    runs.  One of more than 16 points costs 16 engine separations: ln(P/P_0),
    P_0 the first node value, is fitted as a degree-15 Chebyshev series in
    ln z at the 16 Chebyshev points of the first kind spanning z[0] to z[-1]
    and evaluated on the grid; it is kept only if its error estimate
    |c_14| + |c_15| is within the engine's smallest relative error bar at
    the nodes, min((quad_error + tail_bound) / |P|).  A shorter grid, or a
    fit that misses or meets a NaN, takes one direct casimir_pressure call.
    """
    z_arr = kept(z_values, _GRID_MESSAGE, grid=True)
    if z_arr.size > _CURVE_ANGLES.size:
        lo, width = math.log(z_arr[0]), math.log(z_arr[-1] / z_arr[0])
        nodes = np.exp(lo + width * (1 + np.cos(_CURVE_ANGLES)) / 2)
        values, diag = casimir_pressure(model, nodes, state, return_diagnostics=True)
        with np.errstate(all="ignore"):
            coef = _CURVE_FIT @ np.log(values / values[0])
            est = abs(coef[-2]) + abs(coef[-1])
            tol = np.min((diag.quad_error + diag.tail_bound) / np.abs(values))
            theta = np.arccos(np.clip(2 * (np.log(z_arr) - lo) / width - 1, -1, 1))
            pressure = values[0] * np.exp(np.cos(np.outer(theta, np.arange(16))) @ coef)
        # a NaN estimate or bar fails this test and takes the direct call
        if est <= tol:
            return PressureCurve(z_arr, pressure)
    return PressureCurve(z_arr, casimir_pressure(model, z_arr, state))
