"""Yukawa-type pressures for layered bodies and constraint curves.

A hypothetical correction to Newtonian gravity of strength alpha_g
and range lam adds a plate-plate pressure proportional to the product
of two stack density factors.  This module evaluates that pressure in
closed form for arbitrary layer counts, and inverts a confidence band
into the strongest constraint alpha_max(lam) with the separation of
best sensitivity.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._record import dataclass, kept, numeric, positive
from .constants import G_NEWTON
from .io import FLOAT_FORMAT, read_csv, read_table, write_csv

__all__ = [
    "YukawaParams",
    "Layer",
    "LayerStack",
    "ConstraintCurve",
    "yukawa_plate_pressure",
    "density_factor",
    "constraint_curve",
    "coated_sphere_stack",
    "coated_plate_stack",
    "load_layer_stack",
    "save_constraint_csv",
    "load_constraint_csv",
    "DENSITY_AU",
    "DENSITY_TI",
    "DENSITY_PT",
    "DENSITY_SI",
    "DENSITY_SAPPHIRE",
]

DENSITY_AU = 19.28e3
DENSITY_TI = 4.51e3
DENSITY_PT = 21.47e3
DENSITY_SI = 2.33e3
DENSITY_SAPPHIRE = 4.1e3
_CONSTRAINT_COLUMNS = ("lambda_m", "alpha_max", "z_best_m")

# plate-parallel reduction assumes z, lam much smaller than the body
# extent; warn beyond this fraction of the smallest lateral dimension
PLATE_EXTENT = 3.5e-6
RANGE_VALIDITY_FRACTION = 0.2


@dataclass(frozen=True)
class YukawaParams:
    """Strength and range of the Yukawa correction."""

    alpha_g: float
    lam: float

    def __post_init__(self):
        kept(self.alpha_g, "strength alpha_g must be finite")
        positive(self.lam, "interaction range must be positive and finite")


@dataclass(frozen=True)
class Layer:
    density: float
    thickness: float

    def __post_init__(self):
        positive(self.density, "layer density must be positive and finite")
        message = "layer thickness must be positive"  # a substrate's is inf
        if not numeric(self.thickness, message) > 0:
            raise ValueError(message)


@dataclass(frozen=True)
class LayerStack:
    """Plane-layered body, ordered from the facing surface inward.

    Every layer has finite thickness except the last, which is the
    semi-infinite substrate.
    """

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("stack needs at least one layer")
        kept([lay.thickness for lay in layers[:-1]], "only the terminal layer may be infinite")
        if not math.isinf(layers[-1].thickness):
            raise ValueError("terminal layer must be semi-infinite")
        object.__setattr__(self, "layers", layers)


def coated_sphere_stack() -> LayerStack:
    """Gold-coated sapphire sphere: Au over a Ti adhesion layer."""
    return LayerStack((Layer(DENSITY_AU, 200e-9),
                       Layer(DENSITY_TI, 10e-9),
                       Layer(DENSITY_SAPPHIRE, math.inf)))


def coated_plate_stack() -> LayerStack:
    """Gold-coated silicon plate: Au over a Pt adhesion layer."""
    return LayerStack((Layer(DENSITY_AU, 150e-9),
                       Layer(DENSITY_PT, 10e-9),
                       Layer(DENSITY_SI, math.inf)))


def density_factor(stack: LayerStack, lam):
    """Effective density of a stack seen by a Yukawa force of range lam.

    phi = rho_1 - sum_k (rho_k - rho_{k+1}) exp(-depth_k/lam), where
    depth_k is the total thickness above the k-th interface.  For a
    homogeneous body this is the surface density; long ranges see the
    substrate.  Positive for any all-positive stack.  lam, positive and
    finite, may be an array; a scalar lam gives a float.
    """
    lam = positive(lam, "interaction range must be positive and finite")
    phi = np.full_like(lam, stack.layers[0].density)
    depth = 0.0
    for above, below in zip(stack.layers[:-1], stack.layers[1:]):
        depth += above.thickness
        phi -= (above.density - below.density) * np.exp(-depth / lam)
    return float(phi) if phi.ndim == 0 else phi


def _check_range_validity(lam):
    if lam > RANGE_VALIDITY_FRACTION * PLATE_EXTENT:
        warnings.warn(
            f"interaction range {lam:.3g} m exceeds "
            f"{RANGE_VALIDITY_FRACTION:g} of the plate extent "
            f"{PLATE_EXTENT:.3g} m; the plane-parallel reduction "
            "degrades there", stacklevel=3)


def _plate_pressure(phi_a, phi_b, z, lam, alpha_g=1.0):
    # -2 pi G alpha_g lam^2 exp(-z/lam) phi_a phi_b, phi the density factors at lam
    return (-2.0 * math.pi * G_NEWTON * alpha_g * lam * lam * np.exp(-z / lam)
            * phi_a * phi_b)


def yukawa_plate_pressure(stack_a: LayerStack, stack_b: LayerStack,
                          z, params: YukawaParams):
    """Yukawa pressure between two layered plates at face separation z.

    P(z) = -2 pi G alpha_g lam^2 exp(-z/lam) phi_a phi_b with the
    stack density factors phi.  Attractive for positive alpha_g.
    """
    z = positive(z, "separation must be positive and finite")
    _check_range_validity(params.lam)
    out = _plate_pressure(density_factor(stack_a, params.lam),
                          density_factor(stack_b, params.lam), z, params.lam,
                          params.alpha_g)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ConstraintCurve:
    """Strongest allowed strength versus interaction range.

    entries is a read-only (n, 3) array of (lam, alpha_max, z_best) rows
    with lam increasing; lambdas, alpha_max and z_best are its columns.
    """

    entries: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.entries)
        if table.ndim != 2 or table.shape[1] != 3 or not len(table):
            raise ValueError("constraint curve needs a nonempty (n, 3) array of entries")
        kept(table.T[0], "interaction ranges must be increasing, positive and finite", grid=True)
        positive(table.T[1], "alpha_max must be positive and finite")
        object.__setattr__(self, "entries", kept(table, "z_best must be finite"))

    lambdas = property(lambda self: self.entries[:, 0])
    alpha_max = property(lambda self: self.entries[:, 1])
    z_best = property(lambda self: self.entries[:, 2])

    def alpha_at(self, lam):
        """Log-log interpolated bound within the curve's range, a float for a scalar lam."""
        # lam and the ends as the file format writes them: a curve read back covers its run
        lo, hi = (float(format(x, FLOAT_FORMAT)) for x in self.lambdas[[0, -1]].tolist())
        where = f"lambda outside curve range [{lo:.4e}, {hi:.4e}] m"
        lam = np.asarray(numeric(lam, where), dtype=float)
        for x in lam.ravel().tolist():
            if not lo <= float(format(x, FLOAT_FORMAT)) <= hi:  # a NaN fails it too
                raise ValueError(f"{where}: {x!r}")
        out = np.exp(np.interp(np.log(lam), np.log(self.lambdas), np.log(self.alpha_max)))
        return float(out) if out.ndim == 0 else out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@np.errstate(divide="ignore", over="ignore")
def _strongest_constraints(band, stack_a, stack_b, lams):
    # minimum over z of half_width/|P(z; 1, lam)| for every lam at once:
    # a 60-point log grid, then golden-section steps on log z in lockstep
    # down to a bracket of 1e-4 in log z; where e^{-z/lam} underflows the
    # objective is +inf; the density factors of each lam are computed once
    phi_a, phi_b = density_factor(stack_a, lams), density_factor(stack_b, lams)

    def objective(z, rows):
        return band(z) / np.abs(_plate_pressure(phi_a[rows], phi_b[rows], z,
                                                lams[rows]))

    grid = np.geomspace(band.z[0], band.z[-1], 60)
    vals = objective(grid, np.s_[:, None])
    if not np.all(np.isfinite(vals).any(axis=1)):
        raise ValueError("degenerate stack: zero reference pressure")
    i = np.argmin(vals, axis=1)
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, len(grid) - 1)]
    a, b = np.log(lo), np.log(hi)
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = objective(np.exp(c), np.s_[:]), objective(np.exp(d), np.s_[:])
    # a bracket at the grid's edge is one step wide, so rows finish apart
    while (active := np.flatnonzero(b - a > 1e-4)).size:
        left = fc[active] < fd[active]
        r, q = active[left], active[~left]
        b[r], d[r], fd[r] = d[r], c[r], fc[r]
        a[q], c[q], fc[q] = c[q], d[q], fd[q]
        c[r] = b[r] - _GOLDEN * (b[r] - a[r])
        d[q] = a[q] + _GOLDEN * (b[q] - a[q])
        f = objective(np.exp(np.where(left, c[active], d[active])), active)
        fc[r], fd[q] = f[left], f[~left]
    z = np.exp(0.5 * (a + b))
    return z, objective(z, np.s_[:])


def constraint_curve(band, stack_a: LayerStack, stack_b: LayerStack,
                     lambdas) -> ConstraintCurve:
    """Invert a confidence band into bounds on the Yukawa strength.

    For each range lam, any allowed strength must keep the Yukawa
    pressure within the band everywhere, so the bound is the minimum
    over separation of half_width(z)/|P(z; alpha_g=1, lam)|.  The
    minimum is located on a 60-point log grid and sharpened by
    golden-section refinement; z_best records the minimizer.

    Parameters
    ----------
    band : ConfidenceBand
        Its z grid defines the search range.
    stack_a, stack_b : LayerStack
    lambdas : array_like
        Interaction ranges, m.
    """
    lams = kept(np.sort(lambdas), "interaction ranges must be positive, finite and distinct",
                grid=True)
    _check_range_validity(lams[-1])
    z_best, alpha = _strongest_constraints(band, stack_a, stack_b, lams)
    return ConstraintCurve(np.column_stack([lams, alpha, z_best]))


def load_layer_stack(path) -> LayerStack:
    """Read a stack file: one "density_kg_m3 thickness_nm" row per layer
    in the format of casimetry.io.read_table, the terminal row with
    thickness "inf" for the substrate.
    """
    with open(path) as fh:
        _, rows, _ = read_table(fh, path, 2)
    if not len(rows):
        raise ValueError(f"{path}: no layers found")
    try:
        return LayerStack(tuple(Layer(d, t * 1e-9) for d, t in rows.tolist()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_constraint_csv(curve: ConstraintCurve, path, comments=()):
    """Write a curve as CSV rows lambda_m,alpha_max,z_best_m.

    Ranges that become equal in the file's float format raise
    ValueError before the file is opened: it could not be read back.
    """
    kept([float(format(lam, FLOAT_FORMAT)) for lam in curve.lambdas],
         f"{path}: interaction ranges collide in the {FLOAT_FORMAT} format", grid=True)
    write_csv(path, _CONSTRAINT_COLUMNS, curve.entries.T, comments)


def load_constraint_csv(path) -> ConstraintCurve:
    """Read a curve written by save_constraint_csv."""
    _, data = read_csv(path, _CONSTRAINT_COLUMNS)
    if not len(data):
        raise ValueError(f"{path}: no data rows")
    try:
        return ConstraintCurve(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
