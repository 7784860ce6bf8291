"""Sphere-plate geometry conversion and surface-roughness averaging.

The dynamic measurement observable is the gradient of the sphere-plate
force.  For a sphere of radius R much larger than the separation this
gradient equals 2 pi R times the pressure between parallel plates, so
dividing by -2 pi R recovers the plate-plate pressure.  Stochastic
surface roughness is folded in by geometric averaging: the pressure is
evaluated at every combination of local heights of the two facing
surfaces and weighted by their height distributions.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import dataclass, kept, positive, read_only
from .io import read_table

__all__ = [
    "SphereGeometry",
    "RoughnessProfile",
    "pft_pressure",
    "roughness_corrected_pressure",
    "load_roughness_profile",
]

# histogram levels of a gaussian profile, and its half-range in sigma
_GAUSSIAN_LEVELS, _GAUSSIAN_CLIP = 9, 3.0


@dataclass(frozen=True)
class SphereGeometry:
    """Sphere radius and its absolute uncertainty, both in meters."""

    radius: float
    radius_error: float = 0.0

    def __post_init__(self):
        positive(self.radius, "sphere radius must be positive and finite")
        positive(self.radius_error, "radius_error must be nonnegative and finite", zero_ok=True)


@dataclass(frozen=True)
class RoughnessProfile:
    """Discrete height distribution of one surface, held read-only.

    Weights are normalized to sum to one and heights shifted to zero
    weighted mean, so raw histogram rows can be passed as they are.

    Parameters
    ----------
    heights : array_like
        Height of each histogram bin, in meters.
    weights : array_like
        Occupation of each bin; finite, nonnegative, with a positive sum.
    """

    heights: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        message = "histogram needs finite levels, weights >= 0 with a positive sum"
        h, w = (np.atleast_1d(kept(v, message)) for v in (self.heights, self.weights))
        if h.ndim != 1 or h.shape != w.shape or h.size == 0:
            raise ValueError("heights and weights must be matching 1-d arrays")
        positive(w, message, zero_ok=True)
        w = read_only(w / positive(w.sum(), message))
        object.__setattr__(self, "heights", read_only(h - w @ h))
        object.__setattr__(self, "weights", w)

    @classmethod
    def flat(cls) -> "RoughnessProfile":
        """Perfectly smooth surface."""
        return cls(np.zeros(1), np.ones(1))

    @classmethod
    def gaussian(cls, sigma: float) -> "RoughnessProfile":
        """Zero-mean normal height distribution of rms roughness `sigma`
        in meters, on 9 levels spanning +-3 sigma."""
        positive(sigma, "sigma must be >= 0 and finite", zero_ok=True)
        if sigma == 0:
            return cls.flat()
        h = np.linspace(-_GAUSSIAN_CLIP * sigma, _GAUSSIAN_CLIP * sigma,
                        _GAUSSIAN_LEVELS)
        w = np.exp(-0.5 * (h / sigma) ** 2)
        return cls(h, w)


def pft_pressure(force_gradient: float, sphere: SphereGeometry) -> float:
    """Equivalent plate-plate pressure for a sphere-plate force gradient.

    Parameters
    ----------
    force_gradient : float
        d F / d z of the sphere-plate force, N/m, finite.
    sphere : SphereGeometry
        Sphere radius (R >> z assumed).

    Returns
    -------
    float
        P = -force_gradient / (2 pi R), in Pa.
    """
    kept(force_gradient, "force_gradient must be finite")
    return -force_gradient / (2.0 * math.pi * sphere.radius)


def roughness_corrected_pressure(pressure_fn: Callable[[np.ndarray], np.ndarray],
                                 profile_a: RoughnessProfile,
                                 profile_b: RoughnessProfile,
                                 z):
    """Geometric average of the pressure over both height distributions.

    pressure_fn is called once, on the distinct separations z + h_i + g_j
    in increasing order; passing lambda s: compute_pressure_curve(model,
    s, state).pressure lets that curve's series set the engine cost.

    Parameters
    ----------
    pressure_fn : callable
        Smooth-plate pressure in Pa on a 1-d array of separations.
    profile_a, profile_b : RoughnessProfile
        Height distributions of the two facing surfaces.
    z : float or array_like
        Mean-plane separations in meters.

    Returns
    -------
    float or ndarray
        Sum over height pairs of w_i v_j pressure_fn(z + h_i + g_j), with
        the shape of z.

    Raises
    ------
    ValueError
        If z is not positive and finite, or a height pair closes the gap.
    """
    z_arr = positive(z, "z must be positive and finite")
    sep = (z_arr.reshape(-1, 1, 1)
           + np.add.outer(profile_a.heights, profile_b.heights))
    if np.any(sep <= 0):
        k, i, j = np.unravel_index(int(np.argmin(sep)), sep.shape)
        raise ValueError(
            "surfaces touch: heights "
            f"({profile_a.heights[i]:.3e}, {profile_b.heights[j]:.3e}) m "
            f"close the {z_arr.ravel()[k]:.3e} m gap")
    w = np.outer(profile_a.weights, profile_b.weights).ravel()
    distinct, inv = np.unique(sep, return_inverse=True)
    values = np.asarray(pressure_fn(distinct), dtype=float)[inv]
    out = values.reshape(z_arr.size, w.size) @ w
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def load_roughness_profile(path) -> RoughnessProfile:
    """Read a height histogram: "height_nm weight" rows in the format of
    casimetry.io.read_table.  Weights are normalized and heights
    recentered to the mean plane.
    """
    with open(path) as fh:
        _, rows, _ = read_table(fh, path, 2)
    if not len(rows):
        raise ValueError(f"{path}: no histogram rows found")
    try:
        return RoughnessProfile(rows[:, 0] * 1e-9, rows[:, 1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
