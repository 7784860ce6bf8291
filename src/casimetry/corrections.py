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
from ._record import dataclass
from typing import Callable, Sequence

import numpy as np

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
        if not 0 < self.radius < math.inf:
            raise ValueError("sphere radius must be positive and finite")
        if not 0 <= self.radius_error < math.inf:
            raise ValueError("radius_error must be nonnegative and finite")


@dataclass(frozen=True)
class RoughnessProfile:
    """Discrete height distribution of one surface.

    Heights are measured from the mean plane, in meters, so the weighted
    mean must vanish; weights are occupation probabilities.

    Parameters
    ----------
    heights : array_like
        Height of each histogram bin relative to the mean plane.
    weights : array_like
        Probability of each bin; nonnegative, summing to one.
    """

    heights: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.heights, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if h.ndim != 1 or h.shape != w.shape or h.size == 0:
            raise ValueError("heights and weights must be matching 1-d arrays")
        if not np.all(np.isfinite(h) & (w >= 0) & (w < math.inf)):
            raise ValueError("heights must be finite, weights finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"weights sum to {total:.8f}, expected 1")
        span = float(np.max(np.abs(h)))
        mean = float(w @ h)
        if abs(mean) > max(1e-13, 1e-9 * span):
            raise ValueError("heights must average to zero over the weights")
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "weights", w)

    @classmethod
    def flat(cls) -> "RoughnessProfile":
        """Perfectly smooth surface."""
        return cls(np.zeros(1), np.ones(1))

    @classmethod
    def from_histogram(cls, heights: Sequence[float],
                       weights: Sequence[float]) -> "RoughnessProfile":
        """Build a profile from raw histogram rows.

        Weights are normalized and heights are shifted to zero weighted
        mean, which is what raw AFM histograms need.
        """
        h = np.asarray(heights, dtype=float)
        w = np.asarray(weights, dtype=float)
        if not (np.all(np.isfinite(h) & (w >= 0) & (w < math.inf)) and w.sum() > 0):
            raise ValueError("histogram needs finite levels, weights >= 0 with a positive sum")
        w = w / w.sum()
        return cls(h - w @ h, w)

    @classmethod
    def gaussian(cls, sigma: float) -> "RoughnessProfile":
        """Zero-mean normal height distribution of rms roughness `sigma`
        in meters, on 9 levels spanning +-3 sigma."""
        if not 0 <= sigma < math.inf:
            raise ValueError("sigma must be >= 0 and finite")
        if sigma == 0:
            return cls.flat()
        h = np.linspace(-_GAUSSIAN_CLIP * sigma, _GAUSSIAN_CLIP * sigma,
                        _GAUSSIAN_LEVELS)
        w = np.exp(-0.5 * (h / sigma) ** 2)
        return cls.from_histogram(h, w)


def pft_pressure(force_gradient: float, sphere: SphereGeometry) -> float:
    """Equivalent plate-plate pressure for a sphere-plate force gradient.

    Parameters
    ----------
    force_gradient : float
        d F / d z of the sphere-plate force, N/m.
    sphere : SphereGeometry
        Sphere radius (R >> z assumed).

    Returns
    -------
    float
        P = -force_gradient / (2 pi R), in Pa.
    """
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
        If any height pair closes the gap completely.
    """
    z_arr = np.asarray(z, dtype=float)
    sep = (z_arr.reshape(-1, 1, 1)
           + np.add.outer(profile_a.heights, profile_b.heights))
    if np.any(sep <= 0):
        k, i, j = np.unravel_index(int(np.argmin(sep)), sep.shape)
        raise ValueError(
            "surfaces touch: heights "
            f"({profile_a.heights[i]:.3e}, {profile_b.heights[j]:.3e}) m "
            f"close the {z_arr.ravel()[k]:.3e} m gap")
    w = np.outer(profile_a.weights, profile_b.weights).ravel()
    order = np.argsort(sep, axis=None)
    ranked = sep.ravel()[order]
    # written as not (<=) so that a NaN separation stays distinct
    first = np.r_[True, ~(ranked[1:] <= ranked[:-1])]
    values = np.asarray(pressure_fn(ranked[first]), dtype=float)[np.cumsum(first) - 1]
    out = values[np.argsort(order)].reshape(z_arr.size, w.size) @ w
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
        return RoughnessProfile.from_histogram(rows[:, 0] * 1e-9, rows[:, 1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
