"""Statistical comparison of pressure curves with measurement ensembles.

Implements the error model of a repeated pressure-vs-separation scan:
binning into narrow subintervals, random and systematic error
combination at a stated confidence, the independent theory error
budget, the confidence band for theory-minus-experiment differences,
window-based model exclusion, and a deterministic
synthetic-ensemble generator for end-to-end self tests.

Conventions used throughout: half-widths are always quoted at the
band's confidence level (0.95 or 0.99); relative quantities are
fractions of |P|; separations are meters.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from ._record import dataclass, field, kept, numeric, positive, read_only

import numpy as np

from .corrections import SphereGeometry
from .io import read_csv, write_csv

__all__ = [
    "MeasurementEnsemble",
    "BinnedStatistics",
    "ConfidenceBand",
    "ExclusionVerdict",
    "SparseEnsembleError",
    "bin_ensemble",
    "random_error_curve",
    "theory_error_curve",
    "confidence_band",
    "exclusion_test",
    "run_exclusion_analysis",
    "generate_synthetic_ensemble",
    "default_point_sigma",
    "load_ensemble_csv",
    "save_ensemble_csv",
    "CONFIDENCE_LEVELS",
    "DEFAULT_BIN_WIDTH",
    "DEFAULT_Z_RANGE",
    "DEFAULT_SEPARATION_ERROR",
    "DEFAULT_OPTICAL_REL",
    "DEFAULT_SPHERE",
    "DEFAULT_SEED",
]

DEFAULT_BIN_WIDTH = 1.2e-9
DEFAULT_Z_RANGE = (160e-9, 750e-9)
DEFAULT_SEPARATION_ERROR = 0.6e-9     # 95% half-width of the z record
DEFAULT_OPTICAL_REL = 0.005           # sample-to-sample optical spread
DEFAULT_SPHERE = SphereGeometry(148.7e-6, 0.2e-6)
DEFAULT_N_SETS = 14
DEFAULT_POINTS_PER_SET = 290
DEFAULT_SEED = 7
_ENSEMBLE_COLUMNS = ("set_index", "z_m", "pressure_Pa")

# two-sided normal quantiles ndtri((1 + c) / 2)
_NORMAL_Q = {0.95: 1.959963984540054, 0.99: 2.5758293035489004}
CONFIDENCE_LEVELS = tuple(_NORMAL_Q)

# exclusion windows: half-width, minimum occupancy, outside-fraction rule
WINDOW_HALF_WIDTH = 15e-9
MIN_WINDOW_POINTS = 15
SMOOTHING_BINS = 11

# synthetic per-point scatter: 95% envelope in percent of |P|, flat at
# short separation and rising in two logistic stages at large separation
_SCATTER_BASE = 0.575
_SCATTER_RISE = ((3.2, 330e-9, 10e-9), (12.0, 490e-9, 20e-9))


def default_point_sigma(z):
    """One-sigma relative scatter of a single synthetic point.

    Parameters
    ----------
    z : float or ndarray
        Separation in meters.

    Returns
    -------
    float or ndarray
        Standard deviation as a fraction of |P|.
    """
    z = positive(z, "z must be positive and finite")
    rise = 0.0
    for amp, zc, w in _SCATTER_RISE:
        rise = rise + amp / (1.0 + np.exp(-(z - zc) / w))
    pct = np.sqrt(_SCATTER_BASE ** 2 + rise ** 2)
    out = pct / 100.0 / _NORMAL_Q[0.95]
    return float(out) if out.ndim == 0 else out


class SparseEnsembleError(ValueError):
    """Fewer than two separation bins hold two or more points, so the
    scatter envelope, and any band built on it, is undefined."""


def _check_confidence(confidence):
    if confidence not in CONFIDENCE_LEVELS:
        raise ValueError(f"confidence must be one of {CONFIDENCE_LEVELS}")


def _combine(half_widths, rule="quantile"):
    """Total half-width from component half-widths at one confidence.

    "quantile" is the metrological mixing rule min(sum, 1.1*rss) for
    normal plus uniform components; "variance" is the plain rss, which
    makes a band statistically tight for self-consistency tests.
    """
    hs = np.array(np.broadcast_arrays(*half_widths), dtype=float)
    rss = np.sqrt((hs ** 2).sum(axis=0))
    if rule == "variance":
        total = rss
    elif rule == "quantile":
        total = np.minimum(hs.sum(axis=0), 1.1 * rss)
    else:
        raise ValueError(f"unknown combination rule {rule!r}")
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Repeated pressure scans over a common separation range.

    Each set is an (n, 2) array of (z, pressure) rows, a read-only view of
    one checked copy of all points, so points and binned statistics can be kept.
    """

    sets: tuple
    z_range: tuple = DEFAULT_Z_RANGE

    def __post_init__(self):
        lo, hi = kept(self.z_range, "z_range must be increasing, positive and finite",
                      grid=True).tolist()
        message = "set {} must be a nonempty (n, 2) array of finite values"
        sets = [np.asarray(s) for s in self.sets]
        for i, s in enumerate(sets):
            if s.ndim != 2 or s.shape[1] != 2 or not len(s):
                raise ValueError(message.format(i))
        if not sets:
            raise ValueError("ensemble needs at least one set")
        ends = np.cumsum([len(s) for s in sets])
        try:  # one checked copy holds all the points, as z and pressure rows
            points = kept(np.concatenate([s.T for s in sets], axis=1), message)
        except ValueError:  # the first set that fails the same check names itself
            for i, s in enumerate(sets):
                kept(s, message.format(i))
        outside = (points[0] < lo - 1e-12) | (points[0] > hi + 1e-12)
        if outside.any():
            i = np.searchsorted(ends, outside.argmax(), "right")
            raise ValueError(f"set {i} has separations outside z_range")
        object.__setattr__(self, "sets", tuple(s.T for s in np.split(points, ends[:-1], axis=1)))
        object.__setattr__(self, "z_range", (lo, hi))
        object.__setattr__(self, "_points", tuple(points))

    @property
    def n_points(self):
        return sum(len(s) for s in self.sets)

    def all_points(self):
        """Concatenated (z, pressure) arrays, read-only."""
        return self._points

    @cached_property
    def _binned(self):  # built by the first bin_ensemble call
        z, p = self._points
        lo, hi = self.z_range
        n_bins = max(1, int(math.ceil((hi - lo) / DEFAULT_BIN_WIDTH - 1e-9)))
        idx = np.clip(np.floor((z - lo) / DEFAULT_BIN_WIDTH).astype(int), 0,
                      n_bins - 1)
        # occupied bins become rows 0, 1, ...; inv is each point's row
        count = np.bincount(idx, minlength=n_bins)
        inv = (np.cumsum(count > 0) - 1)[idx]
        n = count[count > 0]
        first = np.full(n.size, idx.size)
        np.minimum.at(first, inv, np.arange(idx.size))
        z_m = np.bincount(inv, z) / n
        p_m = np.bincount(inv, p) / n
        dz, dp = z - z_m[inv], p - p_m[inv]
        sxx = np.bincount(inv, dz * dz)
        spread = np.bincount(inv, z != z[first][inv]) > 0
        fit = (n >= 3) & spread
        slope = np.divide(np.bincount(inv, dz * dp), sxx, out=np.zeros_like(sxx),
                          where=fit)
        # residuals summed explicitly, so an exactly linear bin gives ~0; bins
        # with no fit keep slope 0 and get the plain sum of squares
        rss = np.bincount(inv, (dp - slope[inv] * dz) ** 2)
        dof = np.where(fit, n - 2, n - 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = np.where(n >= 2, rss / dof, math.nan)
        return BinnedStatistics(z_m, p_m, var, n, dof)


@dataclass(frozen=True)
class BinnedStatistics:
    """Per-bin summary of an ensemble.

    variance is computed about a within-bin linear trend (dof = n - 2)
    so the curve's slope does not inflate the scatter; bins too small
    to detrend fall back to the plain sample variance, and singleton
    bins carry variance nan with dof 0.  The arrays are read-only copies.
    """

    z: np.ndarray
    pressure_mean: np.ndarray
    variance: np.ndarray
    count: np.ndarray
    dof: np.ndarray

    def __post_init__(self):
        for name in ("z", "pressure_mean", "variance", "count", "dof"):
            value = numeric(getattr(self, name), f"binned {name} must be numeric")
            object.__setattr__(self, name, read_only(np.array(value)))

    @cached_property
    def _smoothed(self):
        # what no confidence level changes: the smoothed sigma and where it is defined
        sigma = read_only(_smoothed_sigma(self))
        return sigma, read_only(np.isfinite(sigma) & (self.dof >= 1))


def bin_ensemble(ensemble: MeasurementEnsemble) -> BinnedStatistics:
    """Group all points into separation subintervals of DEFAULT_BIN_WIDTH.

    Every bin's linear fit is centred on the bin means and built from
    per-bin sums; rows come in increasing bin order.  An ensemble is
    binned once, on the first call; later calls return the same record.
    """
    return ensemble._binned


@dataclass(frozen=True)
class ConfidenceBand:
    """Half-width at `confidence` versus z of a random-error envelope or
    of the band for differences, held read-only; calling it interpolates."""

    z: np.ndarray
    half_width: np.ndarray
    confidence: float

    def __post_init__(self):
        message = "band half-widths must be positive and finite"
        z = kept(self.z, "band z must be positive, finite and strictly increasing", grid=True)
        h = positive(kept(self.half_width, message), message)
        if z.shape != h.shape or z.size < 2:
            raise ValueError("band needs matching 1-d arrays of length >= 2")
        _check_confidence(self.confidence)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "half_width", h)

    def __call__(self, z):
        return np.interp(z, self.z, self.half_width)


def _c4(n):
    # E[s] = c4 sigma for normal samples of sizes n (1-d); lgamma once per size
    n = np.asarray(n, dtype=float)
    sizes, inv = np.unique(n, return_inverse=True)
    lg = np.array([math.lgamma(v / 2) - math.lgamma((v - 1) / 2) for v in sizes.tolist()])
    return np.sqrt(2.0 / (n - 1)) * np.exp(lg[inv])


def _smoothed_sigma(binned):
    with np.errstate(invalid="ignore"):
        s = np.sqrt(binned.variance) / _c4(np.maximum(binned.dof + 1, 2))
    half = SMOOTHING_BINS // 2
    padded = np.pad(s, half, constant_values=np.nan)
    # median of each window's non-NaN values, which sort first (all NaN: NaN)
    windows = np.sort(np.lib.stride_tricks.sliding_window_view(
        padded, SMOOTHING_BINS), axis=1)
    k, rows = (~np.isnan(windows)).sum(axis=1), np.arange(len(s))
    return (windows[rows, np.maximum(k - 1, 0) // 2] + windows[rows, k // 2]) / 2


def random_error_curve(binned: BinnedStatistics, confidence: float,
                       kind: str = "point") -> ConfidenceBand:
    """Per-point random-error envelope versus separation from binned scatter.

    The half-width is the single-point envelope q_normal * s / c4: the
    bin scatter s, made unbiased by c4, times the normal quantile.  It
    is what a variance-rule band for individual points needs.

    Parameters
    ----------
    binned : BinnedStatistics
    confidence : float
        0.95 or 0.99.
    kind : str, optional
        "point", the only kind.

    Raises
    ------
    SparseEnsembleError
        If fewer than two bins have a defined variance.

    Notes
    -----
    Bin scatter is smoothed with a moving median over 11 bins, which
    respects the strong variance heterogeneity across separation.  The
    smoothing does not depend on the confidence level, so it is done once
    per binned statistics and each level only scales it.
    """
    _check_confidence(confidence)
    if kind != "point":
        raise ValueError("kind must be 'point'")
    sigma, good = binned._smoothed
    if (n_good := np.count_nonzero(good)) < 2:
        raise SparseEnsembleError(
            f"{n_good} of {good.size} occupied separation bins have a defined variance "
            "(two or more points); the scatter envelope needs two")
    return ConfidenceBand(binned.z[good], _NORMAL_Q[confidence] * sigma[good], confidence)


def theory_error_curve(z, confidence: float = 0.95,
                       include_separation_term: bool = True):
    """Relative theory error from curvature, optics, and separation.

    Combines the uniform z/R curvature term (R of DEFAULT_SPHERE), the
    uniform optical-data term (DEFAULT_OPTICAL_REL), and the
    normal-derived 4 dz/z separation term (dz = DEFAULT_SEPARATION_ERROR,
    a 95% half-width) at the requested confidence.

    Set include_separation_term False when the band's experimental
    input is a measured per-point envelope: recorded-separation
    scatter is already part of that envelope and must not be counted
    twice.
    """
    z = positive(z, "z must be positive and finite")
    _check_confidence(confidence)
    hws = [confidence * (z / DEFAULT_SPHERE.radius),
           np.full_like(z, confidence * DEFAULT_OPTICAL_REL)]
    if include_separation_term:
        sigma = (4.0 * DEFAULT_SEPARATION_ERROR / z) / _NORMAL_Q[0.95]
        hws.append(_NORMAL_Q[confidence] * sigma)
    return _combine(hws, rule="quantile")


def confidence_band(theory_rel, expt_abs: ConfidenceBand, model_curve: PressureCurve,
                    confidence: float, rule: str = "quantile") -> ConfidenceBand:
    """Build the band for differences between a model curve and data.

    The band lives on the grid of `expt_abs`, the separations of the data;
    the model curve must cover it (pressure_at raises ValueError if not).

    Parameters
    ----------
    theory_rel : callable
        Relative theory error versus separation, at `confidence`.
    expt_abs : ConfidenceBand
        Absolute experimental half-width versus separation, Pa, at
        `confidence`; anything else raises TypeError.
    model_curve : PressureCurve
        Curve of the model under test.
    confidence : float
        The band's level, which must be `expt_abs.confidence`.
    rule : str, optional
        Component combination rule, "quantile" or "variance".
    """
    if not isinstance(expt_abs, ConfidenceBand):
        raise TypeError("expt_abs must be a ConfidenceBand; its grid is the band's")
    if confidence != expt_abs.confidence:
        raise ValueError(f"confidence {confidence} is not expt_abs's {expt_abs.confidence}")
    grid = expt_abs.z
    th = np.asarray(theory_rel(grid), dtype=float) * np.abs(model_curve.pressure_at(grid))
    return ConfidenceBand(grid, _combine([th, expt_abs.half_width], rule), confidence)


@dataclass(frozen=True)
class ExclusionVerdict:
    """Outcome of comparing one model curve with an ensemble."""

    model_tag: str
    confidence: float
    n_points: int
    n_outside: int
    fraction_outside: float
    excluded_windows: tuple
    accepted: bool
    # the band and the (z, dP) rows behind the verdict, read-only; not serialized
    band: ConfidenceBand = field(default=None, compare=False, repr=False)
    differences: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if (d := self.differences) is not None:
            object.__setattr__(self, "differences", kept(d, "differences must be finite"))

    def to_dict(self):
        return {
            "model": self.model_tag,
            "confidence": self.confidence,
            "n_points": self.n_points,
            "n_outside": self.n_outside,
            "fraction_outside": self.fraction_outside,
            "excluded_windows": [{"z_min": a, "z_max": b}
                                 for a, b in self.excluded_windows],
            "accepted": self.accepted,
        }


def exclusion_test(differences, band: ConfidenceBand,
                   model_tag: str = "") -> ExclusionVerdict:
    """Count band violations and find excluded separation windows.

    A window of +-15 nm about a band grid point is flagged when it
    holds at least 15 differences and more than half of them fall
    outside the band; maximal runs of flagged grid points become
    excluded windows.  The model is accepted when nothing is flagged
    and the global outside fraction does not exceed twice the band's
    nominal miss rate 1 - confidence.
    """
    message = "differences must be a nonempty list of finite (z, dP)"
    d = np.asarray(numeric(differences, message), dtype=float)
    if d.ndim != 2 or d.shape[1] != 2 or d.shape[0] == 0 or not np.all(np.isfinite(d)):
        raise ValueError(message)
    return _verdict(d, band, model_tag, *_windows(d[:, 0], band.z))


def _windows(z, grid):
    # stable order of z, and each grid point's window [i0, i1) in sorted z
    order = np.argsort(z, kind="stable")
    return order, *np.searchsorted(z[order], [grid - WINDOW_HALF_WIDTH, grid + WINDOW_HALF_WIDTH])


def _verdict(d, band, model_tag, order, i0, i1):
    # exclusion_test on checked differences, given _windows of their z
    outside = np.abs(d[:, 1]) > band(d[:, 0])
    n_below = np.concatenate(([0], np.cumsum(outside[order])))
    flags = ((i1 - i0 >= MIN_WINDOW_POINTS)
             & (2 * (n_below[i1] - n_below[i0]) > i1 - i0))
    # maximal runs of flagged grid points: [start, stop) pairs
    edges = np.flatnonzero(np.diff(np.concatenate(([0], flags, [0]))))
    windows = [(float(band.z[a]), float(band.z[b - 1]))
               for a, b in zip(edges[::2], edges[1::2])]
    n_out = int(outside.sum())
    frac = n_out / len(outside)
    accepted = not windows and frac <= 2.0 * (1.0 - band.confidence)
    return ExclusionVerdict(model_tag, band.confidence, len(outside),
                            n_out, frac, tuple(windows), accepted, band, d)


def run_exclusion_analysis(ensemble: MeasurementEnsemble, model_curves: dict,
                           reference: str, confidence: float) -> dict:
    """Band-test each model curve against one measured ensemble.

    The experimental half-width is estimated from the data itself:
    the bias-corrected per-point scatter envelope combined in
    variance with the radius calibration systematic of the reference
    curve.  The theory side carries the curvature and optical terms
    only; the separation record error is left out because the
    measured envelope already contains its effect, and counting it
    twice would loosen the band.  The variance combination rule keeps
    the band statistically tight, so the generating model's outside
    fraction matches the nominal miss rate 1 - confidence.

    Parameters
    ----------
    ensemble : MeasurementEnsemble
    model_curves : dict
        Mapping tag -> PressureCurve of the candidate models.
    reference : str
        Tag of the curve believed to generate the data; sets the
        scale of the radius systematic.
    confidence : float

    Returns
    -------
    dict
        Mapping tag -> ExclusionVerdict, each carrying its band and
        its point-by-point differences for callers that write them out.

    The models share the ensemble's binning, the envelope, the
    experimental half-width, the sort of z and each band node's window.
    """
    env = random_error_curve(bin_ensemble(ensemble), confidence)
    rad = confidence * (DEFAULT_SPHERE.radius_error / DEFAULT_SPHERE.radius)
    ref_abs = rad * np.abs(model_curves[reference].pressure_at(env.z))
    expt_abs = ConfidenceBand(env.z, np.sqrt(env.half_width ** 2 + ref_abs ** 2), confidence)
    theory_rel = partial(theory_error_curve, confidence=confidence, include_separation_term=False)
    z, p = ensemble.all_points()
    windows = _windows(z, env.z)
    out = {}
    for tag, curve in model_curves.items():
        band = confidence_band(theory_rel, expt_abs, curve, confidence, rule="variance")
        out[tag] = _verdict(np.column_stack([z, curve.pressure_at(z) - p]), band, tag, *windows)
    return out


def generate_synthetic_ensemble(*, curve: PressureCurve = None,
                                noise: bool = True,
                                n_sets: int = DEFAULT_N_SETS,
                                points_per_set: int = DEFAULT_POINTS_PER_SET,
                                z_range=DEFAULT_Z_RANGE,
                                seed: int = DEFAULT_SEED,
                                ) -> MeasurementEnsemble:
    """Draw a deterministic synthetic ensemble around a model curve.

    The noise is the measurement's error budget.  Three relative
    systematics are drawn uniformly once per ensemble: the optical data
    (DEFAULT_OPTICAL_REL), the curvature z/R and the radius calibration
    of DEFAULT_SPHERE.  Each point's recorded separation carries a
    normal error of 95% half-width DEFAULT_SEPARATION_ERROR, with the
    pressure evaluated at the true separation, and its pressure a
    normal relative scatter of default_point_sigma.

    Parameters
    ----------
    curve : PressureCurve
        Pressure curve of the generating model; required.  Its range
        must cover z_range; true separations that the jitter carries
        beyond it are clipped to it.
    noise : bool, optional
        If false every point lies on the curve at its recorded
        separation.
    seed : int
        Ensembles are bit-reproducible given the seed.
    """
    if curve is None:
        raise ValueError("a generating pressure curve is required")
    if n_sets < 1 or points_per_set < 1:
        raise ValueError("n_sets and points_per_set must be >= 1")
    lo, hi = z_range
    if not (curve.z[0] <= lo and hi <= curve.z[-1]):
        raise ValueError(f"z_range [{lo:.4g}, {hi:.4g}] m is not covered by the "
                         f"generating curve's [{curve.z[0]:.4g}, {curve.z[-1]:.4g}] m")
    r = DEFAULT_SPHERE.radius
    u_opt, u_curv, u_rad = np.random.default_rng([seed, 999983]).uniform(
        -1.0, 1.0, 3)
    # each set draws from its own generator, in the order z, jitter, scatter
    z_rec, delta, scatter = np.empty((3, n_sets, points_per_set))
    for s in range(n_sets):
        rng = np.random.default_rng([seed, s])
        z_rec[s] = np.sort(rng.uniform(lo, hi, points_per_set))
        if noise:
            delta[s] = rng.normal(0.0, DEFAULT_SEPARATION_ERROR / _NORMAL_Q[0.95],
                                  points_per_set)
            scatter[s] = rng.normal(0.0, 1.0, points_per_set)
    if noise:
        z_true = np.clip(z_rec - delta, curve.z[0], curve.z[-1])
        rel = (u_opt * DEFAULT_OPTICAL_REL + u_curv * (z_true / r)
               + u_rad * (DEFAULT_SPHERE.radius_error / r)
               + scatter * default_point_sigma(z_true))
        p = curve.pressure_at(z_true) * (1.0 + rel)
    else:
        p = curve.pressure_at(z_rec)
    return MeasurementEnsemble(tuple(np.stack([z_rec, p], axis=2)), (lo, hi))


def save_ensemble_csv(ensemble: MeasurementEnsemble, path, comments=()) -> list:
    """As write_csv, rows set_index,z_m,pressure_Pa after a ``# z_range_m`` comment."""
    index = np.repeat(np.arange(len(ensemble.sets)), [len(s) for s in ensemble.sets])
    return write_csv(path, _ENSEMBLE_COLUMNS, (index, *ensemble.all_points()),
                     (*comments, "z_range_m = " + ", ".join(map(repr, ensemble.z_range))))


def load_ensemble_csv(path) -> MeasurementEnsemble:
    """Read an ensemble written by save_ensemble_csv.

    The separation range is the one its ``# z_range_m`` comment states.
    Rows are grouped by set_index, in increasing order.
    """
    comments, data = read_csv(path, _ENSEMBLE_COLUMNS, integer_columns=("set_index",))
    if not len(data):
        raise ValueError(f"{path}: no data rows")
    stated = [text.partition("=")[2] for _, text in comments if text.startswith("z_range_m =")]
    if len(stated) != 1:
        raise ValueError(f"{path}: expected one '# z_range_m = lo, hi' comment")
    sets = [data[data[:, 0] == k, 1:] for k in sorted(set(data[:, 0].tolist()))]
    try:
        return MeasurementEnsemble(tuple(sets), tuple(map(float, stated[0].split(","))))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
