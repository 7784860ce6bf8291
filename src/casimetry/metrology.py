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
from ._record import dataclass, field

import numpy as np

from .corrections import SphereGeometry
from .io import read_csv, write_csv
from .lifshitz import PressureCurve

__all__ = [
    "MeasurementEnsemble",
    "BinnedStatistics",
    "ConfidenceBand",
    "ExclusionVerdict",
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
    z = np.asarray(z, dtype=float)
    rise = 0.0
    for amp, zc, w in _SCATTER_RISE:
        rise = rise + amp / (1.0 + np.exp(-(z - zc) / w))
    pct = np.sqrt(_SCATTER_BASE ** 2 + rise ** 2)
    out = pct / 100.0 / _NORMAL_Q[0.95]
    return float(out) if out.ndim == 0 else out


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

    Each set is an (n, 2) array of (z, pressure) rows.
    """

    sets: tuple
    z_range: tuple = DEFAULT_Z_RANGE

    def __post_init__(self):
        lo, hi = self.z_range
        if not (0 < lo < hi < math.inf):
            raise ValueError("z_range must be increasing, positive and finite")
        sets = []
        for i, s in enumerate(self.sets):
            a = np.asarray(s, dtype=float)
            if (a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 1
                    or not np.all(np.isfinite(a))):
                raise ValueError(f"set {i} must be a nonempty (n, 2) array of finite values")
            if a[:, 0].min() < lo - 1e-12 or a[:, 0].max() > hi + 1e-12:
                raise ValueError(f"set {i} has separations outside z_range")
            sets.append(a)
        if not sets:
            raise ValueError("ensemble needs at least one set")
        object.__setattr__(self, "sets", tuple(sets))
        object.__setattr__(self, "z_range", (float(lo), float(hi)))

    @property
    def n_points(self):
        return sum(len(s) for s in self.sets)

    def all_points(self):
        """Concatenated (z, pressure) arrays."""
        return (np.concatenate([s[:, 0] for s in self.sets]),
                np.concatenate([s[:, 1] for s in self.sets]))


@dataclass(frozen=True)
class BinnedStatistics:
    """Per-bin summary of an ensemble.

    variance is computed about a within-bin linear trend (dof = n - 2)
    so the curve's slope does not inflate the scatter; bins too small
    to detrend fall back to the plain sample variance, and singleton
    bins carry variance nan with dof 0.
    """

    z: np.ndarray
    pressure_mean: np.ndarray
    variance: np.ndarray
    count: np.ndarray
    dof: np.ndarray


def bin_ensemble(ensemble: MeasurementEnsemble) -> BinnedStatistics:
    """Group all points into separation subintervals of DEFAULT_BIN_WIDTH.

    Every bin's linear fit is centred on the bin means and built from
    per-bin sums; rows come in increasing bin order.
    """
    z, p = ensemble.all_points()
    lo, hi = ensemble.z_range
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
class ConfidenceBand:
    """Half-width at `confidence` versus z of a random-error envelope or
    of the band for differences; calling it interpolates."""

    z: np.ndarray
    half_width: np.ndarray
    confidence: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        h = np.asarray(self.half_width, dtype=float)
        if z.ndim != 1 or z.shape != h.shape or z.size < 2:
            raise ValueError("band needs matching 1-d arrays of length >= 2")
        if not (np.all(np.diff(z) > 0) and np.all(np.isfinite(z))):
            raise ValueError("band z must be finite and strictly increasing")
        if not np.all((h > 0) & (h < math.inf)):
            raise ValueError("band half-widths must be positive and finite")
        _check_confidence(self.confidence)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "half_width", h)

    def __call__(self, z):
        return np.interp(z, self.z, self.half_width)


def _c4(n):
    # E[s] = c4 sigma for normal samples of sizes n (1-d); lgamma once per size
    n = np.asarray(n, dtype=float)
    lg = {v: math.lgamma(v / 2) - math.lgamma((v - 1) / 2) for v in set(n.tolist())}
    return np.sqrt(2.0 / (n - 1)) * np.exp([lg[v] for v in n.tolist()])


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

    Notes
    -----
    Bin scatter is smoothed with a moving median over 11 bins, which
    respects the strong variance heterogeneity across separation.
    """
    _check_confidence(confidence)
    if kind != "point":
        raise ValueError("kind must be 'point'")
    s_sm = _smoothed_sigma(binned)
    good = np.isfinite(s_sm) & (binned.dof >= 1)
    if not good.any():
        raise ValueError("no bins with a defined variance")
    return ConfidenceBand(binned.z[good], _NORMAL_Q[confidence] * s_sm[good],
                          confidence)


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
    z = np.asarray(z, dtype=float)
    if not np.all((z > 0) & (z < math.inf)):
        raise ValueError("z must be positive and finite")
    _check_confidence(confidence)
    hws = [confidence * (z / DEFAULT_SPHERE.radius),
           np.full_like(z, confidence * DEFAULT_OPTICAL_REL)]
    if include_separation_term:
        sigma = (4.0 * DEFAULT_SEPARATION_ERROR / z) / _NORMAL_Q[0.95]
        hws.append(_NORMAL_Q[confidence] * sigma)
    return _combine(hws, rule="quantile")


def confidence_band(theory_rel, expt_abs, model_curve: PressureCurve,
                    confidence: float, rule: str = "quantile",
                    grid=None) -> ConfidenceBand:
    """Build the band for differences between a model curve and data.

    Parameters
    ----------
    theory_rel : callable
        Relative theory error versus separation, at `confidence`.
    expt_abs : callable or ConfidenceBand
        Absolute experimental half-width versus separation, Pa, at
        `confidence`.
    model_curve : PressureCurve
        Curve of the model under test.
    confidence : float
    rule : str, optional
        Component combination rule, "quantile" or "variance".
    grid : array_like, optional
        Evaluation separations; defaults to the grid of a ConfidenceBand
        `expt_abs` clipped to the model curve range, else the model grid.
    """
    if grid is None:
        grid = (expt_abs.z if isinstance(expt_abs, ConfidenceBand)
                else model_curve.z)
    grid = np.asarray(grid, dtype=float)
    lo = max(grid.min(), model_curve.z.min())
    hi = min(grid.max(), model_curve.z.max())
    keep = (grid >= lo) & (grid <= hi)
    if not keep.any():
        raise ValueError("band grid does not overlap the model curve")
    grid = grid[keep]
    p_abs = np.abs(model_curve.pressure_at(grid))
    th = np.asarray(theory_rel(grid), dtype=float) * p_abs
    ex = np.asarray(expt_abs(grid), dtype=float)
    return ConfidenceBand(grid, _combine([th, ex], rule), confidence)


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
    # the band and the (z, dP) rows behind the verdict; not serialized
    band: ConfidenceBand = field(default=None, compare=False, repr=False)
    differences: np.ndarray = field(default=None, compare=False, repr=False)

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
    d = np.asarray(differences, dtype=float)
    if (d.ndim != 2 or d.shape[1] != 2 or d.shape[0] == 0
            or not np.all(np.isfinite(d))):
        raise ValueError("differences must be a nonempty list of finite (z, dP)")
    z = d[:, 0]
    outside = np.abs(d[:, 1]) > band(z)
    order = np.argsort(z, kind="stable")
    zo, n_below = z[order], np.concatenate(([0], np.cumsum(outside[order])))
    i0 = np.searchsorted(zo, band.z - WINDOW_HALF_WIDTH)
    i1 = np.searchsorted(zo, band.z + WINDOW_HALF_WIDTH)
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
    """
    binned = bin_ensemble(ensemble)
    env = random_error_curve(binned, confidence)
    ref_curve = model_curves[reference]
    rad = confidence * (DEFAULT_SPHERE.radius_error / DEFAULT_SPHERE.radius)

    def expt_abs(zz):
        return np.sqrt(env(zz) ** 2
                       + (rad * np.abs(ref_curve.pressure_at(zz))) ** 2)

    def theory_rel(zz):
        return theory_error_curve(zz, confidence=confidence,
                                  include_separation_term=False)

    z, p = ensemble.all_points()
    out = {}
    for tag, curve in model_curves.items():
        band = confidence_band(theory_rel, expt_abs, curve, confidence,
                               rule="variance", grid=env.z)
        d = np.column_stack([z, curve.pressure_at(z) - p])
        out[tag] = exclusion_test(d, band, model_tag=tag)
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


def save_ensemble_csv(ensemble: MeasurementEnsemble, path, comments=()):
    """Write an ensemble as CSV rows set_index,z_m,pressure_Pa."""
    index = np.repeat(np.arange(len(ensemble.sets)), [len(s) for s in ensemble.sets])
    write_csv(path, _ENSEMBLE_COLUMNS, zip(index.tolist(), *ensemble.all_points()), comments)


def load_ensemble_csv(path, z_range=None) -> MeasurementEnsemble:
    """Read an ensemble written by save_ensemble_csv.

    The separation range is inferred from the data unless given.
    Rows are grouped by set_index, in increasing order.
    """
    _, data = read_csv(path, _ENSEMBLE_COLUMNS, integer_columns=("set_index",))
    if not len(data):
        raise ValueError(f"{path}: no data rows")
    sets = [data[data[:, 0] == k, 1:] for k in sorted(set(data[:, 0].tolist()))]
    if z_range is None:
        z_range = (float(data[:, 1].min()), float(data[:, 1].max()))
    try:
        return MeasurementEnsemble(tuple(sets), z_range=z_range)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
