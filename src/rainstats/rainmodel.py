"""Rain-rate exceedance model.

The forward model gives the percent of an average year during which the
1-min rain rate R (mm/h) is exceeded at a location described by its mean
annual rainfall ``mt`` (mm/yr) and annual probability of rain ``p0`` (%):

    P(R) = p0 * exp(-x * R * (1 + b*R) / (1 + c*R))
    b = mt / (y * p0),  c = z * b

with three global constants (x, y, z).  This module provides the forward
evaluation, its inversion to a rain rate at a given exceedance probability,
curve estimation over the standard probability ladder, a global
least-squares fit of (x, y, z) against observed site statistics, and
log-linear resampling of observed curves.

Probabilities are expressed in percent throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SolverError
from .tables import (parse_pairs, read_keyed, read_rows, read_text,
                     write_rows, write_text)

#: Standard exceedance-probability ladder (percent), ascending.
STANDARD_LADDER = (0.001, 0.002, 0.003, 0.005, 0.01, 0.02, 0.03, 0.05,
                   0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0)

#: Domain cap (mm/h): a rate at or above it means pathological inputs.
RATE_CAP_MM_H = 10000.0


@dataclass(frozen=True)
class ModelParams:
    """The three fitted model constants; all strictly positive."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"parameter {name} must be positive and "
                                 f"finite, got {v}")


@dataclass(frozen=True)
class ClimatePoint:
    """Climate statistics at one location: mt in mm/yr, p0 in percent."""

    mt: float
    p0: float

    def __post_init__(self):
        if not (np.isfinite(self.mt) and self.mt >= 0):
            raise ValueError(f"mt must be >= 0, got {self.mt}")
        if not (np.isfinite(self.p0) and 0 <= self.p0 <= 100):
            raise ValueError(f"p0 must be in [0, 100], got {self.p0}")


@dataclass(frozen=True)
class SiteStatistics:
    """Observed (p, R) exceedance pairs for one measurement site.

    Points are stored sorted by ascending probability.  Exceedance
    monotonicity is enforced: as p decreases, R must not decrease.
    """

    site_id: str
    lat: float
    lon: float
    country: str
    duration_years: float
    points: tuple

    def __post_init__(self):
        if self.duration_years <= 0:
            raise ValueError("duration_years must be positive")
        pts = tuple(sorted((float(p), float(r)) for p, r in self.points))
        for i, (p, r) in enumerate(pts):
            if not (0 < p <= 100):
                raise ValueError(f"probability {p} outside (0, 100]")
            if r < 0:
                raise ValueError(f"rain rate {r} is negative")
            if i and pts[i - 1][0] == p:
                raise ValueError(f"duplicate probability {p}")
            if i and r > pts[i - 1][1]:
                raise ValueError(
                    "exceedance monotonicity violated: R must not increase "
                    f"with p (p={p}, R={r})")
        object.__setattr__(self, "points", pts)


# ---------------------------------------------------------------------------
# forward model and inversion


def _exceedance_array(rates, mt, p0, params: ModelParams) -> np.ndarray:
    rates = np.asarray(rates, dtype=np.float64)
    mt = np.asarray(mt, dtype=np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    raining = p0 > 0.0
    p0_safe = np.where(raining, p0, 1.0)
    b = mt / (params.y * p0_safe)
    c = params.z * b
    out = p0 * np.exp(-params.x * rates * (1.0 + b * rates)
                      / (1.0 + c * rates))
    return np.where(raining, out, 0.0)


def exceedance_probability(rate: float, climate: ClimatePoint,
                           params: ModelParams) -> float:
    """Percent of the year the rain rate is at or above ``rate`` mm/h."""
    if rate < 0:
        raise ValueError(f"rain rate must be >= 0, got {rate}")
    return float(_exceedance_array([rate], [climate.mt], [climate.p0],
                                   params)[0])


def _rain_rate_array(p, mt, p0, params: ModelParams) -> np.ndarray:
    """Vectorized inversion of the forward model in closed form.

    With L = ln(p0/p), the rate solves x*b*R^2 + (x - c*L)*R - L = 0
    (ITU-R P.837-5, Annex 1); the positive root is taken in the form that
    avoids cancellation.  Raises :class:`SolverError` if the rate reaches
    ``RATE_CAP_MM_H``.
    """
    p = np.asarray(p, dtype=np.float64)
    p, mt, p0 = np.broadcast_arrays(p, np.asarray(mt, dtype=np.float64),
                                    np.asarray(p0, dtype=np.float64))
    out = np.zeros(p.shape, dtype=np.float64)
    active = p < p0
    if not active.any():
        return out

    p0a = p0[active]
    b = mt[active] / (params.y * p0a)
    L = np.log(p0a / p[active])
    A = params.x * b
    B = params.x - params.z * b * L
    q = 0.5 * (np.abs(B) + np.sqrt(B * B + 4.0 * A * L))
    # root = 2L/(B + sqrt(D)) = L/q when B > 0, else (sqrt(D) - B)/(2A) = q/A
    rates = np.where(B > 0, L, q) / np.where(B > 0, q, A)
    if not np.all(rates < RATE_CAP_MM_H):
        raise SolverError(
            f"rain rate reaches {RATE_CAP_MM_H} mm/h; "
            "pathological climate inputs")
    out[active] = rates
    return out


def rain_rate(p: float, climate: ClimatePoint, params: ModelParams) -> float:
    """Rain rate (mm/h) exceeded ``p`` percent of the year.

    Returns 0 when ``p >= p0`` (rain occurs less often than p).  Raises
    ``ValueError`` for p outside (0, 100] and :class:`SolverError` if the
    rate reaches ``RATE_CAP_MM_H``.
    """
    if not (0 < p <= 100):
        raise ValueError(f"exceedance probability must be in (0, 100], "
                         f"got {p}")
    return float(_rain_rate_array([p], [climate.mt], [climate.p0], params)[0])


def estimate_site_curve(climate: ClimatePoint, params: ModelParams,
                        ladder=STANDARD_LADDER):
    """(p, R) pairs over the ladder; monotone by construction."""
    ladder = tuple(float(p) for p in ladder)
    for p in ladder:
        if not (0 < p <= 100):
            raise ValueError(f"ladder probability {p} outside (0, 100]")
    rates = _rain_rate_array(ladder, [climate.mt] * len(ladder),
                             [climate.p0] * len(ladder), params)
    return list(zip(ladder, (float(r) for r in rates)))


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    objective: float
    n_points: int


def _training_arrays(training):
    ps, rs, mts, p0s = [], [], [], []
    usable = False
    for site, climate in training:
        for p, r in site.points:
            if r > 0:
                ps.append(p)
                rs.append(r)
                mts.append(climate.mt)
                p0s.append(climate.p0)
                if p < climate.p0:
                    usable = True
    if not ps:
        raise ValueError("training set has no points with observed R > 0")
    if not usable:
        raise ValueError("training set has no point with p < p0; "
                         "the model cannot predict any of it")
    return (np.asarray(ps), np.asarray(rs), np.asarray(mts), np.asarray(p0s))


def curve_objective(training, params: ModelParams) -> float:
    """Mean squared relative error of the model over a training set.

    Relative error is (predicted - observed) / observed, taken over every
    (site, rung) pair whose observed rate is positive.
    """
    return _mean_sq_rel_error(_training_arrays(training), params)


def _mean_sq_rel_error(arrays, params: ModelParams) -> float:
    ps, rs, mts, p0s = arrays
    eps = (_rain_rate_array(ps, mts, p0s, params) - rs) / rs
    return float(np.mean(eps * eps))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.

    Only the fit needs it, and importing ``scipy.optimize`` at module level
    would slow the start-up of every other command.  :func:`fit_params`
    calls it through this module global.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


_SEED_X = (0.25, 1.0, 4.0)
_SEED_Y = (2.5e3, 2.0e4, 1.6e5)
_SEED_Z = (3.25, 26.0, 208.0)


def fit_params(training, *, threads: int = 1, n_descents: int = 4) -> FitResult:
    """Globally fit (x, y, z) by multi-start derivative-free descent.

    Starts are a coarse logarithmic grid; the ``n_descents`` most promising
    seeds are refined with Nelder-Mead in log-parameter space (one restart
    each).  The best objective wins, with ties broken toward the
    lexicographically smallest (x, y, z).  The descents run in turn:
    ``threads`` is accepted for interface compatibility and has no effect,
    since under the interpreter lock a thread pool over them was no faster.
    """
    arrays = _training_arrays(training)

    def objective(theta) -> float:
        try:
            return _mean_sq_rel_error(arrays, ModelParams(*np.exp(theta)))
        except SolverError:
            return 1e9  # steer the search away from pathological corners

    seeds = [np.log([x, y, z])
             for x in _SEED_X for y in _SEED_Y for z in _SEED_Z]
    scored = sorted(((objective(s), i) for i, s in enumerate(seeds)))
    starts = [seeds[i] for _, i in scored[:max(1, n_descents)]]

    def descend(theta0):
        opts = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000,
                "maxfev": 8000}
        res = minimize(objective, theta0, method="Nelder-Mead", options=opts)
        res = minimize(objective, res.x, method="Nelder-Mead", options=opts)
        x, y, z = np.exp(res.x)
        return float(res.fun), float(x), float(y), float(z)

    candidates = [c for c in map(descend, starts) if np.isfinite(c[0])]
    if not candidates:
        raise SolverError("no fit start converged to a finite objective")
    fun, x, y, z = min(candidates)
    return FitResult(ModelParams(x, y, z), fun, int(arrays[0].size))


# ---------------------------------------------------------------------------
# resampling of observed curves


def loglinear_resample(points, targets):
    """Interpolate R linearly in ln(p); targets outside the observed
    p-range are omitted (never extrapolated)."""
    pts = sorted((float(p), float(r)) for p, r in points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points to resample")
    ps = np.array([p for p, _ in pts])
    rs = np.array([r for _, r in pts])
    if np.any(ps <= 0):
        raise ValueError("probabilities must be positive")
    if np.any(np.diff(ps) == 0):
        raise ValueError("duplicate probabilities")
    if np.any(np.diff(rs) > 0):
        raise ValueError("rates must not increase with probability")
    lnp = np.log(ps)
    out = []
    for t in targets:
        t = float(t)
        if ps[0] <= t <= ps[-1]:
            out.append((t, float(np.interp(math.log(t), lnp, rs))))
    return out


# ---------------------------------------------------------------------------
# file formats


def write_params(params: ModelParams, path) -> None:
    write_text(path, f"x={params.x!r}\ny={params.y!r}\nz={params.z!r}\n")


def read_params(path) -> ModelParams:
    """Read a :func:`~.tables.parse_pairs` file setting ``x``, ``y``, ``z``."""
    return read_text(path, _parse_params)


def _parse_params(text: str) -> ModelParams:
    values = {}
    for key, (lineno, value) in parse_pairs(text).items():
        if key not in ("x", "y", "z"):
            raise DataError(f"line {lineno}: expected 'x=', 'y=' or 'z=', "
                            f"got {key!r}")
        try:
            values[key] = float(value)
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric value "
                            f"{value!r}") from None
    missing = [k for k in ("x", "y", "z") if k not in values]
    if missing:
        raise DataError(f"missing {', '.join(missing)}")
    try:
        return ModelParams(**values)
    except ValueError as e:
        raise DataError(str(e)) from None


_SITE_COLUMNS = ["site_id", "lat", "lon", "country", "years", "p_percent",
                 "rate_mm_h"]


def write_sites_csv(sites, path) -> None:
    """One row per (site, rung): the standard site-statistics CSV."""
    write_rows(path, _SITE_COLUMNS, (
        [s.site_id, repr(s.lat), repr(s.lon), s.country,
         repr(s.duration_years), repr(p), repr(r)]
        for s in sites for p, r in s.points))


def read_sites_csv(path):
    """Read site statistics grouped by ``site_id`` in first-seen order."""
    meta = {}
    points = {}
    rows = read_rows(path, _SITE_COLUMNS, lambda r: (
        r[0], (float(r[1]), float(r[2]), r[3], float(r[4])),
        (float(r[5]), float(r[6]))))
    for lineno, (site_id, rec, point) in rows:
        if meta.setdefault(site_id, rec) != rec:
            raise DataError(f"{path} line {lineno}: inconsistent "
                            f"metadata for site {site_id}")
        points.setdefault(site_id, []).append(point)
    sites = []
    for sid, (lat, lon, country, years) in meta.items():
        try:
            sites.append(SiteStatistics(sid, lat, lon, country, years,
                                        tuple(points[sid])))
        except ValueError as e:
            raise DataError(f"{path}: site {sid}: {e}") from None
    return sites


def read_climate_csv(path):
    """Map site_id -> ClimatePoint from a ``site_id,mt_mm,p0_percent`` CSV."""
    return read_keyed(path, ["site_id", "mt_mm", "p0_percent"],
                      lambda r: ClimatePoint(float(r[1]), float(r[2])))
