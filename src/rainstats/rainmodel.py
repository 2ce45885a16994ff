"""Rain-rate exceedance model.

The forward model gives the percent of an average year during which the
1-min rain rate R (mm/h) is exceeded at a location described by its mean
annual rainfall ``mt`` (mm/yr) and annual probability of rain ``p0`` (%):

    P(R) = p0 * exp(-x * R * (1 + b*R) / (1 + c*R))
    b = mt / (y * p0),  c = z * b

with three global constants (x, y, z).  This module provides the forward
evaluation, its inversion to a rain rate at a given exceedance probability,
curve estimation over the standard probability ladder, and a global
least-squares fit of (x, y, z) against observed site statistics.

Probabilities are expressed in percent throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SolverError
from .tables import (UNIQUE_SITE, Check, Table, finite, first_rows,
                     parse_pairs, read_table, read_text, write_rows,
                     write_text)

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
    """Climate statistics at one location: mt in mm/yr, p0 in percent.  The
    model takes mt below 0 as 0 and p0 outside [0, 100] as its nearest
    bound."""

    mt: float
    p0: float


@dataclass(frozen=True)
class SiteStatistics:
    """Observed (p, R) exceedance pairs for one measurement site.

    ``points`` ascend in p, and R does not increase with p;
    :func:`read_sites_csv` checks this for the sites of a file.
    """

    site_id: str
    lat: float
    lon: float
    country: str
    duration_years: float
    points: tuple


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


def _rain_rate_array(p, mt, p0, params: ModelParams) -> np.ndarray:
    """Vectorized inversion of the forward model in closed form.

    With L = ln(p0/p), the rate solves x*b*R^2 + (x - c*L)*R - L = 0
    (ITU-R P.837-5, Annex 1); the positive root is taken in the form that
    avoids cancellation.  This is the one statement of the model's domain:
    mt below 0 is taken as 0 and p0 outside [0, 100] as its nearest bound,
    and any p outside (0, 100] raises ``ValueError``.  Raises
    :class:`SolverError` if the rate reaches ``RATE_CAP_MM_H``.
    """
    p = np.asarray(p, dtype=np.float64)
    ok = (p > 0) & (p <= 100)
    if not ok.all():
        raise ValueError(f"exceedance probability must be in (0, 100], "
                         f"got {p[~ok].flat[0]}")
    p, mt, p0 = np.broadcast_arrays(
        p, np.maximum(mt, 0.0, dtype=np.float64),
        np.clip(p0, 0.0, 100.0, dtype=np.float64))
    out = np.zeros(p.shape, dtype=np.float64)
    active = p < p0
    p0a = p0[active]
    # a p so small that L overflows, a y so small that b overflows, or an x
    # so small that A is 0 gives a rate of inf or NaN, which the cap check
    # below refuses; a y so large that y * p0 overflows gives b = 0, its limit
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b = mt[active] / (params.y * p0a)
        L = np.log(p0a / p[active])
        A = params.x * b
        B = params.x - params.z * b * L
        q = 0.5 * (np.abs(B) + np.sqrt(B * B + 4.0 * A * L))
        # root = 2L/(B + sqrt D) = L/q when B > 0, else (sqrt D - B)/(2A) = q/A
        rates = np.where(B > 0, L, q) / np.where(B > 0, q, A)
    if not np.all(rates < RATE_CAP_MM_H):
        raise SolverError(
            f"rain rate reaches {RATE_CAP_MM_H} mm/h; "
            "pathological climate inputs")
    out[active] = rates
    return out


def rain_rate(p: float, climate: ClimatePoint, params: ModelParams) -> float:
    """Rain rate (mm/h) exceeded ``p`` percent of the year.

    Returns 0 when ``p >= p0`` (rain occurs less often than p).  Its
    domain and errors are :func:`_rain_rate_array`'s.
    """
    return float(_rain_rate_array(p, climate.mt, climate.p0, params))


def estimate_site_curve(climate: ClimatePoint, params: ModelParams,
                        ladder=STANDARD_LADDER):
    """(p, R) pairs over the ladder; monotone by construction."""
    ladder = tuple(float(p) for p in ladder)
    rates = _rain_rate_array(ladder, climate.mt, climate.p0, params)
    return list(zip(ladder, rates.tolist()))


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    objective: float
    n_points: int


def _training_arrays(training):
    """``(site ids, p, R, mt, p0)``, a list then float arrays, over every
    (site, rung) pair with observed R > 0, in site then rung order."""
    rows = [(site.site_id, p, r, climate.mt, climate.p0)
            for site, climate in training for p, r in site.points if r > 0]
    if not rows:
        raise ValueError("training set has no points with observed R > 0")
    ids, *columns = zip(*rows)
    ps, rs, mts, p0s = (np.asarray(c, dtype=np.float64) for c in columns)
    if not np.any(ps < p0s):
        raise ValueError("training set has no point with p < p0; "
                         "the model cannot predict any of it")
    return list(ids), ps, rs, mts, p0s


def curve_objective(training, params: ModelParams) -> float:
    """Mean squared relative error of the model over a training set.

    Relative error is (predicted - observed) / observed, taken over every
    (site, rung) pair whose observed rate is positive.
    """
    return _mean_sq_rel_error(_training_arrays(training), params)


def _mean_sq_rel_error(arrays, params: ModelParams) -> float:
    _, ps, rs, mts, p0s = arrays
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
_N_DESCENTS = 4


def fit_params(training, *, threads: int = 1) -> FitResult:
    """Globally fit (x, y, z) by multi-start derivative-free descent.

    Starts are a coarse logarithmic grid; the ``_N_DESCENTS`` most promising
    seeds are refined with Nelder-Mead in log-parameter space (one restart
    each).  The best objective wins, with ties broken toward the
    lexicographically smallest (x, y, z).  The descents run in turn:
    ``threads`` is accepted for interface compatibility and has no effect,
    since under the interpreter lock a thread pool over them was no faster.
    """
    arrays = _training_arrays(training)

    def objective(theta) -> float:
        try:
            params = ModelParams(*np.exp(theta))
        except ValueError:
            return 1e9  # steer away from an exp out of range
        try:
            return _mean_sq_rel_error(arrays, params)
        except SolverError:
            return 1e9  # and from capped rates; a p out of range raises

    seeds = [np.log([x, y, z])
             for x in _SEED_X for y in _SEED_Y for z in _SEED_Z]

    def descend(theta0):
        opts = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000,
                "maxfev": 8000}
        res = minimize(objective, theta0, method="Nelder-Mead", options=opts)
        res = minimize(objective, res.x, method="Nelder-Mead", options=opts)
        x, y, z = np.exp(res.x)
        return float(res.fun), float(x), float(y), float(z)

    # an objective that overflows is inf, and the simplex's convergence test
    # subtracts objectives; a descent that ends at inf is dropped, and none
    # starts when every seed scores inf, as no such descent has ended finite
    with np.errstate(over="ignore", invalid="ignore"):
        scored = sorted(((objective(s), i) for i, s in enumerate(seeds)))
        starts = [seeds[i] for _, i in scored[:_N_DESCENTS]
                  if np.isfinite(scored[0][0])]
        candidates = [c for c in map(descend, starts) if np.isfinite(c[0])]
    if not candidates:
        raise SolverError("no fit start converged to a finite objective")
    fun, x, y, z = min(candidates)
    try:
        params = ModelParams(x, y, z)
    except ValueError as e:
        raise SolverError(f"the best fit is not a valid model: {e}") from None
    return FitResult(params, fun, int(arrays[1].size))


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
    return ModelParams(**values)


_SITES = Table(
    ["site_id", "lat", "lon", "country", "years", "p_percent", "rate_mm_h"],
    [*finite("lat", "lon", "years", "p", "rate"),
     Check(("site_id", "lat", "lon", "country", "years"),
           lambda ids, *meta: np.logical_and.reduce(
               [m == m[first_rows(ids)] for m in meta]),
           "inconsistent metadata for site {site_id}")],
    names=["site_id", "lat", "lon", "country", "years", "p", "rate"])


def write_sites_csv(sites, path) -> None:
    """The site-statistics CSV, one row per (site, rung), points as floats."""
    write_rows(path, _SITES.columns, (
        [s.site_id, repr(s.lat), repr(s.lon), s.country,
         repr(s.duration_years), repr(float(p)), repr(float(r))]
        for s in sites for p, r in s.points))


def read_sites_csv(path):
    """Read site statistics grouped by ``site_id`` in first-seen order, each
    site's points ascending in p.  Once every row is read, the first failing
    site and its first point in (p, R) order raise :class:`DataError` naming
    the site and the first rule broken: years > 0, p in (0, 100], R >= 0,
    no duplicate p, and R not increasing with p."""
    rows = read_table(path, _SITES)
    first = first_rows(rows.site_id)
    order = np.lexsort((rows.rate, rows.p, first))
    site, p, r = first[order], rows.p[order], rows.rate[order]
    same = np.r_[False, site[1:] == site[:-1]]  # not its site's first row
    bad = np.array([rows.years[order] <= 0, (p <= 0) | (p > 100), r < 0,
                    same & (p == np.r_[np.nan, p[:-1]]),
                    same & (r > np.r_[np.nan, r[:-1]])])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        pi, ri = float(p[i]), float(r[i])
        message = [
            "duration_years must be positive",
            f"probability {pi} outside (0, 100]",
            f"rain rate {ri} is negative",
            f"duplicate probability {pi}",
            "exceedance monotonicity violated: R must not increase with p "
            f"(p={pi}, R={ri})"][int(np.argmax(bad[:, i]))]
        raise DataError(f"{path}: site {rows.site_id[site[i]]}: {message}")
    # metadata from each site's first row, as -0.0 and 0.0 are one value
    heads = np.flatnonzero(first == np.arange(first.size))
    starts = np.flatnonzero(~same).tolist()
    pairs = list(zip(p.tolist(), r.tolist()))
    return [SiteStatistics(sid, lat, lon, country, years, tuple(pairs[a:b]))
            for (sid, lat, lon, country, years, _, _), a, b
            in zip(rows[heads].tolist(), starts, [*starts[1:], len(pairs)])]


_CLIMATE = Table(
    ["site_id", "mt_mm", "p0_percent"],
    [("mt", float), ("p0", float),
     Check(("mt",), lambda mt: np.isfinite(mt) & (mt >= 0),
           "mt must be >= 0, got {mt}"),
     Check(("p0",), lambda p0: np.isfinite(p0) & (p0 >= 0) & (p0 <= 100),
           "p0 must be in [0, 100], got {p0}"),
     UNIQUE_SITE],
    names=["site_id", "mt", "p0"])


def read_climate_csv(path):
    """Map site_id -> ClimatePoint from a ``site_id,mt_mm,p0_percent`` CSV."""
    return {sid: ClimatePoint(mt, p0)
            for sid, mt, p0 in read_table(path, _CLIMATE).tolist()}
