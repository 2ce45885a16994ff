"""Fit metrics, REC curves and heavy-rain classification scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError
from .raster import Grid, _bilinear_many
from .tables import Check, Table, read_table

#: Rain rate at 0.01% exceedance above which a location counts as heavy.
HEAVY_RATE_MM_H = 95.0


@dataclass(frozen=True)
class P311Summary:
    """Mean, population standard deviation and rms of an error sample."""

    mean: float
    sd: float
    rms: float


def p311_summary(errors) -> P311Summary:
    """Summarize errors so that rms**2 == mean**2 + sd**2 exactly.

    The standard deviation is the population form (divide by n); the sample
    form would break the identity against reported one-decimal tables at
    small n.  Raises ``OverflowError`` when the summary is not finite: an
    error is not finite, or errors so large that their squares overflow.
    """
    arr = np.asarray(errors, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty error list")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.mean(arr))
        sd = float(np.sqrt(np.mean((arr - mu) ** 2)))
    rms = math.sqrt(mu * mu + sd * sd)
    if not math.isfinite(rms):
        raise OverflowError("summary is not finite")
    return P311Summary(mu, sd, rms)


def rec_curve(errors, thresholds):
    """Fraction of samples whose |error| is at or below each threshold."""
    e = np.abs(np.asarray(errors, dtype=np.float64))
    if e.size == 0:
        raise ValueError("cannot build a REC curve from no samples")
    ts = [float(t) for t in thresholds]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must be sorted ascending")
    return [float(np.mean(e <= t)) for t in ts]


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 actual-by-predicted counts for a boolean classification."""

    tn: int
    fp: int
    fn: int
    tp: int

    def __post_init__(self):
        for name in ("tn", "fp", "fn", "tp"):
            if getattr(self, name) < 0:
                raise ValueError(f"count {name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


def confusion(actuals, predictions) -> ConfusionMatrix:
    a = list(bool(v) for v in actuals)
    p = list(bool(v) for v in predictions)
    if len(a) != len(p):
        raise ValueError(f"length mismatch: {len(a)} actuals vs "
                         f"{len(p)} predictions")
    if not a:
        raise ValueError("cannot build a confusion matrix from no labels")
    cells = [0, 0, 0, 0]  # tn, fp, fn, tp
    for x, y in zip(a, p):
        cells[2 * x + y] += 1
    return ConfusionMatrix(*cells)


def accuracy(cm: ConfusionMatrix) -> float:
    return (cm.tp + cm.tn) / cm.total


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    denom = ((cm.tp + cm.fp) * (cm.tp + cm.fn)
             * (cm.tn + cm.fp) * (cm.tn + cm.fn))
    if denom == 0:
        return 0.0
    return (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom)


def by_country(records):
    """Collapse per-site booleans to per-country pairs by OR.

    ``records`` is an iterable of (country, actual, predicted).  Returns an
    ordered mapping country -> (actual, predicted), sorted by country code.
    """
    recs = list(records)
    if not recs:
        raise ValueError("no site records")
    agg: dict = {}
    for country, actual, predicted in recs:
        a, p = agg.get(country, (False, False))
        agg[country] = (a or bool(actual), p or bool(predicted))
    return dict(sorted(agg.items()))


def station_comparison(climatology: Grid, stations):
    """Relative errors of a climatology against point station values.

    ``stations`` is an iterable of (lat, lon, mt).  Each station is sampled
    bilinearly; stations whose sample hits nodata are skipped.  Returns
    ``(P311Summary, skipped_count)``.
    """
    stations = list(stations)
    if not stations:
        raise ValueError("no stations")
    lats = [s[0] for s in stations]
    lons = [s[1] for s in stations]
    mts = np.asarray([s[2] for s in stations], dtype=np.float64)
    if np.any(mts <= 0):
        raise ValueError("station mt values must be positive")
    vals, inside = _bilinear_many(climatology, lats, lons)
    if not inside.all():
        bad = int(np.argmin(inside))
        raise ValueError(f"station ({lats[bad]}, {lons[bad]}) is outside "
                         "the grid bounds")
    usable = ~np.isnan(vals)
    skipped = int(np.count_nonzero(~usable))
    if not usable.any():
        raise EmptyDataError("every station sampled nodata")
    errors = (vals[usable] - mts[usable]) / mts[usable]
    return p311_summary(errors), skipped


# ---------------------------------------------------------------------------
# error-samples CSV

_SAMPLES = Table(
    ["site_id", "p_percent", "observed", "predicted"],
    [("site_id", object), ("p", np.float64), ("observed", np.float64),
     ("predicted", np.float64)],
    [Check(("p",), lambda p: (p > 0) & (p <= 100),
           "probability must be in (0, 100], got {p}"),
     Check(("observed",), lambda rate: (rate > 0) & (rate < math.inf),
           "observed rate must be positive and finite for relative error, "
           "got {observed}"),
     Check(("predicted",), lambda rate: (rate >= 0) & (rate < math.inf),
           "predicted rate must be >= 0 and finite, got {predicted}")])
_SAMPLE_COLUMNS, _SAMPLE_DTYPE = _SAMPLES.columns, _SAMPLES.dtype
_sample_row = _SAMPLES.row


def read_error_samples_csv(path) -> np.recarray:
    """(observed, predicted) rate pairs as a record array, in file order,
    with fields ``site_id`` (str, an object field), ``p`` (percent),
    ``observed`` and ``predicted`` (mm/h)."""
    return read_table(path, _SAMPLES)
