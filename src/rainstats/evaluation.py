"""Fit metrics, REC curves and heavy-rain classification scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tables import Check, Table, read_table, unique

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
    """Fraction of samples whose |error| is at or below each threshold.

    ``errors`` is not empty and ``thresholds`` ascend: eval refuses a
    samples file without samples and unsorted ``rec_thresholds``."""
    e = np.abs(np.asarray(errors, dtype=np.float64))
    return [float(np.mean(e <= t)) for t in thresholds]


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 actual-by-predicted counts for a boolean classification."""

    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


def confusion(actuals, predictions) -> ConfusionMatrix:
    """Count paired boolean labels: sample ``i`` falls in cell
    ``2 * actual + predicted`` of (tn, fp, fn, tp)."""
    a = np.asarray(actuals, dtype=bool)
    p = np.asarray(predictions, dtype=bool)
    if a.size != p.size:
        raise ValueError(f"length mismatch: {a.size} actuals vs "
                         f"{p.size} predictions")
    if not a.size:
        raise ValueError("cannot build a confusion matrix from no labels")
    return ConfusionMatrix(*np.bincount(2 * a + p, minlength=4).tolist())


def accuracy(cm: ConfusionMatrix) -> float:
    return (cm.tp + cm.tn) / cm.total


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    denom = ((cm.tp + cm.fp) * (cm.tp + cm.fn)
             * (cm.tn + cm.fp) * (cm.tn + cm.fn))
    if denom == 0:
        return 0.0
    return (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom)


def by_country(countries, actuals, predicted):
    """Collapse per-site booleans to per-country booleans by OR.

    The three arguments are equal-length columns: a country code and the
    actual and predicted labels of each site.  Returns ``(actual,
    predicted)`` boolean arrays with one entry per country code, in
    ascending order of code.
    """
    codes, site_code = np.unique(countries, return_inverse=True)
    if not codes.size:
        raise ValueError("no site records")
    return tuple(np.bincount(site_code[np.asarray(labels, dtype=bool)],
                             minlength=codes.size) > 0
                 for labels in (actuals, predicted))


# ---------------------------------------------------------------------------
# error-samples CSV

_SAMPLES = Table(
    ["site_id", "p_percent", "observed", "predicted"],
    [("p", float), ("observed", float), ("predicted", float),
     Check(("p",), lambda p: (p > 0) & (p <= 100),
           "probability must be in (0, 100], got {p}"),
     Check(("observed",), lambda rate: (rate > 0) & (rate < math.inf),
           "observed rate must be positive and finite for relative error, "
           "got {observed}"),
     Check(("predicted",), lambda rate: (rate >= 0) & (rate < math.inf),
           "predicted rate must be >= 0 and finite, got {predicted}"),
     unique(("site_id", "p"), "duplicate sample for site {site_id} at p={p}")],
    names=["site_id", "p", "observed", "predicted"])


def read_error_samples_csv(path) -> np.recarray:
    """(observed, predicted) rate pairs as a record array, in file order,
    with fields ``site_id`` (str, an object field), ``p`` (percent),
    ``observed`` and ``predicted`` (mm/h)."""
    return read_table(path, _SAMPLES)
