"""Tipping-bucket gauge records to 1-min rain-rate series and empirical
exceedance statistics.

Tip times are grouped into rain events separated by dry gaps longer than 30
minutes.  Within an event the cumulative depth is interpolated with a
natural cubic spline over the tip times; per-minute depths come from spline
differences, are clamped non-negative, and are rescaled so each event's
total equals tips x bucket exactly.

A record's splines come from one block-diagonal tridiagonal solve over all
its events and are evaluated in numpy, with the same arithmetic as one
``scipy.interpolate.CubicSpline`` per event, so results are bit-identical
to that.  Tips travel as a record array (``time``, ``depth``) from
:func:`read_tips_csv` to :func:`tips_to_rates`, which takes no other form.
Time stamps without an offset are UTC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
from scipy.linalg import solve_banded

from .errors import DataError
from .rainmodel import STANDARD_LADDER
from .tables import Check, Table, read_table

#: Physically implausible 1-min rate (2 inches per minute), mm/h.
QC_MAX_RATE_MM_H = 3048.0

#: Dry gap that separates rain events, seconds.
EVENT_GAP_S = 1800.0

MINUTES_PER_YEAR = 525960.0  # 365.25 days


@dataclass
class MinuteSeries:
    """Per-minute rain rates (mm/h) with a validity flag per minute.

    ``start_minute`` is in epoch minutes; minute ``i`` covers the wall-clock
    interval ``[start_minute + i, start_minute + i + 1)`` minutes.  The
    series that :func:`qc_filter` and :func:`select_periods` return share
    memory with their input, so no function alters a series' arrays in
    place.
    """

    start_minute: int
    rates: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.rates.shape != self.valid.shape or self.rates.ndim != 1:
            raise ValueError("rates and valid must be equal-length vectors")
        if np.any((self.rates < 0) & self.valid):
            raise ValueError("valid rates must be >= 0")

    @property
    def n_minutes(self) -> int:
        return int(self.rates.size)


def _event_knots(times: np.ndarray, bucket_mm: float):
    """Knots of every event's cumulative-depth curve, events back to back.

    Returns knot times ``x``, knot depths ``y``, and each event's first knot
    index, knot count and tip count.  Each event gets a leading zero-depth
    knot one inter-tip gap (one minute for a single tip) before its first
    tip.  Events follow one another in ``x``, which stays non-decreasing
    because event gaps exceed every lead.
    """
    first = np.concatenate(([0], np.flatnonzero(
        np.diff(times) > EVENT_GAP_S) + 1))
    n_tips = np.diff(np.append(first, times.size))
    second = times[np.minimum(first + 1, times.size - 1)]
    lead = np.where(n_tips >= 2, second - times[first], 60.0)
    n_knots = n_tips + 1
    k0 = np.cumsum(n_knots) - n_knots
    local = np.arange(int(n_knots.sum())) - np.repeat(k0, n_knots)
    x = np.empty(local.size)
    x[local > 0] = times
    x[k0] = times[first] - lead
    y = bucket_mm * local.astype(np.float64)
    return x, y, k0, n_knots, n_tips


def _natural_splines(x, y, k0, n_knots):
    """Piecewise-cubic coefficients ``(c0, c1, c2, c3)`` of every event's
    natural cubic spline, one entry per interval between adjacent knots.

    The tridiagonal slope systems ``CubicSpline(bc_type="natural")`` builds
    for each event are stacked into one block-diagonal system, filled with
    scipy's expressions, and solved by one LAPACK ``gtsv`` call.  Entries
    coupling neighbouring events are zero; elimination and back
    substitution only ever add multiples of them, so each block's slopes
    are bit-identical to its own solve.  Coefficients follow
    ``CubicHermiteSpline``.  Entries of intervals joining two events are
    meaningless and never used.
    """
    is_first = np.zeros(x.size, dtype=bool)
    is_first[k0] = True
    is_last = np.zeros(x.size, dtype=bool)
    is_last[k0 + n_knots - 1] = True
    dx = np.where(is_first[1:], 1.0, np.diff(x))
    dy = np.diff(y)
    slope = dy / dx

    zero = np.zeros(1)
    dx_prev = np.where(is_first, 0.0, np.concatenate((zero, dx)))
    dx_next = np.where(is_last, 0.0, np.concatenate((dx, zero)))
    upper = np.where(is_first, dx_next, np.where(is_last, 0.0, dx_prev))
    lower = np.where(is_last, dx_prev, np.where(is_first, 0.0, dx_next))
    ab = np.zeros((3, x.size))
    ab[0, 1:] = upper[:-1]
    ab[1] = 2 * (dx_prev + dx_next)
    ab[2, :-1] = lower[1:]
    interior = 3 * (dx_next * np.concatenate((zero, slope))
                    + dx_prev * np.concatenate((slope, zero)))
    rhs = np.where(is_first, 3 * np.concatenate((dy, zero)),
                   np.where(is_last, 3 * np.concatenate((zero, dy)),
                            interior))
    s = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)

    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]


def span_minutes(span):
    """``(first epoch minute, minute count)`` of the whole minutes that
    cover the ``(start_s, end_s)`` epoch interval ``span``."""
    m0 = int(math.floor(float(span[0]) / 60.0))
    return m0, int(math.ceil(float(span[1]) / 60.0)) - m0


@np.errstate(over="raise", invalid="raise")
def _minute_rates(times, bucket_mm: float, m0: int, n: int) -> np.ndarray:
    """Rates (mm/h) of the ``n`` minutes from epoch minute ``m0`` from tip
    times ``times``, as :func:`tips_to_rates` describes.  Arithmetic that
    overflows raises ``FloatingPointError``."""
    depths = np.zeros(n, dtype=np.float64)
    if times.size:
        x, y, k0, n_knots, n_tips = _event_knots(times, bucket_mm)
        c0, c1, c2, c3 = _natural_splines(x, y, k0, n_knots)

        # Evaluate each event's spline at its minute edges, clipped to its
        # knots, with PPoly's interval rule and power-sum order.
        k1 = k0 + n_knots - 1
        mb0 = np.floor(x[k0] / 60.0).astype(np.int64)
        mb1 = np.floor(x[k1] / 60.0).astype(np.int64)
        n_edges = mb1 - mb0 + 2
        e0 = np.cumsum(n_edges) - n_edges
        event = np.repeat(np.arange(k0.size), n_edges)
        minute = np.arange(int(n_edges.sum())) - np.repeat(e0 - mb0, n_edges)
        edges = np.clip(60.0 * minute.astype(np.float64), x[k0][event],
                        x[k1][event])
        j = np.clip(np.searchsorted(x, edges, side="right") - 1, k0[event],
                    k1[event] - 1)
        u = edges - x[j]
        cum = c3[j] + c2[j] * u + c1[j] * (u * u) + c0[j] * (u * u * u)
        d = np.maximum(np.diff(cum), 0.0)

        # Rescale each event's minutes inside the span to tips x bucket.
        lo = np.maximum(mb0, m0)
        hi = np.minimum(mb1, m0 + n - 1)
        for a, lo_e, hi_e, tips_e, first_tip in zip(
                (e0 + lo - mb0).tolist(), lo.tolist(), hi.tolist(),
                n_tips.tolist(), x[k0 + 1].tolist()):
            if hi_e < lo_e:
                continue
            kept = d[a:a + hi_e - lo_e + 1]
            total = bucket_mm * tips_e
            ssum = float(kept.sum())
            if ssum > 0:
                kept = kept * (total / ssum)
            else:
                kept = np.zeros(hi_e - lo_e + 1)
                kept[min(max(int(first_tip // 60) - lo_e, 0),
                         kept.size - 1)] = total
            depths[lo_e - m0:hi_e - m0 + 1] += kept

    depths *= 60.0  # to mm/h in place: one series-sized array less at peak
    return depths


def tips_to_rates(tips, bucket_mm: float, span) -> MinuteSeries:
    """Convert tips to a 1-min rain-rate series over :func:`span_minutes`.

    ``tips`` is a record array whose ``time`` field holds epoch seconds, as
    :func:`read_tips_csv` returns; each tip stands for ``bucket_mm``.
    ``span`` is an (start_s, end_s) epoch interval; every tip must fall in
    it.  Each event's cumulative curve gets a leading zero-depth knot one
    inter-tip gap before the first tip (one minute for single-tip events),
    standing in for the unobserved fill time of the first bucket.  A bucket
    so deep that the rates overflow raises ``ValueError``.
    """
    if not 0 < bucket_mm < math.inf:
        raise ValueError(f"bucket must be positive and finite, "
                         f"got {bucket_mm}")
    start_s, end_s = float(span[0]), float(span[1])
    if end_s <= start_s:
        raise ValueError("span end must be after span start")
    m0, n = span_minutes(span)

    times = np.asarray(tips["time"], dtype=np.float64)
    if times.size:
        if np.any(np.diff(times) <= 0):
            raise DataError("tip times must be strictly increasing")
        if times[0] < start_s or times[-1] > end_s:
            raise ValueError("tips fall outside the requested span")
    try:
        rates = _minute_rates(times, bucket_mm, m0, n)
    except FloatingPointError:
        raise ValueError(f"a bucket of {bucket_mm} mm overflows the rain "
                         "rates") from None
    return MinuteSeries(m0, rates, np.ones(n, dtype=bool))


def qc_filter(series: MinuteSeries) -> MinuteSeries:
    """Mark physically implausible minutes (rate > 2 in/min) invalid.

    Rates themselves are never altered, only the validity flags: the result
    shares ``rates`` with ``series`` and has new flags.
    """
    valid = series.valid & ~(series.rates > QC_MAX_RATE_MM_H)
    return MinuteSeries(series.start_minute, series.rates, valid)


def period_edges(start_minute: int, n_minutes: int) -> list:
    """Edges of the calendar 12-month periods tiled from the first full
    month of ``n_minutes`` minutes from epoch minute ``start_minute``, as
    minute offsets from it.

    Edges are ``datetime64[M]`` month starts, the first at or after the
    first minute and the last at or before the end.  Fewer than two edges
    means no period fits.
    """
    start = np.datetime64(start_minute, "m")
    first = start.astype("datetime64[M]")
    if first < start:
        first += 1
    end = np.datetime64(start_minute + n_minutes, "m")
    n_periods = int((end.astype("datetime64[M]") - first).astype(int)) // 12
    return ((first + 12 * np.arange(n_periods + 1)).astype("datetime64[m]")
            .astype(np.int64) - start_minute).tolist()


def select_periods(series: MinuteSeries):
    """Longest run of consecutive :func:`period_edges` periods with > 90%
    valid minutes.

    Ties break toward the earliest run.  Returns the corresponding
    sub-series, whose ``rates`` and ``valid`` are views of the input's, or
    None when no period qualifies; raises ValueError when no period fits in
    the record.
    """
    edges = period_edges(series.start_minute, series.n_minutes)
    if len(edges) < 2:
        raise ValueError("series must span at least 12 full calendar months")

    best_len = best_start = run_len = 0
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        good = np.count_nonzero(series.valid[a:b]) / (b - a) > 0.9
        run_len = run_len + 1 if good else 0
        if run_len > best_len:
            best_len, best_start = run_len, i + 1 - run_len
    if best_len == 0:
        return None
    a, b = edges[best_start], edges[best_start + best_len]
    return MinuteSeries(series.start_minute + a, series.rates[a:b],
                        series.valid[a:b])


def exceedance_stats(series: MinuteSeries, ladder=STANDARD_LADDER,
                     min_count: int = 20):
    """Empirical (p, R) pairs over the ladder from the valid minutes.

    R at probability p is the k-th largest valid rate with
    k = floor(p/100 * N); rungs expecting fewer than ``min_count``
    observations are omitted.
    """
    n = int(np.count_nonzero(series.valid))
    if n == 0:
        raise ValueError("series has no valid minutes")
    # Valid rates are never negative, so only the wet minutes need ranking;
    # every rank past them is a dry minute's 0.0.
    wet = np.sort(series.rates[series.valid & (series.rates != 0)])[::-1]
    out = []
    for p in ladder:
        expected = (p / 100.0) * n
        if expected < min_count:
            continue
        k = max(1, int(math.floor(expected)))
        out.append((float(p), float(wet[k - 1]) if k <= wet.size else 0.0))
    return out


# ---------------------------------------------------------------------------
# tip CSV

def parse_utc_time(text: str) -> float:
    """Epoch seconds of an ISO 8601 stamp; a stamp without an offset is
    taken as UTC, never as the machine's local time."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


_TIPS = Table(
    ["time_iso8601_utc", "depth_mm"],
    [("time", np.float64), ("depth", np.float64)],
    [Check(("depth",), lambda depth: (depth > 0) & (depth < math.inf),
           "tip depth must be positive and finite, got {depth}")],
    parse={"time": parse_utc_time})
_TIP_COLUMNS, _TIP_DTYPE, _tip_row = _TIPS.columns, _TIPS.dtype, _TIPS.row


def read_tips_csv(path) -> np.recarray:
    """Tips as a record array with float fields ``time`` (epoch s) and
    ``depth`` (mm), in file order."""
    return read_table(path, _TIPS)
