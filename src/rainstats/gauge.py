"""Tipping-bucket gauge records to 1-min rain-rate series and empirical
exceedance statistics.

Tip times are grouped into rain events separated by dry gaps longer than 30
minutes.  Within an event the cumulative depth is interpolated with a
natural cubic spline over the tip times; per-minute depths come from spline
differences, are clamped non-negative, and are rescaled so each event's
total equals tips x bucket exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DataError
from .rainmodel import STANDARD_LADDER
from .tables import read_rows

#: Physically implausible 1-min rate (2 inches per minute), mm/h.
QC_MAX_RATE_MM_H = 3048.0

#: Dry gap that separates rain events, seconds.
EVENT_GAP_S = 1800.0

MINUTES_PER_YEAR = 525960.0  # 365.25 days


@dataclass(frozen=True)
class TipEvent:
    """Time of one bucket tip and the bucket depth it represents."""

    time: float
    depth: float = 0.254

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError(f"tip depth must be positive, got {self.depth}")


@dataclass
class MinuteSeries:
    """Per-minute rain rates (mm/h) with a validity flag per minute.

    ``start_minute`` is in epoch minutes; minute ``i`` covers the wall-clock
    interval ``[start_minute + i, start_minute + i + 1)`` minutes.
    """

    start_minute: int
    rates: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.rates.shape != self.valid.shape or self.rates.ndim != 1:
            raise ValueError("rates and valid must be equal-length vectors")
        if np.any(self.rates[self.valid] < 0):
            raise ValueError("valid rates must be >= 0")

    @property
    def n_minutes(self) -> int:
        return int(self.rates.size)


def _split_events(times: np.ndarray):
    breaks = np.nonzero(np.diff(times) > EVENT_GAP_S)[0] + 1
    return np.split(np.arange(times.size), breaks)


def tips_to_rates(events, bucket_mm: float, span) -> MinuteSeries:
    """Convert tip events to a 1-min rain-rate series over ``span``.

    ``span`` is an (start_s, end_s) epoch interval; every tip must fall in
    it.  Each event's cumulative curve gets a leading zero-depth knot one
    inter-tip gap before the first tip (one minute for single-tip events),
    standing in for the unobserved fill time of the first bucket.
    """
    if bucket_mm <= 0:
        raise ValueError(f"bucket must be positive, got {bucket_mm}")
    start_s, end_s = float(span[0]), float(span[1])
    if end_s <= start_s:
        raise ValueError("span end must be after span start")
    m0 = int(math.floor(start_s / 60.0))
    n = int(math.ceil(end_s / 60.0)) - m0
    depths = np.zeros(n, dtype=np.float64)

    times = np.asarray([e.time for e in events], dtype=np.float64)
    if times.size:
        if np.any(np.diff(times) <= 0):
            raise DataError("tip times must be strictly increasing")
        if times[0] < start_s or times[-1] > end_s:
            raise ValueError("tips fall outside the requested span")

        for idx in _split_events(times):
            t = times[idx]
            total = bucket_mm * t.size
            if t.size >= 2:
                lead = t[1] - t[0]
            else:
                lead = 60.0
            knots_t = np.concatenate(([t[0] - lead], t))
            knots_d = bucket_mm * np.arange(0, t.size + 1, dtype=np.float64)
            spline = CubicSpline(knots_t, knots_d, bc_type="natural")

            mb0 = int(math.floor(knots_t[0] / 60.0))
            mb1 = int(math.floor(knots_t[-1] / 60.0))
            edges = 60.0 * np.arange(mb0, mb1 + 2, dtype=np.float64)
            edges = np.clip(edges, knots_t[0], knots_t[-1])
            d = np.maximum(np.diff(spline(edges)), 0.0)

            lo = max(mb0, m0)
            hi = min(mb1, m0 + n - 1)
            if hi < lo:
                continue
            kept = d[lo - mb0:hi - mb0 + 1]
            ssum = float(kept.sum())
            if ssum > 0:
                kept = kept * (total / ssum)
            else:
                kept = np.zeros(hi - lo + 1)
                idx = min(max(int(t[0] // 60) - lo, 0), kept.size - 1)
                kept[idx] = total
            depths[lo - m0:hi - m0 + 1] += kept

    rates = depths * 60.0
    return MinuteSeries(m0, rates, np.ones(n, dtype=bool))


def qc_filter(series: MinuteSeries) -> MinuteSeries:
    """Mark physically implausible minutes (rate > 2 in/min) invalid.

    Rates themselves are never altered, only the validity flags.
    """
    valid = series.valid & ~(series.rates > QC_MAX_RATE_MM_H)
    return MinuteSeries(series.start_minute, series.rates.copy(), valid)


def _month_start_after(dt: datetime) -> datetime:
    if dt.day == 1 and dt.hour == 0 and dt.minute == 0 and dt.second == 0:
        return dt
    y, m = dt.year, dt.month + 1
    if m > 12:
        y, m = y + 1, 1
    return datetime(y, m, 1, tzinfo=timezone.utc)


def _add_months(dt: datetime, months: int) -> datetime:
    m = dt.month - 1 + months
    return datetime(dt.year + m // 12, m % 12 + 1, 1, tzinfo=timezone.utc)


def select_periods(series: MinuteSeries):
    """Longest run of consecutive calendar 12-month periods with > 90% valid
    minutes, tiled from the first full month of the record.

    Ties break toward the earliest run.  Returns the corresponding
    sub-series, or None when no period qualifies.
    """
    start_dt = datetime.fromtimestamp(series.start_minute * 60,
                                      tz=timezone.utc)
    end_minute = series.start_minute + series.n_minutes
    first = _month_start_after(start_dt)

    periods = []  # (idx0, idx1) minute index ranges into the series
    j = 0
    while True:
        p_start = _add_months(first, 12 * j)
        p_end = _add_months(first, 12 * (j + 1))
        idx0 = int(p_start.timestamp()) // 60 - series.start_minute
        idx1 = int(p_end.timestamp()) // 60 - series.start_minute
        if idx1 > series.n_minutes:
            break
        periods.append((idx0, idx1))
        j += 1
    if not periods:
        raise ValueError("series must span at least 12 full calendar months")

    good = [bool(np.mean(series.valid[a:b]) > 0.9) for a, b in periods]
    best_len, best_start = 0, 0
    run_len, run_start = 0, 0
    for i, g in enumerate(good):
        if g:
            if run_len == 0:
                run_start = i
            run_len += 1
            if run_len > best_len:
                best_len, best_start = run_len, run_start
        else:
            run_len = 0
    if best_len == 0:
        return None
    a = periods[best_start][0]
    b = periods[best_start + best_len - 1][1]
    return MinuteSeries(series.start_minute + a, series.rates[a:b].copy(),
                        series.valid[a:b].copy())


def exceedance_stats(series: MinuteSeries, ladder=STANDARD_LADDER,
                     min_count: int = 20):
    """Empirical (p, R) pairs over the ladder from the valid minutes.

    R at probability p is the k-th largest valid rate with
    k = floor(p/100 * N); rungs expecting fewer than ``min_count``
    observations are omitted.
    """
    rates = series.rates[series.valid]
    n = rates.size
    if n == 0:
        raise ValueError("series has no valid minutes")
    ranked = np.sort(rates)[::-1]
    out = []
    for p in ladder:
        expected = (p / 100.0) * n
        if expected < min_count:
            continue
        k = max(1, int(math.floor(expected)))
        out.append((float(p), float(ranked[k - 1])))
    return out


# ---------------------------------------------------------------------------
# tip CSV

_TIP_COLUMNS = ["time_iso8601_utc", "depth_mm"]


def _format_tip_time(t: float) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    text = dt.strftime("%Y-%m-%dT%H:%M:%S")
    if dt.microsecond:
        text += f".{dt.microsecond:06d}"
    return text + "Z"


def _parse_tip_time(text: str) -> float:
    return datetime.fromisoformat(
        text.replace("Z", "+00:00")).timestamp()


def write_tips_csv(events, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(_TIP_COLUMNS)
        for e in events:
            w.writerow([_format_tip_time(e.time), repr(e.depth)])


def read_tips_csv(path):
    return [e for _, e in read_rows(path, _TIP_COLUMNS, lambda row: (
        TipEvent(_parse_tip_time(row[0]), float(row[1]))))]
