import math
import os
import subprocess
import sys
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from scipy.interpolate import CubicSpline

import rainstats
from rainstats import cli
from rainstats.errors import ConfigError, DataError
from rainstats.rainmodel import STANDARD_LADDER
from rainstats.gauge import (EVENT_GAP_S, MINUTES_PER_YEAR, QC_MAX_RATE_MM_H,
                             MinuteSeries, exceedance_stats, parse_utc_time,
                             qc_filter, read_tips_csv, select_periods,
                             tips_to_rates)
from writers import tips, write_tips_csv

BUCKET = 0.254


def ts(*args) -> float:
    return datetime(*args, tzinfo=timezone.utc).timestamp()


# ---------------------------------------------------------------------------
# tips -> rates


def test_zero_tips_gives_all_zero_series():
    series = tips_to_rates(tips([], BUCKET), BUCKET, (0.0, 3600.0))
    assert series.n_minutes == 60
    assert np.all(series.rates == 0.0)
    assert np.all(series.valid)


def test_steady_tips_give_steady_rate():
    # one tip per minute for two hours, well inside the span
    times = [1800.0 + 60.0 * i for i in range(120)]
    series = tips_to_rates(tips(times, BUCKET), BUCKET, (0.0, 14400.0))
    interior = series.rates[40:140]
    assert np.allclose(interior, 15.24, atol=1e-6)


def test_event_total_depth_is_conserved():
    rng = np.random.default_rng(41)
    t = 600.0
    times = []
    for _ in range(400):
        gap = float(rng.uniform(1.0, 400.0))
        if rng.uniform() < 0.03:
            gap += 2400.0  # force an event break
        t += gap
        times.append(t)
    series = tips_to_rates(tips(times, BUCKET), BUCKET, (0.0, t + 3600.0))
    total_depth = series.rates.sum() / 60.0
    assert total_depth == pytest.approx(len(times) * BUCKET, rel=1e-9)


def test_minutes_outside_events_are_zero():
    times = [3600.0 + 10.0 * i for i in range(30)]
    series = tips_to_rates(tips(times, BUCKET), BUCKET, (0.0, 36000.0))
    assert np.all(series.rates[:50] == 0.0)
    assert np.all(series.rates[120:] == 0.0)
    assert series.rates[55:65].max() > 0


def test_non_increasing_tip_times_rejected():
    with pytest.raises(DataError):
        tips_to_rates(tips([100.0, 100.0], BUCKET), BUCKET, (0.0, 3600.0))


def test_tips_outside_span_rejected():
    with pytest.raises(ValueError):
        tips_to_rates(tips([5000.0], BUCKET), BUCKET, (0.0, 3600.0))


@pytest.mark.parametrize("bucket", [math.inf, math.nan])
def test_non_finite_bucket_rejected(bucket):
    times = [1800.0 + 60.0 * i for i in range(10)]
    with pytest.raises(ValueError, match="bucket must be positive"):
        tips_to_rates(tips(times, BUCKET), bucket, (0.0, 7200.0))


def test_single_tip_event():
    series = tips_to_rates(tips([1800.0], BUCKET), BUCKET, (0.0, 7200.0))
    assert series.rates.sum() / 60.0 == pytest.approx(BUCKET, rel=1e-9)


def _reference_tips_to_rates(times, bucket_mm, span):
    """The per-event ``CubicSpline`` conversion the banded solve replaced."""
    start_s, end_s = float(span[0]), float(span[1])
    m0 = int(math.floor(start_s / 60.0))
    n = int(math.ceil(end_s / 60.0)) - m0
    depths = np.zeros(n, dtype=np.float64)
    breaks = np.nonzero(np.diff(times) > EVENT_GAP_S)[0] + 1
    for idx in np.split(np.arange(times.size), breaks):
        t = times[idx]
        total = bucket_mm * t.size
        lead = t[1] - t[0] if t.size >= 2 else 60.0
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
            kept[min(max(int(t[0] // 60) - lo, 0), kept.size - 1)] = total
        depths[lo - m0:hi - m0 + 1] += kept
    return m0, depths * 60.0


def _random_tip_times(rng):
    """A tip stream mixing drizzle, bursts, whole-minute gaps (tips on
    minute edges), gaps of exactly ``EVENT_GAP_S``, single-tip events and
    longer dry spells."""
    t = float(rng.choice([60.0 * rng.integers(1, 10**7),
                          rng.uniform(0.0, 1.2e9)]))
    times = [t]
    for _ in range(int(rng.integers(0, 120))):
        kind = rng.integers(0, 6)
        if kind == 0:
            gap = rng.uniform(0.5, 30.0)
        elif kind == 1:
            gap = rng.uniform(30.0, 1800.0)
        elif kind == 2:
            gap = 60.0 * rng.integers(1, 30)
        elif kind == 3:
            gap = EVENT_GAP_S
        elif kind == 4:
            gap = EVENT_GAP_S + rng.choice([1e-3, 0.5, 60.0])
        else:
            gap = rng.uniform(EVENT_GAP_S, 20000.0)
        t += float(gap)
        times.append(t)
    return np.array(times)


def test_banded_solve_matches_per_event_splines():
    """Bit-identical to one ``CubicSpline`` per event on seeded streams,
    as a record array, with spans that cut into
    the first event's lead-in and end inside or just past the last
    minute."""
    single = edge = exact_gap = cut_start = cut_end = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        times = _random_tip_times(rng)
        bucket = float(rng.choice([0.1, 0.2, 0.254, 0.5]))
        start = times[0] - float(rng.choice([0.0, 1.0, 59.0, 3600.0]))
        if seed % 3 == 0:
            # the last tip on a minute edge ending the span: the minute
            # that edge opens lies outside the span
            times[-1] = 60.0 * math.ceil(times[-1] / 60.0)
            end = times[-1]
        else:
            end = times[-1] + float(rng.choice([0.25, 60.0, 7200.0]))
        gaps = np.diff(times)
        sizes = np.diff(np.concatenate(
            ([0], np.flatnonzero(gaps > EVENT_GAP_S) + 1, [times.size])))
        single += int(np.count_nonzero(sizes == 1))
        edge += int(np.count_nonzero(times % 60.0 == 0))
        exact_gap += int(np.count_nonzero(gaps == EVENT_GAP_S))
        lead = gaps[0] if sizes[0] > 1 else 60.0
        cut_start += (times[0] - lead) // 60 < start // 60
        cut_end += end == times[-1] and end % 60.0 == 0

        m0, want = _reference_tips_to_rates(times, bucket, (start, end))
        got = tips_to_rates(tips(times, bucket), bucket, (start, end))
        assert got.start_minute == m0
        assert np.array_equal(got.rates, want), seed
    assert single > 100 and edge > 100 and exact_gap > 100
    assert cut_start > 50 and cut_end > 50


# ---------------------------------------------------------------------------
# quality control


def test_qc_threshold_is_strict():
    series = MinuteSeries(0, [3049.0, 3048.0, 10.0],
                          [True, True, True])
    out = qc_filter(series)
    assert out.valid.tolist() == [False, True, True]
    assert np.array_equal(out.rates, series.rates)


def test_qc_leaves_clean_series_unchanged():
    series = MinuteSeries(0, [0.0, 5.0, 100.0], [True, True, False])
    out = qc_filter(series)
    assert np.array_equal(out.valid, series.valid)
    assert np.array_equal(out.rates, series.rates)
    assert QC_MAX_RATE_MM_H == 3048.0  # 2 in/min


# ---------------------------------------------------------------------------
# period selection


def _minutes_between(a, b) -> int:
    return int((b - a) / 60)


def _series_over(start, end, valid_value=True):
    start_minute = int(start) // 60
    n = _minutes_between(start, end)
    return MinuteSeries(start_minute, np.zeros(n),
                        np.full(n, valid_value, dtype=bool))


def test_select_periods_fully_valid_three_years():
    series = _series_over(ts(2001, 1, 1), ts(2004, 1, 1))
    out = select_periods(series)
    assert out is not None
    assert out.start_minute == series.start_minute
    assert out.n_minutes == series.n_minutes


def test_select_periods_bad_middle_year_picks_earliest_flank():
    series = _series_over(ts(2001, 1, 1), ts(2004, 1, 1))
    y2a = _minutes_between(ts(2001, 1, 1), ts(2002, 1, 1))
    y2b = _minutes_between(ts(2001, 1, 1), ts(2003, 1, 1))
    n2 = y2b - y2a
    series.valid[y2a:y2a + int(0.2 * n2)] = False  # year 2 at 80% valid
    out = select_periods(series)
    assert out is not None
    assert out.start_minute == series.start_minute
    assert out.n_minutes == y2a  # just the first year


def test_select_periods_exactly_90_percent_is_rejected():
    series = _series_over(ts(2001, 1, 1), ts(2002, 1, 1))
    n = series.n_minutes
    series.valid[:n // 10] = False  # exactly 90.0% valid
    assert np.mean(series.valid) == 0.9
    assert select_periods(series) is None


def test_select_periods_starts_at_first_full_month():
    # record starts mid-May; periods must tile from June 1
    series = _series_over(ts(2001, 5, 17, 12), ts(2003, 6, 1))
    out = select_periods(series)
    assert out is not None
    june1 = int(ts(2001, 6, 1)) // 60
    assert out.start_minute == june1
    assert out.n_minutes == _minutes_between(ts(2001, 6, 1), ts(2003, 6, 1))


def test_select_periods_requires_a_full_year():
    series = _series_over(ts(2001, 1, 1), ts(2001, 11, 1))
    with pytest.raises(ValueError):
        select_periods(series)


def test_select_periods_longest_run_wins():
    series = _series_over(ts(2001, 1, 1), ts(2006, 1, 1))
    # invalidate 20% of 2002: runs are [2001] and [2003, 2004, 2005]
    a = _minutes_between(ts(2001, 1, 1), ts(2002, 1, 1))
    b = _minutes_between(ts(2001, 1, 1), ts(2003, 1, 1))
    series.valid[a:a + int(0.2 * (b - a))] = False
    out = select_periods(series)
    assert out.start_minute == int(ts(2003, 1, 1)) // 60
    assert out.n_minutes == _minutes_between(ts(2003, 1, 1), ts(2006, 1, 1))


def _reference_periods(series):
    """Minute index ranges of the 12-month periods, tiled with ``datetime``
    from the first month start at or after the record's start."""
    dt = datetime.fromtimestamp(series.start_minute * 60, tz=timezone.utc)
    if dt.day == 1 and dt.hour == 0 and dt.minute == 0 and dt.second == 0:
        first = dt
    else:
        y, m = dt.year, dt.month + 1
        if m > 12:
            y, m = y + 1, 1
        first = datetime(y, m, 1, tzinfo=timezone.utc)

    def add_months(dt, months):
        m = dt.month - 1 + months
        return datetime(dt.year + m // 12, m % 12 + 1, 1, tzinfo=timezone.utc)

    periods = []
    j = 0
    while True:
        p_start = add_months(first, 12 * j)
        p_end = add_months(first, 12 * (j + 1))
        idx0 = int(p_start.timestamp()) // 60 - series.start_minute
        idx1 = int(p_end.timestamp()) // 60 - series.start_minute
        if idx1 > series.n_minutes:
            return periods
        periods.append((idx0, idx1))
        j += 1


def _select_periods_reference(series):
    """The calendar tiling ``select_periods`` replaced, as an oracle."""
    periods = _reference_periods(series)
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


def _random_period_series(rng):
    """A record starting between 1960 and 2030, a third of them exactly on
    a month boundary, 6 to 50 months long, each 12-month period fully
    valid, exactly 90 % valid, one minute over 90 %, 80 % valid or
    sprinkled, plus invalid minutes outside the periods."""
    start = int(rng.integers(-10 * 525960, 60 * 525960))
    if rng.random() < 1 / 3:
        month = np.datetime64(start, "m").astype("datetime64[M]")
        start = int(month.astype("datetime64[m]").astype(np.int64))
    n = int(rng.integers(6 * 43830, 50 * 43830))
    series = MinuteSeries(start, rng.random(n), rng.random(n) > 0.3)
    valid = series.valid
    for a, b in _reference_periods(series):
        kind = rng.integers(5)
        valid[a:b] = True
        if kind == 1:
            valid[a:a + (b - a) // 10] = False
        elif kind == 2:
            valid[a:a + (b - a) // 10 - 1] = False
        elif kind == 3:
            valid[b - (b - a) // 5:b] = False
        elif kind == 4:
            valid[a:b] = rng.random(b - a) > rng.choice([0.05, 0.1, 0.15])
    return series


def test_select_periods_matches_datetime_tiling_on_random_records():
    rng = np.random.default_rng(837)
    outcomes = {"equal": 0, "none": 0, "short": 0}
    for _ in range(150):
        series = _random_period_series(rng)
        try:
            expected = _select_periods_reference(series)
        except ValueError:
            with pytest.raises(ValueError):
                select_periods(series)
            outcomes["short"] += 1
            continue
        got = select_periods(series)
        if expected is None:
            assert got is None
            outcomes["none"] += 1
            continue
        assert got.start_minute == expected.start_minute
        assert np.array_equal(got.rates, expected.rates)
        assert np.array_equal(got.valid, expected.valid)
        outcomes["equal"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_select_periods_exactly_90_percent_and_ties_match_reference():
    # 2001-2007 starting mid-March: six periods from 2001-04-01, with runs
    # [good, good], bad, [good, good], exactly 90 %: a tie kept at the first
    series = _series_over(ts(2001, 3, 9, 7, 13), ts(2007, 5, 2))
    periods = _reference_periods(series)
    assert len(periods) == 6
    for i in (2, 5):
        a, b = periods[i]
        series.valid[a:a + (b - a) // 10] = False
        assert np.mean(series.valid[a:b]) == 0.9
    expected = _select_periods_reference(series)
    got = select_periods(series)
    assert got.start_minute == expected.start_minute == (
        series.start_minute + periods[0][0])
    assert got.n_minutes == expected.n_minutes == periods[1][1] - periods[0][0]


# ---------------------------------------------------------------------------
# exceedance statistics


def test_exceedance_constant_series():
    n = 600000
    series = MinuteSeries(0, np.full(n, 10.0), np.ones(n, dtype=bool))
    points = exceedance_stats(series)
    assert points
    assert all(r == 10.0 for _, r in points)


def test_min_count_rule_one_year_vs_four_years():
    rng = np.random.default_rng(42)
    one_year = int(MINUTES_PER_YEAR)
    rates = rng.exponential(1.0, 4 * one_year)
    short = MinuteSeries(0, rates[:one_year],
                         np.ones(one_year, dtype=bool))
    long = MinuteSeries(0, rates, np.ones(rates.size, dtype=bool))
    short_ps = [p for p, _ in exceedance_stats(short)]
    long_ps = [p for p, _ in exceedance_stats(long)]
    assert 0.001 not in short_ps   # ~5.3 expected observations < 20
    assert 0.005 in short_ps       # ~26 expected observations >= 20
    assert 0.001 in long_ps        # ~21 expected observations >= 20
    assert short_ps == [p for p in short_ps if (p / 100) * one_year >= 20]


def test_exceedance_matches_brute_force_sort():
    rng = np.random.default_rng(43)
    n = 300000
    rates = rng.gamma(0.3, 8.0, n)
    valid = rng.uniform(size=n) < 0.95
    series = MinuteSeries(0, rates, valid)
    points = dict(exceedance_stats(series))
    vr = np.sort(rates[valid])
    nv = vr.size
    for p, r in points.items():
        k = int(math.floor((p / 100) * nv))
        assert (p / 100) * nv >= 20
        assert r == vr[nv - k]


def _full_sort_exceedance(series, ladder, min_count):
    """Reference: rank every valid minute, dry ones included."""
    rates = series.rates[series.valid]
    ranked = np.sort(rates)[::-1]
    out = []
    for p in ladder:
        expected = (p / 100.0) * rates.size
        if expected >= min_count:
            k = max(1, int(math.floor(expected)))
            out.append((float(p), float(ranked[k - 1])))
    return out


def test_exceedance_matches_full_sort_on_seeded_series():
    rng = np.random.default_rng(45)
    # rungs up to 100 % reach ranks past the last wet minute
    ladder = STANDARD_LADDER + (10.0, 50.0, 100.0)
    for wet_frac in (0.0, 1e-4, 0.04, 0.5, 1.0):
        for _ in range(6):
            n = int(rng.integers(1, 200_000))
            wet = rng.uniform(size=n) < wet_frac
            # rounded to 0.1 mm/h so that many rates tie
            rates = np.where(wet, np.round(rng.gamma(0.5, 10.0, n), 1), 0.0)
            valid = rng.uniform(size=n) < rng.choice([0.7, 1.0])
            valid[0] = True
            series = MinuteSeries(0, rates, valid)
            for min_count in (1, 20):
                assert exceedance_stats(series, ladder, min_count) == \
                    _full_sort_exceedance(series, ladder, min_count)


def test_exceedance_of_an_all_dry_series_is_zero():
    series = MinuteSeries(0, np.zeros(10_000), np.ones(10_000, dtype=bool))
    points = exceedance_stats(series, min_count=1)
    assert [p for p, _ in points] == [p for p in STANDARD_LADDER
                                      if p >= 0.01]
    assert all(r == 0.0 for _, r in points)


@pytest.mark.parametrize("n_wet", [15, 19, 20, 25])
def test_exceedance_at_the_min_count_boundary(n_wet):
    # 2000 valid minutes: the 1 % rung expects exactly 20 and takes k = 20
    rates = np.zeros(2100)
    rates[:n_wet] = np.arange(n_wet, 0, -1) + 0.5
    valid = np.ones(2100, dtype=bool)
    valid[-100:] = False
    rates[-100:] = 999.0  # invalid minutes never rank
    series = MinuteSeries(0, rates, valid)
    # wet rates are n_wet + 0.5 down to 1.5; the 2 % rung takes k = 40
    assert exceedance_stats(series, (1.0, 2.0), min_count=20) == [
        (1.0, n_wet - 18.5 if n_wet >= 20 else 0.0), (2.0, 0.0)]
    assert exceedance_stats(series, (1.0,), min_count=21) == []
    assert exceedance_stats(series, (1.0, 2.0), min_count=20) == \
        _full_sort_exceedance(series, (1.0, 2.0), 20)


def test_exceedance_is_monotone():
    rng = np.random.default_rng(44)
    n = 2_000_000
    series = MinuteSeries(0, rng.exponential(2.0, n),
                          np.ones(n, dtype=bool))
    points = exceedance_stats(series)
    rates = [r for _, r in points]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_exceedance_requires_valid_minutes():
    series = MinuteSeries(0, [1.0], [False])
    with pytest.raises(ValueError):
        exceedance_stats(series)


# ---------------------------------------------------------------------------
# tip CSV


def test_tips_csv_round_trip(tmp_path):
    times = [ts(2002, 3, 1, 10, 30, 15), ts(2002, 3, 1, 10, 31, 2) + 0.25]
    path = tmp_path / "tips.csv"
    write_tips_csv(tips(times, BUCKET), path)
    back = read_tips_csv(path)
    assert len(back) == 2
    assert back[0].time == times[0]
    assert back[1].time == pytest.approx(times[1], abs=1e-6)
    assert back[0].depth == BUCKET


def test_tips_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "tips.csv"
    path.write_text("time_iso8601_utc,depth_mm\nnot-a-time,0.254\n")
    with pytest.raises(DataError, match="line 2"):
        read_tips_csv(path)


@pytest.mark.parametrize("depth", ["0", "-0.254", "nan", "inf"])
def test_tips_csv_rejects_non_positive_or_non_finite_depth(tmp_path, depth):
    path = tmp_path / "tips.csv"
    path.write_text("time_iso8601_utc,depth_mm\n"
                    "2005-01-01T00:00:00Z,0.254\n"
                    f"2005-01-01T00:01:00Z,{depth}\n")
    with pytest.raises(DataError, match="line 3: tip depth must be positive"):
        read_tips_csv(path)


def test_tips_csv_gives_time_and_depth_arrays(tmp_path):
    path = tmp_path / "tips.csv"
    path.write_text("time_iso8601_utc,depth_mm\n"
                    "2005-01-01T00:00:00Z,0.254\n"
                    "2005-01-01T00:01:30.5Z,0.2\n")
    tips = read_tips_csv(path)
    assert tips.time.tolist() == [1104537600.0, 1104537690.5]
    assert tips.depth.tolist() == [0.254, 0.2]
    path.write_text("time_iso8601_utc,depth_mm\n")
    assert len(read_tips_csv(path)) == 0


@pytest.fixture
def kolkata_time(monkeypatch):
    """Run with the machine's local time zone at UTC+05:30."""
    monkeypatch.setenv("TZ", "Asia/Kolkata")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_stamps_without_offset_are_utc(tmp_path, kolkata_time):
    assert time.localtime(0).tm_gmtoff == 19800
    utc = 1104537600.0  # 2005-01-01T00:00:00Z
    assert parse_utc_time("2005-01-01T00:00:00") == utc
    assert parse_utc_time("2005-01-01T00:00:00Z") == utc
    assert parse_utc_time("2005-01-01T05:30:00+05:30") == utc
    assert cli._parse_span_time("2005-01-01T00:00:00", "span_start") == utc
    path = tmp_path / "tips.csv"
    path.write_text("time_iso8601_utc,depth_mm\n"
                    "2005-01-01T00:00:00,0.254\n")
    assert read_tips_csv(path).time.tolist() == [utc]
    with pytest.raises(ConfigError, match="span_end"):
        cli._parse_span_time("2005-13-01", "span_end")


def test_gauge_import_leaves_scipy_interpolate_unloaded():
    code = ("import sys, rainstats.gauge; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.interpolate')))")
    src = os.path.dirname(os.path.dirname(rainstats.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
