"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s``).  Run via::

    pytest tests/test_acceptance.py -v -s
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np

from rainstats import cli
from rainstats.climatology import (KM_PER_DEG, elevation_weight,
                                   merge_reference, render_observations)
from rainstats.evaluation import ConfusionMatrix, accuracy, mcc, p311_summary
from rainstats.gauge import (MINUTES_PER_YEAR, MinuteSeries,
                             exceedance_stats, qc_filter, tips_to_rates)
from rainstats.impact import heavy_mask, zonal_population, zone_coverage
from rainstats.rainmodel import (STANDARD_LADDER, ClimatePoint, ModelParams,
                                 SiteStatistics, _exceedance_array,
                                 _rain_rate_array, curve_objective,
                                 estimate_site_curve, fit_params, rain_rate,
                                 write_params, write_sites_csv)
from rainstats.raster import (Grid, GridGeometry, gaussian_filter,
                              uniform_filter, write_grid)
from writers import observations, tips, write_observations_csv, write_tips_csv

ND = -9999.0
PARAMS = ModelParams(1.0, 20000.0, 26.0)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. model round trip


def test_criterion_1_model_round_trip():
    with criterion(1, "model round trip"):
        rng = np.random.default_rng(101)
        n = 1000
        mt = rng.uniform(100, 4000, n)
        p0 = rng.uniform(0.5, 10, n)
        ladder = np.array(STANDARD_LADDER)

        start = time.perf_counter()
        P = np.broadcast_to(ladder, (n, ladder.size))
        MT = np.broadcast_to(mt[:, None], P.shape)
        P0 = np.broadcast_to(p0[:, None], P.shape)
        rates = _rain_rate_array(P, MT, P0, PARAMS)
        back = _exceedance_array(rates, MT, P0, PARAMS)
        elapsed = time.perf_counter() - start

        check = P < P0
        rel = np.abs(back[check] - P[check]) / P[check]
        assert check.sum() > 10000
        assert rel.max() <= 1e-6
        assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. fit recovery


GEN_PARAMS = ModelParams(0.9, 18000.0, 24.0)


def _fit_training(noise_rng=None):
    rng = np.random.default_rng(102)
    training = []
    for i in range(30):
        climate = ClimatePoint(rng.uniform(200, 3800), rng.uniform(0.8, 9.5))
        curve = [(p, r) for p, r in estimate_site_curve(climate, GEN_PARAMS)
                 if r > 0]
        if noise_rng is not None:
            ps = [p for p, _ in curve]
            rs = np.array([r for _, r in curve])
            rs = rs * (1.0 + noise_rng.uniform(-0.1, 0.1, rs.size))
            rs = np.maximum.accumulate(rs[::-1])[::-1]
            curve = list(zip(ps, rs))
        training.append((SiteStatistics(f"t{i}", 0.0, 0.0, "NA", 5.0,
                                        tuple(curve)), climate))
    return training


def test_criterion_2_fit_recovery():
    with criterion(2, "fit recovery"):
        training = _fit_training()
        result = fit_params(training)
        for site, climate in training:
            for p, r in site.points:
                rhat = rain_rate(p, climate, result.params)
                assert abs(rhat - r) <= 0.005 * r

        noisy = _fit_training(noise_rng=np.random.default_rng(103))
        noisy_fit = fit_params(noisy)
        assert noisy_fit.objective <= curve_objective(noisy, GEN_PARAMS)


# ---------------------------------------------------------------------------
# 3. P.311 identity and reference-row fixture


def test_criterion_3_p311_identity():
    with criterion(3, "P.311 identity"):
        rng = np.random.default_rng(104)
        for _ in range(100):
            errs = rng.normal(rng.uniform(-20, 20), rng.uniform(0.1, 60),
                              int(rng.integers(2, 500)))
            s = p311_summary(errs)
            assert abs(s.rms ** 2 - (s.mean ** 2 + s.sd ** 2)) \
                <= 1e-12 * s.rms ** 2

        # the reference row "-3.1 30.9 31.0" holds at its one-decimal
        # display precision; mean -3.1 with sd 30.88 realizes all three
        # printed figures (sd exactly 30.9 would give rms 31.06)
        s = p311_summary([-3.1 - 30.88, -3.1 + 30.88])
        assert f"{s.mean:.1f}" == "-3.1"
        assert f"{s.sd:.1f}" == "30.9"
        assert f"{s.rms:.1f}" == "31.0"
        assert abs(s.rms - 31.0) <= 0.05


# ---------------------------------------------------------------------------
# 4. classification metrics


def test_criterion_4_classification_metrics():
    # three reference confusion matrices with independently verified
    # accuracy and MCC figures
    with criterion(4, "classification metrics"):
        by_site = ConfusionMatrix(tn=262, fp=6, fn=55, tp=25)
        assert abs(accuracy(by_site) - 0.82) <= 0.005
        assert abs(mcc(by_site) - 0.43) <= 0.005

        by_country_a = ConfusionMatrix(tn=6, fp=1, fn=5, tp=8)
        assert abs(accuracy(by_country_a) - 0.70) <= 0.005
        assert abs(mcc(by_country_a) - 0.45) <= 0.005

        by_country_b = ConfusionMatrix(tn=5, fp=2, fn=9, tp=4)
        assert abs(accuracy(by_country_b) - 0.45) <= 0.005
        assert abs(mcc(by_country_b) - 0.02) <= 0.005


# ---------------------------------------------------------------------------
# 5. gauge end-to-end self-consistency


def _synthetic_gauge_minutes(climate, params, years):
    """Per-minute rates whose empirical quantiles match the model curve.

    Rates are drawn by stratified inverse-CDF sampling and arranged into
    unimodal storm events.  Rates below 1 mm/h are floored there: a bucket
    filling slower than the 30-minute event gap can only produce isolated
    tips, which no interpolation can turn back into drizzle.  Every tested
    rung sits far above the floor.
    """
    n_minutes = int(years * MINUTES_PER_YEAR)
    n_rain = int(round(n_minutes * climate.p0 / 100.0))
    u = climate.p0 * (np.arange(n_rain) + 0.5) / n_rain
    rates = _rain_rate_array(u, np.full(n_rain, climate.mt),
                             np.full(n_rain, climate.p0), params)
    rates = np.maximum(np.sort(rates), 1.0)

    minute_rates = np.zeros(n_minutes)
    bands = np.array_split(rates, 600)
    slot = n_minutes // len(bands)
    for k, band in enumerate(bands):
        m = band.size
        profile = np.empty(m)
        profile[:(m + 1) // 2] = band[::2]
        profile[(m + 1) // 2:] = band[1::2][::-1]
        minute_rates[k * slot + 100:k * slot + 100 + m] = profile
    return minute_rates


def _minutes_to_tips(minute_rates, bucket):
    cum = np.concatenate(([0.0], np.cumsum(minute_rates / 60.0)))
    targets = bucket * np.arange(1, int(cum[-1] / bucket) + 1)
    idx = np.searchsorted(cum, targets)
    frac = (targets - cum[idx - 1]) / (cum[idx] - cum[idx - 1])
    return tips(60.0 * (idx - 1 + frac), bucket)


def test_criterion_5_gauge_end_to_end():
    with criterion(5, "gauge end-to-end self-consistency"):
        climate = ClimatePoint(2500.0, 40.0)
        params = ModelParams(0.8, 20000.0, 26.0)
        bucket = 0.254
        minute_rates = _synthetic_gauge_minutes(climate, params, years=5)
        records = _minutes_to_tips(minute_rates, bucket)
        span = (0.0, 60.0 * minute_rates.size)

        series = qc_filter(tips_to_rates(records, bucket, span))
        recovered = dict(exceedance_stats(series))
        for p in STANDARD_LADDER:
            if p < 0.01:
                continue
            gen = rain_rate(p, climate, params)
            assert p in recovered
            assert abs(recovered[p] - gen) <= 0.05 * gen

        # the >= 20 observation rule: p = 0.001% needs four years of data
        rng = np.random.default_rng(105)
        one_year = int(MINUTES_PER_YEAR)
        rates = rng.exponential(1.0, 4 * one_year)
        year1 = MinuteSeries(0, rates[:one_year],
                             np.ones(one_year, dtype=bool))
        year4 = MinuteSeries(0, rates, np.ones(rates.size, dtype=bool))
        assert 0.001 not in dict(exceedance_stats(year1))
        assert 0.001 in dict(exceedance_stats(year4))


# ---------------------------------------------------------------------------
# 6. rasterization oracle


def test_criterion_6_rasterization_oracle():
    with criterion(6, "rasterization oracle"):
        g = GridGeometry(200, 200, 30.0, 9.0, 1.0 / 120.0, ND)
        rng = np.random.default_rng(106)
        stream = observations([(
            120.0 * i,
            float(rng.uniform(8.95, 10.75)),   # lat
            float(rng.uniform(29.95, 31.75)),  # lon
            float(rng.uniform(0.1, 30)),       # nsrr
            bool(rng.uniform() < 0.7),         # rain_certain
            float(rng.uniform(3.0, 6.0)))      # footprint_diameter
            for i in range(1000)])

        # brute-force point-in-circle membership per pixel center
        lat_c = g.yll + (g.nrows - np.arange(g.nrows) - 0.5) * g.cell
        lon_c = g.xll + (np.arange(g.ncols) + 0.5) * g.cell
        exp_total = np.zeros((200, 200), dtype=np.int64)
        exp_rain = np.zeros((200, 200), dtype=np.int64)
        exp_sum = np.zeros((200, 200))
        skipped = 0
        for o in stream:
            r = o.footprint_diameter / 2.0
            coslat = math.cos(math.radians(o.lat))
            dy = (lat_c - o.lat) * KM_PER_DEG
            dx = (lon_c - o.lon) * (KM_PER_DEG * coslat)
            inside = (dy * dy)[:, None] + (dx * dx)[None, :] <= r * r
            if not inside.any():
                skipped += 1
                continue
            exp_total += inside
            if o.rain_certain:
                exp_rain += inside
                exp_sum[inside] += o.nsrr

        results = {t: render_observations(stream, g, threads=t)
                   for t in (1, 2, 8)}
        for threads, (acc, report) in results.items():
            assert np.array_equal(acc.n_total, exp_total), threads
            assert np.array_equal(acc.n_rain, exp_rain), threads
            assert np.array_equal(acc.sum_nsrr, exp_sum), threads
            assert report.n_skipped == skipped


# ---------------------------------------------------------------------------
# 7. filter and merge properties


def test_criterion_7_filter_and_merge_properties():
    with criterion(7, "filter/merge properties"):
        g = GridGeometry(80, 70, 0.0, 0.0, 0.01, ND)
        constant = Grid.full(g, 987.125)
        assert np.array_equal(uniform_filter(constant, 121).values,
                              constant.values)
        assert np.array_equal(gaussian_filter(constant, 21).values,
                              constant.values)

        gi = GridGeometry(61, 61, 0.0, 0.0, 0.01, ND)
        impulse = np.zeros((61, 61))
        impulse[30, 30] = 1.0
        response = gaussian_filter(Grid(gi, impulse), 21)
        assert abs(response.values.sum() - 1.0) <= 1e-9

        rng = np.random.default_rng(107)
        gm = GridGeometry(40, 40, 0.0, 0.0, 0.01, ND)
        sat = Grid(gm, rng.uniform(0, 3000, 1600))
        ref = Grid(gm, rng.uniform(0, 3000, 1600))
        w = Grid(gm, rng.uniform(0, 1, 1600))
        merged = merge_reference(sat, ref, w)
        smooth = uniform_filter(ref, 121)
        lo = np.minimum(sat.values, smooth.values)
        hi = np.maximum(sat.values, smooth.values)
        assert np.all(merged.values >= lo - 1e-9)
        assert np.all(merged.values <= hi + 1e-9)

        flat = elevation_weight(Grid.full(gm, 300.0), k=121)
        assert np.all(flat.values == 1.0)
        x = math.e - 1.0
        g2 = GridGeometry(2, 2, 0.0, 0.0, 0.01, ND)
        half = elevation_weight(Grid(g2, [0.0, 0.0, x, x]), k=121)
        assert np.allclose(half.values, 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# 8. impact tabulation


def test_criterion_8_impact_tabulation():
    with criterion(8, "impact tabulation"):
        g = GridGeometry(12, 12, 0.0, 0.0, 1.0, ND)
        rng = np.random.default_rng(108)
        zone_vals = rng.integers(0, 6, (12, 12)).astype(float)
        zone_vals[rng.uniform(size=(12, 12)) < 0.1] = ND
        pop_vals = np.where(rng.uniform(size=(12, 12)) < 0.7,
                            rng.integers(0, 900, (12, 12)).astype(float), 0.0)
        coverage = zone_coverage(Grid(g, zone_vals), Grid(g, pop_vals))
        for attr in ("land_pct", "populated_pct", "pop_pct"):
            total = sum(getattr(s, attr) for s in coverage.values())
            assert abs(total - 100.0) <= 1e-9

        g4 = GridGeometry(4, 4, 0.0, 0.0, 1.0, ND)
        pop = Grid(g4, np.arange(16, dtype=float))
        countries = Grid(g4, np.array([[1, 1, 2, 2]] * 4, dtype=float))
        mask_vals = np.zeros((4, 4))
        mask_vals[0] = 1.0
        mask_vals[3] = 1.0
        tally = zonal_population(pop, Grid(g4, mask_vals), countries)
        assert tally.by_code == {1: 0 + 1 + 12 + 13, 2: 2 + 3 + 14 + 15}
        assert tally.total == 0 + 1 + 2 + 3 + 12 + 13 + 14 + 15

        rate_vals = rng.uniform(0, 200, (12, 12))
        rate = Grid(g, rate_vals)
        counts = [heavy_mask(rate, t)[0].values.sum()
                  for t in (40.0, 95.0, 160.0)]
        assert counts[0] >= counts[1] >= counts[2]

        boundary = Grid(GridGeometry(2, 1, 0.0, 0.0, 1.0, ND), [95.0, 95.1])
        mask, _ = heavy_mask(boundary, 95.0)
        assert mask.values.tolist() == [[0.0, 1.0]]


# ---------------------------------------------------------------------------
# 9. CLI determinism


def _cfg_text(**kv):
    return "".join(f"{k}={v}\n" for k, v in kv.items())


def _setup_fit(d):
    rng = np.random.default_rng(109)
    sites, rows = [], []
    for i in range(4):
        climate = ClimatePoint(float(rng.uniform(400, 3000)),
                               float(rng.uniform(1, 9)))
        pts = tuple((p, r) for p, r in estimate_site_curve(climate, PARAMS)
                    if r > 0)
        sites.append(SiteStatistics(f"s{i}", 0.0, 0.0, "NA", 5.0, pts))
        rows.append((f"s{i}", climate.mt, climate.p0))
    write_sites_csv(sites, d / "sites.csv")
    with open(d / "climate.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "mt_mm", "p0_percent"])
        for sid, mt, p0 in rows:
            w.writerow([sid, repr(mt), repr(p0)])
    (d / "run.cfg").write_text(_cfg_text(
        sites="sites.csv", climate="climate.csv", out_params="params.txt",
        out_residuals="residuals.csv", out_report="report.txt"))
    return "fit", ["params.txt", "residuals.csv", "report.txt",
                   "params.txt.manifest"]


def _setup_predict(d):
    g = GridGeometry(8, 8, 0.0, 0.0, 0.5, ND)
    rng = np.random.default_rng(110)
    write_grid(Grid(g, rng.uniform(300, 3000, 64)), d / "mt.grd")
    write_grid(Grid(g, rng.uniform(1, 9, 64)), d / "p0.grd")
    write_params(PARAMS, d / "params.txt")
    with open(d / "locs.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "lat", "lon", "country"])
        w.writerow(["a", "1.8", "1.2", "XX"])
        w.writerow(["b", "2.6", "3.1", "YY"])
    (d / "run.cfg").write_text(_cfg_text(
        mt_grid="mt.grd", p0_grid="p0.grd", params="params.txt",
        locations="locs.csv", out_sites="pred.csv"))
    return "predict", ["pred.csv", "pred.csv.manifest"]


def _setup_build_clim(d):
    g = GridGeometry(16, 16, 30.0, 9.0, 1.0 / 120.0, ND)
    rng = np.random.default_rng(111)
    t, stream = 0.0, []
    for _ in range(80):
        t += float(rng.uniform(0, 150))
        stream.append((
            t, float(rng.uniform(9.02, 9.11)),
            float(rng.uniform(30.02, 30.11)), float(rng.uniform(0, 15)),
            bool(rng.uniform() < 0.6), 4.5))
    write_observations_csv(observations(stream), d / "obs.csv")
    write_grid(Grid.full(g, 900.0), d / "ref.grd")
    write_grid(Grid(g, rng.uniform(0, 1500, 256)), d / "elev.grd")
    (d / "run.cfg").write_text(_cfg_text(
        observations="obs.csv", reference_mt="ref.grd", elevation="elev.grd",
        ncols=g.ncols, nrows=g.nrows, xll=g.xll, yll=g.yll, cell=g.cell,
        nodata=g.nodata, k_uniform=9, k_gauss=5, out_mt="mt.grd",
        out_p0="p0.grd", out_report="report.txt"))
    return "build-clim", ["mt.grd", "p0.grd", "report.txt",
                          "mt.grd.manifest"]


def _setup_gauge(d):
    start = 1104537600.0  # 2005-01-01T00:00:00Z
    times = []
    t = start + 43200.0
    for _ in range(450):
        for i in range(25):
            times.append(t + 60.0 * i)
        t += 86400.0
    write_tips_csv(tips(times), d / "tips.csv")
    with open(d / "gsites.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "lat", "lon", "country", "tips_path"])
        w.writerow(["a", "6.5", "3.4", "NGA", "tips.csv"])
    (d / "run.cfg").write_text(_cfg_text(
        sites="gsites.csv", span_start="2005-01-01T00:00:00Z",
        span_end="2006-06-01T00:00:00Z", out_sites="stats.csv"))
    return "gauge", ["stats.csv", "stats.csv.manifest"]


def _setup_eval(d):
    rng = np.random.default_rng(112)
    with open(d / "samples.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "p_percent", "observed", "predicted"])
        for i in range(60):
            obs = float(rng.uniform(20, 150))
            pred = obs * float(rng.uniform(0.6, 1.4))
            w.writerow([f"s{i}", "0.01", repr(obs), repr(pred)])
    (d / "run.cfg").write_text(_cfg_text(
        samples="samples.csv", out_report="metrics.txt", out_rec="rec.csv"))
    return "eval", ["metrics.txt", "rec.csv", "metrics.txt.manifest"]


def _setup_impact(d):
    g = GridGeometry(4, 4, 0.0, 0.0, 1.0, ND)
    write_grid(Grid(g, np.array([[3500.0, 3500.0, 400.0, 400.0]] * 4)),
               d / "mt.grd")
    write_grid(Grid.full(g, 5.0), d / "p0.grd")
    write_grid(Grid(g, np.arange(16, dtype=float)), d / "pop.grd")
    write_grid(Grid(g, np.array([[1, 1, 2, 2]] * 4, dtype=float)),
               d / "countries.grd")
    write_grid(Grid(g, np.array([[9, 9, 8, 8]] * 4, dtype=float)),
               d / "zones.grd")
    write_params(PARAMS, d / "params.txt")
    (d / "run.cfg").write_text(_cfg_text(
        mt_grid="mt.grd", p0_grid="p0.grd", params="params.txt",
        pop="pop.grd", countries="countries.grd", zones="zones.grd",
        out_impact="impact.csv", out_zones="zonecov.csv"))
    return "impact", ["impact.csv", "zonecov.csv", "impact.csv.manifest"]


_SETUPS = (_setup_fit, _setup_predict, _setup_build_clim, _setup_gauge,
           _setup_eval, _setup_impact)


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    with criterion(9, "CLI determinism"):
        for setup in _SETUPS:
            thread_counts = (1, 8) if setup is _setup_fit else (1, 2, 8)
            reference = None
            for threads in thread_counts:
                d = tmp_path / f"{setup.__name__}_{threads}"
                d.mkdir()
                command, outputs = setup(d)
                monkeypatch.chdir(d)
                code = cli.main([command, "--config", "run.cfg", "--seed",
                                 "42", "--threads", str(threads)])
                assert code == 0, (command, threads)
                blobs = {name: (d / name).read_bytes() for name in outputs}
                if reference is None:
                    reference = blobs
                else:
                    assert blobs == reference, (command, threads)
