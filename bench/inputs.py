"""Seeded input generators for the benchmark workloads.

Each ``setup_*`` writes one input set's files and config files into a
directory and returns the oracle values its checks need.  The program under
test only ever sees the files.  ``SIZES`` holds the full benchmark sizes and
a tiny ``smoke`` size that runs the same generators in seconds.
"""

from __future__ import annotations

import csv
import datetime as dt
import os

import numpy as np

import oracle
from oracle import ND, STANDARD_LADDER

#: Constants the fit training set and the gauge curves are generated from.
GEN_PARAMS = (0.9, 18000.0, 24.0)

SIZES = {
    "full": {
        "clim-build": dict(n=80, cell=0.01, k_uniform=81, k_gauss=15,
                           passes=50, per_pass=400),
        "site-planning": dict(n_train=20, n_loc=1000, grid=300,
                              countries=40),
        "gauge-records": dict(gauges=8, years=2, storms=190,
                              eval_sites=1500, countries=40),
    },
    "smoke": {
        "clim-build": dict(n=24, cell=0.01, k_uniform=9, k_gauss=5,
                           passes=6, per_pass=60),
        "site-planning": dict(n_train=6, n_loc=40, grid=40, countries=5),
        "gauge-records": dict(gauges=2, years=1, storms=60,
                              eval_sites=30, countries=4),
    },
}

#: workload -> (subcommand, config file, output files including the
#: manifest), in chain order.
CHAINS = {
    "clim-gauge": [
        ("build-clim", "clim.cfg", ["mt.grd", "p0.grd", "report.txt",
                                    "mt.grd.manifest"]),
        ("gauge", "gauge.cfg", ["stats.csv", "stats.csv.manifest"]),
        ("eval", "eval.cfg", ["metrics.txt", "rec.csv",
                              "metrics.txt.manifest"]),
    ],
    "site-planning": [
        ("fit", "fit.cfg", ["params.txt", "residuals.csv", "fit_report.txt",
                            "params.txt.manifest"]),
        ("predict", "predict.cfg", ["pred.csv", "pred.csv.manifest"]),
        ("impact", "impact.cfg", ["impact.csv", "zonecov.csv",
                                  "impact.csv.manifest"]),
    ],
}

#: workload -> the input sets (keys of ``SIZES``) it generates.  Gauge
#: records share a workload with the climatology build: neither inverts
#: the model, and with two workloads a run can last 50 s instead of 30 s
#: in the same total benchmark time.
PARTS = {"clim-gauge": ("clim-build", "gauge-records"),
         "site-planning": ("site-planning",)}


def rng_for(seed: int, part: str) -> np.random.Generator:
    # numpy seeds must be non-negative; this maps any integer onto one
    return np.random.default_rng([seed % 2 ** 64, sum(map(ord, part))])


def _write(path, text):
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_cfg(path, **kv):
    _write(path, "".join(f"{k}={v}\n" for k, v in kv.items()))


def _smooth_field(rng, shape, waves=6):
    """A smooth random field scaled to [0, 1]."""
    yy, xx = np.meshgrid(np.linspace(0, 1, shape[0]),
                         np.linspace(0, 1, shape[1]), indexing="ij")
    f = np.zeros(shape)
    for _ in range(waves):
        kx, ky = rng.uniform(0.5, 3.0, 2)
        f += rng.uniform(0.5, 1.0) * np.cos(
            2 * np.pi * (kx * xx + ky * yy) + rng.uniform(0, 2 * np.pi))
    return (f - f.min()) / (f.max() - f.min())


# ---------------------------------------------------------------------------
# clim-build


def setup_clim_build(d, rng, size):
    n, cell = size["n"], size["cell"]
    geom = (n, n, 30.0, 9.0, cell, ND)
    span_deg = n * cell

    # swath passes: bursts of footprints 1/8 s apart, some beyond the grid
    t_list, lat_list, lon_list = [], [], []
    t0 = 0.0
    for _ in range(size["passes"]):
        t0 += rng.integers(30 * 8, 3000 * 8) / 8.0
        m = size["per_pass"]
        t_list.append(t0 + np.arange(m) / 8.0)
        lat_list.append(rng.uniform(9.0 - 0.05, 9.0 + span_deg + 0.05, m))
        lon_list.append(rng.uniform(30.0 - 0.05, 30.0 + span_deg + 0.05, m))
        t0 = t_list[-1][-1]
    t = np.concatenate(t_list)
    lat = np.round(np.concatenate(lat_list), 5)
    lon = np.round(np.concatenate(lon_list), 5)
    rc = rng.uniform(size=t.size) < 0.3
    nsrr = np.round(np.where(rc, rng.lognormal(0.0, 1.0, t.size),
                             rng.uniform(0, 0.5, t.size)), 3)
    diam = np.round(rng.uniform(3.0, 6.0, t.size), 2)
    _write_csv(os.path.join(d, "obs.csv"),
               ["time_s", "lat", "lon", "nsrr_mm_h", "rain_certain",
                "diameter_km"],
               zip(map(repr, t.tolist()), map(repr, lat.tolist()),
                   map(repr, lon.tolist()), map(repr, nsrr.tolist()),
                   rc.astype(int).tolist(), map(repr, diam.tolist())))

    # coarser reference rainfall and elevation grids, each with nodata
    nr = int(round((span_deg + 0.4) / 0.05))
    ref_geom = (nr, nr, 29.8, 8.8, 0.05, ND)
    ref = np.round(500 + 2500 * _smooth_field(rng, (nr, nr)), 1)
    ref[rng.uniform(size=ref.shape) < 0.03] = ND
    ne = int(round((span_deg + 0.2) / 0.02))
    elev_geom = (ne, ne, 29.9, 8.9, 0.02, ND)
    elev = np.round(2500 * _smooth_field(rng, (ne, ne), 10)
                    + rng.uniform(0, 150, (ne, ne)), 1)
    cy, cx = rng.integers(0, ne, 2)
    yy, xx = np.ogrid[:ne, :ne]
    elev[(yy - cy) ** 2 + (xx - cx) ** 2 < (ne // 8) ** 2] = ND
    _write(os.path.join(d, "ref.grd"), oracle.format_grid(ref, ref_geom))
    _write(os.path.join(d, "elev.grd"), oracle.format_grid(elev, elev_geom))

    _write_cfg(os.path.join(d, "clim.cfg"), observations="obs.csv",
               reference_mt="ref.grd", elevation="elev.grd", ncols=n,
               nrows=n, xll=geom[2], yll=geom[3], cell=cell, nodata=ND,
               k_uniform=size["k_uniform"], k_gauss=size["k_gauss"],
               out_mt="mt.grd", out_p0="p0.grd", out_report="report.txt")

    obs = (t, lat, lon, nsrr, rc, diam)
    mt, p0, report, means, windows = oracle.build_clim(
        obs, geom, ref, ref_geom, elev, elev_geom, size["k_uniform"],
        size["k_gauss"], 60.0)
    return {"geom": geom, "mt": mt, "p0": p0, "report": report,
            "means": means, "windows": windows}


# ---------------------------------------------------------------------------
# site-planning


def _noisy_curve(rng, mt, p0):
    ps = np.array(STANDARD_LADDER)
    rs = oracle.rain_rate(ps, mt, p0, GEN_PARAMS)
    keep = rs > 0
    ps, rs = ps[keep], rs[keep] * (1.0 + rng.uniform(-0.1, 0.1, keep.sum()))
    return ps, np.maximum.accumulate(rs[::-1])[::-1]


def setup_site_planning(d, rng, size):
    # fit: noisy training curves from known constants
    rows, clim_rows, train = [], [], []
    for i in range(size["n_train"]):
        mt, p0 = float(rng.uniform(200, 3800)), float(rng.uniform(0.8, 9.5))
        ps, rs = _noisy_curve(rng, mt, p0)
        sid = f"t{i:03d}"
        rows += [[sid, "0.0", "0.0", "NA", "5.0", repr(float(p)),
                  repr(float(r))] for p, r in zip(ps, rs)]
        clim_rows.append([sid, repr(mt), repr(p0)])
        train += [(p, r, mt, p0) for p, r in zip(ps, rs)]
    _write_csv(os.path.join(d, "train.csv"),
               ["site_id", "lat", "lon", "country", "years", "p_percent",
                "rate_mm_h"], rows)
    _write_csv(os.path.join(d, "climate.csv"),
               ["site_id", "mt_mm", "p0_percent"], clim_rows)
    train = tuple(np.array(c) for c in zip(*train))
    ref_objective = oracle.objective(GEN_PARAMS, *train)

    # grids: smooth climate fields, one contiguous sea, countries, zones
    n = size["grid"]
    geom = (n, n, 10.0, -5.0, 0.05, ND)
    yy, xx = np.mgrid[:n, :n] / n
    cy, cx = rng.uniform(0.0, 0.3), rng.uniform(0.2, 0.8)
    sea = ((yy - cy) / 0.35) ** 2 + ((xx - cx) / 0.45) ** 2 < 1.0
    mt = np.round(300 + 3500 * _smooth_field(rng, (n, n)), 1)
    p0 = np.round(0.5 + 9.5 * _smooth_field(rng, (n, n)), 3)
    pop = np.round(rng.lognormal(3.0, 1.5, (n, n)))
    pop[rng.uniform(size=(n, n)) < 0.2] = 0.0
    centers = rng.uniform(0, 1, (size["countries"], 2))
    dist = ((yy[..., None] - centers[:, 0]) ** 2
            + (xx[..., None] - centers[:, 1]) ** 2)
    country = (np.argmin(dist, axis=2) + 1).astype(np.float64)
    ux, uy = rng.uniform(0.3, 0.9, 2)
    country[(yy - uy) ** 2 + (xx - ux) ** 2 < 0.003] = ND   # unassigned land
    zone = np.floor(12 * np.clip(0.7 * yy + 0.3 * _smooth_field(
        rng, (n, n)), 0, 0.999))
    for a in (mt, p0, pop, country, zone):
        a[sea] = ND
    grids = {"mt.grd": mt, "p0.grd": p0, "pop.grd": pop,
             "countries.grd": country, "zones.grd": zone}
    for name, a in grids.items():
        _write(os.path.join(d, name), oracle.format_grid(a, geom))

    lats = np.round(rng.uniform(geom[3], geom[3] + n * 0.05, size["n_loc"]), 4)
    lons = np.round(rng.uniform(geom[2], geom[2] + n * 0.05, size["n_loc"]), 4)
    _write_csv(os.path.join(d, "locs.csv"), ["site_id", "lat", "lon",
                                             "country"],
               [[f"L{i:05d}", repr(a), repr(b), "XX"]
                for i, (a, b) in enumerate(zip(lats.tolist(),
                                               lons.tolist()))])

    _write_cfg(os.path.join(d, "fit.cfg"), sites="train.csv",
               climate="climate.csv", out_params="params.txt",
               out_residuals="residuals.csv", out_report="fit_report.txt")
    _write_cfg(os.path.join(d, "predict.cfg"), mt_grid="mt.grd",
               p0_grid="p0.grd", params="params.txt", locations="locs.csv",
               out_sites="pred.csv")
    _write_cfg(os.path.join(d, "impact.cfg"), mt_grid="mt.grd",
               p0_grid="p0.grd", params="params.txt", pop="pop.grd",
               countries="countries.grd", zones="zones.grd",
               out_impact="impact.csv", out_zones="zonecov.csv")
    return {"geom": geom, "train": train, "ref_objective": ref_objective,
            "mt": mt, "p0": p0, "pop": pop, "country": country, "zone": zone,
            "lats": lats, "lons": lons}


# ---------------------------------------------------------------------------
# gauge-records


def _storm_minutes(rng, mt, p0, n_minutes, storms):
    """Per-minute rates whose quantiles follow the generating model curve.

    Stratified inverse-CDF draws, floored at 1 mm/h (slower drizzle only
    gives isolated tips) and arranged into unimodal storms in shuffled,
    well separated slots.
    """
    n_rain = int(round(n_minutes * p0 / 100.0))
    u = p0 * (np.arange(n_rain) + 0.5) / n_rain
    rates = np.maximum(np.sort(oracle.rain_rate(u, mt, p0, GEN_PARAMS)), 1.0)
    out = np.zeros(n_minutes)
    slot = n_minutes // storms
    for k, band in zip(rng.permutation(storms),
                       np.array_split(rates, storms)):
        m = band.size
        profile = np.empty(m)
        profile[:(m + 1) // 2] = band[::2]
        profile[(m + 1) // 2:] = band[1::2][::-1]
        start = k * slot + 60 + int(rng.integers(0, slot - m - 120))
        out[start:start + m] = profile
    return out


def _minutes_to_tips(minute_rates, bucket):
    cum = np.concatenate(([0.0], np.cumsum(minute_rates / 60.0)))
    targets = bucket * np.arange(1, int(cum[-1] / bucket) + 1)
    idx = np.searchsorted(cum, targets)
    frac = (targets - cum[idx - 1]) / (cum[idx] - cum[idx - 1])
    return 60.0 * (idx - 1 + frac)


def setup_gauge_records(d, rng, size):
    years = size["years"]
    start = dt.datetime(2005, 1, 1, tzinfo=dt.timezone.utc)
    end = start.replace(year=2005 + years)
    n_minutes = int((end - start).total_seconds() // 60)
    epoch_us = np.datetime64("2005-01-01T00:00:00", "us")
    sites, curves, n_tips, n_events = [], {}, 0, 0
    for g in range(size["gauges"]):
        mt, p0 = float(rng.uniform(600, 1200)), float(rng.uniform(3.0, 5.0))
        minutes = _storm_minutes(rng, mt, p0, n_minutes, size["storms"])
        secs = np.round(_minutes_to_tips(minutes, 0.254), 3)
        stamps = np.datetime_as_string(
            epoch_us + np.round(secs * 1e6).astype("timedelta64[us]"),
            unit="ms")
        path = f"tips_{g:02d}.csv"
        with open(os.path.join(d, path), "w", newline="",
                  encoding="utf-8") as f:
            f.write("time_iso8601_utc,depth_mm\n")
            f.write("".join(s + "Z,0.254\n" for s in stamps.tolist()))
        sid = f"G{g:02d}"
        sites.append([sid, "6.5", "3.4", "NGA", path])
        curves[sid] = (mt, p0)
        n_tips += secs.size
        n_events += 1 + int(np.count_nonzero(np.diff(secs) > 1800.0))
    _write_csv(os.path.join(d, "gsites.csv"),
               ["site_id", "lat", "lon", "country", "tips_path"], sites)
    _write_cfg(os.path.join(d, "gauge.cfg"), sites="gsites.csv",
               span_start=start.strftime("%Y-%m-%dT%H:%M:%SZ"),
               span_end=end.strftime("%Y-%m-%dT%H:%M:%SZ"),
               out_sites="stats.csv")

    # eval: error samples over the standard ladder, one country per site
    n = size["eval_sites"]
    mts, p0s = rng.uniform(200, 3800, n), rng.uniform(0.8, 9.5, n)
    ps = np.tile(np.array(STANDARD_LADDER), n)
    obs = oracle.rain_rate(ps, np.repeat(mts, 16), np.repeat(p0s, 16),
                          GEN_PARAMS)
    keep = obs > 0
    ids = np.repeat(np.arange(n), 16)[keep]
    ps, obs = ps[keep], np.round(obs[keep], 3)
    obs = np.maximum(obs, 0.001)
    pred = np.round(obs * rng.lognormal(0.0, 0.3, obs.size), 3)
    _write_csv(os.path.join(d, "samples.csv"),
               ["site_id", "p_percent", "observed", "predicted"],
               zip((f"S{i:05d}" for i in ids.tolist()),
                   map(repr, ps.tolist()), map(repr, obs.tolist()),
                   map(repr, pred.tolist())))
    country = rng.integers(0, size["countries"], n)
    _write_csv(os.path.join(d, "site_countries.csv"), ["site_id", "country"],
               [[f"S{i:05d}", f"K{c:02d}"] for i, c in enumerate(country)])
    _write_cfg(os.path.join(d, "eval.cfg"), samples="samples.csv",
               sites="site_countries.csv", out_report="metrics.txt",
               out_rec="rec.csv")
    return {"curves": curves, "tips": n_tips, "events": n_events,
            "samples": (ids, ps, obs, pred), "country": country}


SETUPS = {"clim-build": setup_clim_build,
          "site-planning": setup_site_planning,
          "gauge-records": setup_gauge_records}


def setup(workload: str, d: str, seed: int, size: str = "full"):
    values = {}
    for part in PARTS[workload]:
        values.update(SETUPS[part](d, rng_for(seed, part), SIZES[size][part]))
    return values
