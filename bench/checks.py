"""Correctness checks of each subcommand's output files.

Every check recomputes its expectation with the benchmark's own numpy code
(``oracle``) or from the values the inputs were generated from; none calls
into ``rainstats``.  A check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import csv
import os
from collections import defaultdict

import numpy as np

import oracle
from inputs import GEN_PARAMS
from oracle import ND

#: Output grids may differ from the oracle by this much relative error:
#: exact rewrites of the filters and the inversion stay far below it, a
#: wrong window or weighting lands far above it.
GRID_RTOL = 1e-7

#: Curve rungs below this rate are not compared in the gauge check: the
#: synthesizer floors drizzle at 1 mm/h, so the curve below it is absent.
GAUGE_MIN_RATE = 2.0


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * abs(b) + atol


def _kv(path):
    with open(path, encoding="utf-8") as f:
        return dict(ln.rstrip("\n").split("=", 1) for ln in f if "=" in ln)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


def _params(d):
    kv = _kv(os.path.join(d, "params.txt"))
    return float(kv["x"]), float(kv["y"]), float(kv["z"])


def _grid(path):
    with open(path, encoding="utf-8") as f:
        return oracle.parse_grid(f.read())


# ---------------------------------------------------------------------------


def check_build_clim(d, o):
    for name in ("mt", "p0"):
        vals, geom = _grid(os.path.join(d, f"{name}.grd"))
        _require(geom == o["geom"], f"{name}.grd geometry {geom}")
        want = o[name]
        _require(np.array_equal(vals == ND, want == ND),
                 f"{name}.grd nodata mask differs in "
                 f"{int(np.sum((vals == ND) != (want == ND)))} cells")
        ok = want != ND
        scale = float(np.abs(want[ok]).max()) if ok.any() else 1.0
        err = np.abs(vals[ok] - want[ok])
        bad = err > GRID_RTOL * np.abs(want[ok]) + 1e-9 * scale
        _require(not bad.any(), f"{name}.grd: {int(bad.sum())} cells off, "
                 f"max abs error {float(err.max()):.3g}")
    rep = _kv(os.path.join(d, "report.txt"))
    for key, want in o["report"].items():
        _require(int(rep[key]) == want, f"report {key}={rep[key]} != {want}")
    for key, want in o["means"].items():
        _require(_close(float(rep[key]), want, GRID_RTOL),
                 f"report {key}={rep[key]} != {want!r}")


def check_fit(d, o):
    params = _params(d)
    ps, rs, mts, p0s = o["train"]
    own = oracle.objective(params, ps, rs, mts, p0s)
    rep = _kv(os.path.join(d, "fit_report.txt"))
    _require(int(rep["n_points"]) == ps.size, f"n_points={rep['n_points']}")
    _require(_close(float(rep["objective"]), own, 1e-6),
             f"reported objective {rep['objective']} != recomputed {own!r}")
    _require(own <= o["ref_objective"] * (1 + 1e-6),
             f"fit objective {own!r} worse than the generating constants' "
             f"{o['ref_objective']!r}")
    res = _rows(os.path.join(d, "residuals.csv"))
    _require(len(res) == ps.size, f"{len(res)} residual rows")
    obs = np.array([float(r[2]) for r in res])
    pred = np.array([float(r[3]) for r in res])
    _require(np.array_equal(obs, rs), "residual rows do not follow the "
             "training points")
    back = oracle.exceedance(pred, mts, p0s, params)
    act = pred > 0
    _require(np.all(np.abs(back[act] - ps[act]) <= 1e-6 * ps[act])
             and np.all(ps[~act] >= p0s[~act]),
             "residual predictions do not invert the model")


def check_predict(d, o):
    geom = o["geom"]
    mt = oracle.bilinear(o["mt"], geom, o["lats"], o["lons"])
    p0 = oracle.bilinear(o["p0"], geom, o["lats"], o["lons"])
    ok = ~(np.isnan(mt) | np.isnan(p0))
    rows = _rows(os.path.join(d, "pred.csv"))
    n_rungs = len(oracle.STANDARD_LADDER)
    _require(len(rows) == n_rungs * int(ok.sum()),
             f"{len(rows)} rows for {int(ok.sum())} sampled locations")
    note = _kv(os.path.join(d, "pred.csv.manifest"))
    _require(int(note["note.skipped_locations"]) == int((~ok).sum()),
             f"skipped_locations={note['note.skipped_locations']}")
    want_ids = np.repeat(np.flatnonzero(ok), n_rungs)
    got_ids = np.array([int(r[0][1:]) for r in rows])
    _require(np.array_equal(got_ids, want_ids), "predicted site ids differ")
    p = np.array([float(r[5]) for r in rows])
    rate = np.array([float(r[6]) for r in rows])
    mtv = np.maximum(mt[want_ids], 0.0)
    p0v = np.clip(p0[want_ids], 0.0, 100.0)
    back = oracle.exceedance(rate, mtv, p0v, _params(d))
    act = rate > 0
    bad = np.abs(back[act] - p[act]) > 1e-6 * p[act]
    _require(not bad.any(), f"{int(bad.sum())} predicted rates do not "
             "return their rung under the forward model")
    _require(np.all(p[~act] >= p0v[~act]), "zero rate below p0")


def check_impact(d, o, p=0.01, threshold=95.0):
    mt, p0, pop, country = o["mt"], o["p0"], o["pop"], o["country"]
    valid = (mt != ND) & (p0 != ND)
    prob = oracle.exceedance(threshold, np.where(valid, mt, 0.0),
                            np.where(valid, p0, 0.0), _params(d))
    # heavy iff R(p) > threshold iff P(threshold) > p; a hair's width band
    # around p is left to either side
    sure = valid & (prob > p * (1 + 1e-7))
    unsure = valid & (np.abs(prob - p) <= p * 1e-7)
    popv = np.where(pop != ND, pop, 0.0)
    cv = country != ND
    codes = country[cv].astype(np.int64)
    n = int(codes.max()) + 1

    def tally(sel):
        return np.bincount(codes, weights=np.where(sel, popv, 0.0)[cv],
                           minlength=n), float(popv[sel & ~cv].sum())

    tot, tot_un = tally(np.ones_like(cv))
    lo, lo_un = tally(sure)
    amb, amb_un = tally(unsure)
    rows = {r[0]: (float(r[1]), float(r[2]))
            for r in _rows(os.path.join(d, "impact.csv"))}
    present = [str(c) for c in np.unique(codes)]
    _require(sorted(rows) == sorted(present + ["unassigned", "total"]),
             "impact.csv rows differ from the country codes")
    want = {c: (tot[int(c)], lo[int(c)], amb[int(c)]) for c in present}
    want["unassigned"] = (tot_un, lo_un, amb_un)
    want["total"] = (tot.sum() + tot_un, lo.sum() + lo_un, amb.sum() + amb_un)
    for key, (t, h_lo, h_amb) in want.items():
        got_t, got_h = rows[key]
        _require(_close(got_t, t, 1e-12), f"country {key} total {got_t}!={t}")
        _require(h_lo * (1 - 1e-12) <= got_h <= (h_lo + h_amb) * (1 + 1e-12),
                 f"country {key} heavy population {got_h} != {h_lo}")
    note = _kv(os.path.join(d, "impact.csv.manifest"))
    _require(int(note["note.nodata_rate_pixels"]) == int((~valid).sum()),
             f"nodata_rate_pixels={note['note.nodata_rate_pixels']}")

    zone = o["zone"]
    zv = zone != ND
    z = zone[zv].astype(np.int64)
    land = np.bincount(z)
    populated = np.bincount(z, weights=(popv[zv] > 0))
    zpop = np.bincount(z, weights=popv[zv])
    for r in _rows(os.path.join(d, "zonecov.csv")):
        c = int(r[0])
        want = (100.0 * land[c] / land.sum(),
                100.0 * populated[c] / populated.sum(),
                100.0 * zpop[c] / zpop.sum())
        for got, w in zip(map(float, r[1:]), want):
            _require(abs(got - w) <= 5.1e-5, f"zone {c} share {got} != {w}")


def check_gauge(d, o):
    rows = _rows(os.path.join(d, "stats.csv"))
    stats = defaultdict(dict)
    for r in rows:
        stats[r[0]][float(r[5])] = float(r[6])
    _require(sorted(stats) == sorted(o["curves"]),
             f"sites {sorted(stats)} != {sorted(o['curves'])}")
    for sid, (mt, p0) in o["curves"].items():
        for p in oracle.STANDARD_LADDER:
            gen = float(oracle.rain_rate(p, mt, p0, GEN_PARAMS))
            if p < 0.01 or gen < GAUGE_MIN_RATE:
                continue
            got = stats[sid].get(p)
            _require(got is not None and abs(got - gen) <= 0.05 * gen,
                     f"{sid} p={p}: {got} vs curve {gen:.4f}")


def check_eval(d, o, thresholds=tuple(range(10, 101, 10)), classify_p=0.01,
               threshold=95.0):
    ids, ps, obs, pred = o["samples"]
    rep = _kv(os.path.join(d, "metrics.txt"))
    _require(int(rep["count"]) == ids.size, f"count={rep['count']}")
    rel = 100.0 * ((pred - obs) / obs)

    def summary(prefix, v):
        mu = float(np.mean(v))
        sd = float(np.sqrt(np.mean((v - mu) ** 2)))
        for key, w in (("mean", mu), ("sd", sd),
                       ("rms", float(np.sqrt(mu * mu + sd * sd)))):
            got = float(rep[f"{prefix}.{key}"])
            _require(abs(got - w) <= 5.1e-5 + 1e-9 * abs(w),
                     f"{prefix}.{key}={got} != {w!r}")

    summary("rel_error_pct", rel)
    summary("bias_error_mm_h", pred - obs)
    for p in np.unique(ps):
        summary(f"p.{float(p)!r}.rel_error_pct", rel[ps == p])

    sel = ps == classify_p
    actual, guess = obs[sel] > threshold, pred[sel] > threshold

    def confusion(prefix, a, g):
        for name, n in (("tn", ~a & ~g), ("fp", ~a & g), ("fn", a & ~g),
                        ("tp", a & g)):
            got = int(rep[f"classify.{prefix}.{name}"])
            _require(got == int(n.sum()), f"classify.{prefix}.{name}={got}")

    confusion("by_site", actual, guess)
    country = o["country"][ids[sel]]
    n = int(country.max()) + 1
    present = np.bincount(country, minlength=n) > 0
    ca = np.bincount(country, weights=actual, minlength=n)[present] > 0
    cg = np.bincount(country, weights=guess, minlength=n)[present] > 0
    confusion("by_country", ca, cg)

    rec = _rows(os.path.join(d, "rec.csv"))
    _require(len(rec) == len(thresholds), f"{len(rec)} REC rows")
    for (t, frac), want_t in zip(rec, thresholds):
        w = float(np.mean(np.abs(rel) <= want_t))
        _require(float(t) == want_t and _close(float(frac), w, 1e-12),
                 f"REC {t}: {frac} != {w}")


CHECKS = {"build-clim": check_build_clim, "fit": check_fit,
          "predict": check_predict, "impact": check_impact,
          "gauge": check_gauge, "eval": check_eval}


def check(cmd, d, outputs, expected):
    """Raise :class:`CheckFailed` unless ``cmd`` left correct outputs.

    ``expected`` is what the workload's set-up returned.
    """
    missing = [f for f in outputs if not os.path.isfile(os.path.join(d, f))]
    _require(not missing, f"missing outputs {missing}")
    try:
        CHECKS[cmd](d, expected)
    except (OSError, KeyError, ValueError, IndexError) as e:
        raise CheckFailed(f"unreadable output: {type(e).__name__}: {e}") \
            from None
