"""The benchmark's own numpy implementations of what it checks.

Nothing here imports ``rainstats``: the correctness checks compare the
program's output files against these independent computations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

KM_PER_DEG = 6371.0088 * math.pi / 180.0
HOURS_PER_YEAR = 8766.0
ND = -9999.0

STANDARD_LADDER = (0.001, 0.002, 0.003, 0.005, 0.01, 0.02, 0.03, 0.05,
                   0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0)


# ---------------------------------------------------------------------------
# exceedance model


def exceedance(rate, mt, p0, params):
    """P(R) = p0 exp(-x R (1 + bR) / (1 + cR)), b = mt/(y p0), c = z b."""
    x, y, z = params
    rate, mt, p0 = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                         for a in (rate, mt, p0)))
    raining = p0 > 0
    b = mt / (y * np.where(raining, p0, 1.0))
    c = z * b
    out = p0 * np.exp(-x * rate * (1.0 + b * rate) / (1.0 + c * rate))
    return np.where(raining, out, 0.0)


def rain_rate(p, mt, p0, params):
    """Closed-form inverse of :func:`exceedance`; 0 where p >= p0.

    With L = ln(p0/p) the rate solves x b R^2 + (x - L c) R - L = 0.  The
    root is taken in its cancellation-free form.
    """
    x, y, z = params
    p, mt, p0 = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                      for a in (p, mt, p0)))
    out = np.zeros(p.shape)
    act = p < p0
    L = np.log(p0[act] / p[act])
    b = mt[act] / (y * p0[act])
    A = x * b
    B = x - L * z * b
    disc = np.sqrt(B * B + 4.0 * A * L)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(B > 0, 2.0 * L / (B + disc), (disc - B) / (2.0 * A))
    out[act] = r
    return out


def objective(params, ps, rs, mts, p0s):
    """Mean squared relative error of the model curve over training points."""
    eps = (rain_rate(ps, mts, p0s, params) - rs) / rs
    return float(np.mean(eps * eps))


# ---------------------------------------------------------------------------
# grids: (values, geometry) with geometry = (ncols, nrows, xll, yll, cell, nd)


def format_grid(values, geom) -> str:
    ncols, nrows, xll, yll, cell, nd = geom
    head = (f"ncols {ncols}\nnrows {nrows}\nxllcorner {xll!r}\n"
            f"yllcorner {yll!r}\ncellsize {cell!r}\nNODATA_value {nd!r}\n")
    body = "\n".join(" ".join(map(repr, row)) for row in values.tolist())
    return head + body + "\n"


def parse_grid(text: str):
    lines = text.split("\n", 6)
    h = [ln.split()[1] for ln in lines[:6]]
    geom = (int(h[0]), int(h[1]), float(h[2]), float(h[3]), float(h[4]),
            float(h[5]))
    vals = np.array(lines[6].split(), dtype=np.float64)
    return vals.reshape(geom[1], geom[0]), geom


def centers(geom):
    ncols, nrows, xll, yll, cell, _ = geom
    lats = yll + (nrows - np.arange(nrows) - 0.5) * cell
    lons = xll + (np.arange(ncols) + 0.5) * cell
    return lats, lons


def bilinear(values, geom, lats, lons):
    """Bilinear sample at cell centers; NaN outside or next to nodata."""
    ncols, nrows, xll, yll, cell, nd = geom
    lat_max = yll + nrows * cell
    inside = ((lats >= yll) & (lats <= lat_max)
              & (lons >= xll) & (lons <= xll + ncols * cell))
    gx = (lons - xll) / cell - 0.5
    gy = (lat_max - lats) / cell - 0.5
    j0 = np.clip(np.floor(gx), 0, max(ncols - 2, 0)).astype(np.intp)
    i0 = np.clip(np.floor(gy), 0, max(nrows - 2, 0)).astype(np.intp)
    j1 = np.minimum(j0 + 1, ncols - 1)
    i1 = np.minimum(i0 + 1, nrows - 1)
    tx = np.clip(gx - j0, 0.0, 1.0)
    ty = np.clip(gy - i0, 0.0, 1.0)
    v00, v01 = values[i0, j0], values[i0, j1]
    v10, v11 = values[i1, j0], values[i1, j1]
    out = ((1.0 - ty) * ((1.0 - tx) * v00 + tx * v01)
           + ty * ((1.0 - tx) * v10 + tx * v11))
    bad = (v00 == nd) | (v01 == nd) | (v10 == nd) | (v11 == nd)
    return np.where(inside & ~bad, out, np.nan)


# ---------------------------------------------------------------------------
# build-clim pipeline, rebuilt on scipy.ndimage


def footprint_hits(obs, geom):
    """(observation index, flat pixel) pairs of every covered pixel center.

    The distance test repeats the program's documented geometry: local
    equirectangular distance with cos(lat) longitude scaling.
    """
    t, lat, lon, nsrr, rc, diam = obs
    ncols, nrows, xll, yll, cell, _ = geom
    lat_max = yll + nrows * cell
    r_max = float(diam.max()) / 2.0
    coslat_min = math.cos(math.radians(float(np.abs(lat).max())))
    ri = np.arange(-1 - int(r_max / KM_PER_DEG / cell),
                   2 + int(r_max / KM_PER_DEG / cell))
    rj = np.arange(-1 - int(r_max / (KM_PER_DEG * coslat_min) / cell),
                   2 + int(r_max / (KM_PER_DEG * coslat_min) / cell))
    ic = np.floor((lat_max - lat) / cell).astype(np.int64)
    jc = np.floor((lon - xll) / cell).astype(np.int64)
    rows = ic[:, None, None] + ri[None, :, None]
    cols = jc[:, None, None] + rj[None, None, :]
    coslat = np.array([math.cos(math.radians(v)) for v in lat.tolist()])
    lat_c = yll + (nrows - rows - 0.5) * cell
    lon_c = xll + (cols + 0.5) * cell
    dy = (lat_c - lat[:, None, None]) * KM_PER_DEG
    dx = (lon_c - lon[:, None, None]) * (KM_PER_DEG * coslat)[:, None, None]
    r = diam / 2.0
    inside = (dy * dy + dx * dx <= (r * r)[:, None, None])
    inside &= (rows >= 0) & (rows < nrows) & (cols >= 0) & (cols < ncols)
    k, a, b = np.nonzero(inside)
    return k, rows[k, a, 0] * ncols + cols[k, 0, b]


def render(obs, geom, window_s):
    """Per-pixel greedy deduplication windows, vectorized.

    Observation times must be exact binary fractions (the generator uses
    multiples of 1/8 s) so the shifted-key search below is exact.
    """
    t, lat, lon, nsrr, rc, diam = obs
    ncols, nrows = geom[0], geom[1]
    k, px = footprint_hits(obs, geom)
    order = np.lexsort((k, px))          # by pixel, then time order
    k, px = k[order], px[order]
    span = float(2 ** math.ceil(math.log2(t.max() - t.min() + 2 * window_s)))
    key = px * span + (t[k] - t.min())
    starts = []
    cur = np.flatnonzero(np.r_[True, px[1:] != px[:-1]])
    while cur.size:
        starts.append(cur)
        nxt = np.searchsorted(key, key[cur] + window_s, side="right")
        keep = nxt < key.size
        nxt = nxt[keep]
        cur = nxt[px[nxt] == px[cur[keep]]]
    starts = np.sort(np.concatenate(starts))
    val = np.where(rc[k], nsrr[k], 0.0)
    win_rc = np.maximum.reduceat(rc[k].astype(np.int8), starts) > 0
    win_max = np.maximum.reduceat(val, starts)
    wpx = px[starts]
    n = ncols * nrows
    n_total = np.bincount(wpx, minlength=n)
    n_rain = np.bincount(wpx[win_rc], minlength=n)
    sum_nsrr = np.bincount(wpx[win_rc], weights=win_max[win_rc], minlength=n)
    skipped = int(t.size - np.unique(k).size)
    shape = (nrows, ncols)
    return (n_total.reshape(shape), n_rain.reshape(shape),
            sum_nsrr.reshape(shape), skipped)


def resample_bilinear(values, geom, target):
    lats, lons = centers(target)
    LAT, LON = np.meshgrid(lats, lons, indexing="ij")
    out = bilinear(values, geom, LAT, LON)
    return np.where(np.isnan(out), target[5], out)


def window_iqr(values, nd, k):
    """Q3 - Q1 (linear interpolation) over each k x k window, edges cut.

    Row by row: the valid values of the band of rows are sorted once, and
    each window's order statistics are found by counting the sorted values
    whose column falls inside it.
    """
    r = k // 2
    nrows, ncols = values.shape
    out = np.full(values.shape, nd)
    cols = np.arange(ncols)
    j0, j1 = cols - r, cols + r
    for i in range(nrows):
        band = values[max(0, i - r):i + r + 1]
        bi, bj = np.nonzero(band != nd)
        v = band[bi, bj]
        order = np.argsort(v, kind="stable")
        s, c = v[order], bj[order]
        cum = np.cumsum((c >= j0[:, None]) & (c <= j1[:, None]), axis=1,
                        dtype=np.int32)
        n = cum[:, -1] if s.size else np.zeros(ncols, np.int32)
        ok = n >= 4
        if not ok.any():
            continue
        # rows of cum are nondecreasing; offsetting row w by w * (size + 1)
        # makes the flattened array sorted, so one search serves all rows
        cum, n = cum[ok], n[ok]
        base = np.arange(n.size) * (s.size + 1)
        flat = (cum + base[:, None]).ravel()
        row0 = np.arange(n.size) * s.size
        q = []
        for frac in (0.25, 0.75):
            pos = (n - 1) * frac
            lo = np.floor(pos).astype(np.int64)
            hi = np.minimum(lo + 1, n - 1)
            vlo, vhi = (s[np.searchsorted(flat, base + rank + 1) - row0]
                        for rank in (lo, hi))
            q.append(vlo + (vhi - vlo) * (pos - lo))
        out[i, ok] = q[1] - q[0]
    return out


def _norm_filter(values, nd, line):
    """Nodata-aware separable window mean: filter(v*valid) / filter(valid)."""
    valid = values != nd
    vm = np.where(valid, values, 0.0)
    k = line.size

    def sep(a):
        a = ndimage.correlate1d(a, line, axis=0, mode="constant")
        return ndimage.correlate1d(a, line, axis=1, mode="constant")

    num = sep(vm)
    den = sep(valid.astype(np.float64))
    count = ndimage.uniform_filter(valid.astype(np.float64), k,
                                   mode="constant") * (k * k)
    out = np.full(values.shape, nd)
    ok = count > 0.5
    out[ok] = num[ok] / den[ok]
    return out


def uniform(values, nd, k):
    return _norm_filter(values, nd, np.ones(k))


def gaussian(values, nd, k):
    offsets = np.arange(k, dtype=np.float64) - k // 2
    return _norm_filter(values, nd, np.exp(-0.5 * (offsets / (k / 6.0)) ** 2))


def build_clim(obs, geom, ref, ref_geom, elev, elev_geom, k_uniform, k_gauss,
               window_s):
    """The whole build-clim pipeline: (mt, p0, report counts, stage means)."""
    nd = geom[5]
    n_total, n_rain, sum_nsrr, skipped = render(obs, geom, window_s)
    seen = n_total > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        p0 = np.where(seen, 100.0 * n_rain / n_total, nd)
        cond = np.where(n_rain > 0, sum_nsrr / n_rain, 0.0)
    mt0 = np.where(seen, cond * HOURS_PER_YEAR * (p0 / 100.0), nd)

    elev_l = resample_bilinear(elev, elev_geom, geom)
    iqr = window_iqr(elev_l, nd, k_uniform)
    w = np.where(iqr != nd, np.clip(1.0 / (1.0 + np.log1p(
        np.where(iqr != nd, iqr, 0.0))), 0.0, 1.0), nd)
    smooth = uniform(resample_bilinear(ref, ref_geom, geom), nd, k_uniform)
    blend = seen & (smooth != nd) & (w != nd)
    mt_adj = np.where(blend, (1.0 - w) * mt0 + w * smooth, mt0)

    mt = gaussian(mt_adj, nd, k_gauss)
    p0f = gaussian(p0, nd, k_gauss)
    mt = np.where(mt != nd, np.maximum(mt, 0.0), nd)
    p0f = np.where(p0f != nd, np.clip(p0f, 0.0, 100.0), nd)

    def vmean(a):
        return float(np.mean(a[a != nd]))

    report = {"observations": int(obs[0].size), "skipped": skipped}
    means = {"stage.initial.mt_mean": vmean(mt0),
             "stage.initial.p0_mean": vmean(p0),
             "stage.merge.mt_mean": vmean(mt_adj),
             "stage.final.mt_mean": vmean(mt),
             "stage.final.p0_mean": vmean(p0f)}
    return mt, p0f, report, means, int(n_total.sum())
