"""Build gridded rainfall climatologies from radar-footprint observations.

The pipeline renders circular footprint observations onto a fine grid with
per-pixel deduplication windows, turns the accumulated counts into initial
mean-annual-rainfall and probability-of-rain estimates, blends the rainfall
grid toward a smoothed reference inversely weighted by terrain variability,
and applies a final Gaussian smoothing pass.

Observations travel as one record array from :func:`read_observations_csv`
to :func:`render_observations`, which takes no other form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DATA_ERRORS, blamed
from .rainmodel import RATE_CAP_MM_H
from .raster import (Grid, GridGeometry, gaussian_filter, read_grid,
                     require_aligned, resample, uniform_filter, window_iqr,
                     write_grid)
from .tables import Check, Table, read_table, write_text

EARTH_RADIUS_KM = 6371.0088
KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0
HOURS_PER_YEAR = 8766.0  # 365.25 days

DEFAULT_DEDUP_WINDOW_S = 60.0
DEFAULT_K_UNIFORM = 121
DEFAULT_K_GAUSS = 21


@dataclass
class AccumulatorGrid:
    """Per-pixel observation tallies: window count, rain-window count and
    summed per-window maximum rain rates."""

    geometry: GridGeometry
    n_total: np.ndarray
    n_rain: np.ndarray
    sum_nsrr: np.ndarray


@dataclass(frozen=True)
class RenderReport:
    n_observations: int
    n_skipped: int


#: Bounding-box cells examined per block of footprints; bounds memory.
_HIT_BLOCK = 1 << 20


@np.errstate(over="ignore")
def _footprint_hits(lat, lon, diam, coslat, g: GridGeometry):
    """``(observation index, flat pixel)`` of every pixel center within a
    footprint, in observation order and row-major within one observation.

    Distance is local equirectangular with cos(lat) longitude scaling,
    adequate for footprints of a few km at sub-tropical latitudes.  The
    candidates are the cells of each footprint's bounding box, as ``g``
    places them (:meth:`GridGeometry.cell_at` and ``center``).
    """
    r_km = diam / 2.0
    r2 = r_km * r_km
    dlat = r_km / KM_PER_DEG
    dlon = r_km / (KM_PER_DEG * coslat)
    # bounding box rows (from north) and columns, clipped to the grid; an
    # empty range marks a footprint that misses it.  A bound too far off the
    # grid to count in cells overflows to +-inf, which the clip takes in.
    north, west = g.cell_at(lat + dlat, lon - dlon)
    south, east = g.cell_at(lat - dlat, lon + dlon)
    i0 = np.clip(np.floor(north), 0, g.nrows).astype(np.int64)
    i1 = np.clip(np.ceil(south), -1, g.nrows - 1).astype(np.int64)
    j0 = np.clip(np.floor(west), 0, g.ncols).astype(np.int64)
    j1 = np.clip(np.ceil(east), -1, g.ncols - 1).astype(np.int64)
    height = int(np.max(i1 - i0 + 1, initial=0))
    width = int(np.max(j1 - j0 + 1, initial=0))

    obs_idx, pixels = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    block = max(1, _HIT_BLOCK // max(1, height * width))
    for s in range(0, lat.size, block):
        sel = slice(s, s + block)
        rows = i0[sel, None] + np.arange(height)
        cols = j0[sel, None] + np.arange(width)
        lat_c, lon_c = g.center(rows, cols)
        dy = (lat_c - lat[sel, None]) * KM_PER_DEG
        dx = (lon_c - lon[sel, None]) * (KM_PER_DEG * coslat[sel, None])
        # cells past a footprint's own box are infinitely far, which takes
        # in the dx that overflows for a footprint far off the grid
        dy2 = np.where(rows <= i1[sel, None], dy * dy, np.inf)
        dx2 = np.where(cols <= j1[sel, None], dx * dx, np.inf)
        o, a, b = np.nonzero(dy2[:, :, None] + dx2[:, None, :]
                             <= r2[sel, None, None])
        obs_idx.append(o + s)
        pixels.append(rows[o, a] * g.ncols + cols[o, b])
    return np.concatenate(obs_idx), np.concatenate(pixels)


def _window_starts(px: np.ndarray, t: np.ndarray, window_s: float):
    """Positions where a deduplication window opens, ascending.

    ``px`` holds each hit's pixel, sorted, with every pixel's hits in time
    order; ``t`` holds the hit times.  A window opens at a pixel's first hit
    and at the first later hit for which ``t - t_start <= window_s`` fails.
    """
    run_start = np.flatnonzero(np.diff(px, prepend=-1))
    run_end = np.searchsorted(px, px, side="right")
    # nxt[i] is the hit that opens the next window if one opens at hit i.
    # It is i + 1 when that hit is in another pixel or already outside the
    # window; the other hits take a binary search on the window test
    # itself, evaluated exactly.
    nxt = np.arange(1, px.size + 1)
    (i,) = np.nonzero((px[1:] == px[:-1]) & (np.diff(t) <= window_s))
    lo, hi = i + 2, run_end[i]
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        inside = (lo < hi) & (t[np.minimum(mid, px.size - 1)] - t[i]
                              <= window_s)
        lo, hi = np.where(inside, mid + 1, lo), np.where(inside, hi, mid)
    nxt[i] = lo
    starts = [run_start]
    while starts[-1].size:
        opened = nxt[starts[-1]]
        starts.append(opened[opened < run_end[starts[-1]]])
    return np.sort(np.concatenate(starts))


def render_observations(observations, geometry: GridGeometry,
                        dedup_window_s: float = DEFAULT_DEDUP_WINDOW_S,
                        threads: int = 1):
    """Accumulate a time-sorted observation stream onto the grid.

    ``observations`` is a record array with the fields that
    :func:`read_observations_csv` returns, in time order: that reader
    refuses a stream that is not.  ``dedup_window_s`` is positive, as
    build-clim's config rule on it requires.  Per pixel, observations falling
    within one deduplication window collapse into a single logical
    observation that keeps the OR of the rain-certain flags and the maximum
    rain rate among rain-certain contributors.  A pixel's window closes once
    the time since its start exceeds ``dedup_window_s``.

    Every footprint's covered pixels are found in one vectorized pass; the
    hits are sorted by pixel and time, split into windows, and reduced per
    window, each pixel's windows in time order.  ``threads`` is accepted for
    interface compatibility and has no effect: results are identical for
    any value.

    Returns ``(AccumulatorGrid, RenderReport)``.  Observations covering no
    grid pixel are skipped and counted.
    """
    t, lat, lon = observations.time, observations.lat, observations.lon
    # math.cos, not np.cos: the two may differ in the last bit, which can
    # move a pixel center across a footprint edge
    coslat = np.array([math.cos(math.radians(v)) for v in lat.tolist()])

    obs_idx, px = _footprint_hits(lat, lon, observations.footprint_diameter,
                                  coslat, geometry)
    skipped = int(np.sum(np.bincount(obs_idx, minlength=t.size) == 0))
    order = np.argsort(px, kind="stable")  # by pixel, then time order
    px, obs_idx = px[order], obs_idx[order]

    starts = _window_starts(px, t[obs_idx], dedup_window_s)
    rc = observations.rain_certain[obs_idx] != 0.0
    win_rc = np.logical_or.reduceat(rc, starts)
    win_max = np.maximum.reduceat(
        np.where(rc, observations.nsrr[obs_idx], 0.0), starts)
    win_px = px[starts]
    rain_px = win_px[win_rc]
    size = geometry.nrows * geometry.ncols
    shape = (geometry.nrows, geometry.ncols)
    acc = AccumulatorGrid(
        geometry, np.bincount(win_px, minlength=size).reshape(shape),
        np.bincount(rain_px, minlength=size).reshape(shape),
        # bincount returns integers when the weights are empty
        np.bincount(rain_px, weights=win_max[win_rc], minlength=size)
        .astype(np.float64, copy=False).reshape(shape))
    return acc, RenderReport(t.size, skipped)


def initial_estimates(acc: AccumulatorGrid):
    """First-pass grids from the accumulator.

    Per observed pixel: p0 = 100 * n_rain / n_total (percent) and
    mt = cond_rate * 8766 * p0 / 100 (mm/yr), where the conditional rate is
    sum_nsrr / n_rain (mm/h, 0 when never raining).  Unobserved pixels are
    nodata.

    Returns ``(mt, p0)`` grids.
    """
    g = acc.geometry
    seen = acc.n_total > 0
    # np.where discards whatever the unobserved cells compute
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p0 = np.where(seen, 100.0 * acc.n_rain / acc.n_total, g.nodata)
        cond = np.where(acc.n_rain > 0, acc.sum_nsrr / acc.n_rain, 0.0)
        mt = np.where(seen, cond * HOURS_PER_YEAR * (p0 / 100.0), g.nodata)
    return Grid(g, mt), Grid(g, p0)


def elevation_weight(elev: Grid, k: int = DEFAULT_K_UNIFORM) -> Grid:
    """Reference-adjustment weight from terrain variability.

    w = 1 / (1 + ln(1 + IQR)) where IQR is the windowed interquartile range
    of elevation, which :func:`window_iqr` never gives below 0, so w lies in
    (0, 1]; flat terrain gets full weight and the weight decays as terrain
    gets rougher.  Nodata propagates.
    """
    iqr = window_iqr(elev, k)
    valid = iqr.valid_mask()
    w = np.full_like(iqr.values, iqr.geometry.nodata)
    w[valid] = 1.0 / (1.0 + np.log1p(iqr.values[valid]))
    return Grid(iqr.geometry, w)


def merge_reference(m_sat: Grid, m_ref: Grid, w: Grid,
                    k: int = DEFAULT_K_UNIFORM) -> Grid:
    """Blend the satellite rainfall grid toward a smoothed reference.

    Output is ``(1 - w) * m_sat + w * uniform_filter(m_ref, k)`` per pixel.
    The weights lie in [0, 1], as :func:`elevation_weight`, their only
    producer, gives them.
    Where the smoothed reference (or the weight) is nodata the satellite
    value passes through unchanged; where the satellite value is nodata the
    output is nodata.
    """
    require_aligned(m_sat, m_ref, w)
    smooth = uniform_filter(m_ref, k)
    sat_ok = m_sat.valid_mask()
    blend_ok = sat_ok & smooth.valid_mask() & w.valid_mask()
    out = np.full_like(m_sat.values, m_sat.geometry.nodata)
    out[sat_ok] = m_sat.values[sat_ok]
    out[blend_ok] = ((1.0 - w.values[blend_ok]) * m_sat.values[blend_ok]
                     + w.values[blend_ok] * smooth.values[blend_ok])
    return Grid(m_sat.geometry, out)


def finalize(mt: Grid, p0: Grid, k: int = DEFAULT_K_GAUSS,
             sigma: float | None = None):
    """Final Gaussian smoothing pass; clamps mt to >= 0.  The filter keeps
    p0 in [0, 100], as :func:`initial_estimates` gives it."""
    sm = gaussian_filter(mt, k, sigma)
    mv = sm.valid_mask()
    sm.values[mv] = np.maximum(sm.values[mv], 0.0)
    return sm, gaussian_filter(p0, k, sigma)


# ---------------------------------------------------------------------------
# observation CSV

_OBS_FIELDS = ["time", "lat", "lon", "nsrr", "rain_certain",
               "footprint_diameter"]
_OBSERVATIONS = Table(
    ["time_s", "lat", "lon", "nsrr_mm_h", "rain_certain", "diameter_km"],
    # rain_certain is checked as text, so that only 0 and 1 are accepted
    [Check(("rain_certain",), lambda text: (text == "0") | (text == "1"),
           "rain_certain must be 0 or 1, got {rain_certain!r}"),
     *((name, float) for name in _OBS_FIELDS),
     Check(("time", "lon"),
           lambda time, lon: (abs(time) < math.inf) & (abs(lon) < math.inf),
           "time and lon must be finite, got {time}, {lon}"),
     Check(("time",), lambda time: np.diff(time, prepend=-math.inf) >= 0,
           "time {time} is earlier than the row before it"),
     Check(("nsrr",), lambda nsrr: (nsrr >= 0) & (nsrr < math.inf),
           "nsrr must be finite and >= 0, got {nsrr}"),
     # below the model's rate cap, a pixel's sum of rates cannot overflow
     Check(("nsrr",), lambda nsrr: nsrr < RATE_CAP_MM_H,
           f"nsrr must be below {RATE_CAP_MM_H} mm/h, got {{nsrr}}"),
     Check(("footprint_diameter",), lambda d: (d >= 3.0) & (d <= 6.0),
           "footprint diameter must be within [3, 6] km, "
           "got {footprint_diameter}"),
     Check(("lat",), lambda lat: (lat > -90.0) & (lat < 90.0),
           "latitude {lat} out of range")],
    names=_OBS_FIELDS)


def read_observations_csv(path) -> np.recarray:
    """Radar footprints as a record array, in file order, which must not go
    back in time, with float fields ``time`` (epoch s), ``lat`` and ``lon``
    of the center (degrees), ``nsrr`` (near-surface rain rate, mm/h),
    ``rain_certain`` (0 or 1) and ``footprint_diameter`` (km)."""
    return read_table(path, _OBSERVATIONS)


# ---------------------------------------------------------------------------
# full pipeline


def _mean_line(name: str, grid: Grid) -> str:
    """The report line of the mean of ``grid``'s valid cells, NaN when it
    has none; a mean that overflows raises ``ValueError``."""
    m = grid.valid_mask()
    with np.errstate(over="ignore"):
        mean = float(np.mean(grid.values[m])) if m.any() else float("nan")
    key = f"stage.{name}_mean"
    if math.isinf(mean):
        raise ValueError(f"the report's {key} overflows")
    return f"{key}={mean!r}"


def build_climatology(config: Mapping) -> None:
    """Run the full pipeline and write its outputs.

    ``config`` is the typed build-clim config, every key present: the
    ``observations`` CSV path, the output geometry (``ncols``, ``nrows``,
    ``xll``, ``yll``, ``cell``, ``nodata``), ``reference_mt`` and
    ``elevation`` grid paths, window sizes (``k_uniform``, ``k_gauss``,
    ``sigma_gauss`` or None), ``dedup_window_s``, and output paths
    ``out_mt``, ``out_p0``, ``out_report``.  Any stage failure aborts with
    the stage name in the error message.  Outputs are written only after
    every stage succeeded.
    """
    geometry = GridGeometry(*(config[key] for key in (
        "ncols", "nrows", "xll", "yll", "cell", "nodata")))
    k_uniform, k_gauss = config["k_uniform"], config["k_gauss"]

    with blamed("stage read", DATA_ERRORS):
        observations = read_observations_csv(config["observations"])
        reference = read_grid(config["reference_mt"])
        elevation = read_grid(config["elevation"])
    with blamed("stage render", DATA_ERRORS):
        acc, render_report = render_observations(observations, geometry,
                                                config["dedup_window_s"])
    lines = [f"observations={render_report.n_observations}",
             f"skipped={render_report.n_skipped}"]
    with blamed("stage initial", DATA_ERRORS):
        mt0, p00 = initial_estimates(acc)
        lines += [_mean_line("initial.mt", mt0), _mean_line("initial.p0", p00)]
    # a window statistic that overflows is the fault of its grid file
    with (blamed("stage elevation", DATA_ERRORS),
          blamed(config["elevation"], OverflowError)):
        elev_local = resample(elevation, geometry)
        weight = elevation_weight(elev_local, k_uniform)
    with (blamed("stage merge", DATA_ERRORS),
          blamed(config["reference_mt"], OverflowError)):
        ref_local = resample(reference, geometry)
        mt_adj = merge_reference(mt0, ref_local, weight, k_uniform)
        lines.append(_mean_line("merge.mt", mt_adj))
    with blamed("stage finalize", DATA_ERRORS):
        mt_final, p0_final = finalize(mt_adj, p00, k_gauss,
                                       config["sigma_gauss"])
        lines += [_mean_line("final.mt", mt_final),
                  _mean_line("final.p0", p0_final)]
    report = "\n".join(lines) + "\n"

    with blamed("stage write", DATA_ERRORS):
        write_grid(mt_final, config["out_mt"])
        write_grid(p0_final, config["out_p0"])
        write_text(config["out_report"], report)
