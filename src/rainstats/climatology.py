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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DATA_ERRORS, DataError, SolverError
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


def _footprint_hits(lat, lon, diam, coslat, g: GridGeometry):
    """``(observation index, flat pixel)`` of every pixel center within a
    footprint, in observation order and row-major within one observation.

    Distance is local equirectangular with cos(lat) longitude scaling,
    adequate for footprints of a few km at sub-tropical latitudes.  The
    candidates are the cells of each footprint's bounding box.
    """
    r_km = diam / 2.0
    r2 = r_km * r_km
    dlat = r_km / KM_PER_DEG
    dlon = r_km / (KM_PER_DEG * coslat)
    # bounding box rows (from north) and columns, clipped to the grid; an
    # empty range marks a footprint that misses it.  A bound too far off the
    # grid to count in cells overflows to +-inf, which the clip takes in.
    with np.errstate(over="ignore"):
        i0 = np.clip(np.floor((g.lat_max - (lat + dlat)) / g.cell - 0.5),
                     0, g.nrows).astype(np.int64)
        i1 = np.clip(np.ceil((g.lat_max - (lat - dlat)) / g.cell - 0.5),
                     -1, g.nrows - 1).astype(np.int64)
        j0 = np.clip(np.floor(((lon - dlon) - g.xll) / g.cell - 0.5),
                     0, g.ncols).astype(np.int64)
        j1 = np.clip(np.ceil(((lon + dlon) - g.xll) / g.cell - 0.5),
                     -1, g.ncols - 1).astype(np.int64)
    height = int(np.max(i1 - i0 + 1, initial=0))
    width = int(np.max(j1 - j0 + 1, initial=0))

    obs_idx, pixels = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    block = max(1, _HIT_BLOCK // max(1, height * width))
    for s in range(0, lat.size, block):
        sel = slice(s, s + block)
        rows = i0[sel, None] + np.arange(height)
        cols = j0[sel, None] + np.arange(width)
        lat_c = g.yll + (g.nrows - rows - 0.5) * g.cell
        lon_c = g.xll + (cols + 0.5) * g.cell
        dy = (lat_c - lat[sel, None]) * KM_PER_DEG
        dx = (lon_c - lon[sel, None]) * (KM_PER_DEG * coslat[sel, None])
        # cells past a footprint's own box are infinitely far
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
    :func:`read_observations_csv` returns.  Per pixel, observations falling
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
    if dedup_window_s <= 0:
        raise ValueError("dedup window must be positive")
    t, lat, lon = observations.time, observations.lat, observations.lon
    late = np.flatnonzero(t[1:] < t[:-1])
    if late.size:
        i = late[0]
        raise DataError("observation stream is not sorted by time "
                        f"(saw {t[i + 1]} after {t[i]})")
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

    Per observed pixel: p0 = 100 * n_rain / n_total (percent), conditional
    rate = sum_nsrr / n_rain (mm/h, 0 when never raining), and
    mt = cond_rate * 8766 * p0 / 100 (mm/yr).  Unobserved pixels are nodata.

    Returns ``(mt, p0, cond_rate)`` grids.
    """
    g = acc.geometry
    seen = acc.n_total > 0
    # np.where discards whatever the unobserved cells compute
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p0 = np.where(seen, 100.0 * acc.n_rain / acc.n_total, g.nodata)
        cond = np.where(acc.n_rain > 0, acc.sum_nsrr / acc.n_rain, 0.0)
        cond = np.where(seen, cond, g.nodata)
        mt = np.where(seen, cond * HOURS_PER_YEAR * (p0 / 100.0), g.nodata)
    return Grid(g, mt), Grid(g, p0), Grid(g, cond)


def elevation_weight(elev: Grid, k: int = DEFAULT_K_UNIFORM) -> Grid:
    """Reference-adjustment weight from terrain variability.

    w = 1 / (1 + ln(1 + IQR)) where IQR is the windowed interquartile range
    of elevation, clamped to [0, 1]; flat terrain gets full weight and the
    weight decays as terrain gets rougher.  Nodata propagates.
    """
    iqr = window_iqr(elev, k)
    valid = iqr.valid_mask()
    w = np.full_like(iqr.values, iqr.geometry.nodata)
    w[valid] = np.clip(1.0 / (1.0 + np.log1p(iqr.values[valid])), 0.0, 1.0)
    return Grid(iqr.geometry, w)


def merge_reference(m_sat: Grid, m_ref: Grid, w: Grid,
                    k: int = DEFAULT_K_UNIFORM) -> Grid:
    """Blend the satellite rainfall grid toward a smoothed reference.

    Output is ``(1 - w) * m_sat + w * uniform_filter(m_ref, k)`` per pixel.
    Where the smoothed reference (or the weight) is nodata the satellite
    value passes through unchanged; where the satellite value is nodata the
    output is nodata.
    """
    require_aligned(m_sat, m_ref, w)
    wvals = w.values[w.valid_mask()]
    if wvals.size and (np.any(wvals < 0) or np.any(wvals > 1)):
        raise ValueError("weights must lie in [0, 1]")
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
    """Final Gaussian smoothing pass; clamps p0 to [0, 100] and mt to >= 0."""
    sm = gaussian_filter(mt, k, sigma)
    sp = gaussian_filter(p0, k, sigma)
    mv = sm.valid_mask()
    sm.values[mv] = np.maximum(sm.values[mv], 0.0)
    pv = sp.valid_mask()
    sp.values[pv] = np.clip(sp.values[pv], 0.0, 100.0)
    return sm, sp


# ---------------------------------------------------------------------------
# observation CSV

_OBSERVATIONS = Table(
    ["time_s", "lat", "lon", "nsrr_mm_h", "rain_certain", "diameter_km"],
    [(name, np.float64) for name in (
        "time", "lat", "lon", "nsrr", "rain_certain", "footprint_diameter")],
    [Check(("rain_certain",), lambda text: (text == "0") | (text == "1"),
           "rain_certain must be 0 or 1, got {rain_certain!r}"),
     Check(("time", "lon"),
           lambda time, lon: (abs(time) < math.inf) & (abs(lon) < math.inf),
           "time and lon must be finite, got {time}, {lon}"),
     Check(("nsrr",), lambda nsrr: (nsrr >= 0) & (nsrr < math.inf),
           "nsrr must be finite and >= 0, got {nsrr}"),
     Check(("footprint_diameter",), lambda d: (d >= 3.0) & (d <= 6.0),
           "footprint diameter must be within [3, 6] km, "
           "got {footprint_diameter}"),
     Check(("lat",), lambda lat: (lat > -90.0) & (lat < 90.0),
           "latitude {lat} out of range")],
    # read as text, so that only 0 and 1 are accepted
    parse={"rain_certain": float})
_OBS_COLUMNS, _OBS_DTYPE = _OBSERVATIONS.columns, _OBSERVATIONS.dtype
_observation = _OBSERVATIONS.row


def read_observations_csv(path) -> np.recarray:
    """Radar footprints as a record array, in file order, with float fields
    ``time`` (epoch s), ``lat`` and ``lon`` of the center (degrees),
    ``nsrr`` (near-surface rain rate, mm/h), ``rain_certain`` (0 or 1) and
    ``footprint_diameter`` (km)."""
    return read_table(path, _OBSERVATIONS)


# ---------------------------------------------------------------------------
# full pipeline


@dataclass(frozen=True)
class ClimatologyResult:
    mt: Grid
    p0: Grid
    report: str


@contextmanager
def _stage(name: str):
    """Put ``stage <name>:`` in front of the message of an error raised in
    the block, as a :class:`SolverError` or a :class:`DataError`."""
    try:
        yield
    except SolverError as e:
        raise SolverError(f"stage {name}: {e}") from e
    except DATA_ERRORS as e:
        raise DataError(f"stage {name}: {e}") from e


def _valid_mean(grid: Grid) -> float:
    m = grid.valid_mask()
    return float(np.mean(grid.values[m])) if m.any() else float("nan")


def build_climatology(config: Mapping) -> ClimatologyResult:
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

    with _stage("read"):
        observations = read_observations_csv(config["observations"])
        reference = read_grid(config["reference_mt"])
        elevation = read_grid(config["elevation"])
    with _stage("render"):
        acc, render_report = render_observations(observations, geometry,
                                                config["dedup_window_s"])
    with _stage("initial"):
        mt0, p00, _cond = initial_estimates(acc)
    with _stage("elevation"):
        elev_local = resample(elevation, geometry)
        weight = elevation_weight(elev_local, k_uniform)
    with _stage("merge"):
        ref_local = resample(reference, geometry)
        mt_adj = merge_reference(mt0, ref_local, weight, k_uniform)
    with _stage("finalize"):
        mt_final, p0_final = finalize(mt_adj, p00, k_gauss,
                                       config["sigma_gauss"])

    lines = [
        f"observations={render_report.n_observations}",
        f"skipped={render_report.n_skipped}",
        f"stage.initial.mt_mean={_valid_mean(mt0)!r}",
        f"stage.initial.p0_mean={_valid_mean(p00)!r}",
        f"stage.merge.mt_mean={_valid_mean(mt_adj)!r}",
        f"stage.final.mt_mean={_valid_mean(mt_final)!r}",
        f"stage.final.p0_mean={_valid_mean(p0_final)!r}",
    ]
    report = "\n".join(lines) + "\n"

    with _stage("write"):
        write_grid(mt_final, config["out_mt"])
        write_grid(p0_final, config["out_p0"])
        write_text(config["out_report"], report)
    return ClimatologyResult(mt_final, p0_final, report)
