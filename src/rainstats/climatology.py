"""Build gridded rainfall climatologies from radar-footprint observations.

The pipeline renders circular footprint observations onto a fine grid with
per-pixel deduplication windows, turns the accumulated counts into initial
mean-annual-rainfall and probability-of-rain estimates, blends the rainfall
grid toward a smoothed reference inversely weighted by terrain variability,
and applies a final Gaussian smoothing pass.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DataError, SolverError
from .raster import (Grid, GridGeometry, gaussian_filter, read_grid,
                     require_aligned, resample, uniform_filter, window_iqr,
                     write_grid)

EARTH_RADIUS_KM = 6371.0088
KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0
HOURS_PER_YEAR = 8766.0  # 365.25 days

DEFAULT_DEDUP_WINDOW_S = 60.0
DEFAULT_K_UNIFORM = 121
DEFAULT_K_GAUSS = 21


@dataclass(frozen=True)
class SwathObservation:
    """One radar footprint: center location, near-surface rain rate and the
    rain-certain flag."""

    time: float
    lat: float
    lon: float
    nsrr: float
    rain_certain: bool
    footprint_diameter: float

    def __post_init__(self):
        if self.nsrr < 0:
            raise ValueError(f"nsrr must be >= 0, got {self.nsrr}")
        if not (3.0 <= self.footprint_diameter <= 6.0):
            raise ValueError("footprint diameter must be within [3, 6] km, "
                             f"got {self.footprint_diameter}")
        if not (-90.0 < self.lat < 90.0):
            raise ValueError(f"latitude {self.lat} out of range")


@dataclass
class AccumulatorGrid:
    """Per-pixel observation tallies: window count, rain-window count and
    summed per-window maximum rain rates."""

    geometry: GridGeometry
    n_total: np.ndarray
    n_rain: np.ndarray
    sum_nsrr: np.ndarray

    @classmethod
    def zeros(cls, geometry: GridGeometry) -> "AccumulatorGrid":
        shape = (geometry.nrows, geometry.ncols)
        return cls(geometry, np.zeros(shape, dtype=np.int64),
                   np.zeros(shape, dtype=np.int64),
                   np.zeros(shape, dtype=np.float64))


@dataclass(frozen=True)
class RenderReport:
    n_observations: int
    n_skipped: int


def _cover_indices(obs: SwathObservation, g: GridGeometry) -> np.ndarray:
    """Flat indices of pixels whose center lies within the footprint.

    Distance is local equirectangular with cos(lat) longitude scaling,
    adequate for footprints of a few km at sub-tropical latitudes.
    """
    r_km = obs.footprint_diameter / 2.0
    r2 = r_km * r_km
    coslat = math.cos(math.radians(obs.lat))
    dlat = r_km / KM_PER_DEG
    dlon = r_km / (KM_PER_DEG * coslat)

    # candidate rows (from north) and columns from the bounding box
    lat_max = g.lat_max
    i0 = int(math.floor((lat_max - (obs.lat + dlat)) / g.cell - 0.5))
    i1 = int(math.ceil((lat_max - (obs.lat - dlat)) / g.cell - 0.5))
    j0 = int(math.floor(((obs.lon - dlon) - g.xll) / g.cell - 0.5))
    j1 = int(math.ceil(((obs.lon + dlon) - g.xll) / g.cell - 0.5))
    i0, i1 = max(i0, 0), min(i1, g.nrows - 1)
    j0, j1 = max(j0, 0), min(j1, g.ncols - 1)
    if i0 > i1 or j0 > j1:
        return np.empty(0, dtype=np.int64)

    rows = np.arange(i0, i1 + 1)
    cols = np.arange(j0, j1 + 1)
    lat_c = g.yll + (g.nrows - rows - 0.5) * g.cell
    lon_c = g.xll + (cols + 0.5) * g.cell
    dy = (lat_c - obs.lat) * KM_PER_DEG
    dx = (lon_c - obs.lon) * (KM_PER_DEG * coslat)
    inside = (dy * dy)[:, None] + (dx * dx)[None, :] <= r2
    ii, jj = np.nonzero(inside)
    return ((rows[ii] * g.ncols) + cols[jj]).astype(np.int64)


def render_observations(observations, geometry: GridGeometry,
                        dedup_window_s: float = DEFAULT_DEDUP_WINDOW_S,
                        threads: int = 1):
    """Accumulate a time-sorted observation stream onto the grid.

    Per pixel, observations falling within one deduplication window collapse
    into a single logical observation that keeps the OR of the rain-certain
    flags and the maximum rain rate among rain-certain contributors.  A
    pixel's window closes once the time since its start exceeds
    ``dedup_window_s``.

    The footprint geometry is computed per observation (optionally in
    parallel); the window bookkeeping is a single sequential scan in time
    order, so results are identical for any ``threads``.

    Returns ``(AccumulatorGrid, RenderReport)``.  Observations covering no
    grid pixel are skipped and counted.
    """
    if dedup_window_s <= 0:
        raise ValueError("dedup window must be positive")
    obs_list = list(observations)
    prev = -math.inf
    for o in obs_list:
        if o.time < prev:
            raise DataError("observation stream is not sorted by time "
                            f"(saw {o.time} after {prev})")
        prev = o.time

    if threads > 1 and len(obs_list) > 1:
        nchunks = min(threads * 4, len(obs_list))
        bounds = np.linspace(0, len(obs_list), nchunks + 1).astype(int)
        chunks = [obs_list[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

        def cover_chunk(chunk):
            return [_cover_indices(o, geometry) for o in chunk]

        with ThreadPoolExecutor(max_workers=threads) as pool:
            covers = [c for part in pool.map(cover_chunk, chunks)
                      for c in part]
    else:
        covers = [_cover_indices(o, geometry) for o in obs_list]

    acc = AccumulatorGrid.zeros(geometry)
    n_total = acc.n_total.ravel()
    n_rain = acc.n_rain.ravel()
    sum_nsrr = acc.sum_nsrr.ravel()
    open_windows: dict = {}
    skipped = 0

    def commit(px, win):
        n_total[px] += 1
        if win[1]:
            n_rain[px] += 1
            sum_nsrr[px] += win[2]

    for obs, idxs in zip(obs_list, covers):
        if idxs.size == 0:
            skipped += 1
            continue
        rc = bool(obs.rain_certain)
        value = obs.nsrr if rc else 0.0
        t = obs.time
        for px in idxs.tolist():
            win = open_windows.get(px)
            if win is not None and t - win[0] <= dedup_window_s:
                if rc:
                    win[1] = True
                    if value > win[2]:
                        win[2] = value
            else:
                if win is not None:
                    commit(px, win)
                open_windows[px] = [t, rc, value]
    for px, win in open_windows.items():
        commit(px, win)

    return acc, RenderReport(len(obs_list), skipped)


def initial_estimates(acc: AccumulatorGrid):
    """First-pass grids from the accumulator.

    Per observed pixel: p0 = 100 * n_rain / n_total (percent), conditional
    rate = sum_nsrr / n_rain (mm/h, 0 when never raining), and
    mt = cond_rate * 8766 * p0 / 100 (mm/yr).  Unobserved pixels are nodata.

    Returns ``(mt, p0, cond_rate)`` grids.
    """
    g = acc.geometry
    seen = acc.n_total > 0
    with np.errstate(invalid="ignore", divide="ignore"):
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

_OBS_COLUMNS = ["time_s", "lat", "lon", "nsrr_mm_h", "rain_certain",
                "diameter_km"]


def write_observations_csv(observations, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(_OBS_COLUMNS)
        for o in observations:
            w.writerow([repr(o.time), repr(o.lat), repr(o.lon), repr(o.nsrr),
                        int(o.rain_certain), repr(o.footprint_diameter)])


def read_observations_csv(path):
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _OBS_COLUMNS:
            raise DataError(f"{path}: expected header {_OBS_COLUMNS}, "
                            f"got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_OBS_COLUMNS):
                raise DataError(f"{path} line {lineno}: expected "
                                f"{len(_OBS_COLUMNS)} columns")
            try:
                if row[4] not in ("0", "1"):
                    raise ValueError(f"rain_certain must be 0 or 1, "
                                     f"got {row[4]!r}")
                out.append(SwathObservation(float(row[0]), float(row[1]),
                                            float(row[2]), float(row[3]),
                                            row[4] == "1", float(row[5])))
            except ValueError as e:
                raise DataError(f"{path} line {lineno}: {e}") from None
    return out


# ---------------------------------------------------------------------------
# full pipeline


@dataclass(frozen=True)
class ClimatologyResult:
    mt: Grid
    p0: Grid
    report: str


def _stage(name: str, fn):
    try:
        return fn()
    except SolverError as e:
        raise SolverError(f"stage {name}: {e}") from e
    except (ValueError, OSError) as e:
        raise DataError(f"stage {name}: {e}") from e


def _valid_mean(grid: Grid) -> float:
    m = grid.valid_mask()
    return float(np.mean(grid.values[m])) if m.any() else float("nan")


def build_climatology(config: Mapping, threads: int = 1) -> ClimatologyResult:
    """Run the full pipeline and write its outputs.

    ``config`` supplies: ``observations`` (CSV path), the output geometry
    (``ncols``, ``nrows``, ``xll``, ``yll``, ``cell``, ``nodata``),
    ``reference_mt`` and ``elevation`` grid paths, window sizes
    (``k_uniform``, ``k_gauss``, optional ``sigma_gauss``),
    ``dedup_window_s``, and output paths ``out_mt``, ``out_p0``,
    ``out_report``.  Any stage failure aborts with the stage name in the
    error message.  Outputs are written only after every stage succeeded.
    """
    geometry = GridGeometry(int(config["ncols"]), int(config["nrows"]),
                            float(config["xll"]), float(config["yll"]),
                            float(config["cell"]), float(config["nodata"]))
    k_uniform = int(config.get("k_uniform", DEFAULT_K_UNIFORM))
    k_gauss = int(config.get("k_gauss", DEFAULT_K_GAUSS))
    sigma = config.get("sigma_gauss")
    sigma = float(sigma) if sigma is not None else None
    dedup = float(config.get("dedup_window_s", DEFAULT_DEDUP_WINDOW_S))

    observations = _stage(
        "read", lambda: read_observations_csv(config["observations"]))
    reference = _stage("read", lambda: read_grid(config["reference_mt"]))
    elevation = _stage("read", lambda: read_grid(config["elevation"]))

    acc, render_report = _stage(
        "render", lambda: render_observations(observations, geometry, dedup,
                                              threads=threads))
    mt0, p00, _cond = _stage("initial", lambda: initial_estimates(acc))

    elev_local = _stage(
        "elevation", lambda: resample(elevation, geometry, "bilinear"))
    weight = _stage(
        "elevation", lambda: elevation_weight(elev_local, k_uniform))

    ref_local = _stage(
        "merge", lambda: resample(reference, geometry, "bilinear"))
    mt_adj = _stage(
        "merge", lambda: merge_reference(mt0, ref_local, weight, k_uniform))

    mt_final, p0_final = _stage(
        "finalize", lambda: finalize(mt_adj, p00, k_gauss, sigma))

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

    def write_all():
        write_grid(mt_final, config["out_mt"])
        write_grid(p0_final, config["out_p0"])
        with open(config["out_report"], "w", newline="", encoding="utf-8") as f:
            f.write(report)

    _stage("write", write_all)
    return ClimatologyResult(mt_final, p0_final, report)
