"""Rain-rate maps, heavy-rain masks and population/zone tabulations."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .evaluation import HEAVY_RATE_MM_H
from .rainmodel import ModelParams, _rain_rate_array
from .raster import Grid, require_aligned


def _categories(grid: Grid, what: str):
    """``(codes, index, valid)`` of a grid of non-negative integer codes:
    its distinct codes as ascending Python ints, the position in ``codes``
    of each valid cell's code in row-major order, and the valid mask."""
    valid = grid.valid_mask()
    uniq, index = np.unique(grid.values[valid], return_inverse=True)
    if np.any(uniq != np.floor(uniq)):
        raise ValueError(f"{what} grid holds non-integer codes")
    if np.any(uniq < 0):
        raise ValueError(f"{what} grid holds negative codes")
    return [int(c) for c in uniq.tolist()], index, valid


def rate_map(mt: Grid, p0: Grid, params: ModelParams, p: float) -> Grid:
    """Per-pixel rain rate at exceedance probability ``p`` (percent).

    Valid cells are inverted by :func:`~.rainmodel._rain_rate_array`,
    which takes mt below 0 as 0 and p0 outside [0, 100] as its nearest
    bound, and refuses p outside (0, 100] even on a map with no valid cell.
    A pixel where mt or p0 is nodata holds a marker no rate can take: mt's
    ``nodata`` when that is negative, else -1.0.  So the output's valid mask
    is exactly "mt and p0 both valid".
    """
    require_aligned(mt, p0)
    valid = mt.valid_mask() & p0.valid_mask()
    marker = mt.geometry.nodata if mt.geometry.nodata < 0 else -1.0
    out = np.full_like(mt.values, marker)
    out[valid] = _rain_rate_array(p, mt.values[valid], p0.values[valid],
                                  params)
    return Grid(replace(mt.geometry, nodata=marker), out)


def heavy_mask(rate: Grid, threshold: float = HEAVY_RATE_MM_H):
    """``(mask, nodata count)``: a boolean array, true where the rate is
    valid and strictly above ``threshold``, and the number of nodata
    pixels, which the mask marks false."""
    valid = rate.valid_mask()
    return valid & (rate.values > threshold), int(np.count_nonzero(~valid))


@dataclass(frozen=True)
class PopulationTally:
    """Population under a mask, split by country code.

    ``unassigned`` collects masked pixels whose country is nodata, so the
    grand total stays auditable against single-number summaries.
    """

    by_code: dict
    unassigned: float
    total: float


@np.errstate(over="ignore")
def zonal_population(pop: Grid, mask, countries: Grid) -> PopulationTally:
    """Sum population over the pixels where the boolean array ``mask``, of
    the grids' shape, is true, per country code, every code of
    ``countries`` in ascending order.  Sums are float64; sums that are not
    finite raise ``OverflowError``."""
    require_aligned(pop, countries)
    codes, index, cvalid = _categories(countries, "country")
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)
    # each code's pixels add in row-major order, as a per-code scan would;
    # bincount gives integers when no pixel is selected
    by_code = dict(zip(codes, np.bincount(
        index[mask[cvalid]], weights=popvals[mask & cvalid],
        minlength=len(codes)).astype(np.float64).tolist()))

    unassigned = float(np.sum(popvals[mask & ~cvalid]))
    total = float(sum(by_code.values()) + unassigned)
    if not np.isfinite(total):  # as it is when any part of it is not
        raise OverflowError("population sums overflow")
    return PopulationTally(by_code, unassigned, total)


@dataclass(frozen=True)
class ZoneShare:
    land_pct: float
    populated_pct: float
    pop_pct: float


@np.errstate(over="ignore")
def zone_coverage(zones: Grid, pop: Grid):
    """Per-zone share of land pixels, populated pixels and population, by
    zone code in ascending order.

    Shares are percentages of the valid-zone pixels, so each of the three
    columns sums to 100 over the zones present.  A population total or
    share that is not finite raises ``OverflowError``.
    """
    require_aligned(zones, pop)
    codes, index, zvalid = _categories(zones, "zone")
    if not codes:
        raise DataError("zone grid has no valid pixels")
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)[zvalid]
    land = np.bincount(index, minlength=len(codes)).tolist()
    populated = np.bincount(index[popvals > 0], minlength=len(codes)).tolist()
    n_populated, total_pop = sum(populated), float(np.sum(popvals))
    # np.sum over each zone's values in row-major order, as a per-zone scan
    # takes them; a weighted bincount would add in sequence, not pairwise
    zone_pops = np.split(popvals[np.argsort(index, kind="stable")],
                         np.cumsum(land)[:-1])
    shares = {code: ZoneShare(100.0 * n / index.size,
                              100.0 * k / n_populated if n_populated else 0.0,
                              100.0 * float(np.sum(zp)) / total_pop
                              if total_pop > 0 else 0.0)
              for code, n, k, zp in zip(codes, land, populated, zone_pops)}
    if not (np.isfinite(total_pop)
            and np.isfinite([s.pop_pct for s in shares.values()]).all()):
        raise OverflowError("population sums overflow")
    return shares
