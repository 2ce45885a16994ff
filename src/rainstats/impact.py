"""Rain-rate maps, heavy-rain masks and population/zone tabulations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError
from .evaluation import HEAVY_RATE_MM_H
from .rainmodel import ModelParams, _rain_rate_array
from .raster import Grid, require_aligned


def _require_category(grid: Grid, what: str) -> None:
    vals = grid.values[grid.valid_mask()]
    if vals.size and not np.all(vals == np.floor(vals)):
        raise ValueError(f"{what} grid holds non-integer codes")
    if vals.size and np.any(vals < 0):
        raise ValueError(f"{what} grid holds negative codes")


def rate_map(mt: Grid, p0: Grid, params: ModelParams, p: float) -> Grid:
    """Per-pixel rain rate at exceedance probability ``p`` (percent).

    Nodata in either input propagates to the output.  Valid cells are
    clamped to ``mt >= 0`` and ``0 <= p0 <= 100`` before inverting.
    """
    require_aligned(mt, p0)
    if not (0 < p <= 100):
        raise ValueError(f"exceedance probability must be in (0, 100], "
                         f"got {p}")
    valid = mt.valid_mask() & p0.valid_mask()
    out = np.full_like(mt.values, mt.geometry.nodata)
    if valid.any():
        out[valid] = _rain_rate_array(
            float(p), np.maximum(mt.values[valid], 0.0),
            np.clip(p0.values[valid], 0.0, 100.0), params)
    return Grid(mt.geometry, out)


def heavy_mask(rate: Grid, threshold: float = HEAVY_RATE_MM_H):
    """Boolean (0/1) grid marking rates strictly above ``threshold``.

    Nodata pixels are marked false; their count is returned alongside.
    """
    valid = rate.valid_mask()
    mask = np.where(valid & (rate.values > threshold), 1.0, 0.0)
    return Grid(rate.geometry, mask), int(np.count_nonzero(~valid))


@dataclass(frozen=True)
class PopulationTally:
    """Population under a mask, split by country code.

    ``unassigned`` collects masked pixels whose country is nodata, so the
    grand total stays auditable against single-number summaries.
    """

    by_code: dict
    unassigned: float
    total: float


def zonal_population(pop: Grid, mask: Grid, countries: Grid) -> PopulationTally:
    """Sum population over mask-true pixels, per country code."""
    require_aligned(pop, mask, countries)
    _require_category(countries, "country")
    mvals = mask.values[mask.valid_mask()]
    if mvals.size and not np.all((mvals == 0) | (mvals == 1)):
        raise ValueError("mask grid must hold only 0/1 values")

    selected = mask.valid_mask() & (mask.values == 1.0)
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)
    cvalid = countries.valid_mask()

    by_code = {}
    codes = np.unique(countries.values[cvalid]).astype(np.int64)
    hit = selected & cvalid
    if hit.any():
        idx = countries.values[hit].astype(np.int64)
        sums = np.bincount(idx, weights=popvals[hit])
    else:
        sums = np.zeros(0)
    for code in codes:
        by_code[int(code)] = float(sums[code]) if code < sums.size else 0.0

    unassigned = float(np.sum(popvals[selected & ~cvalid]))
    total = float(sum(by_code.values()) + unassigned)
    return PopulationTally(by_code, unassigned, total)


@dataclass(frozen=True)
class ZoneShare:
    land_pct: float
    populated_pct: float
    pop_pct: float


def zone_coverage(zones: Grid, pop: Grid):
    """Per-zone share of land pixels, populated pixels and population.

    Shares are percentages of the valid-zone pixels, so each of the three
    columns sums to 100 over the zones present.
    """
    require_aligned(zones, pop)
    _require_category(zones, "zone")
    zvalid = zones.valid_mask()
    if not zvalid.any():
        raise EmptyDataError("zone grid has no valid pixels")
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)

    n_land = int(np.count_nonzero(zvalid))
    populated = zvalid & (popvals > 0)
    n_populated = int(np.count_nonzero(populated))
    total_pop = float(np.sum(popvals[zvalid]))

    out = {}
    for code in np.unique(zones.values[zvalid]).astype(np.int64):
        in_zone = zvalid & (zones.values == code)
        land_pct = 100.0 * np.count_nonzero(in_zone) / n_land
        populated_pct = (100.0 * np.count_nonzero(in_zone & populated)
                         / n_populated) if n_populated else 0.0
        pop_pct = (100.0 * float(np.sum(popvals[in_zone])) / total_pop
                   if total_pop > 0 else 0.0)
        out[int(code)] = ZoneShare(land_pct, populated_pct, pop_pct)
    return out
