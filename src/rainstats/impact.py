"""Rain-rate maps, heavy-rain masks and population/zone tabulations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError
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


def zonal_population(pop: Grid, mask: Grid, countries: Grid,
                     categories=None) -> PopulationTally:
    """Sum population over mask-true pixels, per country code.

    ``categories`` is ``_categories(countries, "country")`` when the caller
    has it already, so that tallies under several masks sort the codes
    once."""
    require_aligned(pop, mask, countries)
    if categories is None:
        categories = _categories(countries, "country")
    codes, index, cvalid = categories
    mvals = mask.values[mask.valid_mask()]
    if mvals.size and not np.all((mvals == 0) | (mvals == 1)):
        raise ValueError("mask grid must hold only 0/1 values")

    selected = mask.valid_mask() & (mask.values == 1.0)
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)
    # each code's pixels add in row-major order, as a per-code scan would
    by_code = dict(zip(codes, np.bincount(
        index[selected[cvalid]], weights=popvals[selected & cvalid],
        minlength=len(codes)).tolist()))

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
    codes, index, zvalid = _categories(zones, "zone")
    if not codes:
        raise EmptyDataError("zone grid has no valid pixels")
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)[zvalid]
    land = np.bincount(index, minlength=len(codes)).tolist()
    populated = np.bincount(index[popvals > 0], minlength=len(codes)).tolist()
    n_populated, total_pop = sum(populated), float(np.sum(popvals))
    # np.sum over each zone's values in row-major order, as a per-zone scan
    # takes them; a weighted bincount would add in sequence, not pairwise
    zone_pops = np.split(popvals[np.argsort(index, kind="stable")],
                         np.cumsum(land)[:-1])
    return {code: ZoneShare(100.0 * n / index.size,
                            100.0 * k / n_populated if n_populated else 0.0,
                            100.0 * float(np.sum(zp)) / total_pop
                            if total_pop > 0 else 0.0)
            for code, n, k, zp in zip(codes, land, populated, zone_pops)}
