import numpy as np
import pytest

from rainstats.errors import AlignmentError, EmptyDataError
from rainstats.impact import (heavy_mask, rate_map, zonal_population,
                              zone_coverage)
from rainstats.rainmodel import ClimatePoint, ModelParams, rain_rate
from rainstats.raster import Grid, GridGeometry

ND = -9999.0
PARAMS = ModelParams(1.0, 20000.0, 26.0)


def geom(ncols, nrows, cell=1.0):
    return GridGeometry(ncols, nrows, 0.0, 0.0, cell, ND)


# ---------------------------------------------------------------------------
# rate maps


def test_rate_map_no_rain_pixel_is_zero():
    mt = Grid(geom(2, 1), [1000.0, 1000.0])
    p0 = Grid(geom(2, 1), [0.0, 5.0])
    out = rate_map(mt, p0, PARAMS, 0.01)
    assert out.values[0, 0] == 0.0
    assert out.values[0, 1] > 0.0


def test_rate_map_uniform_matches_scalar():
    mt = Grid.full(geom(3, 3), 1500.0)
    p0 = Grid.full(geom(3, 3), 5.0)
    out = rate_map(mt, p0, PARAMS, 0.01)
    scalar = rain_rate(0.01, ClimatePoint(1500.0, 5.0), PARAMS)
    assert np.all(out.values == scalar)


def test_rate_map_matches_per_pixel_oracle():
    rng = np.random.default_rng(31)
    mt_vals = rng.uniform(100, 4000, (10, 10))
    p0_vals = rng.uniform(0.5, 10, (10, 10))
    mt = Grid(geom(10, 10), mt_vals)
    p0 = Grid(geom(10, 10), p0_vals)
    out = rate_map(mt, p0, PARAMS, 0.1)
    for i in range(10):
        for j in range(10):
            expected = rain_rate(0.1, ClimatePoint(mt_vals[i, j],
                                                   p0_vals[i, j]), PARAMS)
            assert out.values[i, j] == expected


def test_rate_map_clamps_negative_mt_to_zero():
    mt = Grid(geom(3, 1), [-4000.0, 0.0, ND])
    p0 = Grid(geom(3, 1), [5.0, 5.0, 5.0])
    out = rate_map(mt, p0, PARAMS, 0.01)
    assert out.values[0, 0] == out.values[0, 1] == rain_rate(
        0.01, ClimatePoint(0.0, 5.0), PARAMS)
    assert out.values[0, 2] == ND


def test_rate_map_propagates_nodata_and_checks_alignment():
    mt = Grid(geom(2, 1), [ND, 1000.0])
    p0 = Grid(geom(2, 1), [5.0, ND])
    out = rate_map(mt, p0, PARAMS, 0.01)
    assert np.all(out.values == ND)
    with pytest.raises(AlignmentError):
        rate_map(mt, Grid.full(geom(3, 1), 5.0), PARAMS, 0.01)
    with pytest.raises(ValueError):
        rate_map(mt, p0, PARAMS, 0.0)


# ---------------------------------------------------------------------------
# heavy mask


def test_heavy_mask_boundaries():
    rate = Grid(geom(4, 1), [95.0, 95.1, 0.0, ND])
    mask, nodata_count = heavy_mask(rate)
    assert mask.values.tolist()[0] == [0.0, 1.0, 0.0, 0.0]
    assert nodata_count == 1


def test_heavy_mask_monotone_in_threshold():
    rng = np.random.default_rng(32)
    rate = Grid(geom(8, 8), rng.uniform(0, 200, (8, 8)))
    counts = []
    for thr in (50.0, 95.0, 150.0):
        mask, _ = heavy_mask(rate, thr)
        counts.append(mask.values.sum())
    assert counts[0] >= counts[1] >= counts[2]


# ---------------------------------------------------------------------------
# population tallies


def test_zonal_population_empty_mask_is_all_zeros():
    pop = Grid.full(geom(3, 3), 10.0)
    mask = Grid.full(geom(3, 3), 0.0)
    countries = Grid.full(geom(3, 3), 1.0)
    tally = zonal_population(pop, mask, countries)
    assert tally.by_code == {1: 0.0}
    assert tally.total == 0.0


def test_zonal_population_full_mask_single_country():
    rng = np.random.default_rng(33)
    vals = rng.integers(0, 100, (3, 3)).astype(float)
    pop = Grid(geom(3, 3), vals)
    mask = Grid.full(geom(3, 3), 1.0)
    countries = Grid.full(geom(3, 3), 7.0)
    tally = zonal_population(pop, mask, countries)
    assert tally.by_code == {7: pytest.approx(vals.sum())}
    assert tally.total == pytest.approx(vals.sum())


def test_zonal_population_hand_case():
    # 4x4: west half country 1, east half country 2, one unassigned pixel
    countries_vals = np.array([[1, 1, 2, 2]] * 4, dtype=float)
    countries_vals[3, 3] = ND
    pop_vals = np.arange(16, dtype=float).reshape(4, 4)
    mask_vals = np.zeros((4, 4))
    mask_vals[0, :] = 1.0   # pixels 0, 1, 2, 3
    mask_vals[3, :] = 1.0   # pixels 12, 13, 14, 15
    tally = zonal_population(Grid(geom(4, 4), pop_vals),
                             Grid(geom(4, 4), mask_vals),
                             Grid(geom(4, 4), countries_vals))
    assert tally.by_code == {1: 0 + 1 + 12 + 13, 2: 2 + 3 + 14}
    assert tally.unassigned == 15.0
    assert tally.total == sum(tally.by_code.values()) + 15.0


def test_zonal_population_additive_over_tiling():
    rng = np.random.default_rng(34)
    pop_vals = rng.integers(0, 1000, (6, 6)).astype(float)
    mask_vals = (rng.uniform(size=(6, 6)) < 0.5).astype(float)
    country_vals = rng.integers(0, 4, (6, 6)).astype(float)
    whole = zonal_population(Grid(geom(6, 6), pop_vals),
                             Grid(geom(6, 6), mask_vals),
                             Grid(geom(6, 6), country_vals))
    # split into north and south halves laid out as separate grids
    half = GridGeometry(6, 3, 0.0, 0.0, 1.0, ND)
    south = GridGeometry(6, 3, 0.0, 0.0, 1.0, ND)
    top = zonal_population(Grid(half, pop_vals[:3]),
                           Grid(half, mask_vals[:3]),
                           Grid(half, country_vals[:3]))
    bottom = zonal_population(Grid(south, pop_vals[3:]),
                              Grid(south, mask_vals[3:]),
                              Grid(south, country_vals[3:]))
    for code, total in whole.by_code.items():
        assert total == pytest.approx(top.by_code.get(code, 0.0)
                                      + bottom.by_code.get(code, 0.0))
    assert whole.total == pytest.approx(top.total + bottom.total)


def test_zonal_population_rejects_bad_inputs():
    pop = Grid.full(geom(2, 2), 1.0)
    with pytest.raises(AlignmentError):
        zonal_population(pop, Grid.full(geom(3, 2), 0.0),
                         Grid.full(geom(2, 2), 1.0))
    with pytest.raises(ValueError, match="0/1"):
        zonal_population(pop, Grid.full(geom(2, 2), 0.5),
                         Grid.full(geom(2, 2), 1.0))
    with pytest.raises(ValueError, match="non-integer"):
        zonal_population(pop, Grid.full(geom(2, 2), 1.0),
                         Grid.full(geom(2, 2), 1.5))


# ---------------------------------------------------------------------------
# zone coverage


def test_zone_coverage_single_zone():
    zones = Grid.full(geom(3, 3), 4.0)
    pop = Grid.full(geom(3, 3), 2.0)
    out = zone_coverage(zones, pop)
    share = out[4]
    assert (share.land_pct, share.populated_pct, share.pop_pct) == \
        (100.0, 100.0, 100.0)


def test_zone_coverage_two_zone_split():
    zones = Grid(geom(2, 2), [0.0, 0.0, 1.0, 1.0])
    pop = Grid(geom(2, 2), [5.0, 5.0, 0.0, 0.0])  # people only in zone 0
    out = zone_coverage(zones, pop)
    assert out[0].land_pct == 50.0
    assert out[1].land_pct == 50.0
    assert out[0].populated_pct == 100.0
    assert out[1].populated_pct == 0.0
    assert out[0].pop_pct == 100.0
    assert out[1].pop_pct == 0.0


def test_zone_coverage_columns_sum_to_100():
    rng = np.random.default_rng(35)
    zone_vals = rng.integers(0, 5, (9, 9)).astype(float)
    zone_vals[rng.uniform(size=(9, 9)) < 0.1] = ND
    pop_vals = np.where(rng.uniform(size=(9, 9)) < 0.6,
                        rng.integers(1, 500, (9, 9)).astype(float), 0.0)
    out = zone_coverage(Grid(geom(9, 9), zone_vals),
                        Grid(geom(9, 9), pop_vals))
    for attr in ("land_pct", "populated_pct", "pop_pct"):
        total = sum(getattr(s, attr) for s in out.values())
        assert abs(total - 100.0) <= 1e-9


def test_zone_coverage_matches_brute_force_tally():
    rng = np.random.default_rng(36)
    zone_vals = rng.integers(0, 3, (5, 5)).astype(float)
    pop_vals = rng.integers(0, 50, (5, 5)).astype(float)
    out = zone_coverage(Grid(geom(5, 5), zone_vals),
                        Grid(geom(5, 5), pop_vals))
    n_land = zone_vals.size
    n_populated = int((pop_vals > 0).sum())
    total_pop = pop_vals.sum()
    for code, share in out.items():
        sel = zone_vals == code
        assert share.land_pct == pytest.approx(100 * sel.sum() / n_land)
        assert share.populated_pct == pytest.approx(
            100 * (sel & (pop_vals > 0)).sum() / n_populated)
        assert share.pop_pct == pytest.approx(
            100 * pop_vals[sel].sum() / total_pop)


def test_zone_coverage_no_valid_pixels_raises():
    zones = Grid.full(geom(2, 2), ND)
    pop = Grid.full(geom(2, 2), 1.0)
    with pytest.raises(EmptyDataError):
        zone_coverage(zones, pop)
