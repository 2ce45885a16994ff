import warnings

import numpy as np
import pytest

from rainstats.errors import DataError
from rainstats.impact import (PopulationTally, ZoneShare, heavy_mask,
                              rate_map, zonal_population, zone_coverage)
from rainstats.rainmodel import (ClimatePoint, ModelParams, _rain_rate_array,
                                 estimate_site_curve, rain_rate)
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
    assert np.all(out.values == ND) and out.geometry.nodata == ND
    with pytest.raises(DataError, match="not aligned"):
        rate_map(mt, Grid.full(geom(3, 1), 5.0), PARAMS, 0.01)
    with pytest.raises(ValueError):
        rate_map(mt, p0, PARAMS, 0.0)
    # the model refuses the probability even where no cell is valid
    with pytest.raises(ValueError, match=r"\(0, 100\], got 0\.0$"):
        rate_map(mt, Grid.full(geom(2, 1), ND), PARAMS, 0.0)


def test_model_clamp_matches_the_callers_clamps_bit_for_bit():
    # rate_map and predict clamped mt and p0 themselves, with np.maximum and
    # np.clip over the valid cells and with max and min per location; the
    # model's own clamp must give the same bits, signed zeros included
    rng = np.random.default_rng(41)
    n = 10_000
    mt = rng.uniform(-2000.0, 8000.0, n)
    p0 = rng.uniform(-30.0, 130.0, n)
    for values, specials in ((mt, [-0.0, 0.0, -5e-324, 5e-324, -1e300]),
                             (p0, [-0.0, 0.0, -5e-324, 5e-324, 100.0,
                                   100.00000000000001])):
        chosen = rng.random(n) < 0.1
        values[chosen] = rng.choice(specials, np.count_nonzero(chosen))
    mt[rng.random(n) < 0.05] = ND
    p0[rng.random(n) < 0.05] = ND
    g = geom(100, 100, cell=0.5)
    mt_grid, p0_grid = Grid(g, mt), Grid(g, p0)
    valid = (mt != ND) & (p0 != ND)
    for p in (0.001, 0.01, 1.0, 100.0):
        want = np.full(n, ND)
        want[valid] = _rain_rate_array(
            float(p), np.maximum(mt[valid], 0.0),
            np.clip(p0[valid], 0.0, 100.0), PARAMS)
        assert rate_map(mt_grid, p0_grid, PARAMS, p).values.tobytes() \
            == want.reshape(100, 100).tobytes()
    ladder = (0.001, 0.01, 0.1, 1.0, 5.0, 50.0, 100.0)
    for mt_v, p0_v in zip(mt[valid].tolist(), p0[valid].tolist()):
        got = estimate_site_curve(ClimatePoint(mt_v, p0_v), PARAMS, ladder)
        want = estimate_site_curve(
            ClimatePoint(max(mt_v, 0.0), min(max(p0_v, 0.0), 100.0)),
            PARAMS, ladder)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("nodata", [0.0, -0.0, 1.0, 95.0])
def test_rate_map_marks_nodata_with_a_value_no_rate_takes(nodata):
    # p0 = 0 gives a rate of 0, which a marker of 0 would take for nodata
    g = GridGeometry(3, 1, 0.0, 0.0, 1.0, nodata)
    mt = Grid(g, [nodata, 1000.0, 1000.0])
    p0 = Grid(geom(3, 1), [5.0, 0.0, 5.0])
    out = rate_map(mt, p0, PARAMS, 0.01)
    assert out.geometry.nodata == -1.0
    assert out.valid_mask().tolist() == [[False, True, True]]
    assert out.values[0, 1] == 0.0


# ---------------------------------------------------------------------------
# heavy mask


def test_heavy_mask_boundaries():
    rate = Grid(geom(4, 1), [95.0, 95.1, 0.0, ND])
    mask, nodata_count = heavy_mask(rate)
    assert mask.dtype == bool
    assert mask.tolist() == [[False, True, False, False]]
    assert nodata_count == 1


def test_heavy_mask_monotone_in_threshold():
    rng = np.random.default_rng(32)
    rate = Grid(geom(8, 8), rng.uniform(0, 200, (8, 8)))
    counts = []
    for thr in (50.0, 95.0, 150.0):
        mask, _ = heavy_mask(rate, thr)
        counts.append(mask.sum())
    assert counts[0] >= counts[1] >= counts[2]


# ---------------------------------------------------------------------------
# population tallies


def test_zonal_population_empty_mask_is_all_zeros():
    pop = Grid.full(geom(3, 3), 10.0)
    countries = Grid.full(geom(3, 3), 1.0)
    tally = zonal_population(pop, np.zeros((3, 3), bool), countries)
    assert tally.by_code == {1: 0.0}
    assert type(tally.by_code[1]) is float
    assert tally.total == 0.0


def test_zonal_population_full_mask_single_country():
    rng = np.random.default_rng(33)
    vals = rng.integers(0, 100, (3, 3)).astype(float)
    pop = Grid(geom(3, 3), vals)
    countries = Grid.full(geom(3, 3), 7.0)
    tally = zonal_population(pop, np.ones((3, 3), bool), countries)
    assert tally.by_code == {7: pytest.approx(vals.sum())}
    assert tally.total == pytest.approx(vals.sum())


def test_zonal_population_hand_case():
    # 4x4: west half country 1, east half country 2, one unassigned pixel
    countries_vals = np.array([[1, 1, 2, 2]] * 4, dtype=float)
    countries_vals[3, 3] = ND
    pop_vals = np.arange(16, dtype=float).reshape(4, 4)
    mask = np.zeros((4, 4), bool)
    mask[0, :] = True   # pixels 0, 1, 2, 3
    mask[3, :] = True   # pixels 12, 13, 14, 15
    tally = zonal_population(Grid(geom(4, 4), pop_vals), mask,
                             Grid(geom(4, 4), countries_vals))
    assert tally.by_code == {1: 0 + 1 + 12 + 13, 2: 2 + 3 + 14}
    assert tally.unassigned == 15.0
    assert tally.total == sum(tally.by_code.values()) + 15.0


def test_zonal_population_additive_over_tiling():
    rng = np.random.default_rng(34)
    pop_vals = rng.integers(0, 1000, (6, 6)).astype(float)
    mask = rng.uniform(size=(6, 6)) < 0.5
    country_vals = rng.integers(0, 4, (6, 6)).astype(float)
    whole = zonal_population(Grid(geom(6, 6), pop_vals), mask,
                             Grid(geom(6, 6), country_vals))
    # split into north and south halves laid out as separate grids
    half = GridGeometry(6, 3, 0.0, 0.0, 1.0, ND)
    south = GridGeometry(6, 3, 0.0, 0.0, 1.0, ND)
    top = zonal_population(Grid(half, pop_vals[:3]), mask[:3],
                           Grid(half, country_vals[:3]))
    bottom = zonal_population(Grid(south, pop_vals[3:]), mask[3:],
                              Grid(south, country_vals[3:]))
    for code, total in whole.by_code.items():
        assert total == pytest.approx(top.by_code.get(code, 0.0)
                                      + bottom.by_code.get(code, 0.0))
    assert whole.total == pytest.approx(top.total + bottom.total)


def test_zonal_population_rejects_bad_inputs():
    pop = Grid.full(geom(2, 2), 1.0)
    everywhere = np.ones((2, 2), bool)
    with pytest.raises(DataError, match="not aligned"):
        zonal_population(pop, everywhere, Grid.full(geom(3, 2), 1.0))
    with pytest.raises(ValueError, match="non-integer"):
        zonal_population(pop, everywhere, Grid.full(geom(2, 2), 1.5))


def test_population_sums_that_overflow_raise_without_warning():
    pop = Grid.full(geom(2, 2), 1.7e308)
    codes = Grid.full(geom(2, 2), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="population sums overflow"):
            zonal_population(pop, np.ones((2, 2), bool), codes)
        with pytest.raises(OverflowError, match="population sums overflow"):
            zone_coverage(codes, pop)


def test_zone_share_that_overflows_raises():
    # the total is finite, but 100 times it is not
    pop = Grid(geom(2, 2), [1e307, 0.0, 0.0, 0.0])
    codes = Grid.full(geom(2, 2), 1.0)
    assert zonal_population(pop, np.ones((2, 2), bool), codes).total == 1e307
    with pytest.raises(OverflowError, match="population sums overflow"):
        zone_coverage(codes, pop)


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
    with pytest.raises(DataError, match="no valid pixels"):
        zone_coverage(zones, pop)


# ---------------------------------------------------------------------------
# tallies against per-code scans


def _scan_zonal_population(pop, mask, countries):
    """The tally one code at a time: a bincount over the codes' values."""
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)
    cvalid = countries.valid_mask()
    codes = np.unique(countries.values[cvalid]).astype(np.int64)
    hit = mask & cvalid
    sums = (np.bincount(countries.values[hit].astype(np.int64),
                        weights=popvals[hit]) if hit.any() else np.zeros(0))
    by_code = {int(c): float(sums[c]) if c < sums.size else 0.0
               for c in codes}
    unassigned = float(np.sum(popvals[mask & ~cvalid]))
    return PopulationTally(by_code, unassigned,
                           float(sum(by_code.values()) + unassigned))


def _scan_zone_coverage(zones, pop):
    """The shares one zone at a time, each a full-grid pass."""
    zvalid = zones.valid_mask()
    popvals = np.where(pop.valid_mask(), pop.values, 0.0)
    n_land = int(np.count_nonzero(zvalid))
    populated = zvalid & (popvals > 0)
    n_populated = int(np.count_nonzero(populated))
    total_pop = float(np.sum(popvals[zvalid]))
    out = {}
    for code in np.unique(zones.values[zvalid]).astype(np.int64):
        in_zone = zvalid & (zones.values == code)
        out[int(code)] = ZoneShare(
            100.0 * np.count_nonzero(in_zone) / n_land,
            (100.0 * np.count_nonzero(in_zone & populated) / n_populated)
            if n_populated else 0.0,
            100.0 * float(np.sum(popvals[in_zone])) / total_pop
            if total_pop > 0 else 0.0)
    return out


def _random_category_inputs(rng):
    """Codes (up to 4096, some nodata), a boolean mask, and a fractional
    population from 1e-3 to 1e6 with zeros and nodata."""
    shape = tuple(rng.integers(1, 60, 2))
    g = geom(shape[1], shape[0])
    n_codes = int(rng.choice([1, 3, 40, 500]))
    codes = rng.choice(4097, n_codes, replace=False).astype(float)
    code_vals = codes[rng.integers(0, n_codes, shape)]
    code_vals[rng.uniform(size=shape) < rng.uniform(0, 0.3)] = ND
    pop_vals = 10.0 ** rng.uniform(-3, 6, shape)
    pop_vals[rng.uniform(size=shape) < 0.2] = 0.0
    pop_vals[rng.uniform(size=shape) < 0.1] = ND
    mask = rng.uniform(size=shape) < 0.5
    return Grid(g, code_vals), mask, Grid(g, pop_vals)


def test_zonal_population_matches_the_per_code_scan():
    rng = np.random.default_rng(37)
    for _ in range(200):
        codes, mask, pop = _random_category_inputs(rng)
        for m in (mask, np.ones_like(mask)):
            assert (zonal_population(pop, m, codes)
                    == _scan_zonal_population(pop, m, codes))


def test_zone_coverage_matches_the_per_zone_scan():
    rng = np.random.default_rng(38)
    for _ in range(200):
        zones, _, pop = _random_category_inputs(rng)
        if not zones.valid_mask().any():
            continue
        assert zone_coverage(zones, pop) == _scan_zone_coverage(zones, pop)


def test_category_codes_beyond_int64_keep_their_value():
    # a code's value sizes no table and is never cast to a machine integer
    big = [2147483647.0, 1e20]
    countries = Grid(geom(2, 1), big)
    pop = Grid(geom(2, 1), [3.0, 4.0])
    tally = zonal_population(pop, np.ones((1, 2), bool), countries)
    assert tally.by_code == {2147483647: 3.0, 10**20: 4.0}
    shares = zone_coverage(countries, pop)
    assert sorted(shares) == [2147483647, 10**20]
    assert shares[10**20].land_pct == 50.0
