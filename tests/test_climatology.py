import math

import numpy as np
import pytest

from rainstats.climatology import (HOURS_PER_YEAR, KM_PER_DEG,
                                   AccumulatorGrid, RenderReport,
                                   _window_starts, build_climatology,
                                   elevation_weight, finalize,
                                   initial_estimates, merge_reference,
                                   read_observations_csv,
                                   render_observations)
from rainstats.errors import AlignmentError, DataError
from rainstats.raster import (Grid, GridGeometry, gaussian_filter, read_grid,
                              uniform_filter, write_grid)
from writers import observations, write_observations_csv

ND = -9999.0
CELL = 1.0 / 120.0


def geom(ncols=60, nrows=60, xll=30.0, yll=9.0):
    return GridGeometry(ncols, nrows, xll, yll, CELL, ND)


def obs(time, lat, lon, nsrr=0.0, rain=False, diameter=4.5):
    """One row for :func:`writers.observations`."""
    return time, lat, lon, nsrr, rain, diameter


def brute_cover_mask(o, g):
    """Independent point-in-circle oracle over every pixel center."""
    r = o.footprint_diameter / 2.0
    r2 = r * r
    coslat = math.cos(math.radians(o.lat))
    lat_c = g.yll + (g.nrows - np.arange(g.nrows) - 0.5) * g.cell
    lon_c = g.xll + (np.arange(g.ncols) + 0.5) * g.cell
    dy = (lat_c - o.lat) * KM_PER_DEG
    dx = (lon_c - o.lon) * (KM_PER_DEG * coslat)
    return (dy * dy)[:, None] + (dx * dx)[None, :] <= r2


# ---------------------------------------------------------------------------
# rendering


def test_single_footprint_matches_brute_force_disk():
    g = geom()
    stream = observations([obs(0.0, 9.25, 30.25, nsrr=10.0, rain=True)])
    acc, report = render_observations(stream, g)
    expected = brute_cover_mask(stream[0], g)
    assert expected.sum() > 5
    assert np.array_equal(acc.n_total == 1, expected)
    assert np.array_equal(acc.n_rain == 1, expected)
    assert np.array_equal(acc.sum_nsrr, np.where(expected, 10.0, 0.0))
    assert report.n_observations == 1
    assert report.n_skipped == 0


def test_dedup_window_keeps_maximum():
    g = geom()
    a = obs(100.0, 9.25, 30.25, nsrr=3.0, rain=True)
    b = obs(105.0, 9.25, 30.25, nsrr=8.0, rain=True)
    acc, _ = render_observations(observations([a, b]), g,
                                 dedup_window_s=60.0)
    covered = acc.n_total > 0
    assert np.all(acc.n_total[covered] == 1)
    assert np.all(acc.sum_nsrr[covered] == 8.0)


def test_separate_windows_accumulate():
    g = geom()
    a = obs(100.0, 9.25, 30.25, nsrr=3.0, rain=True)
    b = obs(700.0, 9.25, 30.25, nsrr=8.0, rain=True)
    acc, _ = render_observations(observations([a, b]), g,
                                 dedup_window_s=60.0)
    covered = acc.n_total > 0
    assert np.all(acc.n_total[covered] == 2)
    assert np.all(acc.sum_nsrr[covered] == 11.0)


def test_rain_flag_or_and_max_over_rain_certain_only():
    g = geom()
    a = obs(100.0, 9.25, 30.25, nsrr=0.0, rain=False)
    b = obs(110.0, 9.25, 30.25, nsrr=4.0, rain=True)
    c = obs(120.0, 9.25, 30.25, nsrr=0.0, rain=False)
    acc, _ = render_observations(observations([a, b, c]), g)
    covered = acc.n_total > 0
    assert np.all(acc.n_total[covered] == 1)
    assert np.all(acc.n_rain[covered] == 1)
    assert np.all(acc.sum_nsrr[covered] == 4.0)


def test_unsorted_stream_rejected():
    g = geom()
    stream = [obs(100.0, 9.25, 30.25), obs(50.0, 9.25, 30.25)]
    with pytest.raises(DataError, match="sorted"):
        render_observations(observations(stream), g)


def test_footprint_outside_grid_is_skipped_and_counted():
    g = geom()
    stream = [obs(0.0, 20.0, 80.0, nsrr=5.0, rain=True),
              obs(10.0, 9.25, 30.25, nsrr=5.0, rain=True)]
    acc, report = render_observations(observations(stream), g)
    assert report.n_skipped == 1
    assert acc.n_total.sum() > 0


def test_render_identical_across_worker_counts():
    rng = np.random.default_rng(51)
    g = geom()
    stream = []
    t = 0.0
    for _ in range(300):
        t += float(rng.uniform(0, 90))
        stream.append(obs(t, rng.uniform(9.05, 9.45),
                          rng.uniform(30.05, 30.45),
                          nsrr=float(rng.uniform(0, 20)),
                          rain=bool(rng.uniform() < 0.7),
                          diameter=float(rng.uniform(3.5, 5.5))))
    stream = observations(stream)
    base, base_rep = render_observations(stream, g, threads=1)
    for threads in (2, 8):
        acc, rep = render_observations(stream, g, threads=threads)
        assert np.array_equal(acc.n_total, base.n_total)
        assert np.array_equal(acc.n_rain, base.n_rain)
        assert np.array_equal(acc.sum_nsrr, base.sum_nsrr)
        assert rep == base_rep


def test_accumulator_invariants_on_random_stream():
    rng = np.random.default_rng(52)
    g = geom(30, 30)
    t = 0.0
    stream = []
    for _ in range(200):
        t += float(rng.uniform(0, 120))
        stream.append(obs(t, rng.uniform(9.02, 9.23),
                          rng.uniform(30.02, 30.23),
                          nsrr=float(rng.uniform(0, 30)),
                          rain=bool(rng.uniform() < 0.5)))
    acc, _ = render_observations(observations(stream), g)
    assert np.all(acc.n_rain <= acc.n_total)
    assert np.all(acc.sum_nsrr[acc.n_rain == 0] == 0.0)
    assert np.all(acc.n_total >= 0)


# ---------------------------------------------------------------------------
# initial estimates


def test_initial_estimates_ratio_and_units():
    g = geom(2, 2)
    acc = AccumulatorGrid(g, np.zeros((2, 2), dtype=np.int64),
                          np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2)))
    acc.n_total[0, 0] = 10
    acc.n_rain[0, 0] = 3
    acc.sum_nsrr[0, 0] = 9.0
    acc.n_total[0, 1] = 4          # observed but never raining
    acc.n_total[1, 0] = 8
    acc.n_rain[1, 0] = 8
    acc.sum_nsrr[1, 0] = 16.0      # cond 2 mm/h at p0 100%
    mt, p0, cond = initial_estimates(acc)

    assert p0.values[0, 0] == pytest.approx(30.0)
    assert cond.values[0, 0] == pytest.approx(3.0)
    assert p0.values[0, 1] == 0.0
    assert mt.values[0, 1] == 0.0
    # cond 2 mm/h at 5% would give 876.6; at 100% it is 2 * 8766
    assert mt.values[1, 0] == pytest.approx(2 * 8766.0)
    assert 2.0 * HOURS_PER_YEAR * 0.05 == pytest.approx(876.6)
    # unobserved pixel is nodata in all three grids
    assert mt.values[1, 1] == ND
    assert p0.values[1, 1] == ND
    assert cond.values[1, 1] == ND


def test_scaling_observations_scales_initial_mt_exactly():
    rng = np.random.default_rng(53)
    g = geom(30, 30)
    t = 0.0
    base, doubled = [], []
    for _ in range(150):
        t += float(rng.uniform(0, 150))
        lat = rng.uniform(9.02, 9.23)
        lon = rng.uniform(30.02, 30.23)
        nsrr = float(rng.uniform(0, 25))
        rain = bool(rng.uniform() < 0.6)
        base.append(obs(t, lat, lon, nsrr=nsrr, rain=rain))
        doubled.append(obs(t, lat, lon, nsrr=2.0 * nsrr, rain=rain))
    mt1, _, _ = initial_estimates(
        render_observations(observations(base), g)[0])
    mt2, _, _ = initial_estimates(
        render_observations(observations(doubled), g)[0])
    valid = mt1.valid_mask()
    assert np.array_equal(mt2.values[valid], 2.0 * mt1.values[valid])


# ---------------------------------------------------------------------------
# elevation weighting and merging


def test_elevation_weight_flat_terrain():
    elev = Grid.full(geom(4, 4), 250.0)
    w = elevation_weight(elev, k=3)
    assert np.all(w.values == 1.0)


def test_elevation_weight_closed_form_half():
    # every 3x3 window sees {0, 0, e-1, e-1}: IQR = e-1, so w = 1/2
    x = math.e - 1.0
    elev = Grid(geom(2, 2), [0.0, 0.0, x, x])
    w = elevation_weight(elev, k=3)
    assert np.allclose(w.values, 0.5, atol=1e-12)


def test_elevation_weight_propagates_nodata():
    vals = np.full((3, 3), ND)
    vals[0, 0] = 100.0
    vals[0, 1] = 110.0
    w = elevation_weight(Grid(geom(3, 3), vals), k=3)
    assert np.all(w.values == ND)  # fewer than 4 valid cells everywhere


def test_merge_reference_weight_zero_keeps_satellite():
    g = geom(5, 5)
    sat = Grid(g, np.arange(25, dtype=float))
    ref = Grid.full(g, 1000.0)
    w = Grid.full(g, 0.0)
    assert merge_reference(sat, ref, w, k=3) == sat


def test_merge_reference_weight_one_takes_smoothed_reference():
    g = geom(5, 5)
    sat = Grid(g, np.arange(25, dtype=float))
    ref = Grid.full(g, 1000.0)
    w = Grid.full(g, 1.0)
    out = merge_reference(sat, ref, w, k=3)
    assert np.array_equal(out.values, np.full((5, 5), 1000.0))


def test_merge_reference_hand_case():
    g = geom(5, 5)
    rng = np.random.default_rng(54)
    sat = Grid(g, rng.uniform(500, 2000, 25))
    ref = Grid(g, rng.uniform(500, 2000, 25))
    w = Grid(g, rng.uniform(0, 1, 25))
    out = merge_reference(sat, ref, w, k=3)
    smooth = uniform_filter(ref, 3)
    for i in range(5):
        for j in range(5):
            expected = ((1 - w.values[i, j]) * sat.values[i, j]
                        + w.values[i, j] * smooth.values[i, j])
            assert out.values[i, j] == pytest.approx(expected, rel=1e-12)


def test_merge_reference_convexity():
    g = geom(6, 6)
    rng = np.random.default_rng(55)
    sat = Grid(g, rng.uniform(0, 3000, 36))
    ref = Grid(g, rng.uniform(0, 3000, 36))
    w = Grid(g, rng.uniform(0, 1, 36))
    out = merge_reference(sat, ref, w, k=5)
    smooth = uniform_filter(ref, 5)
    lo = np.minimum(sat.values, smooth.values)
    hi = np.maximum(sat.values, smooth.values)
    assert np.all(out.values >= lo - 1e-9)
    assert np.all(out.values <= hi + 1e-9)


def test_merge_reference_nodata_reference_passes_satellite_through():
    g = geom(4, 4)
    sat = Grid(g, np.arange(16, dtype=float) + 1.0)
    ref = Grid.full(g, ND)
    w = Grid.full(g, 1.0)
    assert merge_reference(sat, ref, w, k=3) == sat


def test_merge_reference_rejects_misaligned_and_bad_weights():
    sat = Grid.full(geom(4, 4), 1.0)
    with pytest.raises(AlignmentError):
        merge_reference(sat, Grid.full(geom(5, 4), 1.0),
                        Grid.full(geom(4, 4), 0.5), k=3)
    with pytest.raises(ValueError, match="weights"):
        merge_reference(sat, Grid.full(geom(4, 4), 1.0),
                        Grid.full(geom(4, 4), 1.5), k=3)


# ---------------------------------------------------------------------------
# finalize


def test_finalize_constant_inputs_unchanged():
    g = geom(8, 8)
    mt, p0 = finalize(Grid.full(g, 1200.0), Grid.full(g, 6.5), k=5)
    assert np.array_equal(mt.values, np.full((8, 8), 1200.0))
    assert np.array_equal(p0.values, np.full((8, 8), 6.5))


def test_finalize_never_exceeds_input_max():
    g = geom(8, 8)
    rng = np.random.default_rng(56)
    p0_in = Grid(g, rng.uniform(0, 100, 64))
    _, p0_out = finalize(Grid.full(g, 100.0), p0_in, k=5)
    assert p0_out.values.max() <= p0_in.values.max() + 1e-12
    assert p0_out.values.min() >= 0.0


def test_finalize_impulse_matches_gaussian_oracle():
    g = geom(11, 11)
    vals = np.zeros((11, 11))
    vals[5, 5] = 100.0
    mt_in = Grid(g, vals)
    mt_out, _ = finalize(mt_in, Grid.full(g, 0.0), k=5)
    oracle = gaussian_filter(mt_in, 5)
    assert np.array_equal(mt_out.values, np.maximum(oracle.values, 0.0))


# ---------------------------------------------------------------------------
# observation CSV


def test_observations_csv_round_trip(tmp_path):
    stream = observations([obs(1.5, 9.1, 30.1, nsrr=2.5, rain=True),
                           obs(90.0, 9.2, 30.2)])
    path = tmp_path / "obs.csv"
    write_observations_csv(stream, path)
    got = read_observations_csv(path)
    assert got.dtype == stream.dtype
    assert got.tolist() == stream.tolist()


def test_observations_csv_rejects_bad_flag(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("time_s,lat,lon,nsrr_mm_h,rain_certain,diameter_km\n"
                    "0.0,9.1,30.1,1.0,maybe,4.5\n")
    with pytest.raises(DataError, match="line 2"):
        read_observations_csv(path)


# ---------------------------------------------------------------------------
# full pipeline


def _write_pipeline_inputs(tmp_path, stream, g, ref_grid, elev_grid,
                           k_uniform=9, k_gauss=5):
    obs_path = tmp_path / "obs.csv"
    write_observations_csv(observations(stream), obs_path)
    ref_path = tmp_path / "ref.grd"
    write_grid(ref_grid, ref_path)
    elev_path = tmp_path / "elev.grd"
    write_grid(elev_grid, elev_path)
    return {
        "observations": str(obs_path),
        "reference_mt": str(ref_path),
        "elevation": str(elev_path),
        "ncols": g.ncols, "nrows": g.nrows, "xll": g.xll, "yll": g.yll,
        "cell": g.cell, "nodata": g.nodata,
        "k_uniform": k_uniform, "k_gauss": k_gauss, "sigma_gauss": None,
        "dedup_window_s": 60.0,
        "out_mt": str(tmp_path / "mt.grd"),
        "out_p0": str(tmp_path / "p0.grd"),
        "out_report": str(tmp_path / "report.txt"),
    }


def test_pipeline_empty_observations(tmp_path):
    g = geom(12, 12)
    cfg = _write_pipeline_inputs(tmp_path, [], g, Grid.full(g, 900.0),
                                 Grid.full(g, 10.0))
    result = build_climatology(cfg)
    assert not result.mt.valid_mask().any()
    assert not result.p0.valid_mask().any()
    assert "observations=0" in result.report
    assert read_grid(cfg["out_mt"]) == result.mt


def test_pipeline_uniform_rain_matches_expectation(tmp_path):
    # every pixel gets one rainy window (nsrr v) and one dry window, so the
    # whole grid should end at exactly mt = v * 8766 * 0.5 and p0 = 50
    g = geom(24, 24)
    v = 4.0
    stream = []
    for i in range(g.nrows):
        for j in range(g.ncols):
            lat = g.yll + (g.nrows - i - 0.5) * g.cell
            lon = g.xll + (j + 0.5) * g.cell
            stream.append(obs(1000.0, lat, lon, nsrr=v, rain=True,
                              diameter=3.0))
            stream.append(obs(2000.0, lat, lon, nsrr=0.0, rain=False,
                              diameter=3.0))
    stream.sort(key=lambda o: o[0])
    ref = Grid.full(g, ND)  # forces the satellite passthrough branch
    elev = Grid.full(g, 40.0)
    cfg = _write_pipeline_inputs(tmp_path, stream, g, ref, elev)
    result = build_climatology(cfg)
    expected = v * HOURS_PER_YEAR * 0.5
    assert result.mt.valid_mask().all()
    got = float(np.mean(result.mt.values))
    assert abs(got - expected) <= 0.02 * expected
    assert np.allclose(result.p0.values, 50.0, atol=1e-9)


def test_pipeline_rerun_is_bit_identical(tmp_path):
    rng = np.random.default_rng(57)
    g = geom(20, 20)
    t = 0.0
    stream = []
    for _ in range(120):
        t += float(rng.uniform(0, 200))
        stream.append(obs(t, rng.uniform(9.02, 9.15),
                          rng.uniform(30.02, 30.15),
                          nsrr=float(rng.uniform(0, 12)),
                          rain=bool(rng.uniform() < 0.6)))
    ref = Grid.full(g, 800.0)
    elev = Grid(g, rng.uniform(0, 2000, 400))
    cfg = _write_pipeline_inputs(tmp_path, stream, g, ref, elev)
    build_climatology(cfg)
    first = {k: (tmp_path / k).read_bytes()
             for k in ("mt.grd", "p0.grd", "report.txt")}
    build_climatology(cfg)
    for k, blob in first.items():
        assert (tmp_path / k).read_bytes() == blob


def test_pipeline_stage_error_names_stage(tmp_path):
    g = geom(10, 10)
    cfg = _write_pipeline_inputs(tmp_path, [], g, Grid.full(g, 900.0),
                                 Grid.full(g, 10.0))
    cfg["observations"] = str(tmp_path / "missing.csv")
    with pytest.raises(Exception, match="stage read"):
        build_climatology(cfg)


# ---------------------------------------------------------------------------
# vectorized rendering against the per-observation scan it replaced


def scan_cover_indices(o, g):
    """The previous per-footprint cover: bounding box, then disk test."""
    r_km = o.footprint_diameter / 2.0
    coslat = math.cos(math.radians(o.lat))
    dlat = r_km / KM_PER_DEG
    dlon = r_km / (KM_PER_DEG * coslat)
    i0 = int(math.floor((g.lat_max - (o.lat + dlat)) / g.cell - 0.5))
    i1 = int(math.ceil((g.lat_max - (o.lat - dlat)) / g.cell - 0.5))
    j0 = int(math.floor(((o.lon - dlon) - g.xll) / g.cell - 0.5))
    j1 = int(math.ceil(((o.lon + dlon) - g.xll) / g.cell - 0.5))
    i0, i1 = max(i0, 0), min(i1, g.nrows - 1)
    j0, j1 = max(j0, 0), min(j1, g.ncols - 1)
    if i0 > i1 or j0 > j1:
        return []
    rows = np.arange(i0, i1 + 1)
    cols = np.arange(j0, j1 + 1)
    dy = (g.yll + (g.nrows - rows - 0.5) * g.cell - o.lat) * KM_PER_DEG
    dx = (g.xll + (cols + 0.5) * g.cell - o.lon) * (KM_PER_DEG * coslat)
    ii, jj = np.nonzero((dy * dy)[:, None] + (dx * dx)[None, :]
                        <= r_km * r_km)
    return (rows[ii] * g.ncols + cols[jj]).tolist()


def scan_render(stream, g, window_s):
    """The previous renderer, kept as the reference: one pass in time order
    with a dict of open windows, each committed when the next one opens."""
    n_total = np.zeros(g.nrows * g.ncols, dtype=np.int64)
    n_rain = np.zeros(g.nrows * g.ncols, dtype=np.int64)
    sum_nsrr = np.zeros(g.nrows * g.ncols)
    open_windows = {}
    skipped = 0

    def commit(px, win):
        n_total[px] += 1
        if win[1]:
            n_rain[px] += 1
            sum_nsrr[px] += win[2]

    for o in stream:
        pixels = scan_cover_indices(o, g)
        if not pixels:
            skipped += 1
            continue
        rc = bool(o.rain_certain)
        value = o.nsrr if rc else 0.0
        for px in pixels:
            win = open_windows.get(px)
            if win is not None and o.time - win[0] <= window_s:
                if rc:
                    win[1] = True
                    if value > win[2]:
                        win[2] = value
            else:
                if win is not None:
                    commit(px, win)
                open_windows[px] = [o.time, rc, value]
    for px, win in open_windows.items():
        commit(px, win)
    shape = (g.nrows, g.ncols)
    return (n_total.reshape(shape), n_rain.reshape(shape),
            sum_nsrr.reshape(shape), skipped)


def random_stream(rng, g, n, window_s):
    # steps of exactly window_s and of its thirds put times exactly
    # window_s after a window start; tenths are not binary fractions
    steps = rng.choice([0.0, window_s, window_s / 3.0, 0.1, 7.7], n)
    steps += rng.uniform(0, 2 * window_s, n) * (rng.uniform(size=n) < 0.3)
    times = 1000.1 + np.cumsum(steps)
    margin = 0.05
    lat_hi = min(g.lat_max + margin, 89.0)
    return observations([(
        float(times[i]), float(rng.uniform(g.yll - margin, lat_hi)),
        float(rng.uniform(g.xll - margin, g.lon_max + margin)),
        float(rng.choice([0.0, 5.0, rng.uniform(0, 40)])),
        bool(rng.uniform() < 0.6), float(rng.uniform(3.0, 6.0)))
        for i in range(n)])


def test_render_matches_scan_reference_on_random_streams():
    rng = np.random.default_rng(53)
    for trial in range(60):
        ncols, nrows = (int(n) for n in rng.integers(1, 40, 2))
        yll = float(rng.choice([9.0, -30.0, 62.0]))
        cell = float(rng.choice([0.01, CELL, 0.013]))
        g = GridGeometry(ncols, nrows, 30.0, yll, cell, ND)
        window_s = float(rng.choice([60.0, 0.1, 37.3]))
        stream = random_stream(rng, g, int(rng.integers(0, 400)), window_s)
        n_total, n_rain, sum_nsrr, skipped = scan_render(stream, g, window_s)
        acc, report = render_observations(stream, g, window_s)
        assert np.array_equal(acc.n_total, n_total), trial
        assert np.array_equal(acc.n_rain, n_rain), trial
        assert np.array_equal(acc.sum_nsrr, sum_nsrr), trial
        assert acc.sum_nsrr.dtype == np.float64
        assert report == RenderReport(len(stream), skipped), trial


def binary_search_window_starts(px, t, window_s):
    """The previous ``_window_starts``, kept as the reference: a binary
    search for the next window's opening hit from every hit."""
    run_start = np.flatnonzero(np.diff(px, prepend=-1))
    run_end = np.searchsorted(px, px, side="right")
    lo, hi = np.arange(1, px.size + 1), run_end
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        inside = (lo < hi) & (t[np.minimum(mid, px.size - 1)] - t <= window_s)
        lo, hi = np.where(inside, mid + 1, lo), np.where(inside, hi, mid)
    starts = [run_start]
    while starts[-1].size:
        nxt = lo[starts[-1]]
        starts.append(nxt[nxt < run_end[starts[-1]]])
    return np.sort(np.concatenate(starts))


@pytest.mark.parametrize("window_s", [60.0, 600.0, 6000.0])
def test_window_starts_match_the_binary_search_on_random_hits(window_s):
    rng = np.random.default_rng(int(window_s))
    for trial in range(40):
        n = int(rng.integers(0, 3000))
        px = np.sort(rng.integers(0, int(rng.integers(1, 200)), n))
        # hit times in time order within each pixel, some of them tied,
        # with gaps around the window's own length
        gaps = rng.choice([0.0, 1.0, window_s, window_s + 1e-9,
                           window_s * 0.5, window_s * 3.0], n)
        t = 1.1e9 + np.cumsum(gaps * rng.uniform(0.5, 1.5, n) ** (trial % 2))
        got = _window_starts(px, t, window_s)
        assert np.array_equal(got, binary_search_window_starts(px, t,
                                                               window_s))


def test_window_closes_only_after_more_than_the_window():
    g = geom(4, 4)
    lat, lon = g.yll + 2 * CELL, g.xll + 2 * CELL
    # 0.3 - 0.1 rounds to 0.19999999999999998 <= 0.2, so 0.3 joins the window
    # opened at 0.1; 0.4 - 0.1 exceeds it and opens the next one
    stream = observations([obs(t, lat, lon, nsrr=v, rain=True) for t, v in (
        (0.1, 1.0), (0.3, 2.0), (0.4, 4.0), (0.6, 8.0))])
    acc, _ = render_observations(stream, g, dedup_window_s=0.2)
    assert acc.n_total.max() == 2
    assert acc.sum_nsrr.max() == 2.0 + 8.0


@pytest.mark.parametrize("field", ["time", "lon", "nsrr"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_observation_rejects_non_finite_fields(tmp_path, field, bad):
    row = dict(time=0.0, lat=9.1, lon=30.1, nsrr=1.0, rain_certain=1.0,
               footprint_diameter=4.5)
    row[field] = bad
    path = tmp_path / "obs.csv"
    write_observations_csv(observations([tuple(row.values())]), path)
    with pytest.raises(DataError, match=f"line 2: .*{field}"):
        read_observations_csv(path)
