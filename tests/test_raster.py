import numpy as np
import pytest

from rainstats.errors import DataError
from rainstats.raster import (Grid, GridGeometry, gaussian_filter, read_grid,
                              resample, sample_bilinear, uniform_filter,
                              window_iqr, write_grid)

ND = -9999.0


def geom(ncols, nrows, cell=0.25, xll=0.0, yll=0.0, nodata=ND):
    return GridGeometry(ncols, nrows, xll, yll, cell, nodata)


def brute_uniform(grid, k):
    """Independent windowed-mean oracle: explicit loops, no shifting."""
    r = k // 2
    g = grid.geometry
    out = np.full((g.nrows, g.ncols), g.nodata)
    for i in range(g.nrows):
        for j in range(g.ncols):
            win = grid.values[max(0, i - r):i + r + 1,
                              max(0, j - r):j + r + 1]
            vals = win[win != g.nodata]
            if vals.size:
                out[i, j] = vals.mean()
    return out


# ---------------------------------------------------------------------------
# file format


def test_grid_refuses_the_wrong_number_of_values():
    with pytest.raises(ValueError, match="expected 6 values, got 5"):
        Grid(geom(3, 2), np.zeros(5))


def test_round_trip_single_cell(tmp_path):
    grid = Grid(geom(1, 1), [7.5])
    path = tmp_path / "one.grd"
    write_grid(grid, path)
    text = path.read_text()
    assert text.splitlines()[0] == "ncols 1"
    assert text.splitlines()[-1] == "7.5"
    assert read_grid(path) == grid


def test_nodata_sentinel_appears_verbatim(tmp_path):
    grid = Grid(geom(2, 2), [1.0, ND, 3.0, 4.0])
    path = tmp_path / "nd.grd"
    write_grid(grid, path)
    assert "-9999.0" in path.read_text().splitlines()[6]
    back = read_grid(path)
    assert np.array_equal(back.valid_mask(), grid.valid_mask())
    assert back == grid


def test_write_read_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(42)
    grid = Grid(geom(100, 100, cell=0.01), rng.uniform(0, 1000, 10000))
    p1 = tmp_path / "a.grd"
    p2 = tmp_path / "b.grd"
    write_grid(grid, p1)
    write_grid(read_grid(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_error_names_header_line(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text("ncols 2\nnrows 1\nxllcorn 0.0\nyllcorner 0.0\n"
                    "cellsize 1.0\nNODATA_value -9999.0\n1.0 2.0\n")
    with pytest.raises(DataError, match="line 3"):
        read_grid(path)


def test_parse_error_non_numeric_header_value(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text("ncols 2\nnrows oops\nxllcorner 0.0\nyllcorner 0.0\n"
                    "cellsize 1.0\nNODATA_value -9999.0\n1.0 2.0\n")
    with pytest.raises(DataError, match="line 2"):
        read_grid(path)


@pytest.mark.parametrize("line,fault,message", [
    (2, "nrows oops", "line 2: invalid literal for int() with base 10: "
                      "'oops'"),
    (3, "xllcorner west", "line 3: could not convert string to float: "
                          "'west'"),
    (5, "cellsize 0", "header: cell size must be positive"),
    (8, "3.0 x", "line 8: could not convert string to float: 'x'")],
    ids=["header-int", "header-float", "header-geometry", "row-token"])
def test_parse_error_message_names_file_then_line(tmp_path, line, fault,
                                                  message):
    lines = ["ncols 2", "nrows 2", "xllcorner 0.0", "yllcorner 0.0",
             "cellsize 1.0", "NODATA_value -9999.0", "1.0 2.0", "3.0 4.0"]
    lines[line - 1] = fault
    path = tmp_path / "bad.grd"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as raised:
        read_grid(path)
    assert str(raised.value) == f"{path}: {message}"


def test_parse_error_wrong_column_count(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text("ncols 3\nnrows 1\nxllcorner 0.0\nyllcorner 0.0\n"
                    "cellsize 1.0\nNODATA_value -9999.0\n1.0 2.0\n")
    with pytest.raises(DataError, match="line 7"):
        read_grid(path)


def test_parse_error_non_numeric_token(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\n"
                    "cellsize 1.0\nNODATA_value -9999.0\n1.0 2.0\n3.0 x\n")
    with pytest.raises(DataError, match="line 8.*'x'"):
        read_grid(path)


def test_parse_error_missing_rows(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text("ncols 2\nnrows 3\nxllcorner 0.0\nyllcorner 0.0\n"
                    "cellsize 1.0\nNODATA_value -9999.0\n1.0 2.0\n")
    with pytest.raises(DataError, match="line 8"):
        read_grid(path)


def test_parse_error_missing_rows_is_found_before_allocating(tmp_path):
    # the header claims 10^16 cells (71 PiB), which numpy refuses at once
    path = tmp_path / "huge.grd"
    path.write_text("ncols 100000000\nnrows 100000000\nxllcorner 0.0\n"
                    "yllcorner 0.0\ncellsize 1e-07\nNODATA_value -9999.0\n"
                    "1.0\n")
    with pytest.raises(DataError,
                       match="line 8: expected 100000000 data rows, file "
                             "ends after 1"):
        read_grid(path)


def test_parse_error_trailing_content(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text("ncols 1\nnrows 1\nxllcorner 0.0\nyllcorner 0.0\n"
                    "cellsize 1.0\nNODATA_value -9999.0\n1.0\n2.0\n")
    with pytest.raises(DataError, match="line 8"):
        read_grid(path)


# ---------------------------------------------------------------------------
# sampling


def test_sample_at_cell_center_is_exact():
    grid = Grid(geom(2, 2, cell=1.0), [1.0, 2.0, 3.0, 4.0])
    # row 0 is the north row: value 2.0 sits at (lat 1.5, lon 1.5)
    assert sample_bilinear(grid, 1.5, 1.5) == 2.0
    assert sample_bilinear(grid, 0.5, 0.5) == 3.0


def test_sample_constant_grid_everywhere():
    grid = Grid.full(geom(5, 4, cell=0.5), 3.25)
    rng = np.random.default_rng(0)
    for _ in range(50):
        lat = rng.uniform(0, 4 * 0.5)
        lon = rng.uniform(0, 5 * 0.5)
        assert sample_bilinear(grid, lat, lon) == pytest.approx(3.25,
                                                                rel=1e-12)


def test_sample_corner_midpoint_hand_value():
    # north row {0, 1}, south row {1, 2}; the shared corner averages to 1.0
    grid = Grid(geom(2, 2, cell=1.0), [0.0, 1.0, 1.0, 2.0])
    assert sample_bilinear(grid, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_sample_nodata_corner_returns_nodata():
    grid = Grid(geom(2, 2, cell=1.0), [0.0, ND, 1.0, 2.0])
    assert np.isnan(sample_bilinear(grid, 1.0, 1.0))


def test_sample_out_of_bounds_raises():
    grid = Grid.full(geom(2, 2, cell=1.0), 1.0)
    with pytest.raises(ValueError, match="outside"):
        sample_bilinear(grid, 2.5, 1.0)


@pytest.mark.parametrize("lat,lon", [(np.nan, 1.0), (1.0, np.nan),
                                     (np.inf, 1.0), (1.0, -np.inf)])
def test_sample_at_non_finite_coordinates_raises(lat, lon):
    grid = Grid.full(geom(2, 2, cell=1.0), 1.0)
    with pytest.raises(ValueError, match="outside"):
        sample_bilinear(grid, lat, lon)


# ---------------------------------------------------------------------------
# resampling


def test_resample_constant_grid():
    grid = Grid.full(geom(4, 4, cell=0.5), 2.0)
    target = GridGeometry(7, 7, 0.1, 0.1, 0.25, ND)
    out = resample(grid, target)
    inside = out.valid_mask()
    assert inside.any()
    assert np.allclose(out.values[inside], 2.0, rtol=1e-12)


def test_resample_bilinear_matches_per_cell_sampling():
    grid = Grid(geom(2, 2, cell=1.0), [0.0, 1.0, 1.0, 2.0])
    target = GridGeometry(4, 4, 0.0, 0.0, 0.5, ND)
    out = resample(grid, target)
    for i in range(4):
        for j in range(4):
            lat = target.yll + (target.nrows - i - 0.5) * target.cell
            lon = target.xll + (j + 0.5) * target.cell
            assert out.values[i, j] == sample_bilinear(grid, lat, lon)


def test_resample_outside_source_is_nodata():
    grid = Grid.full(geom(2, 2, cell=1.0), 5.0)
    target = GridGeometry(4, 2, 0.0, 0.0, 1.0, ND)  # extends east of source
    out = resample(grid, target)
    assert np.all(out.values[:, :2] == 5.0)
    assert np.all(out.values[:, 2:] == ND)


def test_resample_no_overlap_raises():
    grid = Grid.full(geom(2, 2, cell=1.0), 5.0)
    target = GridGeometry(2, 2, 50.0, 50.0, 1.0, ND)
    with pytest.raises(ValueError, match="overlap"):
        resample(grid, target)


# ---------------------------------------------------------------------------
# filters


def test_uniform_filter_k1_is_identity():
    rng = np.random.default_rng(2)
    grid = Grid(geom(6, 6, cell=0.1), rng.uniform(0, 10, 36))
    assert uniform_filter(grid, 1) == grid


def test_uniform_filter_constant_is_exact():
    grid = Grid.full(geom(9, 7, cell=0.1), 0.1)
    out = uniform_filter(grid, 5)
    assert np.array_equal(out.values, grid.values)


def test_uniform_filter_impulse():
    vals = np.zeros((7, 7))
    vals[3, 3] = 9.0
    out = uniform_filter(Grid(geom(7, 7, cell=0.1), vals), 3)
    expected = np.zeros((7, 7))
    expected[2:5, 2:5] = 1.0
    assert np.allclose(out.values, expected, atol=1e-15)


def test_uniform_filter_even_k_rejected():
    grid = Grid.full(geom(3, 3, cell=0.1), 1.0)
    with pytest.raises(ValueError, match="odd"):
        uniform_filter(grid, 4)
    with pytest.raises(ValueError, match="odd"):
        uniform_filter(grid, 0)


def test_uniform_filter_fills_holes_and_keeps_empty_windows_nodata():
    vals = np.full((7, 7), ND)
    vals[0, 0] = 4.0
    grid = Grid(geom(7, 7, cell=0.1), vals)
    out = uniform_filter(grid, 3)
    assert out.values[0, 1] == 4.0  # hole next to the lone value is filled
    assert out.values[6, 6] == ND   # far corner window holds nothing


def test_uniform_filter_matches_brute_force():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-3, 3, (10, 12))
    vals[rng.uniform(size=(10, 12)) < 0.2] = ND
    grid = Grid(geom(12, 10, cell=0.1), vals)
    for k in (3, 5):
        out = uniform_filter(grid, k)
        expected = brute_uniform(grid, k)
        valid = expected != ND
        assert np.array_equal(out.valid_mask(), valid)
        assert np.allclose(out.values[valid], expected[valid], rtol=1e-12)


def test_gaussian_filter_constant_is_exact():
    grid = Grid.full(geom(8, 8, cell=0.1), 123.456)
    out = gaussian_filter(grid, 7)
    assert np.array_equal(out.values, grid.values)


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_gaussian_filter_refuses_a_non_positive_sigma(sigma):
    grid = Grid.full(geom(8, 8, cell=0.1), 1.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        gaussian_filter(grid, 7, sigma)


def test_gaussian_filter_preserves_symmetry():
    vals = np.zeros((9, 9))
    vals[4, 4] = 5.0
    vals[2, 2] = vals[2, 6] = vals[6, 2] = vals[6, 6] = 1.0
    out = gaussian_filter(Grid(geom(9, 9, cell=0.1), vals), 5).values
    assert np.allclose(out, out[::-1, :], atol=1e-12)
    assert np.allclose(out, out[:, ::-1], atol=1e-12)
    assert np.allclose(out, out.T, atol=1e-12)


def test_gaussian_impulse_response_sums_to_one():
    vals = np.zeros((31, 31))
    vals[15, 15] = 1.0
    out = gaussian_filter(Grid(geom(31, 31, cell=0.1), vals), 9)
    assert abs(out.values.sum() - 1.0) <= 1e-9


def test_filters_commute_with_adding_constant():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0, 5, (8, 8))
    vals[rng.uniform(size=(8, 8)) < 0.15] = ND
    grid = Grid(geom(8, 8, cell=0.1), vals)
    shifted_vals = np.where(vals == ND, ND, vals + 7.0)
    shifted = Grid(grid.geometry, shifted_vals)
    for filt in (lambda g: uniform_filter(g, 5),
                 lambda g: gaussian_filter(g, 5)):
        a = filt(grid)
        b = filt(shifted)
        valid = a.valid_mask()
        assert np.array_equal(valid, b.valid_mask())
        assert np.allclose(b.values[valid], a.values[valid] + 7.0, atol=1e-9)


def test_filter_locality():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 5, (9, 9))
    grid = Grid(geom(9, 9, cell=0.1), vals)
    vals2 = vals.copy()
    vals2[0, 0] = 99.0  # well outside the 3x3 window of (4, 4)
    perturbed = Grid(grid.geometry, vals2)
    for filt in (lambda g: uniform_filter(g, 3),
                 lambda g: gaussian_filter(g, 3),
                 lambda g: window_iqr(g, 3)):
        assert filt(grid).values[4, 4] == filt(perturbed).values[4, 4]


# ---------------------------------------------------------------------------
# windowed IQR


def test_window_iqr_constant_is_zero():
    grid = Grid.full(geom(5, 5, cell=0.1), 7.0)
    out = window_iqr(grid, 3)
    assert np.allclose(out.values, 0.0, atol=1e-12)


def test_window_iqr_hand_quartiles():
    # every 3x3 window over a 2x2 grid sees exactly {1, 2, 3, 4}
    grid = Grid(geom(2, 2, cell=0.1), [1.0, 2.0, 3.0, 4.0])
    out = window_iqr(grid, 3)
    assert np.allclose(out.values, 1.5, atol=1e-12)


def test_window_iqr_needs_four_valid_cells():
    vals = np.full((3, 3), ND)
    vals[0, 0] = 1.0
    vals[0, 1] = 2.0
    vals[1, 0] = 3.0
    grid = Grid(geom(3, 3, cell=0.1), vals)
    out = window_iqr(grid, 3)
    assert out.values[0, 0] == ND  # window sees only 3 valid cells
    vals[1, 1] = 4.0
    out = window_iqr(Grid(grid.geometry, vals), 3)
    assert out.values[0, 0] == pytest.approx(1.5)


def test_geometry_validation():
    with pytest.raises(ValueError):
        GridGeometry(0, 1, 0.0, 0.0, 1.0, ND)
    with pytest.raises(ValueError):
        GridGeometry(1, 1, 0.0, 0.0, -1.0, ND)
    with pytest.raises(ValueError):
        GridGeometry(1, 200, 0.0, 0.0, 1.0, ND)  # reaches past the pole
    with pytest.raises(ValueError):
        Grid(geom(2, 1), [1.0, np.nan])


# ---------------------------------------------------------------------------
# fast paths against the implementations they replaced


def nanquantile_window_iqr(grid, k):
    """The previous window_iqr, kept as the reference: every window copied
    out and handed to ``np.nanquantile``."""
    g = grid.geometry
    r = k // 2
    vm = np.where(grid.valid_mask(), grid.values, np.nan)
    padded = np.full((g.nrows + 2 * r, g.ncols + 2 * r), np.nan)
    padded[r:r + g.nrows, r:r + g.ncols] = vm
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    flat = windows.reshape(g.nrows, g.ncols, k * k)
    out = np.full((g.nrows, g.ncols), g.nodata)
    ok = np.count_nonzero(~np.isnan(flat), axis=2) >= 4
    if ok.any():
        q1, q3 = np.nanquantile(flat[ok], [0.25, 0.75], axis=1)
        out[ok] = q3 - q1
    return out


def brute_window_mean(grid, line):
    """Explicit-loop weighted window mean over the valid cells, weights
    ``outer(line, line)``."""
    r = line.size // 2
    g = grid.geometry
    out = np.full((g.nrows, g.ncols), g.nodata)
    for i in range(g.nrows):
        for j in range(g.ncols):
            num = den = 0.0
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii, jj = i + di, j + dj
                    if (0 <= ii < g.nrows and 0 <= jj < g.ncols
                            and grid.values[ii, jj] != g.nodata):
                        w = line[di + r] * line[dj + r]
                        num += w * grid.values[ii, jj]
                        den += w
            if den > 0:
                out[i, j] = num / den
    return out


def random_grid(rng, nrows, ncols, nodata_frac, ties):
    if ties:
        vals = rng.integers(0, 5, (nrows, ncols)) * 0.7
    else:
        vals = rng.uniform(-40.0, 60.0, (nrows, ncols))
    vals[rng.uniform(size=(nrows, ncols)) < nodata_frac] = ND
    return Grid(geom(ncols, nrows, cell=0.1), vals)


def test_window_iqr_matches_nanquantile_reference_on_random_grids():
    rng = np.random.default_rng(41)
    for trial in range(120):
        nrows, ncols = (int(n) for n in rng.integers(1, 19, 2))
        k = int(rng.choice(np.arange(1, 16, 2)))
        grid = random_grid(rng, nrows, ncols,
                           nodata_frac=float(rng.choice([0.0, 0.1, 0.6])),
                           ties=trial % 2 == 0)
        out = window_iqr(grid, k)
        assert np.array_equal(out.values, nanquantile_window_iqr(grid, k)), \
            (trial, nrows, ncols, k)


def test_window_iqr_matches_reference_with_three_and_four_valid_cells():
    # window (0, 0) of k=3 sees 3 valid cells, window (4, 4) sees 4
    vals = np.full((6, 7), ND)
    vals[0, 0], vals[0, 1], vals[1, 0] = 2.5, -1.0, 7.25
    vals[3, 4], vals[4, 5], vals[5, 3], vals[5, 5] = 0.1, 0.7, 0.3, 0.3
    grid = Grid(geom(7, 6, cell=0.1), vals)
    out = window_iqr(grid, 3).values
    assert np.array_equal(out, nanquantile_window_iqr(grid, 3))
    assert out[0, 0] == ND
    assert out[4, 4] != ND


def test_window_iqr_matches_reference_on_bands_of_many_chunks():
    # bands of up to 41 x 60 values span dozens of sorted chunks; window
    # counts of cells x k^2 stay under 6e6 to keep the reference small
    rng = np.random.default_rng(43)
    for trial in range(18):
        k = (21, 41, 81)[trial % 3]
        side = 60 if k < 81 else 30
        nrows, ncols = (int(n) for n in rng.integers(side // 2, side + 1, 2))
        grid = random_grid(rng, nrows, ncols,
                           nodata_frac=(0.0, 0.3, 0.95)[trial // 3 % 3],
                           ties=trial >= 9)
        out = window_iqr(grid, k)
        assert np.array_equal(out.values, nanquantile_window_iqr(grid, k)), \
            (trial, nrows, ncols, k)


def test_filters_match_explicit_loop_on_random_grids():
    rng = np.random.default_rng(42)
    cases = [(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
              int(rng.choice(np.arange(1, 16, 2)))) for _ in range(24)]
    cases += [(3, 5, 9), (2, 1, 15), (4, 4, 11)]  # windows wider than grid
    for nrows, ncols, k in cases:
        grid = random_grid(rng, nrows, ncols, nodata_frac=0.25, ties=False)
        scale = np.abs(grid.values[grid.valid_mask()]).max(initial=1.0)
        offsets = np.arange(k) - k // 2
        for out, line in ((uniform_filter(grid, k), np.ones(k)),
                          (gaussian_filter(grid, k),
                           np.exp(-0.5 * (offsets / (k / 6.0)) ** 2))):
            want = brute_window_mean(grid, line)
            valid = want != ND
            assert np.array_equal(out.valid_mask(), valid), (nrows, ncols, k)
            assert np.allclose(out.values[valid], want[valid], rtol=1e-12,
                               atol=1e-12 * scale), (nrows, ncols, k)
