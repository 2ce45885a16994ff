"""Regular lat/lon grids: text file I/O, point sampling, resampling and
neighborhood filters.

Grids are stored row-major with the northernmost row first, matching the
on-disk layout.  The text format is a six-line header (``ncols``, ``nrows``,
``xllcorner``, ``yllcorner``, ``cellsize``, ``NODATA_value``; one
``key value`` pair per line) followed by ``nrows`` lines of ``ncols``
space-separated values, north row first.  Registration is lower-left corner;
sampling, resampling and filtering all work with cell centers.

All filters are nodata-aware: missing cells carry zero weight and the
remaining weights are renormalized per output pixel, so smoothing a
land-only field does not bleed values across coastlines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, blamed
from .tables import read_text, split_lines, write_text

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
                "NODATA_value")


@dataclass(frozen=True)
class GridGeometry:
    """Shape and placement of a regular lat/lon grid.

    ``xll``/``yll`` locate the lower-left corner in degrees, ``cell`` is the
    pixel size in degrees and ``nodata`` is the missing-value sentinel.
    Row 0 is the north row; other modules place cells only through
    :meth:`center` and :meth:`cell_at`.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cell: float
    nodata: float

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError("grid needs at least one row and one column")
        for name in ("xll", "yll", "cell", "nodata"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"geometry field {name} must be finite")
        if self.cell <= 0:
            raise ValueError("cell size must be positive")
        if self.yll < -90.0 or self.lat_max > 90.0 + 1e-9:
            raise ValueError("grid extends outside [-90, 90] latitude")

    @property
    def lat_max(self) -> float:
        return self.yll + self.nrows * self.cell

    @property
    def lon_max(self) -> float:
        return self.xll + self.ncols * self.cell

    def aligned_with(self, other: "GridGeometry") -> bool:
        """True when the five spatial fields match (nodata may differ)."""
        return (self.ncols == other.ncols and self.nrows == other.nrows
                and self.xll == other.xll and self.yll == other.yll
                and self.cell == other.cell)

    def center(self, rows, cols):
        """``(lat, lon)`` of the centers of the cells ``(rows, cols)``."""
        return (self.yll + (self.nrows - rows - 0.5) * self.cell,
                self.xll + (cols + 0.5) * self.cell)

    def cell_at(self, lat, lon):
        """``(row, col)`` of a point as fractions, whole at cell centers."""
        return ((self.lat_max - lat) / self.cell - 0.5,
                (lon - self.xll) / self.cell - 0.5)


class Grid:
    """One scalar value per cell on a :class:`GridGeometry`.

    ``values`` is a float64 array of shape ``(nrows, ncols)`` whose first row
    is the northernmost.  Every value is finite; cells equal to the geometry's
    nodata sentinel are treated as missing.  It keeps the array it is given.
    """

    __slots__ = ("geometry", "values")

    def __init__(self, geometry: GridGeometry, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != geometry.ncols * geometry.nrows:
            raise ValueError(
                f"expected {geometry.ncols * geometry.nrows} values, "
                f"got {arr.size}")
        arr = arr.reshape(geometry.nrows, geometry.ncols)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite or the nodata sentinel")
        self.geometry = geometry
        self.values = arr

    @classmethod
    def full(cls, geometry: GridGeometry, value: float) -> "Grid":
        return cls(geometry, np.full((geometry.nrows, geometry.ncols),
                                     float(value)))

    def valid_mask(self) -> np.ndarray:
        return self.values != self.geometry.nodata

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.geometry == other.geometry
                and np.array_equal(self.values, other.values))


def require_aligned(*grids: Grid) -> None:
    """Raise :class:`DataError` unless all grids share a geometry."""
    first = grids[0].geometry
    for g in grids[1:]:
        if not first.aligned_with(g.geometry):
            raise DataError(
                f"grids are not aligned: {first} vs {g.geometry}")


# ---------------------------------------------------------------------------
# file I/O


def write_grid(grid: Grid, path) -> None:
    """Write a grid in the plain-text format described in the module docs."""
    g = grid.geometry
    # repr() is the shortest string that round-trips the exact double
    lines = [
        f"ncols {g.ncols}",
        f"nrows {g.nrows}",
        f"xllcorner {float(g.xll)!r}",
        f"yllcorner {float(g.yll)!r}",
        f"cellsize {float(g.cell)!r}",
        f"NODATA_value {float(g.nodata)!r}",
    ]
    lines += (" ".join(map(repr, row.tolist())) for row in grid.values)
    write_text(path, "\n".join(lines) + "\n")


def read_grid(path) -> Grid:
    """Read a grid written by :func:`write_grid`.

    Raises :class:`DataError` naming the file and line at fault for
    malformed headers, row/column count mismatches or non-numeric tokens.
    """
    return read_text(path, _parse_grid)


def _parse_grid(text: str) -> Grid:
    """The grid in ``text``, the contents of a grid file."""
    raw = split_lines(text)
    del text  # the parse holds the lines and values, not the text too
    header = {}
    for lineno, key in enumerate(_HEADER_KEYS, start=1):
        line = raw[lineno - 1] if lineno <= len(raw) else ""
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise DataError(
                f"line {lineno}: expected '{key} <value>', got {line!r}")
        with blamed(f"line {lineno}"):
            header[key] = (int if key in ("ncols", "nrows") else float)(
                parts[1])

    with blamed("header"):
        geometry = GridGeometry(header["ncols"], header["nrows"],
                                header["xllcorner"], header["yllcorner"],
                                header["cellsize"], header["NODATA_value"])

    nrows, ncols = geometry.nrows, geometry.ncols
    n_lines = len(raw) - 6 - (raw[-1] == "")
    if n_lines < nrows:
        raise DataError(
            f"line {7 + n_lines}: expected {nrows} data rows, file ends "
            f"after {n_lines}")
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r in range(nrows):
        lineno = 7 + r
        tokens = raw[6 + r].split()
        if len(tokens) != ncols:
            raise DataError(
                f"line {lineno}: expected {ncols} values, found {len(tokens)}")
        with blamed(f"line {lineno}"):
            values[r] = [float(t) for t in tokens]
        if not np.all(np.isfinite(values[r])):
            raise DataError(f"line {lineno}: non-finite value in row")

    for extra, line in enumerate(raw[6 + nrows:]):
        if line.strip():
            raise DataError(
                f"line {7 + nrows + extra}: unexpected content after "
                f"{nrows} data rows")
    return Grid(geometry, values)


# ---------------------------------------------------------------------------
# sampling and resampling


def _bilinear_many(grid: Grid, lats: np.ndarray, lons: np.ndarray):
    """Vectorized bilinear sampling at cell centers.

    Returns ``(values, inside)`` where ``values`` uses NaN both for points
    outside the grid's outer bounds and for samples whose 2x2 neighborhood
    touches nodata.
    """
    g = grid.geometry
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    inside = ((lats >= g.yll) & (lats <= g.lat_max)
              & (lons >= g.xll) & (lons <= g.lon_max))

    # continuous (row-from-north, col) coordinates of the sample point; a
    # point too far outside to count in cells overflows to +-inf
    with np.errstate(over="ignore"):
        gy, gx = g.cell_at(lats, lons)

    # fmin/fmax clip as np.clip does, but take NaN (outside) to an index
    j0 = np.fmax(np.fmin(np.floor(gx), g.ncols - 2), 0).astype(np.intp)
    i0 = np.fmax(np.fmin(np.floor(gy), g.nrows - 2), 0).astype(np.intp)
    j1 = np.minimum(j0 + 1, g.ncols - 1)
    i1 = np.minimum(i0 + 1, g.nrows - 1)
    tx = np.clip(gx - j0, 0.0, 1.0)
    ty = np.clip(gy - i0, 0.0, 1.0)

    v = grid.values
    v00 = v[i0, j0]
    v01 = v[i0, j1]
    v10 = v[i1, j0]
    v11 = v[i1, j1]

    out = ((1.0 - ty) * ((1.0 - tx) * v00 + tx * v01)
           + ty * ((1.0 - tx) * v10 + tx * v11))
    nd = g.nodata
    bad = (v00 == nd) | (v01 == nd) | (v10 == nd) | (v11 == nd)
    out = np.where(inside & ~bad, out, np.nan)
    return out, inside


def sample_bilinear(grid: Grid, lat: float, lon: float) -> float:
    """Bilinear interpolation of the four surrounding cell-center values.

    Returns NaN if any of the four neighbors is nodata, so an interpolated
    value that happens to equal the nodata sentinel is still a value.
    Raises ``ValueError`` for coordinates outside the outer bounds.
    """
    vals, inside = _bilinear_many(grid, [lat], [lon])
    if not inside[0]:
        raise ValueError(f"point ({lat}, {lon}) is outside the grid bounds")
    return float(vals[0])


def resample(grid: Grid, target: GridGeometry) -> Grid:
    """Resample onto ``target``: each target cell takes the bilinear value
    at its center, as :func:`sample_bilinear` gives it.  Centers outside the
    source bounds, or whose 2x2 neighborhood touches nodata, become nodata.
    """
    vals, inside = _bilinear_many(grid, *target.center(
        np.arange(target.nrows)[:, None], np.arange(target.ncols)[None, :]))
    if not inside.any():
        raise ValueError("target geometry does not overlap the source grid")
    return Grid(target, np.where(np.isnan(vals), target.nodata, vals))


# ---------------------------------------------------------------------------
# neighborhood filters


def _check_window(k: int) -> int:
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise ValueError(f"window size must be odd and positive, got {k}")
    return k


def _windows(a: np.ndarray, k: int, axis: int, fill: float) -> np.ndarray:
    """Centered length-k windows of ``a`` along ``axis``, as a view with
    the window on a new last axis; cells beyond the edge read ``fill``."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (k // 2, k // 2)
    return np.lib.stride_tricks.sliding_window_view(
        np.pad(a, pad, constant_values=fill), k, axis=axis)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _window_filter(grid: Grid, line: np.ndarray) -> Grid:
    """Window mean with the separable weights ``outer(line, line)`` and
    nodata-aware renormalization (normalized convolution:
    ``filter(v * valid) / filter(valid)``), one 1-D pass per axis.

    The mean is clamped to the range of the valid values in its window,
    which it can leave only by rounding; this keeps constant grids exactly
    constant.  Each output depends only on its own window.  Output is nodata
    only where the window holds no valid cell.  A window sum that overflows
    leaves a mean of +-inf, which the clamp takes back into range, or NaN,
    which raises ``OverflowError``.
    """
    g = grid.geometry
    valid = grid.valid_mask()
    sums = np.stack([np.where(valid, grid.values, 0.0),
                     valid.astype(np.float64)])
    # window minima of v and of -v
    low = np.stack([np.where(valid, grid.values, np.inf),
                    np.where(valid, -grid.values, np.inf)])
    for axis in (1, 2):
        win = _windows(sums, line.size, axis, 0.0)
        sums = sum(w * win[..., d] for d, w in enumerate(line))
        low = _windows(low, line.size, axis, np.inf).min(axis=-1)
    num, den = sums
    out = np.clip(num / den, low[0], -low[1])
    out[den == 0.0] = g.nodata
    if np.isnan(out).any():
        raise OverflowError("a window mean's sum overflows")
    return Grid(g, out)


def uniform_filter(grid: Grid, k: int) -> Grid:
    """Arithmetic mean over the valid cells of each k x k window."""
    k = _check_window(k)
    return _window_filter(grid, np.ones(k))


def gaussian_filter(grid: Grid, k: int, sigma: float | None = None) -> Grid:
    """Gaussian window mean, kernel truncated to k x k.

    ``sigma`` defaults to ``k/6`` so the +/-3 sigma support fills the window.
    Weights are renormalized over the valid in-window cells of each pixel.
    """
    k = _check_window(k)
    if sigma is None:
        sigma = k / 6.0
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = k // 2
    offsets = np.arange(k, dtype=np.float64) - r
    with np.errstate(over="ignore"):  # a tiny sigma's off-centre weights are 0
        line = np.exp(-0.5 * (offsets / sigma) ** 2)
    return _window_filter(grid, line)


@np.errstate(over="ignore", invalid="ignore")
def window_iqr(grid: Grid, k: int) -> Grid:
    """Per-cell interquartile range (Q3 - Q1) over each k x k window.

    Quartiles use linear interpolation between order statistics at positions
    (n-1) * {0.25, 0.75}, bit for bit as ``np.nanquantile``.  Cells with
    fewer than 4 valid window members become nodata.  A range that
    overflows raises ``OverflowError``.

    The valid values of each output row's band of k rows are kept sorted as
    the band slides down, and the sorted band is cut into chunks of about
    sqrt(band size) values.  Counts of each chunk's members per column,
    summed over each window's columns and then over chunks, give the chunk
    that holds each order statistic; a running count of the window's
    members inside that chunk gives the value.
    """
    k = _check_window(k)
    g = grid.geometry
    r = k // 2
    ncols = g.ncols
    valid = grid.valid_mask()
    out = np.full((g.nrows, ncols), g.nodata)
    left = np.arange(ncols, dtype=np.int32) - r
    hi = np.minimum(left + k, ncols)
    lo = np.maximum(left, 0)
    # the band's valid values, ascending, and the flat index of their cells
    s, cell = np.empty(0), np.empty(0, np.int64)
    top = 0  # rows above top are in the band
    for i in range(g.nrows):
        keep = cell >= (i - r) * ncols
        s, cell = s[keep], cell[keep]
        for row in range(top, min(g.nrows, i + r + 1)):
            (c,) = np.nonzero(valid[row])
            c = c[np.argsort(grid.values[row, c], kind="stable")]
            at = np.searchsorted(s, grid.values[row, c])
            s = np.insert(s, at, grid.values[row, c])
            cell = np.insert(cell, at, row * ncols + c)
        top = i + r + 1
        if s.size < 4:
            continue

        size = math.isqrt(s.size)
        n_chunks = -(-s.size // size)
        col = cell % ncols
        counts = np.bincount(col * n_chunks + np.arange(s.size) // size,
                             minlength=ncols * n_chunks)
        prefix = np.zeros((ncols + 1, n_chunks), np.int32)
        np.cumsum(counts.reshape(ncols, n_chunks), axis=0, dtype=np.int32,
                  out=prefix[1:])
        # upto[j, c]: members of window j in chunks 0 ... c
        upto = np.cumsum(prefix[hi] - prefix[lo], axis=1, dtype=np.int32)
        ok = np.flatnonzero(upto[:, -1] >= 4)
        if not ok.size:
            continue
        # rows of upto are nondecreasing: offsetting row j by
        # j * (s.size + 1) sorts the flattened table for one search
        base = np.arange(ncols, dtype=np.int64) * (s.size + 1)
        flat = (upto + base[:, None]).ravel()
        # each chunk's columns, the last one padded with a column that no
        # window holds
        chunk_cols = np.full(n_chunks * size, -ncols - k, np.int32)
        chunk_cols[:s.size] = col
        chunk_cols = chunk_cols.reshape(n_chunks, size)

        def find(w, m):
            """Start of the chunk holding window w's m-th member (from 1),
            the running count of the window's members in it, and m's rank
            among them."""
            c = np.searchsorted(flat, base[w] + m) - w * n_chunks
            before = np.where(c > 0, upto[w, c - 1], 0)
            # window j holds columns j - r ... j + r: one unsigned compare
            run = np.cumsum((chunk_cols[c] - left[w, None]).view(np.uint32)
                            <= 2 * r, axis=1, dtype=np.int32)
            return c * size, run, (m - before)[:, None]

        n = upto[ok, -1]
        q = []
        for frac in (0.25, 0.75):
            pos = (n - 1) * frac
            below = np.floor(pos)
            m = below.astype(np.int64) + 1
            start, run, rank = find(ok, m)
            at_a = start + np.count_nonzero(run < rank, axis=1)
            # member m + 1 is in the same chunk unless m ends its run
            later = np.count_nonzero(run <= rank, axis=1)
            at_b = start + later
            far = np.flatnonzero(later == size)
            if far.size:
                start, run, rank = find(ok[far], m[far] + 1)
                at_b[far] = start + np.count_nonzero(run < rank, axis=1)
            a, b = s[at_a], s[at_b]
            t = pos - below
            # numpy's own interpolation steps, for bit-equal results
            q.append(np.where(t >= 0.5, b - (b - a) * (1 - t),
                              a + (b - a) * t))
        out[i, ok] = q[1] - q[0]
    if not np.isfinite(out).all():
        raise OverflowError("the windowed IQR overflows")
    return Grid(g, out)
