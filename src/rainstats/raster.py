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

from .errors import AlignmentError, GridParseError
from .tables import read_text, write_text

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
                "NODATA_value")


@dataclass(frozen=True)
class GridGeometry:
    """Shape and placement of a regular lat/lon grid.

    ``xll``/``yll`` locate the lower-left corner in degrees, ``cell`` is the
    pixel size in degrees and ``nodata`` is the missing-value sentinel.
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
        if self.yll < -90.0 or self.yll + self.nrows * self.cell > 90.0 + 1e-9:
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

    def row_center_lats(self) -> np.ndarray:
        """Cell-center latitudes, north row first."""
        rows = np.arange(self.nrows, dtype=np.float64)
        return self.yll + (self.nrows - rows - 0.5) * self.cell

    def col_center_lons(self) -> np.ndarray:
        cols = np.arange(self.ncols, dtype=np.float64)
        return self.xll + (cols + 0.5) * self.cell


class Grid:
    """One scalar value per cell on a :class:`GridGeometry`.

    ``values`` is a float64 array of shape ``(nrows, ncols)`` whose first row
    is the northernmost.  Every value is finite; cells equal to the geometry's
    nodata sentinel are treated as missing.
    """

    __slots__ = ("geometry", "values")

    def __init__(self, geometry: GridGeometry, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != geometry.ncols * geometry.nrows:
            raise ValueError(
                f"expected {geometry.ncols * geometry.nrows} values, "
                f"got {arr.size}")
        arr = arr.reshape(geometry.nrows, geometry.ncols).copy()
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

    def __repr__(self) -> str:
        g = self.geometry
        return f"Grid({g.ncols}x{g.nrows} @ {g.cell} deg)"


def require_aligned(*grids: Grid) -> None:
    """Raise :class:`AlignmentError` unless all grids share a geometry."""
    first = grids[0].geometry
    for g in grids[1:]:
        if not first.aligned_with(g.geometry):
            raise AlignmentError(
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

    Raises :class:`GridParseError` naming the file and line at fault for
    malformed headers, row/column count mismatches or non-numeric tokens.
    """
    return read_text(path, _parse_grid)


def _parse_grid(text: str) -> Grid:
    """The grid in ``text``, the contents of a grid file."""
    raw = text.split("\n")
    del text  # the parse holds the lines and values, not the text too
    header = {}
    for lineno, key in enumerate(_HEADER_KEYS, start=1):
        line = raw[lineno - 1] if lineno <= len(raw) else ""
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise GridParseError(
                f"line {lineno}: expected '{key} <value>', got {line!r}")
        try:
            header[key] = (int if key in ("ncols", "nrows") else float)(
                parts[1])
        except ValueError as e:
            raise GridParseError(f"line {lineno}: {e}") from None

    try:
        geometry = GridGeometry(header["ncols"], header["nrows"],
                                header["xllcorner"], header["yllcorner"],
                                header["cellsize"], header["NODATA_value"])
    except ValueError as e:
        raise GridParseError(f"header: {e}") from None

    nrows, ncols = geometry.nrows, geometry.ncols
    n_lines = len(raw) - 6 - (raw[-1] == "")
    if n_lines < nrows:
        raise GridParseError(
            f"line {7 + n_lines}: expected {nrows} data rows, file ends "
            f"after {n_lines}")
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r in range(nrows):
        lineno = 7 + r
        tokens = raw[6 + r].split()
        if len(tokens) != ncols:
            raise GridParseError(
                f"line {lineno}: expected {ncols} values, found {len(tokens)}")
        try:
            row = [float(t) for t in tokens]
        except ValueError as e:
            raise GridParseError(f"line {lineno}: {e}") from None
        values[r] = row
        if not np.all(np.isfinite(values[r])):
            raise GridParseError(f"line {lineno}: non-finite value in row")

    for extra, line in enumerate(raw[6 + nrows:]):
        if line.strip():
            raise GridParseError(
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

    # continuous (row-from-north, col) coordinates of the sample point
    gx = (lons - g.xll) / g.cell - 0.5
    gy = (g.lat_max - lats) / g.cell - 0.5

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

    Returns the grid's nodata sentinel if any of the four neighbors is
    nodata.  Raises ``ValueError`` for coordinates outside the outer bounds.
    """
    vals, inside = _bilinear_many(grid, [lat], [lon])
    if not inside[0]:
        raise ValueError(f"point ({lat}, {lon}) is outside the grid bounds")
    if np.isnan(vals[0]):
        return grid.geometry.nodata
    return float(vals[0])


def resample(grid: Grid, target: GridGeometry) -> Grid:
    """Resample onto ``target``: each target cell takes the bilinear value
    at its center, as :func:`sample_bilinear` gives it.  Centers outside the
    source bounds, or whose 2x2 neighborhood touches nodata, become nodata.
    """
    vals, inside = _bilinear_many(grid, target.row_center_lats()[:, None],
                                  target.col_center_lons()[None, :])
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


def _window_filter(grid: Grid, line: np.ndarray) -> Grid:
    """Window mean with the separable weights ``outer(line, line)`` and
    nodata-aware renormalization (normalized convolution:
    ``filter(v * valid) / filter(valid)``), one 1-D pass per axis.

    The mean is clamped to the range of the valid values in its window,
    which it can leave only by rounding; this keeps constant grids exactly
    constant.  Each output depends only on its own window.  Output is nodata
    only where the window holds no valid cell.
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
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.clip(num / den, low[0], -low[1])
    out[den == 0.0] = g.nodata
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
    return _window_filter(grid, np.exp(-0.5 * (offsets / sigma) ** 2))


def window_iqr(grid: Grid, k: int) -> Grid:
    """Per-cell interquartile range (Q3 - Q1) over each k x k window.

    Quartiles use linear interpolation between order statistics at positions
    (n-1) * {0.25, 0.75}, bit for bit as ``np.nanquantile``.  Cells with
    fewer than 4 valid window members become nodata.

    The valid values of each output row's band of k rows are sorted once,
    and a window's order statistics are found by counting, in sorted order,
    the band members whose column falls inside it.
    """
    k = _check_window(k)
    g = grid.geometry
    r = k // 2
    valid = grid.valid_mask()
    out = np.full((g.nrows, g.ncols), g.nodata)
    # blocks of w output columns keep the count table, w * k * (w + 2r)
    # entries, near 4e6
    width = max(1, int(math.sqrt(r * r + 4e6 / k)) - r)
    for i in range(g.nrows):
        for c0 in range(0, g.ncols, width):
            band = (slice(max(0, i - r), i + r + 1),
                    slice(max(0, c0 - r), c0 + width + r))
            bi, bj = np.nonzero(valid[band])
            if bi.size < 4:
                continue
            v = grid.values[band][bi, bj]
            order = np.argsort(v, kind="stable")
            s, col = v[order], (bj[order] + band[1].start).astype(np.int32)
            # window j holds columns j - r ... j + r: one unsigned compare
            left = np.arange(c0, min(c0 + width, g.ncols), dtype=np.int32) - r
            cum = np.cumsum((col - left[:, None]).view(np.uint32) <= 2 * r,
                            axis=1, dtype=np.int32)
            n = cum[:, -1]
            ok = n >= 4
            if not ok.any():
                continue
            cum, n = cum[ok], n[ok]
            # rows of cum are nondecreasing: offsetting row w by
            # w * (s.size + 1) sorts the flattened table for one search
            base = np.arange(n.size, dtype=np.int32) * np.int32(s.size + 1)
            flat = (cum + base[:, None]).ravel()
            row0 = np.arange(n.size) * s.size
            q = []
            for frac in (0.25, 0.75):
                pos = (n - 1) * frac
                lo = np.floor(pos)
                rank = lo.astype(np.int32)
                a, b = (s[np.searchsorted(flat, base + rank + j) - row0]
                        for j in (1, 2))
                t = pos - lo
                # numpy's own interpolation steps, for bit-equal results
                q.append(np.where(t >= 0.5, b - (b - a) * (1 - t),
                                  a + (b - a) * t))
            out[i, c0:c0 + width][ok] = q[1] - q[0]
    return Grid(g, out)
