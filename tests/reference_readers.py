"""The CSV readers as they were written by hand, before the tables were
described in ``rainstats``: the row-by-row reader :func:`read_rows`, the
record CSVs' row converters (the tips' and the observations' see the time
of the row before, through :func:`in_time_order`) and the readers of the
five site-keyed CSVs, with the record types that checked sites and climate
points as they were built.  They are the reference that ``test_tables`` and
``test_table_parity`` hold the described readers to.  Keep them as they
are; they are the record of each table's accepted rows and messages.

The subcommands' config checks, as their handlers made them before the
rules were declared in the schemas, end the module: the reference that
``test_config_parity`` holds the declared rules to.
"""

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from rainstats.errors import ConfigError, DataError
from rainstats.gauge import parse_utc_time, period_edges, span_minutes
from rainstats.rainmodel import RATE_CAP_MM_H
from rainstats.raster import GridGeometry

# ---------------------------------------------------------------------------
# row-by-row reading


def read_rows(path, columns, convert):
    """Yield ``(line number, convert(row))`` for each non-empty CSV row.

    The first row must equal ``columns`` and every later non-empty row must
    have that many fields.  A wrong header, a wrong field count, text the
    csv module cannot parse (such as a field over its size limit) or a
    ``ValueError`` from ``convert`` raises :class:`DataError` naming the
    file and line, and bytes that are not UTF-8 one naming the file and the
    first such byte.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != list(columns):
                raise DataError(f"{path}: expected header "
                                f"{','.join(columns)}, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(columns):
                    raise DataError(f"{path}: line {reader.line_num}: "
                                    f"expected {len(columns)} columns")
                try:
                    value = convert(row)
                except ValueError as e:
                    raise DataError(
                        f"{path}: line {reader.line_num}: {e}") from None
                yield reader.line_num, value
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from None
        except UnicodeDecodeError:
            with open(path, "rb") as whole:  # the byte's place in the file
                data = whole.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(
                    f"{path}: not UTF-8 at byte {e.start}") from None


def read_keyed(path, columns, convert) -> dict:
    """``{first field: convert(row)}`` for each row read by :func:`read_rows`,
    in file order.  The first field is a site id, and a site listed twice
    raises :class:`DataError` naming the file and the second line."""
    out = {}
    for lineno, (key, value) in read_rows(
            path, columns, lambda row: (row[0], convert(row))):
        if key in out:
            raise DataError(f"{path}: line {lineno}: duplicate site {key}")
        out[key] = value
    return out


def in_time_order(convert):
    """A row converter for one file whose records start with a time:
    ``convert(row, before)``, where ``before`` is the time of the row before
    (-inf for the first row)."""
    before = -math.inf

    def convert_next(row):
        nonlocal before
        record = convert(row, before)
        before = record[0]
        return record
    return convert_next


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# ---------------------------------------------------------------------------
# tip CSV

_TIP_COLUMNS = ["time_iso8601_utc", "depth_mm"]
_TIP_DTYPE = np.dtype([("time", np.float64), ("depth", np.float64)])


def parse_utc_time(text: str) -> float:
    """Epoch seconds of an ISO 8601 stamp; a stamp without an offset is
    taken as UTC, never as the machine's local time."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _tip_row(row, before):
    depth = float(row[1])
    if not 0 < depth < math.inf:
        raise ValueError(f"tip depth must be positive and finite, "
                         f"got {depth}")
    time = parse_utc_time(row[0])
    if not time > before:
        raise ValueError("tip times must be strictly increasing")
    return time, depth


# ---------------------------------------------------------------------------
# observation CSV

_OBS_COLUMNS = ["time_s", "lat", "lon", "nsrr_mm_h", "rain_certain",
                "diameter_km"]


_OBS_DTYPE = np.dtype([(name, np.float64) for name in (
    "time", "lat", "lon", "nsrr", "rain_certain", "footprint_diameter")])


def _observation(row, before):
    if row[4] not in ("0", "1"):
        raise ValueError(f"rain_certain must be 0 or 1, got {row[4]!r}")
    time, lat, lon, nsrr, rain, diameter = (float(v) for v in row)
    if not (math.isfinite(time) and math.isfinite(lon)):
        raise ValueError(f"time and lon must be finite, got {time}, {lon}")
    if time < before:
        raise ValueError(f"time {time} is earlier than the row before it")
    if not 0 <= nsrr < math.inf:
        raise ValueError(f"nsrr must be finite and >= 0, got {nsrr}")
    if not nsrr < RATE_CAP_MM_H:
        raise ValueError(f"nsrr must be below {RATE_CAP_MM_H} mm/h, "
                         f"got {nsrr}")
    if not 3.0 <= diameter <= 6.0:
        raise ValueError("footprint diameter must be within [3, 6] km, "
                         f"got {diameter}")
    if not -90.0 < lat < 90.0:
        raise ValueError(f"latitude {lat} out of range")
    return time, lat, lon, nsrr, rain, diameter


# ---------------------------------------------------------------------------
# error-samples CSV

_SAMPLE_COLUMNS = ["site_id", "p_percent", "observed", "predicted"]
_SAMPLE_DTYPE = np.dtype([("site_id", object), ("p", np.float64),
                          ("observed", np.float64),
                          ("predicted", np.float64)])


def _sample_row(row):
    p, observed, predicted = (float(v) for v in row[1:])
    if not 0 < p <= 100:
        raise ValueError(f"probability must be in (0, 100], got {p}")
    if not 0 < observed < math.inf:
        raise ValueError("observed rate must be positive and finite for "
                         f"relative error, got {observed}")
    if not 0 <= predicted < math.inf:
        raise ValueError(f"predicted rate must be >= 0 and finite, "
                         f"got {predicted}")
    return row[0], p, observed, predicted


# ---------------------------------------------------------------------------
# site statistics and climate CSVs


@dataclass(frozen=True)
class ClimatePoint:
    """Climate statistics at one location: mt in mm/yr, p0 in percent."""

    mt: float
    p0: float

    def __post_init__(self):
        if not (np.isfinite(self.mt) and self.mt >= 0):
            raise ValueError(f"mt must be >= 0, got {self.mt}")
        if not (np.isfinite(self.p0) and 0 <= self.p0 <= 100):
            raise ValueError(f"p0 must be in [0, 100], got {self.p0}")


@dataclass(frozen=True)
class SiteStatistics:
    """Observed (p, R) exceedance pairs for one measurement site, stored
    sorted by ascending probability, checked as each site is built."""

    site_id: str
    lat: float
    lon: float
    country: str
    duration_years: float
    points: tuple

    def __post_init__(self):
        if self.duration_years <= 0:
            raise ValueError("duration_years must be positive")
        pts = tuple(sorted((float(p), float(r)) for p, r in self.points))
        for i, (p, r) in enumerate(pts):
            if not (0 < p <= 100):
                raise ValueError(f"probability {p} outside (0, 100]")
            if r < 0:
                raise ValueError(f"rain rate {r} is negative")
            if i and pts[i - 1][0] == p:
                raise ValueError(f"duplicate probability {p}")
            if i and r > pts[i - 1][1]:
                raise ValueError(
                    "exceedance monotonicity violated: R must not increase "
                    f"with p (p={p}, R={r})")
        object.__setattr__(self, "points", pts)


_SITE_COLUMNS = ["site_id", "lat", "lon", "country", "years", "p_percent",
                 "rate_mm_h"]


def read_sites_csv(path):
    """Read site statistics grouped by ``site_id`` in first-seen order."""
    meta = {}
    points = {}
    rows = read_rows(path, _SITE_COLUMNS, lambda r: (
        r[0], (_finite(r[1]), _finite(r[2]), r[3], _finite(r[4])),
        (_finite(r[5]), _finite(r[6]))))
    for lineno, (site_id, rec, point) in rows:
        if meta.setdefault(site_id, rec) != rec:
            raise DataError(f"{path}: line {lineno}: inconsistent "
                            f"metadata for site {site_id}")
        points.setdefault(site_id, []).append(point)
    sites = []
    for sid, (lat, lon, country, years) in meta.items():
        try:
            sites.append(SiteStatistics(sid, lat, lon, country, years,
                                        tuple(points[sid])))
        except ValueError as e:
            raise DataError(f"{path}: site {sid}: {e}") from None
    return sites


def read_climate_csv(path):
    """Map site_id -> ClimatePoint from a ``site_id,mt_mm,p0_percent`` CSV."""
    return read_keyed(path, ["site_id", "mt_mm", "p0_percent"],
                      lambda r: ClimatePoint(float(r[1]), float(r[2])))


# ---------------------------------------------------------------------------
# the locations of predict and the sites of gauge


def _located(row):
    """The fields after a site row's id, with lat and lon finite floats."""
    return (_finite(row[1]), _finite(row[2]), *row[3:])


# ---------------------------------------------------------------------------
# the subcommands' config checks


def _config_check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _validate_ladder(ladder) -> None:
    _config_check(bool(ladder), "ladder must list at least one probability")
    _config_check(all(a < b for a, b in zip(ladder, ladder[1:])),
                  "ladder must be strictly increasing")
    for p in ladder:
        _config_check(0 < p <= 100, f"ladder probability {p} outside (0, 100]")


def _below_2_31(key):
    # numpy refuses an int beyond int64; window_iqr's offsets are int32
    return lambda cfg: _config_check(
        cfg[key] < 2**31, f"{key} must be below 2**31, got {cfg[key]}")


def _odd(key):
    return lambda cfg: _config_check(
        cfg[key] >= 1 and cfg[key] % 2 == 1,
        f"{key} must be odd and positive, got {cfg[key]}")


def _output_geometry(cfg) -> None:
    try:
        GridGeometry(cfg["ncols"], cfg["nrows"], cfg["xll"], cfg["yll"],
                     cfg["cell"], cfg["nodata"])
    except ValueError as e:
        raise ConfigError(f"bad output geometry: {e}") from None


def _parse_span_time(text: str, key: str) -> float:
    try:
        return parse_utc_time(text)
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad ISO8601 time "
                          f"{text!r}") from None


def _span(cfg) -> None:
    span = tuple(_parse_span_time(cfg[key], key)
                 for key in ("span_start", "span_end"))
    _config_check(span[1] > span[0], "span_end must be after span_start")
    _config_check(len(period_edges(*span_minutes(span))) >= 2,
                  "span_start to span_end holds no full 12-month period")


#: command: its ``(name, check)`` pairs in the order its handler made them.
#: A check raises ConfigError for a config that fails it; each reads only
#: the typed config, so any check can run first.
CONFIG_CHECKS = {
    "predict": [("ladder", lambda cfg: _validate_ladder(cfg["ladder"]))],
    "build-clim": [
        *((f"{key}<2**31", _below_2_31(key))
          for key in ("ncols", "nrows", "k_uniform", "k_gauss")),
        ("geometry", _output_geometry),
        *((f"{key} odd", _odd(key)) for key in ("k_uniform", "k_gauss")),
        ("k_uniform plus ncols", lambda cfg: _config_check(
            cfg["ncols"] + cfg["k_uniform"] < 2**31,
            f"k_uniform plus ncols must be below 2**31, got "
            f"{cfg['ncols'] + cfg['k_uniform']}")),
        # mt and p0 are never negative, so a marker >= 0 (-0.0 too) would
        # mark observed values as missing
        ("nodata", lambda cfg: _config_check(
            cfg["nodata"] < 0, f"nodata must be negative, got "
                               f"{cfg['nodata']}")),
        ("sigma_gauss", lambda cfg: _config_check(
            cfg["sigma_gauss"] is None or cfg["sigma_gauss"] > 0,
            "sigma_gauss must be positive")),
        ("dedup_window_s", lambda cfg: _config_check(
            cfg["dedup_window_s"] > 0, "dedup_window_s must be positive"))],
    "gauge": [
        ("ladder", lambda cfg: _validate_ladder(cfg["ladder"])),
        ("span", _span),
        ("bucket_mm", lambda cfg: _config_check(
            cfg["bucket_mm"] is None or cfg["bucket_mm"] > 0,
            "bucket_mm must be positive")),
        ("min_count", lambda cfg: _config_check(
            cfg["min_count"] >= 1, "min_count must be >= 1"))],
    "eval": [
        ("rec_thresholds", lambda cfg: _config_check(
            bool(cfg["rec_thresholds"]) and all(
                a < b for a, b in zip(cfg["rec_thresholds"],
                                      cfg["rec_thresholds"][1:])),
            "rec_thresholds must be non-empty and ascending")),
        ("classify_p", lambda cfg: _config_check(
            0 < cfg["classify_p"] <= 100, "classify_p must be in (0, 100]")),
        ("threshold", lambda cfg: _config_check(
            cfg["threshold"] >= 0, "threshold must be >= 0"))],
    "impact": [
        ("zones", lambda cfg: _config_check(
            (cfg["zones"] is None) == (cfg["out_zones"] is None),
            "zones and out_zones must be given together")),
        ("p", lambda cfg: _config_check(0 < cfg["p"] <= 100,
                                        "p must be in (0, 100]")),
        ("threshold", lambda cfg: _config_check(
            cfg["threshold"] >= 0, "threshold must be >= 0"))],
}


def config_fault(command, cfg, order=None):
    """The message of the first of ``command``'s checks that the typed
    config ``cfg`` fails, taking them in ``order`` (a list of their names;
    the handler's order by default), or None if it passes them all."""
    checks = dict(CONFIG_CHECKS[command])
    for name in order or checks:
        try:
            checks[name](cfg)
        except ConfigError as e:
            return str(e)
    return None
