"""The record CSVs' row converters as they were written by hand, one per
table, before the tables were described in ``rainstats``: the reference
that ``test_table_parity`` holds the described readers to.  Keep them as
they are; they are the record of each table's accepted rows and messages.
"""

import math
from datetime import datetime, timezone

import numpy as np

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


def _tip_row(row):
    depth = float(row[1])
    if not 0 < depth < math.inf:
        raise ValueError(f"tip depth must be positive and finite, "
                         f"got {depth}")
    return parse_utc_time(row[0]), depth


# ---------------------------------------------------------------------------
# observation CSV

_OBS_COLUMNS = ["time_s", "lat", "lon", "nsrr_mm_h", "rain_certain",
                "diameter_km"]


_OBS_DTYPE = np.dtype([(name, np.float64) for name in (
    "time", "lat", "lon", "nsrr", "rain_certain", "footprint_diameter")])


def _observation(row):
    if row[4] not in ("0", "1"):
        raise ValueError(f"rain_certain must be 0 or 1, got {row[4]!r}")
    time, lat, lon, nsrr, rain, diameter = (float(v) for v in row)
    if not (math.isfinite(time) and math.isfinite(lon)):
        raise ValueError(f"time and lon must be finite, got {time}, {lon}")
    if not 0 <= nsrr < math.inf:
        raise ValueError(f"nsrr must be finite and >= 0, got {nsrr}")
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

