"""Writers of the CSV inputs that ``rainstats`` reads, for building test
fixtures.  Each writes the format its reader in the package expects."""

from datetime import datetime, timezone

import numpy as np

from rainstats.climatology import _OBS_COLUMNS
from rainstats.evaluation import _SAMPLE_COLUMNS
from rainstats.gauge import _TIP_COLUMNS, _TIP_DTYPE
from rainstats.tables import write_rows


def tips(times, depth=0.254):
    """Tips at epoch seconds ``times``, each of ``depth`` mm, as the record
    array ``gauge.read_tips_csv`` returns."""
    times = np.asarray(times, dtype=np.float64)
    return np.rec.fromarrays([times, np.full(times.size, float(depth))],
                             dtype=_TIP_DTYPE)


def write_observations_csv(observations, path) -> None:
    write_rows(path, _OBS_COLUMNS, (
        [repr(o.time), repr(o.lat), repr(o.lon), repr(o.nsrr),
         int(o.rain_certain), repr(o.footprint_diameter)]
        for o in observations))


def _format_tip_time(t: float) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    text = dt.strftime("%Y-%m-%dT%H:%M:%S")
    if dt.microsecond:
        text += f".{dt.microsecond:06d}"
    return text + "Z"


def write_tips_csv(records, path) -> None:
    """Write the tips of a record array made by :func:`tips`."""
    write_rows(path, _TIP_COLUMNS, (
        [_format_tip_time(t), repr(d)]
        for t, d in zip(records.time.tolist(), records.depth.tolist())))


def write_error_samples_csv(samples, path) -> None:
    write_rows(path, _SAMPLE_COLUMNS, (
        [s.site_id, repr(s.p), repr(s.observed), repr(s.predicted)]
        for s in samples))
