"""Writers of the CSV inputs that ``rainstats`` reads, for building test
fixtures.  Each writes the format its reader in the package expects."""

from datetime import datetime, timezone

import numpy as np

from rainstats.climatology import _OBSERVATIONS
from rainstats.evaluation import _SAMPLES
from rainstats.gauge import _TIPS
from rainstats.tables import write_rows


def tips(times, depth=0.254):
    """Tips at epoch seconds ``times``, each of ``depth`` mm, as the record
    array ``gauge.read_tips_csv`` returns."""
    times = np.asarray(times, dtype=np.float64)
    return np.rec.fromarrays([times, np.full(times.size, float(depth))],
                             dtype=_TIPS.dtype)


def observations(rows):
    """Footprints from ``(time, lat, lon, nsrr, rain_certain,
    footprint_diameter)`` tuples, as the record array
    ``climatology.read_observations_csv`` returns."""
    return np.array([tuple(r) for r in rows],
                    dtype=_OBSERVATIONS.dtype).view(np.recarray)


def samples(rows):
    """Error samples from ``(site_id, p, observed, predicted)`` tuples, as
    the record array ``evaluation.read_error_samples_csv`` returns."""
    return np.array([tuple(r) for r in rows],
                    dtype=_SAMPLES.dtype).view(np.recarray)


def write_observations_csv(records, path) -> None:
    """Write the footprints of a record array made by :func:`observations`."""
    write_rows(path, _OBSERVATIONS.columns, (
        [repr(t), repr(lat), repr(lon), repr(nsrr), int(rain), repr(d)]
        for t, lat, lon, nsrr, rain, d in records.tolist()))


def _format_tip_time(t: float) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    text = dt.strftime("%Y-%m-%dT%H:%M:%S")
    if dt.microsecond:
        text += f".{dt.microsecond:06d}"
    return text + "Z"


def write_tips_csv(records, path) -> None:
    """Write the tips of a record array made by :func:`tips`."""
    write_rows(path, _TIPS.columns, (
        [_format_tip_time(t), repr(d)]
        for t, d in zip(records.time.tolist(), records.depth.tolist())))


def write_error_samples_csv(records, path) -> None:
    """Write the samples of a record array made by :func:`samples`."""
    write_rows(path, _SAMPLES.columns, (
        [site_id, repr(p), repr(observed), repr(predicted)]
        for site_id, p, observed, predicted in records.tolist()))
