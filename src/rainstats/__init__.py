"""Rain-rate exceedance statistics toolkit.

Estimates 1-min rain-rate exceedance curves from gridded rainfall
climatologies, builds such climatologies from radar-footprint observations,
derives reference site statistics from tipping-bucket gauge records, and
scores estimation methods with fit metrics, REC curves, classification
metrics and population-impact tables.
"""

__version__ = "0.1.0"

import os

# Every command runs in one thread: OpenBLAS reads this when numpy first
# loads, so it is set before the imports below.  A caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ConfigError, DataError, SolverError
from .raster import (Grid, GridGeometry, gaussian_filter, read_grid,
                     resample, sample_bilinear, uniform_filter, window_iqr,
                     write_grid)
from .rainmodel import (STANDARD_LADDER, ClimatePoint, FitResult, ModelParams,
                        SiteStatistics, curve_objective, estimate_site_curve,
                        fit_params, rain_rate)

__all__ = [
    "ConfigError", "DataError", "SolverError",
    "Grid", "GridGeometry", "gaussian_filter", "read_grid", "resample",
    "sample_bilinear", "uniform_filter", "window_iqr", "write_grid",
    "STANDARD_LADDER", "ClimatePoint", "FitResult", "ModelParams",
    "SiteStatistics", "curve_objective", "estimate_site_curve",
    "fit_params", "rain_rate",
    "__version__",
]
