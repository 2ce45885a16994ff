"""Outside-in span recorder for the traced in-process run.

:func:`install` wraps the public functions listed in ``SPANS``.  It patches
every binding a caller can use: the attribute of the defining module and
the same name in each ``rainstats`` module that imported it (``cli`` takes
``read_grid`` and ``sample_bilinear``, ``climatology`` takes the filters,
``resample`` and the grid I/O).  Spans are kept in memory; :meth:`layers`
turns them into per-layer self times and counts when the run ends.

Counts named ``cells`` or ``rows`` are measured from arguments and results.
``window_values`` and ``weight_ops`` are derived from sizes as cells x k^2,
not measured, and carry the unit ``derived_count``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _grid_cells(g):
    return g.geometry.ncols * g.geometry.nrows


def _window_work(key):
    def count(args, kw, out):
        k = kw["k"] if "k" in kw else args[1]
        return {key: _grid_cells(args[0]) * k * k}
    return count


def _events(args, kw, out):
    times = np.array([e.time for e in args[0]])
    return {"events": int(times.size > 0)
            + int(np.count_nonzero(np.diff(times) > 1800.0)),
            "minutes": out.n_minutes}


def _render(args, kw, out):
    acc, report = out
    return {"observations": report.n_observations,
            "windows": int(acc.n_total.sum()), "skipped": report.n_skipped}


def _rows_len(args, kw, out):
    return {"rows": len(out)}


def _site_rows(args, kw, out):
    """Rows read, or for a writer (which returns None) rows written."""
    sites = out if out is not None else args[0]
    return {"rows": sum(len(s.points) for s in sites)}


def _curve_points(args, kw, out):
    return {"points": len(out)}


def _rate_cells(args, kw, out):
    return {"cells": int(np.count_nonzero(out.valid_mask()))}


def _read_grid(args, kw, out):
    return {"cells": _grid_cells(out), "bytes": os.path.getsize(args[0])}


def _write_grid(args, kw, out):
    return {"cells": _grid_cells(args[0]), "bytes": os.path.getsize(args[1])}


def _iqr(args, kw, out):
    return {"cells": _grid_cells(out),
            **_window_work("window_values")(args, kw, out)}


def _out_cells(args, kw, out):
    return {"cells": _grid_cells(out)}


_TIMED = ((), None)

#: module -> {public function: (metric keys beyond self_s, count function)}.
#: ``calls`` comes from the span count; ``t2_s`` and ``useful_frac`` are
#: filled in by the traced run.
SPANS = {
    "rainmodel": {
        "fit_params": (("nfev", "t2_s"), None),
        "estimate_site_curve": (("calls", "points"), _curve_points),
        "read_sites_csv": (("rows",), _site_rows),
        "read_climate_csv": (("rows",), _rows_len),
        "write_sites_csv": (("rows",), _site_rows),
    },
    "impact": {
        "rate_map": (("cells",), _rate_cells),
        "heavy_mask": _TIMED,
        "zonal_population": _TIMED,
        "zone_coverage": _TIMED,
    },
    "raster": {
        "read_grid": (("cells", "bytes"), _read_grid),
        "write_grid": (("cells", "bytes"), _write_grid),
        "sample_bilinear": (("calls",), None),
        "resample": (("cells",), _out_cells),
        "window_iqr": (("cells", "window_values"), _iqr),
        "uniform_filter": (("weight_ops",), _window_work("weight_ops")),
        "gaussian_filter": (("weight_ops",), _window_work("weight_ops")),
    },
    "climatology": {
        "read_observations_csv": (("rows",), _rows_len),
        "render_observations": (("observations", "windows", "skipped",
                                 "useful_frac", "t2_s"), _render),
        "initial_estimates": _TIMED,
        "elevation_weight": _TIMED,
        "merge_reference": _TIMED,
        "finalize": _TIMED,
        "build_climatology": _TIMED,
    },
    "gauge": {
        "read_tips_csv": (("rows",), _rows_len),
        "tips_to_rates": (("events", "minutes"), _events),
        "qc_filter": _TIMED,
        "select_periods": _TIMED,
        "exceedance_stats": _TIMED,
    },
    "evaluation": {
        "read_error_samples_csv": (("rows",), _rows_len),
        "p311_summary": _TIMED,
        "rec_curve": _TIMED,
        "confusion": _TIMED,
        "by_country": _TIMED,
    },
}

COMMANDS = ("build-clim", "fit", "predict", "impact", "gauge", "eval")

#: Calls recorded so the threads=2 comparison can repeat them.
CAPTURE = ("rainmodel.fit_params", "climatology.render_observations")

#: Which workloads call each span; the self test holds the program to it.
SPAN_WORKLOADS = {
    **{f"climatology.{n}": {"clim-gauge"} for n in SPANS["climatology"]},
    **{f"gauge.{n}": {"clim-gauge"} for n in SPANS["gauge"]},
    **{f"evaluation.{n}": {"clim-gauge"} for n in SPANS["evaluation"]},
    **{f"impact.{n}": {"site-planning"} for n in SPANS["impact"]},
    **{f"rainmodel.{n}": {"site-planning"} for n in SPANS["rainmodel"]},
    "rainmodel.write_sites_csv": {"site-planning", "clim-gauge"},
    **{f"raster.{n}": {"clim-gauge"} for n in SPANS["raster"]},
    "raster.read_grid": {"site-planning", "clim-gauge"},
    "raster.sample_bilinear": {"site-planning"},
    "cli.build-clim": {"clim-gauge"},
    "cli.fit": {"site-planning"}, "cli.predict": {"site-planning"},
    "cli.impact": {"site-planning"}, "cli.gauge": {"clim-gauge"},
    "cli.eval": {"clim-gauge"},
}

def command_metric(cmd):
    """Name of a subcommand's process wall time, e.g. ``build_clim_s``."""
    return cmd.replace("-", "_") + "_s"


#: Per-subcommand process wall times, measured on the CLI chain.  ``eval``
#: runs for about 0.1 s after imports, too short to be steady on its own.
COMMAND_METRICS = tuple(command_metric(c) for c in COMMANDS if c != "eval")

_UNITS = {"self_s": "s", "t2_s": "s", "bytes": "B",
          "window_values": "derived_count", "weight_ops": "derived_count",
          "useful_frac": "frac"}


def per_layer_metrics():
    """[(name, unit)] of every per-layer metric, in report order."""
    out = [("cli.import_s", "s")]
    out += [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    out += [(m, "s") for m in COMMAND_METRICS]
    for mod, funcs in SPANS.items():
        for fn, (keys, _) in funcs.items():
            out += [(f"{mod}.{fn}.{k}", _UNITS.get(k, "count"))
                    for k in ("self_s",) + keys]
    out.append(("trace.overhead_frac", "frac"))
    return out


class Recorder:
    """Spans as [name, parent index, start, end] plus per-name counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(Counter)
        self.captured = {}

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, parent, time.perf_counter(), None])
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[self.stack.pop()][3] = time.perf_counter()

    def layers(self):
        """{span name: {"self_s": s, "calls": n, **counts}}."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for (name, _, t0, t1), c in zip(self.spans, child):
            out[name]["self_s"] += (t1 - t0) - c
            out[name]["calls"] += 1
        for name, counts in self.counts.items():
            out[name].update(counts)
        return dict(out)

    def dump(self, path):
        """Write the spans as JSON lines: name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _wrap(rec, name, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        out = rec.span(name, fn, *args, **kwargs)
        if counter is not None:
            rec.counts[name].update(counter(args, kwargs, out))
        if name in CAPTURE and name not in rec.captured:
            rec.captured[name] = (args, kwargs, out)
        return out
    return traced


def install(rec):
    """Patch every binding of the ``SPANS`` functions; return the undo list.

    ``rainmodel.minimize`` is wrapped too, to sum ``nfev`` into the
    ``rainmodel.fit_params`` counts.
    """
    import rainstats.cli  # noqa: F401  (loads every module)
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "rainstats" or n.startswith("rainstats.")]
    undo = []
    for modname, funcs in SPANS.items():
        home = sys.modules[f"rainstats.{modname}"]
        for fn_name, (_, counter) in funcs.items():
            orig = getattr(home, fn_name)
            traced = _wrap(rec, f"{modname}.{fn_name}", orig, counter)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, traced)
                        undo.append((m, attr, orig))
    rainmodel = sys.modules["rainstats.rainmodel"]
    minimize = rainmodel.minimize

    def counted_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        rec.counts["rainmodel.fit_params"]["nfev"] += int(res.nfev)
        return res

    rainmodel.minimize = counted_minimize
    undo.append((rainmodel, "minimize", minimize))
    return undo


def uninstall(undo):
    for m, attr, orig in reversed(undo):
        setattr(m, attr, orig)
