"""Batch command-line front end.

Subcommands: ``fit``, ``predict``, ``build-clim``, ``gauge``, ``eval`` and
``impact``.  Each takes ``--config PATH`` (flat key=value file) plus
``--seed`` and ``--threads``.  Outputs are computed fully before anything is
written, every run emits a manifest recording its inputs by content hash,
and reruns with the same inputs produce byte-identical outputs.  No command
draws a random number: ``--seed`` is only recorded in the manifest.  Every
command runs in one thread: ``--threads`` is accepted, and outputs are the
same for any value.  Importing the package sets ``OPENBLAS_NUM_THREADS=1``
unless the caller set it, so numpy's and scipy's OpenBLAS start no worker
threads either.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 solver error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from . import climatology, evaluation, gauge, impact, rainmodel
from .errors import (DATA_ERRORS, ConfigError, DataError, SolverError,
                     blamed)
from .raster import GridGeometry, read_grid, sample_bilinear
from .rainmodel import ClimatePoint, SiteStatistics
from .tables import (UNIQUE_SITE, Field, Rule, Table, check_config, finite,
                     load_config, read_table, write_rows, write_text)


# ---------------------------------------------------------------------------
# shared plumbing


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _files(args, cfg: dict, schema: dict):
    """A run's ``({key: input path}, {key: output path})`` from the keys
    ``schema`` marks ``in`` or ``out`` and ``cfg`` sets, checked by
    :func:`_check_paths`.  The manifest is the output ``out_manifest``: by
    default the path of the first output with ``.manifest`` appended."""
    inputs, outputs = ({key: path for key, path in cfg.items()
                        if schema[key].kind == kind and path is not None}
                       for kind in ("in", "out"))
    first = next(key for key, field in schema.items() if field.kind == "out")
    outputs["out_manifest"] = cfg["out_manifest"] or cfg[first] + ".manifest"
    _check_paths(args, inputs, outputs)
    return inputs, outputs


def _check_paths(args, inputs: dict, outputs: dict) -> None:
    """Refuse a run before it reads any input unless every input exists,
    every output directory exists, and each output, the manifest included,
    is a new or regular file of its own: not another output, an input or the
    config, and not a FIFO, device or directory, which a move would replace.

    Gauge calls it again once its sites CSV has added the tip files to
    ``inputs``."""
    for path in inputs.values():
        if not os.path.isfile(path):
            raise FileNotFoundError(f"input file not found: {path}")
    taken = {os.path.realpath(path): key for key, path in
             [("config", args.config), *inputs.items()]}
    for key, path in outputs.items():
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise ConfigError(f"output directory does not exist: {parent}")
        real = os.path.realpath(path)
        if real in taken:
            raise ConfigError(f"{key} {path!r} is the same file as "
                              f"{taken[real]}")
        taken[real] = key
    for key, path in outputs.items():
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(f"{key} {path!r} exists and is not a regular file")


def _manifest_text(args, inputs: dict, outputs: dict, notes: dict) -> str:
    lines = [
        f"command={args.command}",
        f"config={args.config}",
        f"config_sha256={_sha256(args.config)}",
        f"seed={args.seed}",
        f"version={__version__}",
    ]
    for key, path in sorted(inputs.items()):
        lines.append(f"input.{key}={path}")
        lines.append(f"input.{key}.sha256={_sha256(path)}")
    for key, value in sorted(notes.items()):
        lines.append(f"note.{key}={value}")
    for key, path in sorted(outputs.items()):
        if key != "out_manifest":
            lines.append(f"output.{key}={path}")
    return "\n".join(lines) + "\n"


@contextmanager
def _staged_outputs(args, inputs: dict, outputs: dict, notes=None):
    """Yield ``{output key: temp path}`` with one temp file beside each
    output but the manifest, which hashes ``inputs``.

    The block writes the temp files.  Only when it succeeds is the manifest
    written and are all of them moved over their outputs, so a failure at
    any step leaves no output behind.  Outputs that are directories are
    refused before any move.
    """
    temps = {key: os.path.join(os.path.dirname(path),
                               f".{os.path.basename(path)}.{os.getpid()}.tmp")
             for key, path in outputs.items()}
    try:
        yield {key: temp for key, temp in temps.items()
               if key != "out_manifest"}
        write_text(temps["out_manifest"],
                   _manifest_text(args, inputs, outputs, notes or {}))
        for path in outputs.values():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "output is a directory",
                                        path)
        for key, path in outputs.items():
            os.replace(temps[key], path)
    finally:
        for temp in temps.values():
            if os.path.exists(temp):
                os.remove(temp)


#: The site-keyed CSVs: predict's locations, gauge's sites, eval's sites.
_LOCATIONS = Table(["site_id", "lat", "lon", "country"],
                   [*finite("lat", "lon"), UNIQUE_SITE])
_GAUGE_SITES = Table(["site_id", "lat", "lon", "country", "tips_path"],
                     [*finite("lat", "lon"), UNIQUE_SITE])
_COUNTRIES = Table(["site_id", "country"], [UNIQUE_SITE])


#: Rules that several config keys share; each message names its key.
#: numpy refuses an int beyond int64, and window_iqr's offsets are int32.
_BELOW_2_31 = Rule(lambda n: n < 2**31,
                   "{key} must be below 2**31, got {value}")
_ODD = Rule(lambda k: k >= 1 and k % 2 == 1,
            "{key} must be odd and positive, got {value}")
_POSITIVE = Rule(lambda x: x > 0, "{key} must be positive")
_NOT_NEGATIVE = Rule(lambda x: x >= 0, "{key} must be >= 0")
_PERCENT = Rule(lambda p: 0 < p <= 100, "{key} must be in (0, 100]")

_LADDER = Field("floats", default=rainmodel.STANDARD_LADDER, rules=(
    Rule(bool, "ladder must list at least one probability"),
    Rule(lambda ps: list(ps) == sorted(set(ps)),
         "ladder must be strictly increasing"),
    Rule(_PERCENT.test, "ladder probability {value} outside (0, 100]",
         each=True)))


# ---------------------------------------------------------------------------
# fit


_FIT_SCHEMA = {
    "sites": Field("in", required=True),
    "climate": Field("in", required=True),
    "out_params": Field("out", required=True),
    "out_residuals": Field("out", required=True),
    "out_report": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _cmd_fit(args, cfg: dict, inputs: dict, outputs: dict) -> None:
    sites = rainmodel.read_sites_csv(cfg["sites"])
    climate = rainmodel.read_climate_csv(cfg["climate"])
    training = []
    for s in sites:
        if s.site_id not in climate:
            raise DataError(f"{cfg['climate']}: no climate record for site "
                            f"{s.site_id}")
        training.append((s, climate[s.site_id]))

    with blamed(cfg["sites"]):  # no rung the model can be fitted to
        result = rainmodel.fit_params(training)

    ids, ps, rs, mts, p0s = rainmodel._training_arrays(training)
    predicted = rainmodel._rain_rate_array(ps, mts, p0s, result.params)
    residual_rows = [[sid, repr(p), repr(r), repr(pred), repr((pred - r) / r)]
                     for sid, p, r, pred in zip(ids, ps.tolist(), rs.tolist(),
                                                predicted.tolist())]

    with _staged_outputs(args, inputs, outputs) as tmp:
        rainmodel.write_params(result.params, tmp["out_params"])
        write_rows(tmp["out_residuals"],
                   ["site_id", "p_percent", "observed", "predicted",
                    "rel_error"], residual_rows)
        write_text(tmp["out_report"],
                   f"objective={result.objective!r}\n"
                   f"n_points={result.n_points}\n"
                   f"n_sites={len(training)}\n")


# ---------------------------------------------------------------------------
# predict


_PREDICT_SCHEMA = {
    "mt_grid": Field("in", required=True),
    "p0_grid": Field("in", required=True),
    "params": Field("in", required=True),
    "locations": Field("in", required=True),
    "ladder": _LADDER,
    "out_sites": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _cmd_predict(args, cfg: dict, inputs: dict, outputs: dict) -> None:
    mt = read_grid(cfg["mt_grid"])
    p0 = read_grid(cfg["p0_grid"])
    params = rainmodel.read_params(cfg["params"])
    locations = read_table(cfg["locations"], _LOCATIONS)

    out_sites = []
    skipped = 0
    for site_id, lat, lon, country in locations.tolist():
        with blamed(f"{cfg['locations']}: site {site_id}"):  # outside the grid
            mt_v = sample_bilinear(mt, lat, lon)
            p0_v = sample_bilinear(p0, lat, lon)
        if math.isnan(mt_v) or math.isnan(p0_v):
            skipped += 1
            continue
        curve = rainmodel.estimate_site_curve(ClimatePoint(mt_v, p0_v),
                                              params, cfg["ladder"])
        out_sites.append(SiteStatistics(site_id, lat, lon, country, 1.0,
                                        tuple(curve)))

    with _staged_outputs(args, inputs, outputs,
                         {"skipped_locations": skipped}) as tmp:
        rainmodel.write_sites_csv(out_sites, tmp["out_sites"])


# ---------------------------------------------------------------------------
# build-clim


_BUILD_CLIM_SCHEMA = {
    "observations": Field("in", required=True),
    "reference_mt": Field("in", required=True),
    "elevation": Field("in", required=True),
    "ncols": Field("int", required=True, rules=(_BELOW_2_31,)),
    "nrows": Field("int", required=True, rules=(_BELOW_2_31,)),
    "xll": Field("float", required=True),
    "yll": Field("float", required=True),
    "cell": Field("float", required=True),
    # mt and p0 are never negative; a marker >= 0 (-0.0 too) would hide values
    "nodata": Field("float", required=True, rules=(
        Rule(lambda x: x < 0, "{key} must be negative, got {value}"),)),
    "k_uniform": Field("int", default=climatology.DEFAULT_K_UNIFORM,
                       rules=(_BELOW_2_31, _ODD)),
    "k_gauss": Field("int", default=climatology.DEFAULT_K_GAUSS,
                     rules=(_BELOW_2_31, _ODD)),
    "sigma_gauss": Field("float", rules=(_POSITIVE,)),
    "dedup_window_s": Field("float",
                            default=climatology.DEFAULT_DEDUP_WINDOW_S,
                            rules=(_POSITIVE,)),
    "out_mt": Field("out", required=True),
    "out_p0": Field("out", required=True),
    "out_report": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _geometry_fault(cfg: dict) -> str:
    """Why :class:`GridGeometry` refuses the output geometry, or ''."""
    try:
        GridGeometry(*(cfg[key] for key in ("ncols", "nrows", "xll", "yll",
                                            "cell", "nodata")))
    except ValueError as e:
        return str(e)
    return ""


#: build-clim's rules across keys, as :func:`check_config` takes them.
_BUILD_CLIM_RULES = (
    ("output geometry", _geometry_fault,
     (Rule(lambda fault: not fault, "bad output geometry: {value}"),)),
    ("k_uniform plus ncols", lambda cfg: cfg["ncols"] + cfg["k_uniform"],
     (_BELOW_2_31,)))


def _cmd_build_clim(args, cfg: dict, inputs: dict, outputs: dict) -> None:
    with _staged_outputs(args, inputs, outputs) as tmp:
        climatology.build_climatology({**cfg, **tmp})


# ---------------------------------------------------------------------------
# gauge


_GAUGE_SCHEMA = {
    "sites": Field("in", required=True),
    "span_start": Field("str", required=True),
    "span_end": Field("str", required=True),
    "bucket_mm": Field("float", rules=(_POSITIVE,)),
    "ladder": _LADDER,
    "min_count": Field("int", default=20, rules=(
        Rule(lambda n: n >= 1, "{key} must be >= 1"),)),
    "exclude": Field("strs", default=()),
    "out_sites": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _parse_span_time(text: str, key: str) -> float:
    try:
        return gauge.parse_utc_time(text)
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad ISO8601 time "
                         f"{text!r}") from None


def _span(cfg: dict) -> tuple:
    """The ``(start, end)`` epoch seconds of the span keys."""
    return tuple(_parse_span_time(cfg[key], key)
                 for key in ("span_start", "span_end"))


#: gauge's rules across keys, as :func:`check_config` takes them.
_GAUGE_RULES = (("span", _span, (
    Rule(lambda span: span[1] > span[0], "span_end must be after span_start"),
    Rule(lambda span: len(gauge.period_edges(*gauge.span_minutes(span))) >= 2,
         "span_start to span_end holds no full 12-month period"))),)


def _gauge_site(cfg: dict, span, tips_path):
    """``(points, years)`` of one gauge record, or ``([], 0.0)`` when no
    12-month period or no rung qualifies.  The record's tips and minute
    series live only in this call, so a run holds one record at a time."""
    tips = gauge.read_tips_csv(tips_path)
    bucket = cfg["bucket_mm"]
    if bucket is None:
        depths = np.unique(tips.depth).tolist()
        if len(depths) > 1:
            raise DataError(f"{tips_path}: mixed bucket depths "
                            f"{depths}; set bucket_mm")
        bucket = depths[0] if depths else 0.254
    with blamed(tips_path):
        series = gauge.tips_to_rates(tips, bucket, span)
    series = gauge.qc_filter(series)
    selected = gauge.select_periods(series)
    if selected is None:
        return [], 0.0
    return (gauge.exceedance_stats(selected, cfg["ladder"], cfg["min_count"]),
            selected.n_minutes / gauge.MINUTES_PER_YEAR)


def _cmd_gauge(args, cfg: dict, inputs: dict, outputs: dict) -> None:
    span = _span(cfg)
    excluded = set(cfg["exclude"])

    site_rows = read_table(cfg["sites"], _GAUGE_SITES).tolist()
    unlisted = excluded.difference(site_id for site_id, *_ in site_rows)
    if unlisted:
        raise DataError(f"{cfg['sites']}: no site {min(unlisted)} to exclude")
    inputs.update((f"tips.{site_id}", tips_path)
                  for site_id, *_, tips_path in site_rows)
    _check_paths(args, inputs, outputs)

    out_sites = []
    for site_id, lat, lon, country, tips_path in site_rows:
        if site_id not in excluded:
            points, years = _gauge_site(cfg, span, tips_path)
            if points:
                out_sites.append(SiteStatistics(site_id, lat, lon, country,
                                                years, tuple(points)))
    skipped = len(site_rows) - len(out_sites)

    with _staged_outputs(args, inputs, outputs,
                         {"skipped_sites": skipped}) as tmp:
        rainmodel.write_sites_csv(out_sites, tmp["out_sites"])


# ---------------------------------------------------------------------------
# eval


_EVAL_SCHEMA = {
    "samples": Field("in", required=True),
    "sites": Field("in"),
    "rec_thresholds": Field(
        "floats", default=tuple(float(t) for t in range(10, 101, 10)),
        rules=(Rule(lambda ts: ts and list(ts) == sorted(set(ts)),
                    "{key} must be non-empty and ascending"),)),
    "classify_p": Field("float", default=0.01, rules=(_PERCENT,)),
    "threshold": Field("float", default=evaluation.HEAVY_RATE_MM_H,
                       rules=(_NOT_NEGATIVE,)),
    "out_report": Field("out", required=True),
    "out_rec": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _cmd_eval(args, cfg: dict, inputs: dict, outputs: dict) -> None:
    samples = evaluation.read_error_samples_csv(cfg["samples"])
    countries = (None if cfg["sites"] is None
                 else dict(read_table(cfg["sites"], _COUNTRIES).tolist()))
    if not len(samples):
        raise DataError(f"{cfg['samples']}: no samples")
    # bias is finite, as both rates are finite and >= 0
    bias = samples.predicted - samples.observed
    with np.errstate(over="ignore"):
        rel_pct = 100.0 * (bias / samples.observed)

    def _bad_sample(i, what):
        return DataError(f"{cfg['samples']}: site {samples.site_id[i]} at "
                         f"p={float(samples.p[i])!r}: {what}")

    bad = np.flatnonzero(~np.isfinite(rel_pct))
    if bad.size:
        raise _bad_sample(bad[0], "relative error is not finite")

    lines = [f"count={len(samples)}"]

    def _summary_block(prefix, values, rows):
        try:
            s = evaluation.p311_summary(values[rows])
        except OverflowError:
            worst = rows[np.argmax(np.abs(values[rows]))]
            raise _bad_sample(worst, f"error overflows the {prefix} "
                                     "summary") from None
        for name in ("mean", "sd", "rms"):
            lines.append(f"{prefix}.{name}={getattr(s, name):.4f}")

    def _confusion_block(prefix, actuals, preds):
        cm = evaluation.confusion(actuals, preds)
        for name in ("tn", "fp", "fn", "tp"):
            lines.append(f"{prefix}.{name}={getattr(cm, name)}")
        lines.append(f"{prefix}.accuracy={evaluation.accuracy(cm):.4f}")
        lines.append(f"{prefix}.mcc={evaluation.mcc(cm):.4f}")

    every = np.arange(len(samples))
    _summary_block("rel_error_pct", rel_pct, every)
    _summary_block("bias_error_mm_h", bias, every)
    for p in np.unique(samples.p).tolist():
        _summary_block(f"p.{p!r}.rel_error_pct", rel_pct,
                       np.flatnonzero(samples.p == p))

    classify = samples[samples.p == cfg["classify_p"]]
    if len(classify):
        thr = cfg["threshold"]
        actuals = classify.observed > thr
        preds = classify.predicted > thr
        lines.append(f"classify.p={cfg['classify_p']!r}")
        lines.append(f"classify.threshold={thr!r}")
        _confusion_block("classify.by_site", actuals, preds)
        if countries is not None:
            codes = [countries.get(site_id) for site_id in classify.site_id]
            if None in codes:
                raise DataError(f"{cfg['sites']}: no country for site "
                                f"{classify.site_id[codes.index(None)]}")
            _confusion_block("classify.by_country",
                             *evaluation.by_country(codes, actuals, preds))

    fractions = evaluation.rec_curve(rel_pct, cfg["rec_thresholds"])

    with _staged_outputs(args, inputs, outputs) as tmp:
        write_text(tmp["out_report"], "\n".join(lines) + "\n")
        write_rows(tmp["out_rec"], ["threshold_pct", "fraction"],
                   [[repr(t), repr(frac)]
                    for t, frac in zip(cfg["rec_thresholds"], fractions)])


# ---------------------------------------------------------------------------
# impact


_IMPACT_SCHEMA = {
    "mt_grid": Field("in", required=True),
    "p0_grid": Field("in", required=True),
    "params": Field("in", required=True),
    "pop": Field("in", required=True),
    "countries": Field("in", required=True),
    "zones": Field("in", pair="out_zones"),
    "p": Field("float", default=0.01, rules=(_PERCENT,)),
    "threshold": Field("float", default=evaluation.HEAVY_RATE_MM_H,
                       rules=(_NOT_NEGATIVE,)),
    "out_impact": Field("out", required=True),
    "out_zones": Field("out"),
    "out_manifest": Field("out"),
}


def _require_aligned(cfg: dict, mt, **grids) -> None:
    """Raise :class:`DataError` naming the file of the first of ``grids``,
    given by config key, whose cells are not those of the mt grid."""
    for key, grid in grids.items():
        if not grid.geometry.aligned_with(mt.geometry):
            raise DataError(f"grids are not aligned: {cfg[key]} vs "
                            f"{cfg['mt_grid']}")


def _cmd_impact(args, cfg: dict, inputs: dict, outputs: dict) -> None:
    mt = read_grid(cfg["mt_grid"])
    p0 = read_grid(cfg["p0_grid"])
    params = rainmodel.read_params(cfg["params"])
    pop = read_grid(cfg["pop"])
    negative = pop.values[pop.valid_mask() & (pop.values < 0)]
    if negative.size:
        raise DataError(f"{cfg['pop']}: population must be >= 0, got "
                        f"{float(negative[0])!r}")
    countries = read_grid(cfg["countries"])

    _require_aligned(cfg, mt, p0_grid=p0)
    rates = impact.rate_map(mt, p0, params, cfg["p"])
    _require_aligned(cfg, mt, pop=pop, countries=countries)
    mask, nodata_pixels = impact.heavy_mask(rates, cfg["threshold"])
    zones = None if cfg["zones"] is None else read_grid(cfg["zones"])

    # a sum that overflows is the pop grid's fault, any other error that of
    # the category grid's codes or cells
    with blamed(cfg["pop"], OverflowError), blamed(cfg["countries"]):
        heavy = impact.zonal_population(pop, mask, countries)
        totals = impact.zonal_population(pop, np.ones_like(mask), countries)
    if zones is not None:
        _require_aligned(cfg, mt, zones=zones)
    with blamed(cfg["pop"], OverflowError), blamed(cfg["zones"]):
        coverage = None if zones is None else impact.zone_coverage(zones, pop)

    # both tallies list every code of the countries grid, ascending
    impact_rows = [[str(code), repr(total), repr(heavy.by_code[code])]
                   for code, total in totals.by_code.items()]
    impact_rows.append(["unassigned", repr(totals.unassigned),
                        repr(heavy.unassigned)])
    impact_rows.append(["total", repr(totals.total), repr(heavy.total)])

    zone_rows = None if coverage is None else [
        [str(code), f"{share.land_pct:.4f}", f"{share.populated_pct:.4f}",
         f"{share.pop_pct:.4f}"] for code, share in coverage.items()]

    with _staged_outputs(args, inputs, outputs,
                         {"nodata_rate_pixels": nodata_pixels}) as tmp:
        write_rows(tmp["out_impact"],
                   ["country_code", "total_pop", "heavy_pop"], impact_rows)
        if zone_rows is not None:
            write_rows(tmp["out_zones"],
                       ["zone_code", "land_pct", "populated_pct", "pop_pct"],
                       zone_rows)


# ---------------------------------------------------------------------------
# entry points


#: name: (config schema, rules across its keys, handler, help), in --help order
_COMMANDS = {
    "fit": (_FIT_SCHEMA, (), _cmd_fit,
            "fit model constants to training site statistics"),
    "predict": (_PREDICT_SCHEMA, (), _cmd_predict,
                "estimate site curves from climatology grids"),
    "build-clim": (_BUILD_CLIM_SCHEMA, _BUILD_CLIM_RULES, _cmd_build_clim,
                   "build climatology grids from swath observations"),
    "gauge": (_GAUGE_SCHEMA, _GAUGE_RULES, _cmd_gauge,
              "derive site statistics from tipping-bucket records"),
    "eval": (_EVAL_SCHEMA, (), _cmd_eval,
             "score predictions against observed statistics"),
    "impact": (_IMPACT_SCHEMA, (), _cmd_impact,
               "tabulate heavy-rain population impact"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="flat key=value configuration file")
    common.add_argument("--seed", type=int, default=0,
                        help="recorded in the manifest only; no command "
                             "draws a random number")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; every command "
                             "runs in one thread and outputs are the same "
                             "for any value")

    parser = _Parser(prog="rainstats",
                     description="Rain-rate exceedance statistics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (*_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        schema, rules, handler, _ = _COMMANDS[args.command]
        cfg = load_config(args.config, schema)
        try:
            # paths, then values, are refused before any input is read
            inputs, outputs = _files(args, cfg, schema)
            check_config(cfg, schema, rules)
            handler(args, cfg, inputs, outputs)
        except ConfigError as e:
            raise ConfigError(f"{args.config}: {e}") from None
        return 0
    except ConfigError as e:
        print(f"rainstats: config error: {e}", file=sys.stderr)
        return 1
    except SolverError as e:
        print(f"rainstats: solver error: {e}", file=sys.stderr)
        return 3
    except (*DATA_ERRORS, MemoryError) as e:
        print(f"rainstats: data error: {str(e) or 'out of memory'}",
              file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
