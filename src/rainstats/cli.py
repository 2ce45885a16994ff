"""Batch command-line front end.

Subcommands: ``fit``, ``predict``, ``build-clim``, ``gauge``, ``eval`` and
``impact``.  Each takes ``--config PATH`` (flat key=value file) plus
``--seed`` and ``--threads``.  Outputs are computed fully before anything is
written, every run emits a manifest recording its inputs by content hash,
and reruns with the same inputs produce byte-identical outputs.  Every
command runs in one thread: ``--threads`` is accepted, and outputs are the
same for any value.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 solver error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from . import climatology, evaluation, gauge, impact, rainmodel
from .errors import ConfigError, DataError, SolverError
from .raster import Grid, GridGeometry, read_grid, sample_bilinear
from .rainmodel import ClimatePoint, SiteStatistics
from .tables import Field, load_config, read_keyed, write_rows, write_text


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
    is a file of its own: not another output, an input or the config.

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


def _config_check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _validate_ladder(ladder) -> None:
    _config_check(bool(ladder), "ladder must list at least one probability")
    _config_check(all(a < b for a, b in zip(ladder, ladder[1:])),
                  "ladder must be strictly increasing")
    for p in ladder:
        _config_check(0 < p <= 100, f"ladder probability {p} outside (0, 100]")


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


def _cmd_fit(args, cfg: dict) -> None:
    inputs, outputs = _files(args, cfg, _FIT_SCHEMA)

    sites = rainmodel.read_sites_csv(cfg["sites"])
    climate = rainmodel.read_climate_csv(cfg["climate"])
    training = []
    for s in sites:
        if s.site_id not in climate:
            raise DataError(f"no climate record for site {s.site_id}")
        training.append((s, climate[s.site_id]))

    result = rainmodel.fit_params(training)

    residual_rows = []
    for s, c in training:
        retained = [(p, r) for p, r in s.points if r > 0]
        if not retained:
            continue
        curve = rainmodel.estimate_site_curve(c, result.params,
                                              [p for p, _ in retained])
        for (p, r), (_, pred) in zip(retained, curve):
            residual_rows.append([s.site_id, repr(p), repr(r), repr(pred),
                                  repr((pred - r) / r)])

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
    "ladder": Field("floats", default=rainmodel.STANDARD_LADDER),
    "out_sites": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _located(row):
    """The fields after a site row's id, with lat and lon as floats."""
    return (float(row[1]), float(row[2]), *row[3:])


def _cmd_predict(args, cfg: dict) -> None:
    inputs, outputs = _files(args, cfg, _PREDICT_SCHEMA)
    _validate_ladder(cfg["ladder"])

    mt = read_grid(cfg["mt_grid"])
    p0 = read_grid(cfg["p0_grid"])
    params = rainmodel.read_params(cfg["params"])
    locations = read_keyed(cfg["locations"],
                           ["site_id", "lat", "lon", "country"], _located)

    out_sites = []
    skipped = 0
    for site_id, (lat, lon, country) in locations.items():
        mt_v = sample_bilinear(mt, lat, lon)
        p0_v = sample_bilinear(p0, lat, lon)
        if mt_v == mt.geometry.nodata or p0_v == p0.geometry.nodata:
            skipped += 1
            continue
        curve = rainmodel.estimate_site_curve(
            ClimatePoint(max(mt_v, 0.0), min(max(p0_v, 0.0), 100.0)),
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
    "ncols": Field("int", required=True),
    "nrows": Field("int", required=True),
    "xll": Field("float", required=True),
    "yll": Field("float", required=True),
    "cell": Field("float", required=True),
    "nodata": Field("float", required=True),
    "k_uniform": Field("int", default=climatology.DEFAULT_K_UNIFORM),
    "k_gauss": Field("int", default=climatology.DEFAULT_K_GAUSS),
    "sigma_gauss": Field("float"),
    "dedup_window_s": Field("float",
                            default=climatology.DEFAULT_DEDUP_WINDOW_S),
    "out_mt": Field("out", required=True),
    "out_p0": Field("out", required=True),
    "out_report": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _cmd_build_clim(args, cfg: dict) -> None:
    inputs, outputs = _files(args, cfg, _BUILD_CLIM_SCHEMA)
    try:
        GridGeometry(cfg["ncols"], cfg["nrows"], cfg["xll"], cfg["yll"],
                     cfg["cell"], cfg["nodata"])
    except ValueError as e:
        raise ConfigError(f"bad output geometry: {e}") from None
    for key in ("k_uniform", "k_gauss"):
        _config_check(cfg[key] >= 1 and cfg[key] % 2 == 1,
                      f"{key} must be odd and positive, got {cfg[key]}")
    _config_check(cfg["sigma_gauss"] is None or cfg["sigma_gauss"] > 0,
                  "sigma_gauss must be positive")
    _config_check(cfg["dedup_window_s"] > 0,
                  "dedup_window_s must be positive")
    with _staged_outputs(args, inputs, outputs) as tmp:
        climatology.build_climatology({**cfg, **tmp})


# ---------------------------------------------------------------------------
# gauge


_GAUGE_SCHEMA = {
    "sites": Field("in", required=True),
    "span_start": Field("str", required=True),
    "span_end": Field("str", required=True),
    "bucket_mm": Field("float"),
    "ladder": Field("floats", default=rainmodel.STANDARD_LADDER),
    "min_count": Field("int", default=20),
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


def _cmd_gauge(args, cfg: dict) -> None:
    inputs, outputs = _files(args, cfg, _GAUGE_SCHEMA)
    _validate_ladder(cfg["ladder"])
    span = tuple(_parse_span_time(cfg[key], key)
                 for key in ("span_start", "span_end"))
    _config_check(span[1] > span[0], "span_end must be after span_start")
    _config_check(len(gauge.period_edges(*gauge.span_minutes(span))) >= 2,
                  "span_start to span_end holds no full 12-month period")
    _config_check(cfg["bucket_mm"] is None or cfg["bucket_mm"] > 0,
                  "bucket_mm must be positive")
    _config_check(cfg["min_count"] >= 1, "min_count must be >= 1")
    excluded = set(cfg["exclude"])

    site_rows = read_keyed(
        cfg["sites"], ["site_id", "lat", "lon", "country", "tips_path"],
        _located)
    inputs.update((f"tips.{site_id}", row[-1])
                  for site_id, row in site_rows.items())
    _check_paths(args, inputs, outputs)

    out_sites = []
    skipped = 0
    for site_id, (lat, lon, country, tips_path) in site_rows.items():
        if site_id in excluded:
            skipped += 1
            continue
        tips = gauge.read_tips_csv(tips_path)
        bucket = cfg["bucket_mm"]
        if bucket is None:
            depths = sorted(set(tips.depth.tolist()))
            if len(depths) > 1:
                raise DataError(f"{tips_path}: mixed bucket depths "
                                f"{depths}; set bucket_mm")
            bucket = depths[0] if depths else 0.254
        try:
            series = gauge.tips_to_rates(tips, bucket, span)
        except ValueError as e:
            raise DataError(f"{tips_path}: {e}") from None
        series = gauge.qc_filter(series)
        selected = gauge.select_periods(series)
        if selected is None:
            skipped += 1
            continue
        points = gauge.exceedance_stats(selected, cfg["ladder"],
                                        cfg["min_count"])
        if not points:
            skipped += 1
            continue
        years = selected.n_minutes / gauge.MINUTES_PER_YEAR
        out_sites.append(SiteStatistics(site_id, lat, lon, country, years,
                                        tuple(points)))

    with _staged_outputs(args, inputs, outputs,
                         {"skipped_sites": skipped}) as tmp:
        rainmodel.write_sites_csv(out_sites, tmp["out_sites"])


# ---------------------------------------------------------------------------
# eval


_EVAL_SCHEMA = {
    "samples": Field("in", required=True),
    "sites": Field("in"),
    "rec_thresholds": Field("floats",
                            default=tuple(float(t) for t in
                                          range(10, 101, 10))),
    "classify_p": Field("float", default=0.01),
    "threshold": Field("float", default=evaluation.HEAVY_RATE_MM_H),
    "out_report": Field("out", required=True),
    "out_rec": Field("out", required=True),
    "out_manifest": Field("out"),
}


def _cmd_eval(args, cfg: dict) -> None:
    inputs, outputs = _files(args, cfg, _EVAL_SCHEMA)
    ts = cfg["rec_thresholds"]
    _config_check(bool(ts) and all(a < b for a, b in zip(ts, ts[1:])),
                  "rec_thresholds must be non-empty and ascending")
    _config_check(0 < cfg["classify_p"] <= 100,
                  "classify_p must be in (0, 100]")
    _config_check(cfg["threshold"] >= 0, "threshold must be >= 0")

    samples = evaluation.read_error_samples_csv(cfg["samples"])
    if not len(samples):
        raise DataError(f"{cfg['samples']}: no samples")
    bias = samples.predicted - samples.observed
    rel_pct = 100.0 * (bias / samples.observed)

    lines = [f"count={len(samples)}"]

    def _summary_block(prefix, values):
        s = evaluation.p311_summary(values)
        lines.append(f"{prefix}.mean={s.mean:.4f}")
        lines.append(f"{prefix}.sd={s.sd:.4f}")
        lines.append(f"{prefix}.rms={s.rms:.4f}")

    def _confusion_block(prefix, actuals, preds):
        cm = evaluation.confusion(actuals, preds)
        for name in ("tn", "fp", "fn", "tp"):
            lines.append(f"{prefix}.{name}={getattr(cm, name)}")
        lines.append(f"{prefix}.accuracy={evaluation.accuracy(cm):.4f}")
        lines.append(f"{prefix}.mcc={evaluation.mcc(cm):.4f}")

    _summary_block("rel_error_pct", rel_pct)
    _summary_block("bias_error_mm_h", bias)
    for p in np.unique(samples.p).tolist():
        _summary_block(f"p.{p!r}.rel_error_pct", rel_pct[samples.p == p])

    classify = samples[samples.p == cfg["classify_p"]]
    if len(classify):
        thr = cfg["threshold"]
        actuals = classify.observed > thr
        preds = classify.predicted > thr
        lines.append(f"classify.p={cfg['classify_p']!r}")
        lines.append(f"classify.threshold={thr!r}")
        _confusion_block("classify.by_site", actuals, preds)
        if cfg["sites"] is not None:
            countries = read_keyed(cfg["sites"], ["site_id", "country"],
                                   lambda row: row[1])
            records = []
            for site_id, a, p in zip(classify.site_id, actuals, preds):
                if site_id not in countries:
                    raise DataError(f"no country for site {site_id}")
                records.append((countries[site_id], a, p))
            pairs = evaluation.by_country(records).values()
            _confusion_block("classify.by_country", [a for a, _ in pairs],
                             [p for _, p in pairs])

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
    "zones": Field("in"),
    "p": Field("float", default=0.01),
    "threshold": Field("float", default=evaluation.HEAVY_RATE_MM_H),
    "out_impact": Field("out", required=True),
    "out_zones": Field("out"),
    "out_manifest": Field("out"),
}


def _cmd_impact(args, cfg: dict) -> None:
    _config_check((cfg["zones"] is None) == (cfg["out_zones"] is None),
                  "zones and out_zones must be given together")
    inputs, outputs = _files(args, cfg, _IMPACT_SCHEMA)
    _config_check(0 < cfg["p"] <= 100, "p must be in (0, 100]")
    _config_check(cfg["threshold"] >= 0, "threshold must be >= 0")

    mt = read_grid(cfg["mt_grid"])
    p0 = read_grid(cfg["p0_grid"])
    params = rainmodel.read_params(cfg["params"])
    pop = read_grid(cfg["pop"])
    countries = read_grid(cfg["countries"])

    rates = impact.rate_map(mt, p0, params, cfg["p"])
    mask, nodata_pixels = impact.heavy_mask(rates, cfg["threshold"])
    heavy = impact.zonal_population(pop, mask, countries)
    everywhere = Grid.full(mask.geometry, 1.0)
    totals = impact.zonal_population(pop, everywhere, countries)

    impact_rows = []
    for code in sorted(totals.by_code):
        impact_rows.append([str(code), repr(totals.by_code[code]),
                            repr(heavy.by_code.get(code, 0.0))])
    impact_rows.append(["unassigned", repr(totals.unassigned),
                        repr(heavy.unassigned)])
    impact_rows.append(["total", repr(totals.total), repr(heavy.total)])

    zone_rows = None
    if cfg["zones"] is not None:
        zones = read_grid(cfg["zones"])
        coverage = impact.zone_coverage(zones, pop)
        zone_rows = [[str(code), f"{share.land_pct:.4f}",
                      f"{share.populated_pct:.4f}", f"{share.pop_pct:.4f}"]
                     for code, share in sorted(coverage.items())]

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


#: name: (config schema, handler, help), in the order ``--help`` lists them
_COMMANDS = {
    "fit": (_FIT_SCHEMA, _cmd_fit,
            "fit model constants to training site statistics"),
    "predict": (_PREDICT_SCHEMA, _cmd_predict,
                "estimate site curves from climatology grids"),
    "build-clim": (_BUILD_CLIM_SCHEMA, _cmd_build_clim,
                   "build climatology grids from swath observations"),
    "gauge": (_GAUGE_SCHEMA, _cmd_gauge,
              "derive site statistics from tipping-bucket records"),
    "eval": (_EVAL_SCHEMA, _cmd_eval,
             "score predictions against observed statistics"),
    "impact": (_IMPACT_SCHEMA, _cmd_impact,
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
                        help="seed for any randomized step (recorded in the "
                             "manifest; identical seeds give identical bytes)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; every command "
                             "runs in one thread and outputs are the same "
                             "for any value")

    parser = _Parser(prog="rainstats",
                     description="Rain-rate exceedance statistics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        schema, handler, _ = _COMMANDS[args.command]
        cfg = load_config(args.config, schema)
        try:
            handler(args, cfg)
        except ConfigError as e:
            # the handlers check values and paths that the config set
            raise ConfigError(f"{args.config}: {e}") from None
        return 0
    except ConfigError as e:
        print(f"rainstats: config error: {e}", file=sys.stderr)
        return 1
    except SolverError as e:
        print(f"rainstats: solver error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as e:
        print(f"rainstats: data error: {str(e) or 'out of memory'}",
              file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
