import csv
import os
import re
import shutil
import stat
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rainstats import cli, gauge
from rainstats.rainmodel import (ClimatePoint, ModelParams, SiteStatistics,
                                 estimate_site_curve, rain_rate,
                                 read_params, write_params, write_sites_csv)
from rainstats.raster import Grid, GridGeometry, read_grid, write_grid
from rainstats.tables import load_config
from reference_readers import config_fault
from writers import observations, tips, write_observations_csv, write_tips_csv

ND = -9999.0
PARAMS = ModelParams(1.0, 20000.0, 26.0)


def run_cli(*argv):
    return cli.main(list(argv))


def write_config(path, **kv):
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def run_cli_under_2gib(cwd, command, config):
    """``(exit code, stderr)`` of ``rainstats command --config config`` run
    in ``cwd`` in a child process under a 2 GiB address-space limit, so
    that an array sized by a huge value fails at once."""
    code = ("import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard)); "
            "from rainstats import cli; "
            f"sys.exit(cli.main([{command!r}, '--config', {config!r}]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": src,
                              "OPENBLAS_NUM_THREADS": "1"})
    return out.returncode, out.stderr


# ---------------------------------------------------------------------------
# fit


def _write_fit_inputs(tmp_path, n_sites=5):
    rng = np.random.default_rng(61)
    sites, climate_rows = [], []
    for i in range(n_sites):
        climate = ClimatePoint(float(rng.uniform(400, 3000)),
                               float(rng.uniform(1, 9)))
        points = tuple((p, r) for p, r in estimate_site_curve(climate, PARAMS)
                       if r > 0)
        sites.append(SiteStatistics(f"s{i}", 0.0, 0.0, "NA", 5.0, points))
        climate_rows.append((f"s{i}", climate.mt, climate.p0))
    write_sites_csv(sites, tmp_path / "train_sites.csv")
    with open(tmp_path / "train_climate.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "mt_mm", "p0_percent"])
        for sid, mt, p0 in climate_rows:
            w.writerow([sid, repr(mt), repr(p0)])
    return sites


def test_fit_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sites = _write_fit_inputs(tmp_path)
    write_config(tmp_path / "fit.cfg", sites="train_sites.csv",
                 climate="train_climate.csv", out_params="params.txt",
                 out_residuals="residuals.csv", out_report="fit_report.txt")
    assert run_cli("fit", "--config", "fit.cfg") == 0

    report = read_report(tmp_path / "fit_report.txt")
    assert float(report["objective"]) < 1e-6
    fitted = read_params(tmp_path / "params.txt")
    assert fitted.x > 0 and fitted.y > 0 and fitted.z > 0

    with open(tmp_path / "residuals.csv", newline="") as f:
        rows = list(csv.reader(f))
    expected_rows = sum(sum(1 for _, r in s.points if r > 0) for s in sites)
    assert rows[0] == ["site_id", "p_percent", "observed", "predicted",
                       "rel_error"]
    assert len(rows) - 1 == expected_rows
    assert os.path.exists(tmp_path / "params.txt.manifest")


def test_fit_missing_input_exits_2_without_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "fit.cfg", sites="absent.csv",
                 climate="also_absent.csv", out_params="params.txt",
                 out_residuals="residuals.csv", out_report="fit_report.txt")
    assert run_cli("fit", "--config", "fit.cfg") == 2
    for name in ("params.txt", "residuals.csv", "fit_report.txt",
                 "params.txt.manifest"):
        assert not os.path.exists(tmp_path / name)


def _write_training(tmp_path, training):
    write_sites_csv([s for s, _ in training], tmp_path / "train_sites.csv")
    with open(tmp_path / "train_climate.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "mt_mm", "p0_percent"])
        for s, c in training:
            w.writerow([s.site_id, repr(c.mt), repr(c.p0)])


def _reference_residual_rows(training, params):
    """Fit's residual rows one site at a time: the rungs with R > 0, put
    through :func:`estimate_site_curve` at the fitted params."""
    rows = []
    for s, c in training:
        retained = [(p, r) for p, r in s.points if r > 0]
        if not retained:
            continue
        curve = estimate_site_curve(c, params, [p for p, _ in retained])
        for (p, r), (_, pred) in zip(retained, curve):
            rows.append([s.site_id, repr(p), repr(r), repr(pred),
                         repr((pred - r) / r)])
    return rows


def test_fit_residuals_match_a_per_site_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "fit.cfg", sites="train_sites.csv",
                 climate="train_climate.csv", out_params="params.txt",
                 out_residuals="residuals.csv", out_report="fit_report.txt")
    rng = np.random.default_rng(64)
    for trial in range(3):
        # p0 = 5 keeps a usable site; p0 < 0.001 zeroes every rung and
        # p0 < 5 the rungs at or above it
        p0s = [5.0, 0.0005] + list(10.0 ** rng.uniform(-3.5, 1.0, 8))
        training = []
        for i, p0 in enumerate(p0s):
            climate = ClimatePoint(float(rng.uniform(200, 4000)), float(p0))
            scale = float(rng.uniform(0.7, 1.3))
            points = tuple((p, scale * r)
                           for p, r in estimate_site_curve(climate, PARAMS))
            training.append((SiteStatistics(f"t{i}", 1.0, 2.0, "NA", 5.0,
                                            points), climate))
        _write_training(tmp_path, training)
        assert run_cli("fit", "--config", "fit.cfg") == 0

        with open(tmp_path / "residuals.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        params = read_params(tmp_path / "params.txt")
        assert rows == _reference_residual_rows(training, params)
        assert all(sid != "t1" for sid, *_ in rows)


@pytest.mark.parametrize("column,value", [
    ("rate_mm_h", "nan"), ("rate_mm_h", "inf"), ("p_percent", "nan"),
    ("years", "inf"), ("years", "nan"), ("lat", "nan"), ("lon", "nan")])
def test_fit_non_finite_site_number_exits_2(tmp_path, monkeypatch, capsys,
                                            column, value):
    monkeypatch.chdir(tmp_path)
    _write_fit_inputs(tmp_path, n_sites=2)
    with open(tmp_path / "train_sites.csv", newline="") as f:
        rows = list(csv.reader(f))
    rows[1][rows[0].index(column)] = value
    with open(tmp_path / "train_sites.csv", "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    write_config(tmp_path / "fit.cfg", sites="train_sites.csv",
                 climate="train_climate.csv", out_params="params.txt",
                 out_residuals="residuals.csv", out_report="fit_report.txt")
    assert run_cli("fit", "--config", "fit.cfg") == 2
    err = capsys.readouterr().err
    assert "train_sites.csv: line 2: not a finite number" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not os.path.exists(tmp_path / "params.txt")


def test_fit_on_a_denormal_rate_exits_3_without_warnings(tmp_path,
                                                         monkeypatch, capsys):
    # every relative error against 5e-324 overflows, so every descent ends
    # at an infinite objective
    monkeypatch.chdir(tmp_path)
    _write_fit_inputs(tmp_path, n_sites=2)
    with open(tmp_path / "train_sites.csv", newline="") as f:
        rows = list(csv.reader(f))
    last_of_s0 = max(i for i, row in enumerate(rows) if row[0] == "s0")
    rows[last_of_s0][rows[0].index("rate_mm_h")] = "5e-324"
    with open(tmp_path / "train_sites.csv", "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    write_config(tmp_path / "fit.cfg", sites="train_sites.csv",
                 climate="train_climate.csv", out_params="params.txt",
                 out_residuals="residuals.csv", out_report="fit_report.txt")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("fit", "--config", "fit.cfg") == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "Warning" not in err
    assert sorted(os.listdir(tmp_path)) == before


#: Two training sites on which a Nelder-Mead descent of the fit reaches a
#: ``y`` whose ``exp`` overflows to inf.
_DOMAIN_EDGE_TRAINING = [
    (SiteStatistics("s0", 0.0, 0.0, "X", 1.0, (
        (0.002, 24.0641426349717), (0.03, 23.03948789819486),
        (0.1, 14.197381747540854), (3.0, 4.900611768288555))),
     ClimatePoint(998.9434362603102, 14.410419516557901)),
    (SiteStatistics("s1", 0.0, 0.0, "X", 1.0, (
        (0.002, 175.3450892558354), (0.02, 160.48977933018682),
        (0.03, 12.929110455777456), (1.0, 7.404331278470822),
        (3.0, 5.913011897833782), (5.0, 0.9175079209285809))),
     ClimatePoint(2680.747280405739, 7.984705898527539))]


def test_fit_descent_beyond_the_parameter_domain_exits_0(tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_training(tmp_path, _DOMAIN_EDGE_TRAINING)
    write_config(tmp_path / "fit.cfg", sites="train_sites.csv",
                 climate="train_climate.csv", out_params="params.txt",
                 out_residuals="residuals.csv", out_report="fit_report.txt")
    assert run_cli("fit", "--config", "fit.cfg") == 0
    assert capsys.readouterr().err == ""
    params = read_params(tmp_path / "params.txt")
    assert min(params.x, params.y, params.z) > 0


@pytest.mark.parametrize("site,climate,message", [
    (SiteStatistics("z", 0.0, 0.0, "NA", 1.0, ((0.01, 0.0),)),
     ClimatePoint(1000.0, 5.0),
     "training set has no points with observed R > 0"),
    # rain falls less often than every rung
    (SiteStatistics("w", 0.0, 0.0, "NA", 1.0, ((5.0, 10.0),)),
     ClimatePoint(1000.0, 2.0),
     "training set has no point with p < p0; the model cannot predict any "
     "of it")])
def test_fit_degenerate_training_names_the_sites_file(tmp_path, monkeypatch,
                                                      capsys, site, climate,
                                                      message):
    monkeypatch.chdir(tmp_path)
    _write_training(tmp_path, [(site, climate)])
    write_config(tmp_path / "fit.cfg", sites="train_sites.csv",
                 climate="train_climate.csv", out_params="params.txt",
                 out_residuals="residuals.csv", out_report="fit_report.txt")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("fit", "--config", "fit.cfg") == 2
    err = capsys.readouterr().err
    assert err == f"rainstats: data error: train_sites.csv: {message}\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_unknown_config_key_exits_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "fit.cfg", sites="a.csv", climate="b.csv",
                 out_params="p", out_residuals="r", out_report="q",
                 bogus_key="1")
    assert run_cli("fit", "--config", "fit.cfg") == 1


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_config_exits_1(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.chdir(tmp_path)
    if kind == "directory":
        (tmp_path / "fit.cfg").mkdir()
    else:
        (tmp_path / "fit.cfg").write_bytes(b"sites=\xff\xfe.csv\n")
    assert run_cli("fit", "--config", "fit.cfg") == 1
    err = capsys.readouterr().err
    assert "config error" in err and "fit.cfg" in err


def test_config_line_without_equals_names_the_file(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fit.cfg").write_text("sites=a.csv\nclimate=b.csv\noops\n")
    assert run_cli("fit", "--config", "fit.cfg") == 1
    err = capsys.readouterr().err
    assert "config error: fit.cfg: line 3: expected key=value" in err


@pytest.mark.parametrize("line, message", [
    ("classify_p=abc", "e.cfg: line 4: config key 'classify_p': bad value "
                       "'abc'"),
    ("bogus=1", "e.cfg: line 4: unknown config key 'bogus'"),
])
def test_config_errors_name_the_file_and_line(tmp_path, monkeypatch, capsys,
                                              line, message):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="m.txt", out_rec="rec.csv")
    with open(tmp_path / "e.cfg", "a") as f:
        f.write(line + "\n")
    assert run_cli("eval", "--config", "e.cfg") == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m.txt")


def test_usage_error_exits_1():
    assert run_cli("fit") == 1          # missing --config
    assert run_cli() == 1               # missing subcommand


def test_bad_config_values_exit_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path, "c.cfg")
    text = (tmp_path / "c.cfg").read_text()
    (tmp_path / "c.cfg").write_text(text.replace("k_gauss=5", "k_gauss=4"))
    assert run_cli("build-clim", "--config", "c.cfg") == 1

    (tmp_path / "samples.csv").write_text(
        "site_id,p_percent,observed,predicted\na,0.01,50.0,60.0\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="m.txt", out_rec="r.csv",
                 rec_thresholds="50,10")
    assert run_cli("eval", "--config", "e.cfg") == 1


# ---------------------------------------------------------------------------
# predict


def _write_predict_inputs(tmp_path):
    g = GridGeometry(10, 10, 0.0, 0.0, 0.5, ND)
    rng = np.random.default_rng(62)
    mt = Grid(g, rng.uniform(300, 3000, 100))
    p0 = Grid(g, rng.uniform(1, 9, 100))
    write_grid(mt, tmp_path / "mt.grd")
    write_grid(p0, tmp_path / "p0.grd")
    write_params(PARAMS, tmp_path / "params.txt")
    with open(tmp_path / "locs.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "lat", "lon", "country"])
        w.writerow(["a", "2.25", "2.25", "XX"])
        w.writerow(["b", "1.1", "3.7", "YY"])
    return mt, p0


def test_predict_matches_library_curves(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mt, p0 = _write_predict_inputs(tmp_path)
    write_config(tmp_path / "p.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", locations="locs.csv",
                 out_sites="pred.csv", ladder="0.01,0.1,1")
    assert run_cli("predict", "--config", "p.cfg") == 0

    from rainstats.raster import sample_bilinear
    from rainstats.rainmodel import read_sites_csv
    out = read_sites_csv(tmp_path / "pred.csv")
    assert [s.site_id for s in out] == ["a", "b"]
    for s in out:
        climate = ClimatePoint(sample_bilinear(mt, s.lat, s.lon),
                               sample_bilinear(p0, s.lat, s.lon))
        expected = estimate_site_curve(climate, PARAMS, (0.01, 0.1, 1.0))
        assert list(s.points) == expected


def test_predict_skips_only_samples_that_touch_nodata(tmp_path,
                                                     monkeypatch):
    # the bilinear sample at (1, 1) is 500.0, mt's NODATA_value, but it is
    # interpolated from four valid cells
    monkeypatch.chdir(tmp_path)
    _write_predict_inputs(tmp_path)
    write_grid(Grid(GridGeometry(2, 2, 0.0, 0.0, 1.0, ND), np.full(4, 5.0)),
               tmp_path / "p0.grd")
    with open(tmp_path / "locs.csv", "w") as f:
        f.write("site_id,lat,lon,country\na,1.0,1.0,XX\n")
    write_config(tmp_path / "p.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", locations="locs.csv",
                 out_sites="pred.csv", ladder="0.01,0.1,1")

    from rainstats.rainmodel import read_sites_csv

    def predict(mt_cells):
        write_grid(Grid(GridGeometry(2, 2, 0.0, 0.0, 1.0, 500.0), mt_cells),
                   tmp_path / "mt.grd")
        assert run_cli("predict", "--config", "p.cfg") == 0
        manifest = read_report(tmp_path / "pred.csv.manifest")
        return (read_sites_csv(tmp_path / "pred.csv"),
                manifest["note.skipped_locations"])

    [site], skipped = predict([400.0, 600.0, 400.0, 600.0])
    assert skipped == "0" and site.site_id == "a"
    assert list(site.points) == estimate_site_curve(
        ClimatePoint(500.0, 5.0), PARAMS, (0.01, 0.1, 1.0))
    # a nodata cell among the four does skip it
    assert predict([400.0, 500.0, 400.0, 600.0]) == ([], "1")


def test_predict_grid_claiming_more_rows_than_it_has_exits_2(
        tmp_path, monkeypatch, capsys):
    # 10^16 cells (71 PiB): the row count is checked before any allocation
    monkeypatch.chdir(tmp_path)
    _write_predict_inputs(tmp_path)
    (tmp_path / "mt.grd").write_text(
        "ncols 100000000\nnrows 100000000\nxllcorner 0.0\nyllcorner 0.0\n"
        "cellsize 1e-07\nNODATA_value -9999.0\n1.0\n")
    write_config(tmp_path / "p.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", locations="locs.csv",
                 out_sites="pred.csv")
    assert run_cli("predict", "--config", "p.cfg") == 2
    err = capsys.readouterr().err
    assert "file ends after 1" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "pred.csv")


def test_predict_repeated_location_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_predict_inputs(tmp_path)
    with open(tmp_path / "locs.csv", "a") as f:
        f.write("a,3.0,3.0,ZZ\n")
    write_config(tmp_path / "p.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", locations="locs.csv",
                 out_sites="pred.csv")
    assert run_cli("predict", "--config", "p.cfg") == 2
    err = capsys.readouterr().err
    assert "locs.csv: line 4: duplicate site a" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "pred.csv")
    assert not os.path.exists(tmp_path / "pred.csv.manifest")


@pytest.mark.parametrize("bad", ["p0.grd", "params.txt"])
def test_predict_bad_grid_or_params_names_the_file(tmp_path, monkeypatch,
                                                   capsys, bad):
    monkeypatch.chdir(tmp_path)
    _write_predict_inputs(tmp_path)
    lines = (tmp_path / bad).read_text().splitlines(True)
    (tmp_path / bad).write_text("".join(lines[:-1]))
    write_config(tmp_path / "p.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", locations="locs.csv",
                 out_sites="pred.csv")
    assert run_cli("predict", "--config", "p.cfg") == 2
    err = capsys.readouterr().err
    assert f"data error: {bad}: " in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "pred.csv")


@pytest.mark.parametrize("command", ["predict", "impact"])
def test_params_file_with_an_unknown_key_names_the_file_and_line(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "c.cfg", **_working_config(tmp_path, command))
    with open(tmp_path / "params.txt", "a") as f:
        f.write("q=1.0\n")
    before = sorted(os.listdir(tmp_path))
    assert run_cli(command, "--config", "c.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: params.txt: line 4: expected 'x=', 'y=' or "
        "'z=', got 'q'\n")
    assert sorted(os.listdir(tmp_path)) == before


def test_predict_location_outside_the_grid_names_the_file_and_site(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_predict_inputs(tmp_path)
    g = GridGeometry(4, 4, 0.0, 0.0, 1.0, ND)
    write_grid(Grid(g, np.full(16, 1500.0)), tmp_path / "mt.grd")
    write_grid(Grid(g, np.full(16, 5.0)), tmp_path / "p0.grd")
    (tmp_path / "locs.csv").write_text(
        "site_id,lat,lon,country\na,1.0,1.0,X\nb,9.0,1.0,X\n")
    write_config(tmp_path / "p.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", locations="locs.csv",
                 out_sites="pred.csv")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("predict", "--config", "p.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: locs.csv: site b: point (9.0, 1.0) is "
        "outside the grid bounds\n")
    assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# build-clim


def _write_clim_config(tmp_path, cfg_name="c.cfg", **overrides):
    g = GridGeometry(16, 16, 30.0, 9.0, 1.0 / 120.0, ND)
    rng = np.random.default_rng(63)
    t, stream = 0.0, []
    for _ in range(80):
        t += float(rng.uniform(0, 150))
        stream.append((
            t, float(rng.uniform(9.02, 9.11)), float(rng.uniform(30.02, 30.11)),
            float(rng.uniform(0, 15)), bool(rng.uniform() < 0.6), 4.5))
    write_observations_csv(observations(stream), tmp_path / "obs.csv")
    write_grid(Grid.full(g, 900.0), tmp_path / "ref.grd")
    write_grid(Grid(g, rng.uniform(0, 1500, 256)), tmp_path / "elev.grd")
    cfg = dict(observations="obs.csv", reference_mt="ref.grd",
               elevation="elev.grd", ncols=g.ncols, nrows=g.nrows, xll=g.xll,
               yll=g.yll, cell=g.cell, nodata=g.nodata, k_uniform=9,
               k_gauss=5, out_mt="mt.grd", out_p0="p0.grd",
               out_report="report.txt")
    write_config(tmp_path / cfg_name, **{**cfg, **overrides})


def test_build_clim_rerun_identical_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    assert run_cli("build-clim", "--config", "c.cfg") == 0
    outputs = ["mt.grd", "p0.grd", "report.txt", "mt.grd.manifest"]
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    assert run_cli("build-clim", "--config", "c.cfg", "--threads", "8") == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == first[name]


def test_build_clim_non_utf8_observations_exits_2(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    with open(tmp_path / "obs.csv", "ab") as f:
        f.write(b"12.0,9.05,30.05,\xff\xfe,1,4.5\n")
    assert run_cli("build-clim", "--config", "c.cfg") == 2
    assert "stage read" in capsys.readouterr().err
    for name in ("mt.grd", "p0.grd", "report.txt", "mt.grd.manifest"):
        assert not os.path.exists(tmp_path / name)


def test_build_clim_oversized_csv_field_exits_2(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    with open(tmp_path / "obs.csv", "a") as f:
        f.write("12.0,9.05,30.05," + "1" * 200_000 + ",1,4.5\n")
    assert run_cli("build-clim", "--config", "c.cfg") == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    for name in ("mt.grd", "p0.grd", "report.txt", "mt.grd.manifest"):
        assert not os.path.exists(tmp_path / name)


def test_build_clim_out_of_order_observations_name_the_line(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    lines = (tmp_path / "obs.csv").read_text().splitlines(keepends=True)
    lines[10], lines[11] = lines[11], lines[10]  # lines 11 and 12 swapped
    (tmp_path / "obs.csv").write_text("".join(lines))
    before = sorted(os.listdir(tmp_path))
    assert run_cli("build-clim", "--config", "c.cfg") == 2
    time = float(lines[11].split(",")[0])
    assert capsys.readouterr().err == (
        f"rainstats: data error: stage read: obs.csv: line 12: time {time} "
        "is earlier than the row before it\n")
    assert sorted(os.listdir(tmp_path)) == before


def test_build_clim_failed_output_leaves_no_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    (tmp_path / "p0.grd").mkdir()
    assert run_cli("build-clim", "--config", "c.cfg") == 2
    assert sorted(os.listdir(tmp_path)) == [
        "c.cfg", "elev.grd", "obs.csv", "p0.grd", "ref.grd"]


def test_failed_second_write_leaves_the_directory_as_it_was(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # impact with zones writes two tables; the first one's temp file exists
    # when the second write fails
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "c.cfg", **_working_config(tmp_path, "impact"))
    before = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}
    real_write_rows, written = cli.write_rows, []

    def write_rows(path, *args):
        if written:
            assert os.path.exists(written[0])
            raise OSError("no space left on device")
        written.append(path)
        real_write_rows(path, *args)

    monkeypatch.setattr(cli, "write_rows", write_rows)
    assert run_cli("impact", "--config", "c.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: no space left on device\n")
    assert {name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)} == before


# ---------------------------------------------------------------------------
# inputs that are not UTF-8, or too large for memory


#: file appended to: (command, exit code, message with the file's old size)
_NON_UTF8 = {
    "mt.grd": ("predict", 2, "data error: mt.grd: not UTF-8 at byte {size}"),
    "params.txt": ("predict", 2,
                   "data error: params.txt: not UTF-8 at byte {size}"),
    "locs.csv": ("predict", 2,
                 "data error: locs.csv: not UTF-8 at byte {size}"),
    "obs.csv": ("build-clim", 2,
                "data error: stage read: obs.csv: not UTF-8 at byte {size}"),
    "c.cfg": ("build-clim", 1,
              "config error: c.cfg: not UTF-8 at byte {size}"),
}


@pytest.mark.parametrize("name", list(_NON_UTF8))
def test_non_utf8_input_names_the_file(tmp_path, monkeypatch, capsys, name):
    command, code, message = _NON_UTF8[name]
    monkeypatch.chdir(tmp_path)
    if command == "predict":
        _write_predict_inputs(tmp_path)
        write_config(tmp_path / "c.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                     params="params.txt", locations="locs.csv",
                     out_sites="pred.csv")
    else:
        _write_clim_config(tmp_path)
    size = (tmp_path / name).stat().st_size
    with open(tmp_path / name, "ab") as f:
        f.write(b"\xff\xfe")
    before = sorted(os.listdir(tmp_path))
    assert run_cli(command, "--config", "c.cfg") == code
    err = capsys.readouterr().err
    assert message.format(size=size) in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


def test_output_geometry_too_large_for_memory_exits_2(tmp_path):
    # 10^15 output cells under a 2 GiB address-space limit, so no
    # allocation for the output grid can succeed
    _write_clim_config(tmp_path)
    write_observations_csv(observations([]), tmp_path / "obs.csv")
    write_config(tmp_path / "c.cfg", observations="obs.csv",
                 reference_mt="ref.grd", elevation="elev.grd",
                 ncols=100_000_000, nrows=10_000_000, xll=30.0, yll=9.0,
                 cell=1e-07, nodata=ND, out_mt="mt.grd", out_p0="p0.grd",
                 out_report="report.txt")
    before = sorted(os.listdir(tmp_path))
    code, err = run_cli_under_2gib(tmp_path, "build-clim", "c.cfg")
    assert code == 2, err
    assert "data error" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("key, value, rule", [
    *(pytest.param(key, 10**20 + 1, "must be below 2**31", id=key)
      for key in ("ncols", "nrows", "k_uniform", "k_gauss")),
    # fits int64, but overflows a float-to-int cast, a cell count or the
    # windowed IQR's 32-bit offsets
    *(pytest.param(key, 2**63 - 1, "must be below 2**31",
                   id=f"{key}-int64-max")
      for key in ("ncols", "nrows", "k_uniform", "k_gauss"))])
def test_build_clim_int_beyond_int64_is_a_config_error(tmp_path, monkeypatch,
                                                       capsys, key, value,
                                                       rule):
    # numpy would refuse the int when it sizes an array; with a tiny cell,
    # nrows passes the latitude-extent check
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path, **{key: value, "cell": 1e-300})
    before = sorted(os.listdir(tmp_path))
    assert run_cli("build-clim", "--config", "c.cfg") == 1
    err = capsys.readouterr().err
    assert (f"config error: c.cfg: {key} {rule}, got {value}") in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("ncols, k", [(16, 2**31 - 1), (17, 2**31 - 17)])
def test_build_clim_k_uniform_beyond_the_window_bound_is_a_config_error(
        tmp_path, ncols, k):
    # window_iqr's int32 column offsets reach -(ncols + k); a run past this
    # check could size arrays by k, so it runs under a memory limit
    _write_clim_config(tmp_path, ncols=ncols, k_uniform=k)
    before = sorted(os.listdir(tmp_path))
    code, err = run_cli_under_2gib(tmp_path, "build-clim", "c.cfg")
    assert code == 1, err
    assert ("config error: c.cfg: k_uniform plus ncols must be below 2**31, "
            f"got {ncols + k}") in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("nodata", ["0.0", "-0.0", "1.0"])
def test_build_clim_nodata_not_negative_is_a_config_error(
        tmp_path, monkeypatch, capsys, nodata):
    # an observed pixel that never saw rain has mt = p0 = 0
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path, nodata=nodata)
    before = sorted(os.listdir(tmp_path))
    assert run_cli("build-clim", "--config", "c.cfg") == 1
    err = capsys.readouterr().err
    assert f"config error: c.cfg: nodata must be negative, got {nodata}" in err
    assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# gauge


def _write_gauge_inputs(tmp_path, **cfg):
    start = 1104537600.0  # 2005-01-01T00:00:00Z
    times = []
    t = start + 86400.0
    for _ in range(500):
        for i in range(30):
            times.append(t + 60.0 * i)
        t += 86400.0 * 0.8
    write_tips_csv(tips(times), tmp_path / "tips_a.csv")
    with open(tmp_path / "gsites.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "lat", "lon", "country", "tips_path"])
        w.writerow(["a", "6.5", "3.4", "NGA", "tips_a.csv"])
        w.writerow(["b", "6.6", "3.5", "NGA", "tips_a.csv"])
    write_config(tmp_path / "g.cfg", sites="gsites.csv",
                 span_start="2005-01-01T00:00:00Z",
                 span_end="2006-06-01T00:00:00Z",
                 exclude="b", out_sites="stats.csv", **cfg)


def test_gauge_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path)
    assert run_cli("gauge", "--config", "g.cfg") == 0

    from rainstats.rainmodel import read_sites_csv
    out = read_sites_csv(tmp_path / "stats.csv")
    assert [s.site_id for s in out] == ["a"]  # b was excluded
    assert out[0].points
    rates = [r for _, r in out[0].points]
    assert all(x >= y for x, y in zip(rates, rates[1:]))
    assert out[0].duration_years == pytest.approx(1.0, abs=0.01)


def test_gauge_failed_manifest_write_leaves_no_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path, out_manifest="manifest")
    (tmp_path / "manifest").mkdir()
    assert run_cli("gauge", "--config", "g.cfg") == 2
    assert sorted(os.listdir(tmp_path)) == [
        "g.cfg", "gsites.csv", "manifest", "tips_a.csv"]


@pytest.mark.parametrize("tips_present", [True, False])
def test_gauge_exclude_of_an_unlisted_site_exits_2(tmp_path, monkeypatch,
                                                    capsys, tips_present):
    # refused before any tip file is checked or read
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path)
    if not tips_present:
        os.remove(tmp_path / "tips_a.csv")
    monkeypatch.setattr(gauge, "read_tips_csv",
                        lambda path: pytest.fail(f"read {path}"))
    write_config(tmp_path / "g.cfg", sites="gsites.csv",
                 span_start="2005-01-01T00:00:00Z",
                 span_end="2006-06-01T00:00:00Z", exclude="b,zz",
                 out_sites="stats.csv", out_manifest="manifest")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("gauge", "--config", "g.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: gsites.csv: no site zz to exclude\n")
    assert sorted(os.listdir(tmp_path)) == before


def _write_two_tip_files(tmp_path):
    """Gauge inputs whose sites a and b (excluded) list their own tip
    files."""
    _write_gauge_inputs(tmp_path)
    shutil.copyfile(tmp_path / "tips_a.csv", tmp_path / "tips_b.csv")
    text = (tmp_path / "gsites.csv").read_text()
    (tmp_path / "gsites.csv").write_text(
        text.replace("b,6.6,3.5,NGA,tips_a.csv", "b,6.6,3.5,NGA,tips_b.csv"))


_TIP_CLASHES = {
    "output-and-tips": dict(out_sites="tips_a.csv"),
    "manifest-and-excluded-tips": dict(out_manifest="tips_b.csv"),
    "output-and-symlinked-tips": dict(out_sites="link.csv"),
}


@pytest.mark.parametrize("clash", list(_TIP_CLASHES.values()),
                         ids=list(_TIP_CLASHES))
def test_gauge_refuses_outputs_that_are_tip_files(tmp_path, monkeypatch,
                                                  capsys, clash):
    monkeypatch.chdir(tmp_path)
    _write_two_tip_files(tmp_path)
    os.symlink("tips_a.csv", tmp_path / "link.csv")
    write_config(tmp_path / "g.cfg", sites="gsites.csv",
                 span_start="2005-01-01T00:00:00Z",
                 span_end="2006-06-01T00:00:00Z", exclude="b",
                 **{"out_sites": "stats.csv", **clash})
    before = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}
    assert run_cli("gauge", "--config", "g.cfg") == 1
    assert "is the same file as tips." in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)} == before


def test_gauge_manifest_records_every_listed_tip_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_two_tip_files(tmp_path)
    assert run_cli("gauge", "--config", "g.cfg") == 0
    first = read_report(tmp_path / "stats.csv.manifest")
    for site in ("a", "b"):  # b is excluded but still listed
        assert first[f"input.tips.{site}"] == f"tips_{site}.csv"
        assert first[f"input.tips.{site}.sha256"] == cli._sha256(
            tmp_path / f"tips_{site}.csv")
    keys = [k for k in first if k.startswith("input.")]
    assert keys == sorted(keys)

    lines = (tmp_path / "tips_a.csv").read_text().splitlines(True)
    (tmp_path / "tips_a.csv").write_text("".join(lines[:-1]))
    assert run_cli("gauge", "--config", "g.cfg") == 0
    second = read_report(tmp_path / "stats.csv.manifest")
    assert {k for k in first if first[k] != second[k]} == {
        "input.tips.a.sha256"}


def test_gauge_duplicate_site_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path)
    with open(tmp_path / "gsites.csv", "a") as f:
        f.write("a,6.7,3.6,NGA,tips_b.csv\n")
    assert run_cli("gauge", "--config", "g.cfg") == 2
    assert "line 4: duplicate site a" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "stats.csv")


@pytest.mark.parametrize("command,column,value", [
    ("predict", 1, "nan"), ("predict", 2, "inf"),
    ("gauge", 1, "nan"), ("gauge", 2, "-inf")])
def test_non_finite_coordinates_exit_2(tmp_path, monkeypatch, capsys,
                                       command, column, value):
    monkeypatch.chdir(tmp_path)
    if command == "predict":
        _write_predict_inputs(tmp_path)
        write_config(tmp_path / "c.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                     params="params.txt", locations="locs.csv",
                     out_sites="stats.csv")
        name = "locs.csv"
    else:
        _write_gauge_inputs(tmp_path)
        os.replace(tmp_path / "g.cfg", tmp_path / "c.cfg")
        name = "gsites.csv"
    with open(tmp_path / name, newline="") as f:
        rows = list(csv.reader(f))
    rows[1][column] = value
    with open(tmp_path / name, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    assert run_cli(command, "--config", "c.cfg") == 2
    err = capsys.readouterr().err
    assert f"{name}: line 2: not a finite number" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "stats.csv")


def test_gauge_infinite_bucket_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path, bucket_mm="inf")
    assert run_cli("gauge", "--config", "g.cfg") == 1
    err = capsys.readouterr().err
    assert "bucket_mm" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "stats.csv")


def test_gauge_bucket_that_overflows_the_rates_exits_2(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path, bucket_mm="1e308")
    assert run_cli("gauge", "--config", "g.cfg") == 2
    err = capsys.readouterr().err
    assert "data error: tips_a.csv: a bucket of 1e+308 mm overflows" in err
    assert not os.path.exists(tmp_path / "stats.csv")


@pytest.mark.parametrize("span", [
    ("2001-01-01T00:00:00Z", "2001-06-01T00:00:00Z"),
    ("2005-01-01T00:01:00Z", "2006-01-01T00:00:00Z"),
])
@pytest.mark.parametrize("exclude", ["b", "a,b"])
def test_gauge_span_without_a_full_period_exits_1(tmp_path, monkeypatch,
                                                  capsys, span, exclude):
    # refused before any tip file is read, even when every site is excluded
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path)
    write_config(tmp_path / "g.cfg", sites="gsites.csv", span_start=span[0],
                 span_end=span[1], exclude=exclude, out_sites="stats.csv")
    monkeypatch.setattr(gauge, "read_tips_csv",
                        lambda path: pytest.fail(f"read {path}"))
    assert run_cli("gauge", "--config", "g.cfg") == 1
    err = capsys.readouterr().err
    assert "config error: g.cfg: span_start to span_end holds no full " \
           "12-month period" in err
    assert not os.path.exists(tmp_path / "stats.csv")


@pytest.mark.parametrize("times, message", [
    # 2005-01-02T00:10 listed before 00:05, on line 3
    ([1104624600.0, 1104624300.0], "tip times must be strictly increasing"),
    # 2004-12-31T23:00, before span_start
    ([1104534000.0], "tips fall outside the requested span"),
])
def test_gauge_bad_tips_name_the_tip_file(tmp_path, monkeypatch, capsys,
                                          times, message):
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path)
    write_tips_csv(tips(times), tmp_path / "tips_a.csv")
    assert run_cli("gauge", "--config", "g.cfg") == 2
    err = capsys.readouterr().err
    # the reader refuses tips out of order and names the line; the span is
    # checked after the file is read, so that error names the file alone
    where = "tips_a.csv: line 3" if len(times) > 1 else "tips_a.csv"
    assert f"data error: {where}: {message}\n" in err
    assert not os.path.exists(tmp_path / "stats.csv")


def test_gauge_span_of_exactly_twelve_months_is_accepted(tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_gauge_inputs(tmp_path)
    write_config(tmp_path / "g.cfg", sites="gsites.csv",
                 span_start="2005-01-01T00:00:59Z",
                 span_end="2006-01-01T00:00:00Z", exclude="a,b",
                 out_sites="stats.csv")
    assert run_cli("gauge", "--config", "g.cfg") == 0
    assert read_report(tmp_path / "stats.csv.manifest")[
        "note.skipped_sites"] == "2"


def _write_gauge_site_c(tmp_path, records, **cfg):
    """Write a gauge run over 2005 of the one site ``c``, whose tip file
    ``tips_c.csv`` holds ``records``."""
    write_tips_csv(records, tmp_path / "tips_c.csv")
    (tmp_path / "gsites.csv").write_text(
        "site_id,lat,lon,country,tips_path\nc,6.5,3.4,NGA,tips_c.csv\n")
    write_config(tmp_path / "g.cfg", sites="gsites.csv",
                 span_start="2005-01-01T00:00:00Z",
                 span_end="2006-01-02T00:00:00Z", out_sites="stats.csv",
                 **cfg)


def test_gauge_mixed_bucket_depths_without_bucket_mm_exit_2(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    monkeypatch.chdir(tmp_path)
    start = 1104537600.0  # 2005-01-01T00:00:00Z
    _write_gauge_site_c(tmp_path, np.concatenate(
        [tips([start + 60.0], 0.2), tips([start + 120.0])]).view(np.recarray))
    before = sorted(os.listdir(tmp_path))
    assert run_cli("gauge", "--config", "g.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: tips_c.csv: mixed bucket depths "
        "[0.2, 0.254]; set bucket_mm\n")
    assert sorted(os.listdir(tmp_path)) == before


def test_gauge_site_without_a_valid_period_is_skipped(tmp_path, monkeypatch,
                                                      capsys):
    # 2000 tips 29 minutes apart cover about 40 days of 2005: its one
    # 12-month period is far from 90 % valid
    monkeypatch.chdir(tmp_path)
    start = 1104537600.0  # 2005-01-01T00:00:00Z
    _write_gauge_site_c(tmp_path, tips(start + 60.0 + 1740.0 * np.arange(2000)),
                        bucket_mm=1e5)
    before = sorted(os.listdir(tmp_path))
    assert run_cli("gauge", "--config", "g.cfg") == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(tmp_path)) == sorted(
        [*before, "stats.csv", "stats.csv.manifest"])
    with open(tmp_path / "stats.csv", newline="") as f:
        assert len(list(csv.reader(f))) == 1  # the header alone
    assert read_report(tmp_path / "stats.csv.manifest")[
        "note.skipped_sites"] == "1"


# ---------------------------------------------------------------------------
# eval


def _write_eval_samples(tmp_path):
    # two samples realizing the reference summary row (-3.1, 30.9, 31.0) at
    # display precision,
    # plus a 20-country classification block at p = 0.01
    rows = [["site_id", "p_percent", "observed", "predicted"]]
    rows.append(["ovr1", "1.0", "100.0", repr(100.0 - 33.98)])
    rows.append(["ovr2", "1.0", "100.0", repr(100.0 + 27.78)])

    combos = ([("tn", False, False)] * 6 + [("fp", False, True)] * 1
              + [("fn", True, False)] * 5 + [("tp", True, True)] * 8)
    site_rows = [["site_id", "country"]]
    for i, (kind, actual, predicted) in enumerate(combos):
        sid = f"c{i:02d}"
        obs = 120.0 if actual else 60.0
        pred = 120.0 if predicted else 60.0
        rows.append([sid, "0.01", repr(obs), repr(pred)])
        site_rows.append([sid, f"CTY{i:02d}"])

    with open(tmp_path / "samples.csv", "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    with open(tmp_path / "countries.csv", "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(site_rows)


def test_eval_report_and_rec(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 sites="countries.csv", out_report="metrics.txt",
                 out_rec="rec.csv", rec_thresholds="10,20,50,100")
    assert run_cli("eval", "--config", "e.cfg") == 0
    report = read_report(tmp_path / "metrics.txt")

    # the two p=1% rows carry mean -3.1%, sd 30.88%: rms prints as 31.0
    block = report["p.1.0.rel_error_pct.rms"]
    assert abs(float(block) - 31.0) <= 0.05
    assert f"{float(block):.1f}" == "31.0"
    assert float(report["p.1.0.rel_error_pct.mean"]) == pytest.approx(-3.1)
    assert float(report["p.1.0.rel_error_pct.sd"]) == pytest.approx(30.88)

    # by-country confusion equals the constructed 6/1/5/8 split
    assert report["classify.by_country.tn"] == "6"
    assert report["classify.by_country.fp"] == "1"
    assert report["classify.by_country.fn"] == "5"
    assert report["classify.by_country.tp"] == "8"
    assert abs(float(report["classify.by_country.accuracy"]) - 0.70) <= 0.005
    assert abs(float(report["classify.by_country.mcc"]) - 0.45) <= 0.005

    with open(tmp_path / "rec.csv", newline="") as f:
        rec_rows = list(csv.reader(f))
    assert rec_rows[0] == ["threshold_pct", "fraction"]
    fractions = [float(r[1]) for r in rec_rows[1:]]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


# ---------------------------------------------------------------------------
# impact


def _write_impact_inputs(tmp_path):
    g = GridGeometry(4, 4, 0.0, 0.0, 1.0, ND)
    mt_vals = np.array([[3500.0, 3500.0, 400.0, 400.0]] * 4)
    p0_vals = np.full((4, 4), 5.0)
    pop_vals = np.arange(16, dtype=float).reshape(4, 4)
    country_vals = np.array([[1, 1, 2, 2]] * 4, dtype=float)
    write_grid(Grid(g, mt_vals), tmp_path / "mt.grd")
    write_grid(Grid(g, p0_vals), tmp_path / "p0.grd")
    write_grid(Grid(g, pop_vals), tmp_path / "pop.grd")
    write_grid(Grid(g, country_vals), tmp_path / "countries.grd")
    zone_vals = np.array([[9, 9, 8, 8]] * 4, dtype=float)
    write_grid(Grid(g, zone_vals), tmp_path / "zones.grd")
    write_params(PARAMS, tmp_path / "params.txt")
    return pop_vals


def test_impact_matches_hand_tabulation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pop_vals = _write_impact_inputs(tmp_path)
    write_config(tmp_path / "i.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", pop="pop.grd",
                 countries="countries.grd", zones="zones.grd",
                 out_impact="impact.csv", out_zones="zones.csv")

    heavy_west = rain_rate(0.01, ClimatePoint(3500.0, 5.0), PARAMS) > 95.0
    heavy_east = rain_rate(0.01, ClimatePoint(400.0, 5.0), PARAMS) > 95.0
    assert heavy_west and not heavy_east

    assert run_cli("impact", "--config", "i.cfg") == 0
    with open(tmp_path / "impact.csv", newline="") as f:
        rows = {r[0]: (float(r[1]), float(r[2]))
                for r in list(csv.reader(f))[1:]}
    west_pop = pop_vals[:, :2].sum()
    east_pop = pop_vals[:, 2:].sum()
    assert rows["1"] == (west_pop, west_pop)  # all heavy
    assert rows["2"] == (east_pop, 0.0)       # none heavy
    assert rows["total"] == (pop_vals.sum(), west_pop)

    with open(tmp_path / "zones.csv", newline="") as f:
        zrows = {r[0]: [float(v) for v in r[1:]]
                 for r in list(csv.reader(f))[1:]}
    assert zrows["9"][0] == pytest.approx(50.0)
    assert zrows["8"][2] == pytest.approx(100.0 * east_pop / pop_vals.sum())


def test_impact_solver_failure_exits_3(tmp_path, monkeypatch):
    # a nearly flat exceedance tail keeps P(10000 mm/h) above the target
    # probability, so the inversion hits its bracket cap
    monkeypatch.chdir(tmp_path)
    g = GridGeometry(2, 2, 0.0, 0.0, 1.0, ND)
    write_grid(Grid.full(g, 4000.0), tmp_path / "mt.grd")
    write_grid(Grid.full(g, 10.0), tmp_path / "p0.grd")
    write_grid(Grid.full(g, 1.0), tmp_path / "pop.grd")
    write_grid(Grid.full(g, 1.0), tmp_path / "countries.grd")
    write_params(ModelParams(1e-4, 20000.0, 1000.0), tmp_path / "params.txt")
    write_config(tmp_path / "i.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", pop="pop.grd",
                 countries="countries.grd", out_impact="impact.csv")
    assert run_cli("impact", "--config", "i.cfg") == 3
    assert not os.path.exists(tmp_path / "impact.csv")


def test_impact_codes_beyond_int32_exit_0(tmp_path):
    # under a 2 GiB address-space limit, so that a table sized by a code's
    # value (16 GiB for 2147483647) fails at once
    _write_impact_inputs(tmp_path)
    g = GridGeometry(4, 4, 0.0, 0.0, 1.0, ND)
    west_east = np.array([[2147483647.0] * 2 + [1e20] * 2] * 4)
    write_grid(Grid(g, west_east), tmp_path / "countries.grd")
    write_grid(Grid(g, west_east[:, ::-1]), tmp_path / "zones.grd")
    write_config(tmp_path / "i.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", pop="pop.grd",
                 countries="countries.grd", zones="zones.grd",
                 out_impact="impact.csv", out_zones="zones.csv")
    code, err = run_cli_under_2gib(tmp_path, "impact", "i.cfg")
    assert code == 0, err
    assert err == ""
    with open(tmp_path / "impact.csv", newline="") as f:
        codes = [r[0] for r in list(csv.reader(f))[1:]]
    assert codes == ["2147483647", "100000000000000000000", "unassigned",
                     "total"]
    with open(tmp_path / "zones.csv", newline="") as f:
        zrows = list(csv.reader(f))[1:]
    assert [(r[0], r[1]) for r in zrows] == [
        ("2147483647", "50.0000"), ("100000000000000000000", "50.0000")]


def _impact_config(tmp_path, **kv):
    write_config(tmp_path / "i.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", pop="pop.grd",
                 countries="countries.grd", out_impact="impact.csv", **kv)


@pytest.mark.parametrize("mt_nodata", [1.0, 0.0])
def test_impact_reads_any_mt_nodata_value(tmp_path, monkeypatch, mt_nodata):
    # mt holds neither value; a p0 of 0 gives a rate of 0
    monkeypatch.chdir(tmp_path)
    _write_impact_inputs(tmp_path)
    p0_vals = np.full((4, 4), 5.0)
    p0_vals[1, 1] = 0.0
    g = GridGeometry(4, 4, 0.0, 0.0, 1.0, ND)
    write_grid(Grid(g, p0_vals), tmp_path / "p0.grd")
    _impact_config(tmp_path)
    assert run_cli("impact", "--config", "i.cfg") == 0
    expected = (tmp_path / "impact.csv").read_bytes()
    write_grid(Grid(GridGeometry(4, 4, 0.0, 0.0, 1.0, mt_nodata),
                    [[3500.0, 3500.0, 400.0, 400.0]] * 4),
               tmp_path / "mt.grd")
    assert run_cli("impact", "--config", "i.cfg") == 0
    assert (tmp_path / "impact.csv").read_bytes() == expected
    manifest = read_report(tmp_path / "impact.csv.manifest")
    assert manifest["note.nodata_rate_pixels"] == "0"


def test_impact_threshold_above_every_rate_writes_floats(tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_impact_inputs(tmp_path)
    _impact_config(tmp_path, threshold=1e6)
    assert run_cli("impact", "--config", "i.cfg") == 0
    with open(tmp_path / "impact.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert [r[0] for r in rows] == ["1", "2", "unassigned", "total"]
    assert [r[2] for r in rows] == ["0.0"] * 4


def test_impact_rates_misaligned_with_pop_exit_2(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    _write_impact_inputs(tmp_path)
    half = GridGeometry(4, 4, 0.5, 0.0, 1.0, ND)
    write_grid(Grid.full(half, 3500.0), tmp_path / "mt.grd")
    write_grid(Grid.full(half, 5.0), tmp_path / "p0.grd")
    _impact_config(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert run_cli("impact", "--config", "i.cfg") == 2
    err = capsys.readouterr().err
    assert "data error: grids are not aligned" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("key,cells,value,message", [
    ("zones", np.s_[:], ND, "zones.grd: zone grid has no valid pixels"),
    ("countries", np.s_[0, 0], 1.5,
     "countries.grd: country grid holds non-integer codes"),
    ("countries", np.s_[0, 0], -1.0,
     "countries.grd: country grid holds negative codes")],
    ids=["zones-without-valid-cells", "countries-1.5", "countries--1"])
def test_impact_bad_category_grid_names_the_file(tmp_path, monkeypatch,
                                                 capsys, key, cells, value,
                                                 message):
    monkeypatch.chdir(tmp_path)
    cfg = _working_config(tmp_path, "impact")
    write_config(tmp_path / "c.cfg", **cfg)
    grid = read_grid(cfg[key])
    grid.values[cells] = value
    write_grid(grid, cfg[key])
    before = sorted(os.listdir(tmp_path))
    assert run_cli("impact", "--config", "c.cfg") == 2
    assert capsys.readouterr().err == f"rainstats: data error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("key", ["p0_grid", "pop", "countries", "zones"])
def test_impact_misaligned_grid_names_both_files(tmp_path, monkeypatch, capsys,
                                                 key):
    monkeypatch.chdir(tmp_path)
    cfg = _working_config(tmp_path, "impact")
    write_config(tmp_path / "c.cfg", **cfg)
    grid = read_grid(cfg[key])
    write_grid(Grid(replace(grid.geometry, xll=0.5), grid.values), cfg[key])
    before = sorted(os.listdir(tmp_path))
    assert run_cli("impact", "--config", "c.cfg") == 2
    assert capsys.readouterr().err == (
        f"rainstats: data error: grids are not aligned: {cfg[key]} vs "
        "mt.grd\n")
    assert sorted(os.listdir(tmp_path)) == before


def test_eval_malformed_samples_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "samples.csv").write_text(
        "site_id,p_percent,observed,predicted\na,0.01,oops,1.0\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="metrics.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert not os.path.exists(tmp_path / "metrics.txt")


def test_eval_samples_without_rows_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("site_id,p_percent,observed,predicted\n")
    write_config(tmp_path / "e.cfg", samples="s.csv", out_report="m.txt",
                 out_rec="rec.csv", out_manifest="manifest.txt")
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: s.csv: no samples\n")
    assert sorted(os.listdir(tmp_path)) == ["e.cfg", "s.csv"]


#: The rungs of the generated eval samples; 0.01 is the classify rung.
_EVAL_LADDER = (0.001, 0.01, 0.1, 1.0, 5.0)


def test_eval_per_probability_blocks_match_a_full_scan(tmp_path,
                                                       monkeypatch):
    from rainstats.evaluation import p311_summary, read_error_samples_csv
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    pairs = rng.permutation(40 * len(_EVAL_LADDER))  # each (site, p) once
    ps = np.array(_EVAL_LADDER)[pairs // 40]
    obs = rng.uniform(1.0, 150.0, ps.size)
    pred = obs * rng.uniform(0.3, 1.9, ps.size)
    with open(tmp_path / "samples.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "p_percent", "observed", "predicted"])
        w.writerows([f"s{s}", repr(p), repr(o), repr(q)]
                    for s, p, o, q in zip((pairs % 40).tolist(), ps.tolist(),
                                          obs.tolist(), pred.tolist()))
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="m.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg") == 0

    samples = read_error_samples_csv(tmp_path / "samples.csv").tolist()
    expected = []
    for p in sorted({s[1] for s in samples}):
        summary = p311_summary([100.0 * ((pred - obs) / obs)
                                for _, sp, obs, pred in samples if sp == p])
        expected += [f"p.{p!r}.rel_error_pct.{name}="
                     f"{getattr(summary, name):.4f}"
                     for name in ("mean", "sd", "rms")]
    lines = (tmp_path / "m.txt").read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("p.")] == expected


def test_eval_nan_probability_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    with open(tmp_path / "samples.csv", "a") as f:
        f.write("x,nan,100.0,90.0\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="m.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert "line 24" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m.txt")


def test_eval_repeated_sample_exits_2_and_writes_nothing(tmp_path,
                                                         monkeypatch, capsys):
    # scored twice, site a would count as two true positives
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text(
        "site_id,p_percent,observed,predicted\n"
        "a,0.01,120.0,110.0\nb,0.01,50.0,40.0\na,0.01,120.0,110.0\n")
    (tmp_path / "c.csv").write_text("site_id,country\na,X\nb,Y\n")
    write_config(tmp_path / "e.cfg", samples="s.csv", sites="c.csv",
                 out_report="m.txt", out_rec="rec.csv",
                 out_manifest="manifest.txt")
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert ("s.csv: line 4: duplicate sample for site a at p=0.01"
            in capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "e.cfg", "s.csv"]


@pytest.mark.parametrize("row", ["a,0.01,nan,1.0", "c,150,50.0,40.0",
                                 "b,0.01,50.0,inf", "d,0,50.0,40.0"])
def test_eval_bad_rate_or_probability_exits_2(tmp_path, monkeypatch, capsys,
                                              row):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    with open(tmp_path / "samples.csv", "a") as f:
        f.write(row + "\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="m.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg") == 2
    err = capsys.readouterr().err
    assert "line 24" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "m.txt")
    assert not os.path.exists(tmp_path / "rec.csv")


@pytest.mark.parametrize("row,message", [
    ("a,0.01,5e-324,1.0", "relative error is not finite"),
    ("a,0.01,1e-200,1.0", "error overflows the rel_error_pct summary")])
def test_eval_sample_beyond_double_range_exits_2(tmp_path, monkeypatch,
                                                 capsys, row, message):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    with open(tmp_path / "samples.csv", "a") as f:
        f.write(row + "\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="m.txt", out_rec="rec.csv")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("eval", "--config", "e.cfg") == 2
    err = capsys.readouterr().err
    assert f"data error: samples.csv: site a at p=0.01: {message}\n" in err
    assert "Warning" not in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("thresholds", ["nan", "inf", "10,inf"])
def test_eval_non_finite_rec_threshold_exits_1(tmp_path, monkeypatch,
                                               thresholds):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="m.txt", out_rec="rec.csv",
                 rec_thresholds=thresholds)
    assert run_cli("eval", "--config", "e.cfg") == 1
    assert not os.path.exists(tmp_path / "rec.csv")


def test_eval_short_sites_row_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    with open(tmp_path / "countries.csv", "a") as f:
        f.write("c99\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 sites="countries.csv", out_report="m.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert "line 22" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m.txt")
    assert not os.path.exists(tmp_path / "rec.csv")


def test_eval_repeated_site_country_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    with open(tmp_path / "countries.csv", "a") as f:
        f.write("c00,ZZ\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 sites="countries.csv", out_report="m.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg") == 2
    err = capsys.readouterr().err
    assert "countries.csv: line 22: duplicate site c00" in err
    assert not os.path.exists(tmp_path / "m.txt")
    assert not os.path.exists(tmp_path / "rec.csv")


def test_eval_reads_its_sites_csv_when_no_sample_is_classified(
        tmp_path, monkeypatch, capsys):
    # no sample sits at p = 0.5, so no sample needs a country
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    (tmp_path / "countries.csv").write_text("site_id,country\nc00,A\nc00,B\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 sites="countries.csv", classify_p=0.5, out_report="m.txt",
                 out_rec="rec.csv")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: countries.csv: line 3: duplicate site c00\n")
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_join_errors_name_the_file(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    if command == "fit":
        _write_fit_inputs(tmp_path)
        write_config(tmp_path / "c.cfg", sites="train_sites.csv",
                     climate="train_climate.csv", out_params="params.txt",
                     out_residuals="residuals.csv", out_report="report.txt")
        name, message = "train_climate.csv", "no climate record for site s4"
    else:
        _write_eval_samples(tmp_path)
        write_config(tmp_path / "c.cfg", samples="samples.csv",
                     sites="countries.csv", out_report="report.txt",
                     out_rec="rec.csv")
        name, message = "countries.csv", "no country for site c19"
    lines = (tmp_path / name).read_text().splitlines(True)
    (tmp_path / name).write_text("".join(lines[:-1]))
    assert run_cli(command, "--config", "c.cfg") == 2
    assert f"data error: {name}: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "report.txt")


def test_impact_infinite_threshold_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_impact_inputs(tmp_path)
    write_config(tmp_path / "i.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", pop="pop.grd",
                 countries="countries.grd", out_impact="impact.csv",
                 threshold="inf")
    assert run_cli("impact", "--config", "i.cfg") == 1
    err = capsys.readouterr().err
    assert "config key 'threshold'" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "impact.csv")


def test_impact_requires_paired_zone_keys(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "i.cfg", mt_grid="a", p0_grid="b", params="c",
                 pop="d", countries="e", zones="f",
                 out_impact="impact.csv")
    assert run_cli("impact", "--config", "i.cfg") == 1


def _reference_eval(rows, countries, classify_p, threshold, thresholds):
    """Eval's report and REC rows from ``(site_id, p, observed,
    predicted)`` tuples of Python floats, one sample at a time, as eval
    computed them before it took record arrays."""
    from rainstats import evaluation as ev
    rel_pct = [100.0 * ((pred - obs) / obs) for _, _, obs, pred in rows]
    lines = [f"count={len(rows)}"]

    def summary(prefix, values):
        s = ev.p311_summary(values)
        lines.extend(f"{prefix}.{name}={getattr(s, name):.4f}"
                     for name in ("mean", "sd", "rms"))

    def confusion(prefix, actuals, preds):
        cm = ev.confusion(actuals, preds)
        lines.extend(f"{prefix}.{name}={getattr(cm, name)}"
                     for name in ("tn", "fp", "fn", "tp"))
        lines.append(f"{prefix}.accuracy={ev.accuracy(cm):.4f}")
        lines.append(f"{prefix}.mcc={ev.mcc(cm):.4f}")

    summary("rel_error_pct", rel_pct)
    summary("bias_error_mm_h", [pred - obs for _, _, obs, pred in rows])
    by_p = {}
    for row, e in zip(rows, rel_pct):
        by_p.setdefault(row[1], []).append(e)
    for p in sorted(by_p):
        summary(f"p.{p!r}.rel_error_pct", by_p[p])
    picked = [row for row in rows if row[1] == classify_p]
    lines.append(f"classify.p={classify_p!r}")
    lines.append(f"classify.threshold={threshold!r}")
    actuals = [obs > threshold for _, _, obs, _ in picked]
    preds = [pred > threshold for _, _, _, pred in picked]
    confusion("classify.by_site", actuals, preds)
    by_country = {}
    for row, a, q in zip(picked, actuals, preds):
        any_a, any_q = by_country.get(countries[row[0]], (False, False))
        by_country[countries[row[0]]] = (any_a or a, any_q or q)
    confusion("classify.by_country",
              [by_country[c][0] for c in sorted(by_country)],
              [by_country[c][1] for c in sorted(by_country)])
    fractions = ev.rec_curve([abs(e) for e in rel_pct], thresholds)
    return lines, [[repr(t), repr(f)] for t, f in zip(thresholds, fractions)]


def test_eval_report_matches_a_per_sample_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(1, 40 * len(_EVAL_LADDER) + 1))
        pairs = rng.permutation(40 * len(_EVAL_LADDER))  # each (site, p) once
        # the classify rung (index 1) always has a sample
        first = np.flatnonzero(pairs // 40 == 1)[0]
        pairs[[0, first]] = pairs[[first, 0]]
        pairs = pairs[:n]
        ps = np.array(_EVAL_LADDER)[pairs // 40]
        obs = rng.uniform(1.0, 150.0, n)
        pred = obs * np.where(rng.uniform(size=n) < 0.1, 0.0,
                              rng.uniform(0.3, 1.9, n))
        rows = [(f"s{s}", p, o, q) for s, p, o, q in zip(
            (pairs % 40).tolist(), ps.tolist(), obs.tolist(), pred.tolist())]
        countries = {f"s{i}": f"C{i % 7}" for i in range(40)}
        with open(tmp_path / "samples.csv", "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["site_id", "p_percent", "observed", "predicted"])
            w.writerows([s, repr(p), repr(o), repr(q)] for s, p, o, q in rows)
        with open(tmp_path / "sites.csv", "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["site_id", "country"])
            w.writerows(countries.items())
        thresholds = (5.0, 10.0, 25.0, 50.0, 100.0)
        write_config(tmp_path / "e.cfg", samples="samples.csv",
                     sites="sites.csv", out_report="m.txt", out_rec="rec.csv",
                     rec_thresholds=",".join(map(repr, thresholds)))
        assert run_cli("eval", "--config", "e.cfg") == 0

        lines, rec = _reference_eval(rows, countries, 0.01, 95.0, thresholds)
        assert (tmp_path / "m.txt").read_text().splitlines() == lines, trial
        with open(tmp_path / "rec.csv", newline="") as f:
            assert list(csv.reader(f))[1:] == rec, trial


#: name: (command, config file, line, its replacement, message), one case
#: for each config rule, and for a missing required key and a missing output
#: directory; a replacement of two lines adds a key.
_RANGE_CHECKS = {
    "eval-classify_p": (
        "eval", "e.cfg", "classify_p=0.01", "classify_p=200",
        "classify_p must be in (0, 100]"),
    "build-clim-even-k_uniform": (
        "build-clim", "c.cfg", "k_uniform=9", "k_uniform=8",
        "k_uniform must be odd and positive, got 8"),
    "gauge-bad-span_start": (
        "gauge", "g.cfg", "span_start=2005-01-01T00:00:00Z",
        "span_start=2005-13-01",
        "config key 'span_start': bad ISO8601 time '2005-13-01'"),
    "eval-threshold": (
        "eval", "e.cfg", "out_rec=rec.csv", "out_rec=rec.csv\nthreshold=-0.5",
        "threshold must be >= 0"),
    "eval-rec_thresholds": (
        "eval", "e.cfg", "out_rec=rec.csv",
        "out_rec=rec.csv\nrec_thresholds=20,10",
        "rec_thresholds must be non-empty and ascending"),
    "build-clim-ncols-2**31": (
        "build-clim", "c.cfg", "ncols=16", "ncols=2147483648",
        "ncols must be below 2**31, got 2147483648"),
    "build-clim-nrows-2**31": (
        "build-clim", "c.cfg", "nrows=16", "nrows=2147483648",
        "nrows must be below 2**31, got 2147483648"),
    "build-clim-k_uniform-2**31": (
        "build-clim", "c.cfg", "k_uniform=9", "k_uniform=2147483649",
        "k_uniform must be below 2**31, got 2147483649"),
    "build-clim-k_gauss-2**31": (
        "build-clim", "c.cfg", "k_gauss=5", "k_gauss=2147483649",
        "k_gauss must be below 2**31, got 2147483649"),
    "build-clim-negative-k_gauss": (
        "build-clim", "c.cfg", "k_gauss=5", "k_gauss=-1",
        "k_gauss must be odd and positive, got -1"),
    "build-clim-nodata": (
        "build-clim", "c.cfg", "nodata=-9999.0", "nodata=-0.0",
        "nodata must be negative, got -0.0"),
    "build-clim-sigma_gauss": (
        "build-clim", "c.cfg", "k_gauss=5", "k_gauss=5\nsigma_gauss=0",
        "sigma_gauss must be positive"),
    "build-clim-dedup_window_s": (
        "build-clim", "c.cfg", "k_gauss=5", "k_gauss=5\ndedup_window_s=-1",
        "dedup_window_s must be positive"),
    "build-clim-no-columns": (
        "build-clim", "c.cfg", "ncols=16", "ncols=0",
        "bad output geometry: grid needs at least one row and one column"),
    "build-clim-cell": (
        "build-clim", "c.cfg", "cell=0.008333333333333333", "cell=-0.0",
        "bad output geometry: cell size must be positive"),
    "build-clim-latitude": (
        "build-clim", "c.cfg", "yll=9.0", "yll=-90.5",
        "bad output geometry: grid extends outside [-90, 90] latitude"),
    "build-clim-k_uniform-plus-ncols": (
        "build-clim", "c.cfg", "k_uniform=9", "k_uniform=2147483647",
        "k_uniform plus ncols must be below 2**31, got 2147483663"),
    "gauge-bad-span_end": (
        "gauge", "g.cfg", "span_end=2006-06-01T00:00:00Z",
        "span_end=2006-02-30",
        "config key 'span_end': bad ISO8601 time '2006-02-30'"),
    "gauge-span-order": (
        "gauge", "g.cfg", "span_end=2006-06-01T00:00:00Z",
        "span_end=2005-01-01T00:00:00+00:00",
        "span_end must be after span_start"),
    "gauge-span-period": (
        "gauge", "g.cfg", "span_end=2006-06-01T00:00:00Z",
        "span_end=2005-12-31T23:59:00Z",
        "span_start to span_end holds no full 12-month period"),
    "gauge-bucket_mm": (
        "gauge", "g.cfg", "exclude=b", "exclude=b\nbucket_mm=-0.0",
        "bucket_mm must be positive"),
    "gauge-min_count": (
        "gauge", "g.cfg", "exclude=b", "exclude=b\nmin_count=0",
        "min_count must be >= 1"),
    "gauge-empty-ladder": (
        "gauge", "g.cfg", "exclude=b", "exclude=b\nladder=",
        "ladder must list at least one probability"),
    "gauge-unsorted-ladder": (
        "gauge", "g.cfg", "exclude=b", "exclude=b\nladder=0.1,0.1",
        "ladder must be strictly increasing"),
    "gauge-ladder-probability": (
        "gauge", "g.cfg", "exclude=b", "exclude=b\nladder=0.01,100.5",
        "ladder probability 100.5 outside (0, 100]"),
    "predict-empty-ladder": (
        "predict", "p.cfg", "out_sites=pred.csv",
        "out_sites=pred.csv\nladder=,",
        "ladder must list at least one probability"),
    "predict-unsorted-ladder": (
        "predict", "p.cfg", "out_sites=pred.csv",
        "out_sites=pred.csv\nladder=1,0.1",
        "ladder must be strictly increasing"),
    "predict-ladder-probability": (
        "predict", "p.cfg", "out_sites=pred.csv",
        "out_sites=pred.csv\nladder=-0.0,1",
        "ladder probability -0.0 outside (0, 100]"),
    "impact-p": (
        "impact", "i.cfg", "out_impact=impact.csv",
        "out_impact=impact.csv\np=100.5",
        "p must be in (0, 100]"),
    "impact-threshold": (
        "impact", "i.cfg", "out_impact=impact.csv",
        "out_impact=impact.csv\nthreshold=-1e308",
        "threshold must be >= 0"),
    "impact-zones-without-out_zones": (
        "impact", "i.cfg", "out_zones=zonecov.csv", "",
        "zones and out_zones must be given together"),
    "impact-missing-params": (
        "impact", "i.cfg", "params=params.txt", "",
        "missing required config key 'params'"),
    "impact-missing-output-directory": (
        "impact", "i.cfg", "out_impact=impact.csv",
        "out_impact=nodir/impact.csv",
        "output directory does not exist: nodir"),
}


def _write_range_check_inputs(tmp_path):
    """Write the inputs and configs of one working run of each command that
    :data:`_RANGE_CHECKS` names."""
    _write_eval_samples(tmp_path)
    write_config(tmp_path / "e.cfg", samples="samples.csv", classify_p=0.01,
                 out_report="m.txt", out_rec="rec.csv")
    _write_clim_config(tmp_path)
    _write_gauge_inputs(tmp_path)
    for command, name in (("predict", "p.cfg"), ("impact", "i.cfg")):
        write_config(tmp_path / name, **_working_config(tmp_path, command))


@pytest.mark.parametrize("case", list(_RANGE_CHECKS.values()),
                         ids=list(_RANGE_CHECKS))
def test_range_check_errors_name_the_config_file(tmp_path, monkeypatch,
                                                 capsys, case):
    command, name, line, bad, message = case
    monkeypatch.chdir(tmp_path)
    _write_range_check_inputs(tmp_path)
    text = (tmp_path / name).read_text()
    assert line in text
    (tmp_path / name).write_text(text.replace(line, bad))
    assert run_cli(command, "--config", name) == 1
    assert f"config error: {name}: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("case", list(_RANGE_CHECKS.values()),
                         ids=list(_RANGE_CHECKS))
def test_range_check_errors_write_nothing(tmp_path, monkeypatch, capsys,
                                          case):
    command, name, line, bad, message = case
    monkeypatch.chdir(tmp_path)
    _write_range_check_inputs(tmp_path)
    path = tmp_path / name
    path.write_text(path.read_text().replace(line, bad))
    before = sorted(os.listdir(tmp_path))
    assert run_cli(command, "--config", name) == 1
    assert capsys.readouterr().err == (
        f"rainstats: config error: {name}: {message}\n")
    assert sorted(os.listdir(tmp_path)) == before


def _rule_patterns():
    """``(command, key, regex)`` of each config rule: a field's rule, a rule
    across keys (its name as the key) or a key pair; the regex matches the
    rule's message with any value in it."""
    for command, (schema, derived, _, _) in cli._COMMANDS.items():
        for key, rules in [*((key, field.rules)
                             for key, field in schema.items()),
                           *((name, rules) for name, _, rules in derived)]:
            for rule in rules:
                yield command, key, ".*".join(
                    re.escape(part.format(key=key))
                    for part in rule.message.split("{value}"))
        for key, field in schema.items():
            if field.pair:
                yield command, key, re.escape(
                    f"{key} and {field.pair} must be given together")


def test_every_config_rule_has_a_range_check():
    patterns = set(_rule_patterns())
    assert patterns
    covered = {(command, key, regex) for command, key, regex in patterns
               for case in _RANGE_CHECKS.values()
               if case[0] == command and re.fullmatch(regex, case[-1])}
    assert patterns - covered == set()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_output_that_is_a_fifo_is_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, command):
    schema = cli._COMMANDS[command][0]
    out_keys = [k for k, field in schema.items() if field.kind == "out"]
    for key in out_keys:
        d = tmp_path / key
        d.mkdir()
        monkeypatch.chdir(d)
        cfg = _working_config(d, command)
        write_config(d / "run.cfg", **{**cfg, key: "out.fifo"})
        os.mkfifo(d / "out.fifo")
        before = sorted(os.listdir(d))
        assert run_cli(command, "--config", "run.cfg") == 2, key
        assert capsys.readouterr().err == (
            f"rainstats: data error: {key} 'out.fifo' exists and is not a "
            "regular file\n"), key
        assert sorted(os.listdir(d)) == before, key
        assert stat.S_ISFIFO(os.lstat(d / "out.fifo").st_mode), key


#: Two-fault configs whose first reported fault changed when the handlers'
#: checks became rules: a field's rules run in schema order, then the rules
#: across keys.  name: (command, config file, {line: its replacement},
#: message before, message now).
_PRECEDENCE = {
    "build-clim-nodata-before-geometry": (
        "build-clim", "c.cfg",
        {"nodata=-9999.0": "nodata=0.0",
         "cell=0.008333333333333333": "cell=0.0"},
        "bad output geometry: cell size must be positive",
        "nodata must be negative, got 0.0"),
    "build-clim-odd-k_uniform-before-k_gauss-2**31": (
        "build-clim", "c.cfg",
        {"k_uniform=9": "k_uniform=8", "k_gauss=5": "k_gauss=2147483649"},
        "k_gauss must be below 2**31, got 2147483649",
        "k_uniform must be odd and positive, got 8"),
    "build-clim-sigma_gauss-before-k_uniform-plus-ncols": (
        "build-clim", "c.cfg",
        {"k_uniform=9": "k_uniform=2147483647",
         "k_gauss=5": "k_gauss=5\nsigma_gauss=-1"},
        "k_uniform plus ncols must be below 2**31, got 2147483663",
        "sigma_gauss must be positive"),
    "gauge-bucket_mm-before-ladder": (
        "gauge", "g.cfg", {"exclude=b": "exclude=b\nbucket_mm=0\nladder="},
        "ladder must list at least one probability",
        "bucket_mm must be positive"),
    "gauge-min_count-before-span": (
        "gauge", "g.cfg",
        {"exclude=b": "exclude=b\nmin_count=0",
         "span_end=2006-06-01T00:00:00Z": "span_end=2005-06-01T00:00:00Z"},
        "span_start to span_end holds no full 12-month period",
        "min_count must be >= 1"),
}


@pytest.mark.parametrize("case", list(_PRECEDENCE.values()),
                         ids=list(_PRECEDENCE))
def test_a_fields_rules_come_before_the_rules_across_keys(
        tmp_path, monkeypatch, capsys, case):
    command, name, replacements, before, now = case
    monkeypatch.chdir(tmp_path)
    _write_range_check_inputs(tmp_path)
    path = tmp_path / name
    text = path.read_text()
    for line, bad in replacements.items():
        assert line in text
        text = text.replace(line, bad)
    path.write_text(text)
    assert run_cli(command, "--config", name) == 1
    assert capsys.readouterr().err == (
        f"rainstats: config error: {name}: {now}\n")
    # the handlers' checks reported the other fault first
    cfg = load_config(name, cli._COMMANDS[command][0])
    assert config_fault(command, cfg) == before


def test_an_output_that_is_a_directory_comes_before_a_bad_value(
        tmp_path, monkeypatch, capsys):
    # the path checks refuse it before any value rule runs
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    (tmp_path / "blocker").mkdir()
    write_config(tmp_path / "e.cfg", samples="samples.csv", classify_p=200,
                 out_report="m.txt", out_rec="blocker")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert capsys.readouterr().err == (
        "rainstats: data error: out_rec 'blocker' exists and is not a regular "
        "file\n")
    assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# determinism across seeds and thread counts


def test_eval_rerun_identical_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="metrics.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg", "--seed", "7") == 0
    blobs = {n: (tmp_path / n).read_bytes()
             for n in ("metrics.txt", "rec.csv", "metrics.txt.manifest")}
    assert run_cli("eval", "--config", "e.cfg", "--seed", "7",
                   "--threads", "4") == 0
    for n, blob in blobs.items():
        assert (tmp_path / n).read_bytes() == blob


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_seed_is_only_recorded_in_the_manifest(tmp_path, monkeypatch,
                                               command):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.cfg", **_working_config(tmp_path, command))
    inputs = set(os.listdir(tmp_path))
    runs = []
    for seed in ("1", "2"):
        assert run_cli(command, "--config", "run.cfg", "--seed", seed) == 0
        runs.append({name: (tmp_path / name).read_bytes()
                     for name in set(os.listdir(tmp_path)) - inputs})
    first, second = runs
    manifests = [name for name in first if name.endswith(".manifest")]
    assert first.keys() == second.keys() and len(manifests) == 1
    assert {n: b for n, b in first.items() if n not in manifests} == {
        n: b for n, b in second.items() if n not in manifests}
    lines = [run[manifests[0]].decode().splitlines() for run in runs]
    assert len(lines[0]) == len(lines[1])
    assert [(a, b) for a, b in zip(*lines) if a != b] == [("seed=1", "seed=2")]


# ---------------------------------------------------------------------------
# output paths


_SCHEMAS = {name: getattr(cli, name) for name in sorted(vars(cli))
            if name.startswith("_") and name.endswith("_SCHEMA")}


def test_every_schema_marks_its_outputs():
    assert len(_SCHEMAS) == 6
    for name, schema in _SCHEMAS.items():
        assert "out_manifest" in schema, name
        for key, field in schema.items():
            assert (field.kind == "out") == key.startswith("out_"), (name, key)


_RUNS = {
    "fit": (_write_fit_inputs, cli._FIT_SCHEMA, dict(
        sites="train_sites.csv", climate="train_climate.csv",
        out_params="params.txt", out_residuals="residuals.csv",
        out_report="fit_report.txt")),
    "predict": (_write_predict_inputs, cli._PREDICT_SCHEMA, dict(
        mt_grid="mt.grd", p0_grid="p0.grd", params="params.txt",
        locations="locs.csv", out_sites="pred.csv")),
    "eval": (_write_eval_samples, cli._EVAL_SCHEMA, dict(
        samples="samples.csv", sites="countries.csv",
        out_report="metrics.txt", out_rec="rec.csv")),
    "impact": (_write_impact_inputs, cli._IMPACT_SCHEMA, dict(
        mt_grid="mt.grd", p0_grid="p0.grd", params="params.txt",
        pop="pop.grd", countries="countries.grd", zones="zones.grd",
        out_impact="impact.csv", out_zones="zonecov.csv")),
}


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_output_that_is_a_directory_leaves_no_output(tmp_path, monkeypatch,
                                                     command):
    write_inputs, schema, cfg = _RUNS[command]
    out_keys = [k for k, field in schema.items() if field.kind == "out"]
    assert "out_manifest" in out_keys and len(out_keys) >= 2
    for key in out_keys:
        d = tmp_path / key
        d.mkdir()
        monkeypatch.chdir(d)
        write_inputs(d)
        (d / "blocker").mkdir()
        write_config(d / "run.cfg", **{**cfg, key: "blocker"})
        before = sorted(os.listdir(d))
        assert run_cli(command, "--config", "run.cfg") == 2, key
        assert sorted(os.listdir(d)) == before, key
        assert os.listdir(d / "blocker") == [], key


_CLASHES = {
    "two-outputs": dict(out_rec="m.txt"),
    "manifest-and-output": dict(out_manifest="m.txt"),
    "output-and-default-manifest": dict(out_rec="m.txt.manifest"),
    "output-and-input": dict(out_report="samples.csv"),
    "output-and-optional-input": dict(out_rec="./countries.csv"),
    "manifest-and-config": dict(out_manifest="e.cfg"),
    "output-and-symlinked-input": dict(out_report="link.csv"),
}


@pytest.mark.parametrize("clash", list(_CLASHES.values()), ids=list(_CLASHES))
def test_eval_refuses_outputs_that_share_a_file(tmp_path, monkeypatch, capsys,
                                                clash):
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    os.symlink("samples.csv", tmp_path / "link.csv")
    write_config(tmp_path / "e.cfg", **{
        **dict(samples="samples.csv", sites="countries.csv",
               out_report="m.txt", out_rec="rec.csv"), **clash})
    before = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}
    assert run_cli("eval", "--config", "e.cfg") == 1
    assert "is the same file as" in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)} == before


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = ("import sys, rainstats.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.optimize')))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def _run_python(code, **env):
    """The stripped standard output of ``python -c code`` with the package
    on its path, ``OPENBLAS_NUM_THREADS`` removed from its environment and
    ``env`` added."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**base, "PYTHONPATH": src, **env}
                          ).stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_cli_import_runs_one_thread():
    # numpy's and scipy's OpenBLAS would each start a worker pool
    assert _run_python("import os, rainstats.cli; "
                       "print(len(os.listdir('/proc/self/task')))") == "1"


def test_cli_import_keeps_the_callers_openblas_threads():
    assert _run_python("import os, rainstats.cli; "
                       "print(os.environ['OPENBLAS_NUM_THREADS'])",
                       OPENBLAS_NUM_THREADS="2") == "2"


# ---------------------------------------------------------------------------
# extreme config values


def _working_config(tmp_path, command):
    """Write the inputs of a run of ``command`` that exits 0 under
    ``tmp_path``; return its config as a dict."""
    if command in _RUNS:
        write_inputs, _, cfg = _RUNS[command]
        write_inputs(tmp_path)
        return cfg
    if command == "build-clim":
        _write_clim_config(tmp_path)
        return read_report(tmp_path / "c.cfg")
    _write_gauge_inputs(tmp_path)
    return read_report(tmp_path / "g.cfg")


#: Values far from any default: an int beyond int64, and the smallest and
#: largest doubles.  Ints between about 10^4 and 2^62 are left out: they
#: would really allocate or loop (a k-wide Gaussian, a padded grid).
_EXTREMES = {"int": (10**20 + 1,),
             "float": (5e-324, 1e-200, 1e308, -1e308)}

_SWEEP = [(command, key, value)
          for command, (schema, *_) in cli._COMMANDS.items()
          for key, field in schema.items()
          if field.kind in ("int", "float", "floats")
          for value in _EXTREMES["int" if field.kind == "int" else "float"]]


@pytest.mark.parametrize("command,key,value", _SWEEP,
                         ids=[f"{c}-{k}={v!r}" for c, k, v in _SWEEP])
def test_extreme_config_value_keeps_the_contract(tmp_path, monkeypatch,
                                                 capsys, command, key, value):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "sweep.cfg",
                 **{**_working_config(tmp_path, command), key: value})
    before = sorted(os.listdir(tmp_path))
    if isinstance(value, int):
        # an int sizes arrays, so run it under a 2 GiB address-space limit
        code = ("import resource, sys; "
                "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard)); "
                "from rainstats import cli; "
                f"sys.exit(cli.main([{command!r}, '--config', 'sweep.cfg']))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src,
                 "OPENBLAS_NUM_THREADS": "1"})
        exit_code, err = out.returncode, out.stderr
    else:
        exit_code = run_cli(command, "--config", "sweep.cfg")
        err = capsys.readouterr().err
    assert exit_code in (0, 1, 2, 3), err
    assert "Traceback" not in err and "Warning" not in err, err
    if exit_code:
        assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# extreme input-file values


def run_cli_recording_warnings(*argv):
    """``(exit code, warning messages)`` of an in-process run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exit_code = run_cli(*argv)
    return exit_code, [str(w.message) for w in caught]


@pytest.mark.parametrize("lon", ["1e308", "-1e308"])
def test_build_clim_observation_far_off_in_longitude_is_skipped(
        tmp_path, monkeypatch, lon):
    # its distance from every cell overflows; it covers none of them
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    assert run_cli("build-clim", "--config", "c.cfg") == 0
    grids = {name: (tmp_path / name).read_bytes()
             for name in ("mt.grd", "p0.grd")}
    report = read_report(tmp_path / "report.txt")
    with open(tmp_path / "obs.csv", "a") as f:
        f.write(f"99999.0,9.05,{lon},3.0,1,4.5\n")
    assert run_cli_recording_warnings("build-clim", "--config",
                                      "c.cfg") == (0, [])
    for name, data in grids.items():
        assert (tmp_path / name).read_bytes() == data
    assert read_report(tmp_path / "report.txt") == {
        **report, "observations": str(int(report["observations"]) + 1),
        "skipped": str(int(report["skipped"]) + 1)}


@pytest.mark.parametrize("lat,lon", [("1e308", "2.0"), ("-1e308", "2.0"),
                                     ("2.0", "1e308")])
def test_predict_location_far_off_the_grid_exits_2(tmp_path, monkeypatch,
                                                   capsys, lat, lon):
    # its position in grid cells overflows
    monkeypatch.chdir(tmp_path)
    _write_predict_inputs(tmp_path)
    with open(tmp_path / "locs.csv", "a") as f:
        f.write(f"c,{lat},{lon},ZZ\n")
    write_config(tmp_path / "p.cfg", mt_grid="mt.grd", p0_grid="p0.grd",
                 params="params.txt", locations="locs.csv",
                 out_sites="pred.csv")
    before = sorted(os.listdir(tmp_path))
    assert run_cli_recording_warnings("predict", "--config",
                                      "p.cfg") == (2, [])
    err = capsys.readouterr().err
    assert (f"point ({float(lat)!r}, {float(lon)!r}) is outside the grid "
            "bounds") in err
    assert sorted(os.listdir(tmp_path)) == before


#: Exit code of predict and impact on the test inputs when one parameter
#: is set to the smallest or the largest double: a tiny x or y, or a huge
#: z, drives the rates to infinity, a solver error.
_EXTREME_PARAMS = {("x", "5e-324"): 3, ("x", "1e308"): 0,
                   ("y", "5e-324"): 3, ("y", "1e308"): 0,
                   ("z", "5e-324"): 0, ("z", "1e308"): 3}


@pytest.mark.parametrize("command", ["predict", "impact"])
@pytest.mark.parametrize("key,value", sorted(_EXTREME_PARAMS))
def test_extreme_params_value_keeps_the_contract(tmp_path, monkeypatch,
                                                 command, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = _working_config(tmp_path, command)
    write_config(tmp_path / "c.cfg", **cfg)
    write_params(ModelParams(**{**vars(PARAMS), key: float(value)}),
                 tmp_path / "params.txt")
    before = sorted(os.listdir(tmp_path))
    exit_code = _EXTREME_PARAMS[key, value]
    assert run_cli_recording_warnings(command, "--config",
                                      "c.cfg") == (exit_code, [])
    written = sorted(set(os.listdir(tmp_path)) - set(before))
    outputs = [v for k, v in cfg.items() if k.startswith("out_")]
    assert written == ([] if exit_code else sorted(
        [*outputs, f"{outputs[0]}.manifest"]))


@pytest.mark.parametrize("nsrr", ["1e308", "1e4"])
def test_build_clim_rate_at_the_cap_names_the_line(tmp_path, monkeypatch,
                                                   capsys, nsrr):
    # a pixel's sum of such rates would overflow to inf, which no grid holds
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    with open(tmp_path / "obs.csv", "a") as f:
        f.write(f"99999.0,9.05,30.05,{nsrr},1,4.5\n")
    before = sorted(os.listdir(tmp_path))
    assert run_cli_recording_warnings("build-clim", "--config",
                                      "c.cfg") == (2, [])
    assert (f"obs.csv: line 82: nsrr must be below 10000.0 mm/h, got "
            f"{float(nsrr)}") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_build_clim_rate_below_the_cap_is_rendered(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    with open(tmp_path / "obs.csv", "a") as f:
        f.write("99999.0,9.05,30.05,9999.5,1,4.5\n")
    assert run_cli_recording_warnings("build-clim", "--config",
                                      "c.cfg") == (0, [])


#: The grid inputs of the working runs, as (command, config key).
_GRID_INPUTS = [("build-clim", "reference_mt"), ("build-clim", "elevation"),
                ("predict", "mt_grid"), ("predict", "p0_grid"),
                ("impact", "mt_grid"), ("impact", "p0_grid"),
                ("impact", "pop"), ("impact", "countries"),
                ("impact", "zones")]

#: What every valid cell of a grid becomes: near the largest double of
#: either sign, +-1e308 in turn (row-major), or the smallest double.
_FAR_OUT = {"1.7e308": lambda n: np.full(n, 1.7e308),
            "-1.7e308": lambda n: np.full(n, -1.7e308),
            "+-1e308": lambda n: np.where(np.arange(n) % 2, -1e308, 1e308),
            "5e-324": lambda n: np.full(n, 5e-324)}

_GRID_SWEEP = [(command, key, fill) for command, key in _GRID_INPUTS
               for fill in _FAR_OUT]


@pytest.mark.parametrize("command,key,fill", _GRID_SWEEP,
                         ids=[f"{c}-{k}={f}" for c, k, f in _GRID_SWEEP])
def test_far_out_grid_keeps_the_contract(tmp_path, monkeypatch, capsys,
                                         command, key, fill):
    # one far-out cell never makes a sum overflow; a whole grid of them can
    monkeypatch.chdir(tmp_path)
    cfg = _working_config(tmp_path, command)
    write_config(tmp_path / "sweep.cfg", **cfg)
    grid = read_grid(cfg[key])
    values = grid.values.copy()
    valid = grid.valid_mask()
    values[valid] = _FAR_OUT[fill](np.count_nonzero(valid))
    write_grid(Grid(grid.geometry, values), cfg[key])
    before = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}

    exit_code, caught = run_cli_recording_warnings(command, "--config",
                                                   "sweep.cfg")
    err = capsys.readouterr().err
    assert exit_code in (0, 1, 2, 3), err
    assert caught == [], err
    after = {name: (tmp_path / name).read_bytes()
             for name in os.listdir(tmp_path)}
    if exit_code:
        assert after == before, err
    else:
        for name, data in after.items():
            if before.get(name) != data:
                assert not re.search(rb"\b(?:inf|nan)\b", data), name


@pytest.mark.parametrize("key,message", [
    ("elevation", "stage elevation: elev.grd: the windowed IQR overflows"),
    ("reference_mt", "stage merge: ref.grd: a window mean's sum overflows")],
    ids=["elevation", "reference_mt"])
def test_far_out_build_clim_grid_names_the_file_and_the_statistic(
        tmp_path, monkeypatch, capsys, key, message):
    # every value is finite; a statistic over a window of them is not
    monkeypatch.chdir(tmp_path)
    cfg = _working_config(tmp_path, "build-clim")
    grid = read_grid(cfg[key])
    valid = grid.valid_mask()
    grid.values[valid] = _FAR_OUT["+-1e308"](np.count_nonzero(valid))
    write_grid(grid, cfg[key])
    before = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}
    assert run_cli_recording_warnings("build-clim", "--config",
                                      "c.cfg") == (2, [])
    assert capsys.readouterr().err == f"rainstats: data error: {message}\n"
    assert {name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)} == before
