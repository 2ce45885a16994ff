import csv
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rainstats import cli, gauge
from rainstats.rainmodel import (ClimatePoint, ModelParams, SiteStatistics,
                                 estimate_site_curve, rain_rate,
                                 read_params, write_params, write_sites_csv)
from rainstats.raster import Grid, GridGeometry, write_grid
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
    assert "train_sites.csv line 2: not a finite number" in err
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
    assert "locs.csv line 4: duplicate site a" in err
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


# ---------------------------------------------------------------------------
# build-clim


def _write_clim_config(tmp_path, cfg_name="c.cfg"):
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
    write_config(tmp_path / cfg_name, observations="obs.csv",
                 reference_mt="ref.grd", elevation="elev.grd",
                 ncols=g.ncols, nrows=g.nrows, xll=g.xll, yll=g.yll,
                 cell=g.cell, nodata=g.nodata, k_uniform=9, k_gauss=5,
                 out_mt="mt.grd", out_p0="p0.grd", out_report="report.txt")


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


def test_build_clim_failed_output_leaves_no_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    (tmp_path / "p0.grd").mkdir()
    assert run_cli("build-clim", "--config", "c.cfg") == 2
    assert sorted(os.listdir(tmp_path)) == [
        "c.cfg", "elev.grd", "obs.csv", "p0.grd", "ref.grd"]


# ---------------------------------------------------------------------------
# inputs that are not UTF-8, or too large for memory


#: file appended to: (command, exit code, message with the file's old size)
_NON_UTF8 = {
    "mt.grd": ("predict", 2, "data error: mt.grd: not UTF-8 at byte {size}"),
    "params.txt": ("predict", 2,
                   "data error: params.txt: not UTF-8 at byte {size}"),
    "locs.csv": ("predict", 2, "data error: locs.csv: not UTF-8"),
    "obs.csv": ("build-clim", 2,
                "data error: stage read: obs.csv: not UTF-8"),
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
    code = ("import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard)); "
            "from rainstats import cli; "
            "sys.exit(cli.main(['build-clim', '--config', 'c.cfg']))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src,
                              "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 2, out.stderr
    assert "data error" in out.stderr and "Traceback" not in out.stderr
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("key", ["ncols", "nrows", "k_uniform", "k_gauss"])
def test_build_clim_int_beyond_int64_is_a_config_error(tmp_path, monkeypatch,
                                                       capsys, key):
    # numpy would refuse the int when it sizes an array; with a tiny cell,
    # nrows passes the latitude-extent check
    monkeypatch.chdir(tmp_path)
    _write_clim_config(tmp_path)
    with open(tmp_path / "c.cfg") as f:
        text = "".join(line for line in f
                       if not line.startswith((f"{key}=", "cell=")))
    (tmp_path / "c.cfg").write_text(
        text + f"{key}={10**20 + 1}\ncell=1e-300\n")
    before = sorted(os.listdir(tmp_path))
    assert run_cli("build-clim", "--config", "c.cfg") == 1
    err = capsys.readouterr().err
    assert (f"config error: c.cfg: {key} must fit in 64 bits, "
            f"got {10**20 + 1}") in err and "Traceback" not in err
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
    assert f"{name} line 2: not a finite number" in err
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
    # 2005-01-02T00:10 listed before 00:05
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
    assert f"data error: tips_a.csv: {message}\n" in err
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
    code = ("import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard)); "
            "from rainstats import cli; "
            "sys.exit(cli.main(['impact', '--config', 'i.cfg']))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src,
                              "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    with open(tmp_path / "impact.csv", newline="") as f:
        codes = [r[0] for r in list(csv.reader(f))[1:]]
    assert codes == ["2147483647", "100000000000000000000", "unassigned",
                     "total"]
    with open(tmp_path / "zones.csv", newline="") as f:
        zrows = list(csv.reader(f))[1:]
    assert [(r[0], r[1]) for r in zrows] == [
        ("2147483647", "50.0000"), ("100000000000000000000", "50.0000")]


def test_eval_malformed_samples_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "samples.csv").write_text(
        "site_id,p_percent,observed,predicted\na,0.01,oops,1.0\n")
    write_config(tmp_path / "e.cfg", samples="samples.csv",
                 out_report="metrics.txt", out_rec="rec.csv")
    assert run_cli("eval", "--config", "e.cfg") == 2
    assert not os.path.exists(tmp_path / "metrics.txt")


def test_eval_per_probability_blocks_match_a_full_scan(tmp_path,
                                                       monkeypatch):
    from rainstats.evaluation import p311_summary, read_error_samples_csv
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    ps = rng.choice([0.001, 0.01, 0.1, 1.0, 5.0], 600)
    obs = rng.uniform(1.0, 150.0, ps.size)
    pred = obs * rng.uniform(0.3, 1.9, ps.size)
    with open(tmp_path / "samples.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["site_id", "p_percent", "observed", "predicted"])
        w.writerows([f"s{i % 40}", repr(p), repr(o), repr(q)]
                     for i, (p, o, q) in enumerate(zip(
                         ps.tolist(), obs.tolist(), pred.tolist())))
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
    assert "countries.csv line 22: duplicate site c00" in err
    assert not os.path.exists(tmp_path / "m.txt")
    assert not os.path.exists(tmp_path / "rec.csv")


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
    pairs = ev.by_country((countries[row[0]], a, q) for row, a, q
                          in zip(picked, actuals, preds)).values()
    confusion("classify.by_country", [a for a, _ in pairs],
              [q for _, q in pairs])
    fractions = ev.rec_curve([abs(e) for e in rel_pct], thresholds)
    return lines, [[repr(t), repr(f)] for t, f in zip(thresholds, fractions)]


def test_eval_report_matches_a_per_sample_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(1, 300))
        ps = rng.choice([0.001, 0.01, 0.1, 1.0, 5.0], n)
        ps[0] = 0.01  # the classify rung always has a sample
        obs = rng.uniform(1.0, 150.0, n)
        pred = obs * np.where(rng.uniform(size=n) < 0.1, 0.0,
                              rng.uniform(0.3, 1.9, n))
        rows = [(f"s{i % 40}", p, o, q) for i, (p, o, q) in enumerate(zip(
            ps.tolist(), obs.tolist(), pred.tolist()))]
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
}


@pytest.mark.parametrize("case", list(_RANGE_CHECKS.values()),
                         ids=list(_RANGE_CHECKS))
def test_range_check_errors_name_the_config_file(tmp_path, monkeypatch,
                                                 capsys, case):
    command, name, line, bad, message = case
    monkeypatch.chdir(tmp_path)
    _write_eval_samples(tmp_path)
    write_config(tmp_path / "e.cfg", samples="samples.csv", classify_p=0.01,
                 out_report="m.txt", out_rec="rec.csv")
    _write_clim_config(tmp_path)
    _write_gauge_inputs(tmp_path)
    text = (tmp_path / name).read_text()
    assert line in text
    (tmp_path / name).write_text(text.replace(line, bad))
    assert run_cli(command, "--config", name) == 1
    assert f"config error: {name}: {message}\n" in capsys.readouterr().err


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
          for command, (schema, _, _) in cli._COMMANDS.items()
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
