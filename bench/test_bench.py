"""Self tests of the benchmark, on the tiny ``smoke`` inputs.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for p in (BENCH, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = sorted(inputs.CHAINS)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _in_process(workload, d, rec=None):
    from rainstats import cli
    _, codes = run.in_process_chain(workload, d, cli, rec)
    assert all(rc == 0 for rc in codes.values()), codes


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """{workload: (directory, oracle)} with the program's smoke outputs."""
    out = {}
    for w in WORKLOADS:
        d = str(tmp_path_factory.mktemp(w))
        o = inputs.setup(w, d, seed=3, size="smoke")
        _in_process(w, d)
        out[w] = (d, o)
    return out


def test_benchmark_json_lists_every_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == [
        "clim-gauge", "site-planning"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_end_to_end_metrics(workload):
    res = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", "0", "--size", "smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == len(inputs.CHAINS[workload])
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_smoke_run_reports_per_layer_metrics():
    res = _bench("--workload", "clim-gauge", "--seed", "5", "--seconds",
                 "0.1", "--trace", "1", "--size", "smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"]
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["gauge.tips_to_rates.events"] > 0
    assert m["gauge_s"] > 0 and m["fit_s"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _bench("--workload", "clim-gauge", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        inputs.setup(workload, str(d), seed, "smoke")
        return {f: (d / f).read_bytes() for f in sorted(os.listdir(d))}

    first = files(7, "a")
    assert files(7, "b") == first
    assert files(8, "c") != first


#: Modules that import raster functions by name, so bind their own copies.
IMPORTERS = {"cli": ("read_grid", "sample_bilinear"),
             "climatology": ("window_iqr", "uniform_filter", "gaussian_filter",
                             "resample", "read_grid", "write_grid")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_fire_only_on_their_workloads(workload, smoke_outputs):
    d, o = smoke_outputs[workload]
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        from rainstats import raster
        for mod, names in IMPORTERS.items():
            for name in names:
                bound = getattr(sys.modules[f"rainstats.{mod}"], name)
                assert bound is getattr(raster, name)
                assert hasattr(bound, "__wrapped__"), (mod, name)
        _in_process(workload, d, rec)
    finally:
        tracing.uninstall(undo)
    assert not hasattr(raster.read_grid, "__wrapped__")
    layers = rec.layers()
    assert set(tracing.SPAN_WORKLOADS) >= set(layers)
    for span, where in tracing.SPAN_WORKLOADS.items():
        assert (span in layers) == (workload in where), span

    # the counters agree with what the generator wrote
    if workload == "clim-gauge":
        assert layers["gauge.read_tips_csv"]["rows"] == o["tips"]
        assert layers["gauge.tips_to_rates"]["events"] == o["events"]
        render = layers["climatology.render_observations"]
        assert render["windows"] == o["windows"]
        assert render["skipped"] == o["report"]["skipped"]
    else:
        assert layers["rainmodel.fit_params"]["nfev"] > 0
        assert layers["raster.sample_bilinear"]["calls"] == 2 * o["lats"].size


def test_layers_subtract_child_spans():
    rec = tracing.Recorder()
    rec.spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0],
                 ["b", 0, 5.0, 6.0], ["c", 1, 2.0, 3.0]]
    layers = rec.layers()
    assert layers["a"]["self_s"] == 6.0
    assert layers["b"] == {"self_s": 3.0, "calls": 2}
    assert layers["c"]["self_s"] == 1.0


def test_closed_form_inverse_matches_a_root_finder():
    from scipy.optimize import brentq
    params = inputs.GEN_PARAMS
    for mt, p0, p in [(1500.0, 5.0, 0.01), (0.0, 3.0, 1.0),
                      (3800.0, 9.5, 0.001), (200.0, 0.8, 0.5)]:
        want = brentq(lambda r: oracle.exceedance(r, mt, p0, params) - p,
                      0.0, 1e4, xtol=1e-12, rtol=1e-14)
        assert oracle.rain_rate(p, mt, p0, params) == pytest.approx(
            want, rel=1e-9)
    assert oracle.rain_rate(6.0, 100.0, 5.0, params) == 0.0


# ---------------------------------------------------------------------------
# every check accepts the program's output and rejects a perturbed one


def _edit_lines(path, fn):
    with open(path) as f:
        lines = f.read().split("\n")
    with open(path, "w") as f:
        f.write("\n".join(fn(lines)))


def _scale_csv_field(row, col, factor):
    def edit(lines):
        parts = lines[row].split(",")
        parts[col] = repr(float(parts[col]) * factor)
        lines[row] = ",".join(parts)
        return lines
    return edit


def _set_key(key, fn):
    def edit(lines):
        return [f"{key}={fn(ln.split('=', 1)[1])}" if ln.startswith(key + "=")
                else ln for ln in lines]
    return edit


def _add_csv_field(row, col, delta):
    def edit(lines):
        parts = lines[row].split(",")
        parts[col] = repr(float(parts[col]) + delta)
        lines[row] = ",".join(parts)
        return lines
    return edit


def _grid_cell(fn):
    """Apply ``fn`` to the first valid cell of the middle grid row."""
    def edit(lines):
        mid = 6 + (len(lines) - 6) // 2
        vals = lines[mid].split()
        col = next(i for i, v in enumerate(vals) if float(v) != oracle.ND)
        vals[col] = repr(fn(float(vals[col])))
        lines[mid] = " ".join(vals)
        return lines
    return edit


PERTURBATIONS = {
    "build-clim": [
        ("mt.grd", _grid_cell(lambda v: v * (1 + 1e-6))),
        ("p0.grd", _grid_cell(lambda v: v * (1 - 1e-6))),
        ("mt.grd", _grid_cell(lambda v: oracle.ND)),
        ("report.txt", _set_key("skipped", lambda v: int(v) + 1)),
        ("report.txt", _set_key("stage.merge.mt_mean",
                                lambda v: repr(float(v) * (1 + 1e-6)))),
    ],
    "fit": [
        ("params.txt", _set_key("x", lambda v: repr(float(v) * 1.1))),
        ("fit_report.txt", _set_key("objective",
                                    lambda v: repr(float(v) * 0.9))),
        ("residuals.csv", _scale_csv_field(3, 3, 1.001)),
    ],
    "predict": [
        ("pred.csv", _scale_csv_field(5, 6, 1.0001)),
        ("pred.csv", lambda lines: lines[:1] + lines[2:]),
        ("pred.csv.manifest", _set_key("note.skipped_locations",
                                       lambda v: int(v) + 1)),
    ],
    "impact": [
        ("impact.csv", _add_csv_field(1, 2, 1.0)),
        ("impact.csv", _add_csv_field(2, 1, 1.0)),
        ("impact.csv", lambda lines: lines[:-2]),
        ("zonecov.csv", _scale_csv_field(1, 3, 1.01)),
    ],
    "gauge": [
        ("stats.csv", _scale_csv_field(8, 6, 1.06)),
        ("stats.csv", lambda lines: lines[:1] + [
            ln for ln in lines[1:] if not ln.startswith("G01")]),
    ],
    "eval": [
        ("metrics.txt", _set_key("classify.by_site.tp",
                                 lambda v: int(v) + 1)),
        ("metrics.txt", _set_key("classify.by_country.fn",
                                 lambda v: int(v) + 1)),
        ("metrics.txt", _set_key("rel_error_pct.sd",
                                 lambda v: f"{float(v) + 0.001:.4f}")),
        ("rec.csv", _scale_csv_field(3, 1, 1.01)),
    ],
}

CASES = [(cmd, i) for cmd, edits in PERTURBATIONS.items()
         for i in range(len(edits))]


def _copy_outputs(cmd, smoke_outputs, tmp_path):
    workload = next(w for w, chain in inputs.CHAINS.items()
                    if any(c == cmd for c, _, _ in chain))
    d, o = smoke_outputs[workload]
    shutil.copytree(d, tmp_path, dirs_exist_ok=True)
    outputs = next(outs for c, _, outs in inputs.CHAINS[workload]
                   if c == cmd)
    return str(tmp_path), outputs, o


@pytest.mark.parametrize("cmd,index", CASES)
def test_check_rejects_perturbed_output(cmd, index, smoke_outputs, tmp_path):
    d, outputs, o = _copy_outputs(cmd, smoke_outputs, tmp_path)
    checks.check(cmd, d, outputs, o)
    name, edit = PERTURBATIONS[cmd][index]
    _edit_lines(os.path.join(d, name), edit)
    with pytest.raises(checks.CheckFailed):
        checks.check(cmd, d, outputs, o)


@pytest.mark.parametrize("cmd", sorted(checks.CHECKS))
def test_check_rejects_missing_output(cmd, smoke_outputs, tmp_path):
    d, outputs, o = _copy_outputs(cmd, smoke_outputs, tmp_path)
    os.remove(os.path.join(d, outputs[-1]))
    with pytest.raises(checks.CheckFailed):
        checks.check(cmd, d, outputs, o)


def test_build_clim_check_allows_exact_rewrites(smoke_outputs, tmp_path):
    d, outputs, o = _copy_outputs("build-clim", smoke_outputs, tmp_path)
    _edit_lines(os.path.join(d, "mt.grd"),
                _grid_cell(lambda v: v * (1 + 7.4e-10)))
    checks.check("build-clim", d, outputs, o)


def test_build_clim_check_catches_a_wrong_filter(smoke_outputs, tmp_path):
    d, outputs, o = _copy_outputs("build-clim", smoke_outputs, tmp_path)
    k = inputs.SIZES["smoke"]["clim-build"]["k_gauss"]
    _edit_lines(os.path.join(d, "clim.cfg"),
                _set_key("k_gauss", lambda v: k + 2))
    _in_process("clim-gauge", d)
    with pytest.raises(checks.CheckFailed):
        checks.check("build-clim", d, outputs, o)


def test_thread_comparison_sees_a_difference():
    a = (np.zeros(3), 1.0)
    assert run._identical(a, (np.zeros(3), 1.0))
    assert not run._identical(a, (np.array([0.0, 0.0, 1e-300]), 1.0))
