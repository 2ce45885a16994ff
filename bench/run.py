"""rainstats benchmark: two CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload clim-gauge --seed 1 --seconds 50 --trace 0

Workloads (inputs are generated from ``--seed``; the program only sees the
files):

* ``clim-gauge``: ``build-clim`` (footprint rendering, windowed IQR, window
  filters, grid writes), then ``gauge`` and ``eval`` on gauge records (CSV
  parsing, per-event splines, scoring); never inverts the model.
* ``site-planning``: ``fit``, then ``predict``, then ``impact`` (the model
  inversion three ways, grid reads); never filters or renders.

``--trace 0`` runs the workload's CLI chain as a closed loop with one
client: one fresh ``python -m rainstats`` process per subcommand, the next
one starting when the previous one exits, and new chains starting until
``--seconds`` have passed.  It reports the medians over chains of wall
time, CPU time (each child's ``wait4`` rusage) and peak RSS, and of the
set-up time (inputs and oracle values, regenerated before every chain).
The workloads are sized so that a run holds several chains: the host's
other tenants slow whole stretches of a run, and a median over more chains
follows them less.

``--trace 1`` makes one traced pass instead: the CLI chain once for the
per-subcommand wall times, then the chain in-process untraced (warm-up),
traced (see ``tracing.py``) and untraced again, and the ``threads=2``
repeats of ``fit_params`` and ``render_observations``.

Every subcommand's outputs are checked against the benchmark's own oracle
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
subcommand invocations (and threads=2 comparisons) that failed, so
``failed / attempted`` is the failed fraction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

IMPORT_REPS = 3
CHILD_TIMEOUT_S = 150.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import rainstats.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cwd, stdout=subprocess.DEVNULL):
    """Run one child to completion: (exit code, wall s, cpu s, max RSS MB)."""
    t0 = time.perf_counter()
    with open(os.path.join(cwd, "stderr.txt"), "ab") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=stdout,
                                stderr=err)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = ru.ru_utime + ru.ru_stime
    return proc.returncode, wall, cpu, ru.ru_maxrss / 1024


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {reason}", file=sys.stderr)


def check_outputs(workload, d, oracle, exit_codes, tally, label):
    for cmd, _, outputs in inputs.CHAINS[workload]:
        rc = exit_codes[cmd]
        if rc != 0:
            tally.record(f"{label} {cmd}", False, f"exit code {rc}")
            continue
        try:
            checks.check(cmd, d, outputs, oracle)
            tally.record(f"{label} {cmd}", True)
        except checks.CheckFailed as e:
            tally.record(f"{label} {cmd}", False, str(e))


def _clear_outputs(workload, d):
    for _, _, outputs in inputs.CHAINS[workload]:
        for f in outputs:
            path = os.path.join(d, f)
            if os.path.exists(path):
                os.remove(path)


def cli_chain(workload, d, oracle, tally):
    """One closed-loop pass of the workload's CLI chain."""
    _clear_outputs(workload, d)
    per_cmd, codes = {}, {}
    t0 = time.perf_counter()
    for cmd, cfg, _ in inputs.CHAINS[workload]:
        rc, wall, cpu, rss = spawn(
            [sys.executable, "-m", "rainstats", cmd, "--config", cfg], d)
        codes[cmd] = rc
        per_cmd[cmd] = (wall, cpu, rss)
    wall = time.perf_counter() - t0
    check_outputs(workload, d, oracle, codes, tally, "cli")
    return {"wall_s": wall,
            "cpu_s": sum(c for _, c, _ in per_cmd.values()),
            "peak_rss_mb": max(r for _, _, r in per_cmd.values()),
            **{tracing.command_metric(cmd): w
               for cmd, (w, _, _) in per_cmd.items()}}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(workload, d, seed, size, seconds, tally):
    # set-up precedes every chain, so its time is sampled across the run
    # as the chains' times are; the same seed rewrites the same inputs
    setup_times, chains = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        t = time.perf_counter()
        oracle = inputs.setup(workload, d, seed, size)
        setup_times.append(time.perf_counter() - t)
        if not chains:
            spawn([sys.executable, "-c", "import rainstats.cli"], d)  # warm
        chains.append(cli_chain(workload, d, oracle, tally))
    samples = {"setup_s": setup_times}
    for key in chains[0]:
        samples[key] = [c[key] for c in chains]
    for key, vals in samples.items():
        q1, q3 = _quartiles(vals)
        print(f"{key:>14} {statistics.median(vals):10.4f}  "
              f"(median of {len(vals)}; quartiles {q1:.4f} .. {q3:.4f})")
    print(f"{'failed_frac':>14} {tally.failed / tally.attempted:10.4f}  "
          f"({tally.failed} of {tally.attempted} invocations)")
    return {name: (statistics.median(samples[name]), unit)
            for name, unit in END_TO_END}


def _identical(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_identical, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _identical(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def in_process_chain(workload, d, cli, rec):
    _clear_outputs(workload, d)
    codes = {}
    cwd = os.getcwd()
    os.chdir(d)
    try:
        t0 = time.perf_counter()
        for cmd, cfg, _ in inputs.CHAINS[workload]:
            argv = [cmd, "--config", cfg]
            codes[cmd] = (cli.main(argv) if rec is None
                          else rec.span(f"cli.{cmd}", cli.main, argv))
        elapsed = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return elapsed, codes


def traced(workload, d, seed, size, tally, trace_path):
    oracle = inputs.setup(workload, d, seed, size)
    metrics = {}
    imports = []
    for _ in range(IMPORT_REPS):
        out = os.path.join(d, "import_s.txt")
        with open(out, "w") as f:
            rc = spawn([sys.executable, "-c", IMPORT_PROBE], d, stdout=f)[0]
        tally.record("import probe", rc == 0, f"exit code {rc}")
        if rc == 0:
            with open(out) as f:
                imports.append(float(f.read()))
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0

    chain = cli_chain(workload, d, oracle, tally)
    for name in tracing.COMMAND_METRICS:
        metrics[name] = chain.get(name, 0.0)

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rainstats.cli as cli

    # the first untraced pass warms the interpreter; the overhead compares
    # the traced pass with the untraced one after it
    _, codes = in_process_chain(workload, d, cli, None)
    check_outputs(workload, d, oracle, codes, tally, "in-process")
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        traced_s, codes = in_process_chain(workload, d, cli, rec)
    finally:
        tracing.uninstall(undo)
    check_outputs(workload, d, oracle, codes, tally, "traced")
    rec.dump(trace_path)
    plain_s, codes = in_process_chain(workload, d, cli, None)
    check_outputs(workload, d, oracle, codes, tally, "in-process")
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s

    layers = rec.layers()
    for name, (args, kwargs, out) in rec.captured.items():
        module, fn = name.split(".")
        orig = getattr(sys.modules[f"rainstats.{module}"], fn)
        t0 = time.perf_counter()
        out2 = orig(*args, **{**kwargs, "threads": 2})
        layers[name]["t2_s"] = time.perf_counter() - t0
        tally.record(f"{name} threads=2", _identical(out, out2),
                     "result differs from threads=1")
    render = layers.get("climatology.render_observations")
    if render:
        render["useful_frac"] = (1.0 - render["skipped"]
                                 / render["observations"])

    for name, _ in tracing.per_layer_metrics():
        if name in metrics:
            continue
        span, key = name.rsplit(".", 1)
        metrics[name] = layers.get(span, {}).get(key, 0)
    for name, unit in tracing.per_layer_metrics():
        print(f"{name:>48} {metrics[name]:>16.6g} {unit}")
    units = dict(tracing.per_layer_metrics())
    return {name: (metrics[name], units[name]) for name in units}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.CHAINS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rainstats", "cli.py")):
        print(f"run.py: no rainstats sources under {SRC}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".bench_work")
    d = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(d)
    tally = Tally()
    try:
        if args.trace:
            trace_path = os.path.join(
                work_root, f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = traced(args.workload, d, args.seed, args.size, tally,
                             trace_path)
        else:
            metrics = measure(args.workload, d, args.seed, args.size,
                              args.seconds, tally)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
