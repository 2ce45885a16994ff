"""Measure a baseline of the benchmark and record it with the environment.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Runs ``run.py`` untraced once per seed on every workload, and traced once
per workload (first seed).  Writes the machine and library versions, the
workload sizes, and for every workload and end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, next to the metric's bound.  The traced
run's per-layer values are recorded as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402


def _cpu():
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            info["model"] = next(ln.split(":", 1)[1].strip() for ln in f
                                 if ln.startswith("model name"))
    except (OSError, StopIteration):
        info["model"] = platform.processor()
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{idx}/level") as f:
                level = f.read().strip()
            with open(f"{base}/{idx}/type") as f:
                kind = f.read().strip()
            with open(f"{base}/{idx}/size") as f:
                caches[f"L{level} {kind}"] = f.read().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def environment():
    import numpy
    import scipy
    return {"cpu": _cpu(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(inputs.CHAINS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"environment": environment(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = run_once(w, seed, seconds, 0)
            runs.append(res)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "bound": bounds[name], "values": vals}
        traced = run_once(w, args.seeds[0], seconds, 1)
        result["workloads"][w] = {
            "sizes": {p: inputs.SIZES["full"][p] for p in inputs.PARTS[w]},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "per_layer_correct": traced["correct"]}
        for name, m in metrics.items():
            print(f"{w} {name}: median {m['median']:.4g} spread "
                  f"{m['spread']:.3f} (bound {m['bound']})", file=sys.stderr,
                  flush=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
