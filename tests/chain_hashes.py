"""The sha256 of every output and manifest of both benchmark chains.

    python tests/chain_hashes.py SRC_DIR OUT.json
    python tests/chain_hashes.py --smoke OUT.json

For each workload of ``bench/inputs.py`` and each seed 1-3, the first form
builds the full-size inputs with ``inputs.setup``, runs the workload's chain
of subcommands with ``--threads 1`` and then ``--threads 4`` through
``python -m rainstats`` on the package under ``SRC_DIR/src``, and writes to
``OUT.json`` the sha256 of each file the chain writes, keyed
``workload/seed/threads/file`` (108 entries).  Run it on two checkouts and
compare the two JSON files: equal files mean every benchmark output is
byte-identical.  The inputs always come from the ``bench/`` beside this
script, so both runs read the same files.

The second form hashes the 18 files of both chains at the ``smoke`` size,
seed 1, ``--threads 1``, on the package of this checkout, and writes them
with the Python, numpy and scipy versions that made them:
``test_golden_hashes`` compares a fresh run with ``tests/smoke_hashes.json``
and this form rewrites it when outputs change on purpose.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))
import inputs  # noqa: E402

SEEDS = (1, 2, 3)
THREADS = (1, 4)


def versions() -> dict:
    """The versions of what the outputs' bytes depend on, besides the
    package: Python's float repr and numpy's and scipy's arithmetic."""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def chain_hashes(src_dir, seeds=SEEDS, threads_values=THREADS,
                 size="full") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(src_dir).resolve() / "src"), env.get("PYTHONPATH")]))
    hashes = {}
    for workload, chain in inputs.CHAINS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as d:
                inputs.setup(workload, d, seed, size)
                for threads in threads_values:
                    for cmd, cfg, _ in chain:
                        subprocess.run(
                            [sys.executable, "-m", "rainstats", cmd,
                             "--config", cfg, "--threads", str(threads)],
                            cwd=d, env=env, check=True)
                    # every file is hashed, then removed, so that the next
                    # run of the chain must write it again
                    for _, _, outputs in chain:
                        for name in outputs:
                            path = Path(d, name)
                            hashes[f"{workload}/{seed}/{threads}/{name}"] = \
                                hashlib.sha256(path.read_bytes()).hexdigest()
                            path.unlink()
    return hashes


def smoke_hashes() -> dict:
    """The hashes of both chains at the smoke size, seed 1, one thread."""
    return chain_hashes(REPO, seeds=(1,), threads_values=(1,), size="smoke")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/chain_hashes.py SRC_DIR|--smoke "
                 "OUT.json")
    if sys.argv[1] == "--smoke":
        out = {"versions": versions(), "hashes": smoke_hashes()}
    else:
        out = chain_hashes(sys.argv[1])
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
