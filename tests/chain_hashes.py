"""The sha256 of every output and manifest of both benchmark chains.

    python tests/chain_hashes.py SRC_DIR OUT.json

For each workload of ``bench/inputs.py`` and each seed 1-3, this builds the
full-size inputs with ``inputs.setup``, runs the workload's chain of
subcommands with ``--threads 1`` and then ``--threads 4`` through
``python -m rainstats`` on the package under ``SRC_DIR/src``, and writes to
``OUT.json`` the sha256 of each file the chain writes, keyed
``workload/seed/threads/file`` (108 entries).  Run it on two checkouts and
compare the two JSON files: equal files mean every benchmark output is
byte-identical.  The inputs always come from the ``bench/`` beside this
script, so both runs read the same files.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402

SEEDS = (1, 2, 3)
THREADS = (1, 4)


def chain_hashes(src_dir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(src_dir).resolve() / "src"), env.get("PYTHONPATH")]))
    hashes = {}
    for workload, chain in inputs.CHAINS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as d:
                inputs.setup(workload, d, seed)
                for threads in THREADS:
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


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/chain_hashes.py SRC_DIR OUT.json")
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(chain_hashes(sys.argv[1]), f, indent=1, sort_keys=True)
        f.write("\n")
