"""The exit code and stderr of every seeded mutation of ``test_fuzz``.

    python tests/fuzz_messages.py SRC_DIR OUT.json

Imports the package from ``SRC_DIR/src``, then, for each subcommand and
each of its input files, writes the inputs of ``test_cli``'s working run
in a temporary directory and runs ``test_fuzz``'s seeded mutations of that
file in this process, warnings as errors, as ``test_fuzz`` does: 494 cases
in all.  ``OUT.json`` maps ``command/file/case`` to the mutation, the exit
code (or the ``repr`` of an exception that escaped) and stderr, with the
temporary directory's path written ``<tmp>``.  ``test_fuzz`` holds every
case to ``tests/fuzz_messages.json``, written by ``python
tests/fuzz_messages.py . tests/fuzz_messages.json``; a change that alters
a message rewrites it, and the file's diff lists the changed cases.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path


def _case(command):
    """``(exit code or repr of an escaped exception, stderr)`` of one run
    of ``command`` on ``run.cfg`` in the working directory."""
    from rainstats import cli
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main([command, "--config", "run.cfg"])
        except Exception as e:  # any exception is recorded as it is
            code = repr(e)
    return code, err.getvalue()


def fuzz_messages() -> dict:
    from test_cli import _working_config, write_config
    from test_fuzz import CASES_PER_FILE, INPUTS, SEED, _mutate
    out = {}
    home = os.getcwd()
    for command, names in INPUTS.items():
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            try:
                tmp = Path(d)
                write_config(tmp / "run.cfg", **_working_config(tmp, command))
                clean = {name: (tmp / name).read_bytes()
                         for name in os.listdir(tmp)}
                for name in names:
                    rng = random.Random(f"{SEED}:{command}:{name}")
                    for i in range(CASES_PER_FILE):
                        what, data = _mutate(clean[name], rng)
                        (tmp / name).write_bytes(data)
                        code, err = _case(command)
                        out[f"{command}/{name}/{i}"] = {
                            "mutation": what, "exit": code,
                            "stderr": err.replace(d, "<tmp>")}
                        for extra in set(os.listdir(tmp)) - set(clean):
                            os.remove(tmp / extra)
                    (tmp / name).write_bytes(clean[name])
            finally:
                os.chdir(home)
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/fuzz_messages.py SRC_DIR OUT.json")
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    messages = fuzz_messages()
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(messages, f, indent=1, sort_keys=True)
        f.write("\n")
