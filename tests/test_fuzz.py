"""Seeded mutations of every input file of a working run of each
subcommand, run in-process with warnings as errors.  Whatever the bytes, a
run exits 0, 1, 2 or 3, raises nothing, warns nothing, and leaves its
directory as it was when it fails.  Each case also ends with the exit code
and stderr recorded in ``fuzz_messages.json``; a change to a message
rewrites that file with ``python tests/fuzz_messages.py .
tests/fuzz_messages.json``, and its diff lists the changed cases."""

import json
import os
import random
import re
import warnings
from pathlib import Path

import pytest

from rainstats import cli
from test_cli import _working_config, write_config

#: ``command/file/case``: the mutation, exit code and stderr of each case,
#: written by ``fuzz_messages.py``
GOLDEN = json.loads(Path(__file__).with_name("fuzz_messages.json")
                    .read_text(encoding="utf-8"))

SEED = 837
CASES_PER_FILE = 26

#: The input files of each command's working run; the configs are swept
#: by ``test_cli.test_extreme_config_value_keeps_the_contract``.
INPUTS = {
    "fit": ["train_climate.csv", "train_sites.csv"],
    "predict": ["locs.csv", "mt.grd", "p0.grd", "params.txt"],
    "build-clim": ["elev.grd", "obs.csv", "ref.grd"],
    "gauge": ["gsites.csv", "tips_a.csv"],
    "eval": ["countries.csv", "samples.csv"],
    "impact": ["countries.grd", "mt.grd", "p0.grd", "params.txt", "pop.grd",
               "zones.grd"],
}

#: What a number is replaced by: values at the edges of a double, the
#: model's rate cap, and text that a float or int parser takes or refuses
#: unlike the others (bytes that are not UTF-8, a quote, an underscore, a
#: hex prefix, a no-break space, a leading blank).
TOKENS = [b"nan", b"inf", b"-inf", b"-0.0", b"0", b"-1", b"1e4", b"1e308",
          b"-1e308", b"5e-324", b"-5e-324", b"", b"\xff", b'"', b"1_0",
          b"0x10", "\u00a0".encode(), b" 1"]

_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

KINDS = ["truncate", "number", "duplicate", "swap", "drop"]


def _mutate(data, rng):
    """``(description, mutated bytes)`` of one seeded mutation of
    ``data``."""
    kind = rng.choice(KINDS)
    if kind == "truncate":
        cut = rng.randrange(len(data))
        return f"truncate at byte {cut}", data[:cut]
    if kind == "number":
        match = rng.choice(list(_NUMBER.finditer(data)))
        token = rng.choice(TOKENS)
        return (f"number {match.group()!r} at byte {match.start()} -> "
                f"{token!r}",
                data[:match.start()] + token + data[match.end():])
    lines = data.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "duplicate":
        lines.insert(i, lines[i])
        what = f"duplicate line {i + 1}"
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
        what = f"swap lines {i + 1} and {j + 1}"
    else:
        del lines[i]
        what = f"drop line {i + 1}"
    return what, b"".join(lines)


def _snapshot(directory):
    return {name: (directory / name).read_bytes()
            for name in os.listdir(directory)}


def _remove_outputs(directory, clean):
    for name in set(os.listdir(directory)) - set(clean):
        os.remove(directory / name)


@pytest.mark.parametrize("command", list(INPUTS))
def test_mutated_input_keeps_the_contract(tmp_path, monkeypatch, capsys,
                                          command):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.cfg", **_working_config(tmp_path, command))
    clean = _snapshot(tmp_path)
    assert sorted(name for name in clean
                  if not name.endswith(".cfg")) == INPUTS[command]
    assert cli.main([command, "--config", "run.cfg"]) == 0
    _remove_outputs(tmp_path, clean)
    failures, cases = [], {}
    for name in INPUTS[command]:
        rng = random.Random(f"{SEED}:{command}:{name}")
        for i in range(CASES_PER_FILE):
            what, data = _mutate(clean[name], rng)
            (tmp_path / name).write_bytes(data)
            before = _snapshot(tmp_path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    exit_code = cli.main([command, "--config", "run.cfg"])
                except Exception as e:  # any exception is a finding
                    exit_code = repr(e)
            err = capsys.readouterr().err
            cases[f"{command}/{name}/{i}"] = {
                "mutation": what, "exit": exit_code,
                "stderr": err.replace(str(tmp_path), "<tmp>")}
            if exit_code not in (0, 1, 2, 3):
                failures.append((name, what, exit_code))
            elif exit_code and _snapshot(tmp_path) != before:
                failures.append((name, what, "wrote files", err))
            _remove_outputs(tmp_path, clean)
        (tmp_path / name).write_bytes(clean[name])
    assert failures == []
    golden = {case: out for case, out in GOLDEN.items()
              if case.startswith(f"{command}/")}
    assert sorted(case for case in cases.keys() | golden.keys()
                  if cases.get(case) != golden.get(case)) == []
