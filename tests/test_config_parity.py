"""The config rules declared in the subcommands' schemas against the checks
their handlers made before, kept in ``reference_readers``: on seeded random
configs, a run with every path valid exits 1 with the message of the first
reference check that the config fails, taking the checks in :data:`ORDER`,
and exits 0 when it fails none."""

import numpy as np
import pytest

from rainstats import cli
from reference_readers import CONFIG_CHECKS, config_fault

#: command: its checks' names in the order the declared rules report them,
#: where that differs from the handler's order.  A field's rules run in
#: schema order, then the rules across keys; build-clim's and gauge's
#: handlers interleaved the two.
ORDER = {
    "build-clim": ["ncols<2**31", "nrows<2**31", "nodata", "k_uniform<2**31",
                   "k_uniform odd", "k_gauss<2**31", "k_gauss odd",
                   "sigma_gauss", "dedup_window_s", "geometry",
                   "k_uniform plus ncols"],
    "gauge": ["bucket_mm", "ladder", "min_count", "span"],
}

#: A working value of each key with rules; a random config keeps it, or
#: unsets it, or takes a value from its kind's pool.
GOOD = {
    "ncols": 16, "nrows": 16, "xll": 30.0, "yll": 9.0, "cell": 1.0 / 120.0,
    "nodata": -9999.0, "k_uniform": 9, "k_gauss": 5, "sigma_gauss": 1.5,
    "dedup_window_s": 60.0, "span_start": "2005-01-01T00:00:00Z",
    "span_end": "2006-06-01T00:00:00Z", "bucket_mm": 0.254,
    "ladder": (0.01, 0.1, 1.0), "min_count": 20,
    "rec_thresholds": (10.0, 20.0, 50.0), "classify_p": 0.01,
    "threshold": 95.0, "p": 0.01}

POOLS = {
    "int": (0, -1, 1, 2, 3, 8, 9, 16, 2**31 - 17, 2**31 - 1, 2**31,
            2**31 + 1, 2**63 - 1, 10**20 + 1),
    "float": (0.0, -0.0, -1.0, 5e-324, -5e-324, 1e-200, 0.01, 1.0, 89.9,
              90.0, 100.0, 100.5, 1e308, -1e308, -91.0),
    "floats": ((), (0.01,), (1.0, 0.1), (0.1, 0.1), (0.0, 1.0), (-0.0, 1.0),
               (0.01, 100.0), (0.01, 100.5), (5e-324, 1e308), (-1.0,)),
    "str": ("2005-01-01T00:00:00Z", "2006-06-01T00:00:00+00:00",
            "2005-12-31T23:59:00Z", "2004-12-31T23:00:00", "2005-13-01",
            "2006-02-30", "", "0001-01-01T00:00:00Z",
            "9999-12-31T23:59:59Z"),
}

N_CONFIGS = 1000


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def _random_config(rng, schema) -> dict:
    """``{key: typed value}`` of the keys a random config sets: every path
    key, but ``zones``, ``out_zones`` and ``out_manifest`` each half the
    time, and each key of :data:`GOOD`, which it keeps, leaves unset (if it
    may) or takes from its kind's pool."""
    out = {}
    for key, field in schema.items():
        if field.kind in ("in", "out"):
            if key not in ("zones", "out_zones", "out_manifest") \
                    or rng.uniform() < 0.5:
                out[key] = f"{key}.{field.kind}"
        elif key in GOOD:
            draw = rng.uniform()
            if draw < 0.45 or (draw < 0.55 and field.required):
                out[key] = GOOD[key]
            elif draw >= 0.55:
                pool = POOLS[field.kind]
                out[key] = pool[rng.integers(len(pool))]
    return out


@pytest.mark.parametrize("command", sorted(CONFIG_CHECKS))
def test_declared_rules_report_what_the_handlers_checked(
        tmp_path, monkeypatch, capsys, command):
    # fit's config names only files, so it has no value rules
    monkeypatch.chdir(tmp_path)
    schema, derived, _, help_text = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command,
                        (schema, derived, lambda *args: None, help_text))
    for key, field in schema.items():
        if field.kind == "in":
            (tmp_path / f"{key}.in").write_text("")
    names = [name for name, _ in CONFIG_CHECKS[command]]
    order = ORDER.get(command, names)
    assert sorted(order) == sorted(names)
    rng = np.random.default_rng([26, len(command)])
    moved = 0
    for trial in range(N_CONFIGS):
        values = _random_config(rng, schema)
        cfg = {**{key: field.default for key, field in schema.items()},
               **values}
        (tmp_path / "run.cfg").write_text("".join(
            f"{key}={_text(value)}\n" for key, value in values.items()))
        fault = config_fault(command, cfg, order)
        code = cli.main([command, "--config", "run.cfg"])
        assert (code, capsys.readouterr().err) == (
            (1, f"rainstats: config error: run.cfg: {fault}\n") if fault
            else (0, "")), (trial, values)
        if fault != config_fault(command, cfg):
            # only a config that fails two checks reports another first
            moved += 1
            assert sum(config_fault(command, cfg, [name]) is not None
                       for name in names) >= 2, (trial, values)
    assert (moved > 0) == (command in ORDER)
