"""Flat key=value run-configuration files.

Blank lines and lines starting with ``#`` are ignored.  Unknown keys are
rejected so typos fail fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Field:
    """One config key.  Kinds ``in`` and ``out`` are strings naming an input
    or an output file; they read like ``str``.  Kinds ``float`` and
    ``floats`` accept finite numbers only."""

    kind: str                 # str | in | out | int | float | floats | strs
    required: bool = False
    default: object = None


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"config line {lineno}: expected key=value, "
                              f"got {line!r}")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _convert(key: str, raw: str, kind: str):
    try:
        if kind in ("str", "in", "out"):
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(raw)
        if kind == "floats":
            return tuple(_finite(t) for t in raw.split(",") if t.strip())
        if kind == "strs":
            return tuple(t.strip() for t in raw.split(",") if t.strip())
    except ValueError as e:
        raise ConfigError(f"config key {key!r}: bad value {raw!r} ({e})") \
            from None
    raise ConfigError(f"internal: unknown field kind {kind!r}")


def load_config(path, schema: dict) -> dict:
    """Read and type-check a config file against ``schema``."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = parse_config_text(f.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None

    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    out = {}
    for key, field in schema.items():
        if key in raw:
            out[key] = _convert(key, raw[key], field.kind)
        elif field.required:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            out[key] = field.default
    return out
