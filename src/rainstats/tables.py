"""The files every subcommand reads and writes, all of them UTF-8.

Every input file is opened and decoded by :func:`read_text`, which puts
the file's path in front of every error its parse raises.  A CSV input
is a :class:`Table`: its columns, its record fields and one ordered list
of steps, each converting a field from text or checking whole columns (a
:data:`Check`, such as :data:`UNIQUE_SITE` across rows), which
:func:`read_table` runs over the CSV's columns.  Configs are read by
:func:`load_config`, whose values :func:`check_config` holds to the
:data:`Rule`s of their keys; configs and params are :func:`parse_pairs`
files.  CSV tables are written by :func:`write_rows` and text files by
:func:`write_text`, with ``\n`` line ends on every platform.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError, blamed


def read_text(path, parse):
    """``parse(text)`` of the file at ``path``, its line ends as they are.
    Bytes that are not UTF-8 and a ``ValueError`` from ``parse`` raise a
    :class:`DataError` with the path in front of the message."""
    with open(path, encoding="utf-8", newline="") as f, blamed(path):
        try:
            return parse(f.read())
        except UnicodeDecodeError as e:
            raise ValueError(f"not UTF-8 at byte {e.start}") from None


def split_lines(text: str) -> list:
    """The lines of ``text`` ended by ``\r\n``, ``\r`` or ``\n``."""
    return (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text
            else text).split("\n")  # a text without \r is only split


def parse_pairs(text: str) -> dict:
    """``{key: (line number, value)}`` for each stripped ``key=value`` line
    of ``text``, skipping blank and ``#`` lines.  A line without ``=`` or a
    key, or a repeated key, raises :class:`DataError` naming the line."""
    out = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise DataError(f"line {lineno}: expected key=value, "
                            f"got {line!r}")
        if key in out:
            raise DataError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (lineno, value.strip())
    return out


#: A condition on a table's rows: ``test`` of the columns named in ``reads``
#: is True for each row that passes, and ``message`` is the
#: :meth:`str.format` template, over the fields of the first row that fails,
#: of the error it raises.
Check = namedtuple("Check", ["reads", "test", "message"])


class Table:
    """A CSV table: its header ``columns``, the record fields ``names`` it
    is read into (one per column; the columns by default) and its
    ``steps``, in order.  A step is a :data:`Check` or a ``(field,
    convert)`` pair, which makes the field's text a float with ``convert``
    (``float`` or the field's own parser); other fields stay text."""

    def __init__(self, columns, steps, names=None):
        self.columns, self.steps = list(columns), steps
        converted, read, numbers = set(), set(), set()
        for step in steps:
            if isinstance(step, Check):
                read.update(step.reads)
            else:
                converted.add(step[0])
                if step[1] is float and step[0] not in read:
                    numbers.add(step[0])  # np.loadtxt parses as float does
        self.dtype, self.split_dtype = (np.dtype([
            (name, np.float64 if name in fields else object)
            for name in names or self.columns])
            for fields in (converted, numbers))


_NOT_FINITE = "not a finite number"


def finite(*names) -> list:
    """Steps that convert each of ``names`` with ``float`` and refuse a
    value that is not finite, one field after the other."""
    return [step for name in names for step in (
        (name, float), Check((name,), np.isfinite, _NOT_FINITE))]


def first_rows(*columns) -> np.ndarray:
    """For each row of the equal-length ``columns``, the index of the first
    row whose values all equal its own."""
    keys = list(zip(*(c.tolist() for c in columns)))
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, keys), np.intp, len(keys))


def unique(reads, message) -> Check:
    """A check that no two rows share their values of the fields
    ``reads``; it fails on each row that repeats an earlier one."""
    return Check(reads, lambda *keys: first_rows(*keys)
                 == np.arange(len(keys[0])), message)


#: A site-keyed table lists each ``site_id`` once.
UNIQUE_SITE = unique(("site_id",), "duplicate site {site_id}")


def _split_whole(text: str, table: Table):
    """``(columns, line numbers, None)`` of the table in ``text`` as
    ``np.loadtxt`` splits it, or None if csv could split it otherwise."""
    lines = split_lines(text)
    # csv reads " as a quote; loadtxt takes \x1c-\x1f for spaces, float not
    if lines.pop(0) != ",".join(table.columns) or any(
            c in text for c in '"\x1c\x1d\x1e\x1f'):
        return None
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    if lengths.max(initial=0) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            # loadtxt warns about a body without rows
            warnings.simplefilter("ignore", UserWarning)
            split = np.loadtxt(lines, dtype=table.split_dtype, delimiter=",",
                               comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return None
    return ({name: split[name] for name in split.dtype.names},
            2 + np.flatnonzero(lengths), None)  # loadtxt skips empty lines


def _split_csv(text: str, table: Table):
    """``(columns, line numbers, fault)`` of the table in ``text`` as
    ``csv.reader`` splits it, up to the first row it cannot parse or that
    has a wrong field count; ``fault`` is that row's (line, message)."""
    rows, lines, fault = [], [], None
    reader = csv.reader(m[0] for m in re.finditer(  # the lines, each with
        r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+", text))  # its \r\n, \r or \n
    try:
        header = next(reader, None)
        if header != table.columns:
            raise DataError(f"expected header {','.join(table.columns)}, "
                            f"got {header}")
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != len(table.columns):
                fault = (reader.line_num,
                         f"expected {len(table.columns)} columns")
                break
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as e:
        fault = (reader.line_num, str(e))
    texts = list(zip(*rows)) or [()] * len(table.columns)
    return ({name: np.fromiter(column, object, len(lines))
             for name, column in zip(table.dtype.names, texts)}, lines, fault)


def read_table(path, table: Table) -> np.recarray:
    """The CSV table at ``path`` as a record array of ``table.dtype``, in
    file order.

    ``np.loadtxt`` splits the body into columns if it can (an exact header,
    no ``"``, no line over csv's field size limit), else ``csv.reader``.
    Each step then runs over whole columns, and one that fails drops its
    first failing row and the rows after it.  So the error names the line
    of the earliest failing row and the message of its first failing step,
    as if the steps ran row by row.  A wrong header fails the whole file.
    """
    return read_text(path, lambda text: _parse_table(text, table))


def _parse_table(text: str, table: Table) -> np.recarray:
    columns, lines, fault = (_split_whole(text, table)
                             or _split_csv(text, table))
    n = len(lines)
    for step in table.steps:
        if isinstance(step, Check):
            passed = step.test(*(columns[name][:n] for name in step.reads))
            if np.all(passed):
                continue
            i = int(np.argmin(passed))
            message = step.message.format_map(
                {name: column.item(i) for name, column in columns.items()})
        elif columns[step[0]].dtype == object:  # else parsed by loadtxt
            name, convert = step
            values, message = [], None
            try:
                for field in columns[name][:n]:
                    values.append(convert(field))
            except ValueError as e:
                i, message = len(values), str(e)
            columns[name] = np.array(values, np.float64)
            if message is None:
                continue
        else:
            continue
        n, fault = i, (lines[i], message)  # drop row i and the rows after it
    if fault:
        raise DataError(f"line {fault[0]}: {fault[1]}")
    return np.rec.fromarrays([columns[name][:n] for name in table.dtype.names],
                             dtype=table.dtype)


#: A rule on a config value: ``test(value)`` is true of a value that passes,
#: and ``message`` is the :meth:`str.format` template, over ``key`` and
#: ``value``, of the error it raises.  With ``each``, it holds each item of
#: a list value to ``test`` instead, and names the first that fails.
Rule = namedtuple("Rule", ["test", "message", "each"], defaults=[False])


@dataclass(frozen=True)
class Field:
    """One config key.  Kinds ``in`` and ``out`` are strings naming an input
    or an output file; they read like ``str``.  Kinds ``float`` and
    ``floats`` accept finite numbers only.  A value that the config sets
    must pass ``rules``, and ``pair`` is a key set with this one or not at
    all."""

    kind: str                 # str | in | out | int | float | floats | strs
    required: bool = False
    default: object = None
    rules: tuple = ()
    pair: str = None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(_NOT_FINITE)
    return value


#: Each field kind's parser of a config value's text.
_KINDS = {
    "str": str, "in": str, "out": str, "int": int, "float": _finite,
    "floats": lambda raw: tuple(_finite(t) for t in raw.split(",")
                                if t.strip()),
    "strs": lambda raw: tuple(t.strip() for t in raw.split(",") if t.strip())}


def load_config(path, schema: dict) -> dict:
    """Read a config file and type-check it against ``schema``, rejecting
    unknown keys so typos fail fast, and a key set without its ``pair``.
    Every failure is a ConfigError naming the file, and the line for an
    unknown key or a bad value."""
    try:
        raw = read_text(path, parse_pairs)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except DataError as e:
        raise ConfigError(str(e)) from None

    for key, (lineno, _) in raw.items():
        if key not in schema:
            raise ConfigError(f"{path}: line {lineno}: unknown config key "
                              f"{key!r}")

    out = {}
    for key, field in schema.items():
        if key in raw:
            lineno, value = raw[key]
            try:
                out[key] = _KINDS[field.kind](value)
            except ValueError as e:
                raise ConfigError(f"{path}: line {lineno}: config key {key!r}: "
                                  f"bad value {value!r} ({e})") from None
        elif field.required:
            raise ConfigError(f"{path}: missing required config key {key!r}")
        else:
            out[key] = field.default
    for key, field in schema.items():
        if field.pair and (key in raw) != (field.pair in raw):
            raise ConfigError(f"{path}: {key} and {field.pair} must be given "
                              "together")
    return out


def check_config(cfg: dict, schema: dict, derived=()) -> None:
    """Hold each value that ``cfg`` sets to the rules of its key in
    ``schema``, in schema order, then each rule across keys ``(name,
    derive, rules)`` of ``derived``, with ``derive(cfg)`` as the value of
    key ``name``.  The first rule that fails raises a ConfigError with its
    message, so no value is derived before the ones it reads have passed."""
    for key, value, rules in chain(
            ((key, cfg[key], field.rules) for key, field in schema.items()),
            ((name, derive(cfg), rules) for name, derive, rules in derived)):
        for rule in rules if value is not None else ():
            for item in value if rule.each else (value,):
                if not rule.test(item):
                    raise ConfigError(rule.message.format(key=key, value=item))


def write_rows(path, columns, rows) -> None:
    """Write a CSV table: the ``columns`` header, then each of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


def write_text(path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(text)
