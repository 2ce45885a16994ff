"""The whole-file CSV reader against the row-by-row reader it stands in for."""

import csv
import warnings

import numpy as np
import pytest

from rainstats import climatology, evaluation, gauge, tables
from rainstats.errors import DataError

#: name: (reader, columns, row converter, dtype, two valid rows)
TABLES = {
    "tips": (gauge.read_tips_csv, gauge._TIP_COLUMNS, gauge._tip_row,
             gauge._TIP_DTYPE,
             ["2005-01-01T00:00:00Z,0.254", "2005-01-01T00:01:30.5,2e-1"]),
    "observations": (climatology.read_observations_csv,
                     climatology._OBS_COLUMNS, climatology._observation,
                     climatology._OBS_DTYPE,
                     ["1104537600.0,6.5,3.25,12.5,1,4.5",
                      "1104537660,-6.75,-0.0,0,0,3"]),
    "samples": (evaluation.read_error_samples_csv,
                evaluation._SAMPLE_COLUMNS, evaluation._sample_row,
                evaluation._SAMPLE_DTYPE,
                ["a,0.01,50.0,45.5", "site b,100,2.5,0"]),
}

LIMIT = csv.field_size_limit()

#: stand-ins for one field; ``{}`` is the field's valid text
FIELD_TOKENS = [
    '"{}"', ' {}', '{} ', '\t{}\t', '\u2003{}', '{}\x00', 'x"{}', '',
    '1_0', 'inf', '-inf', 'nan', 'NaN', '-0', '1e308', '1e309', '\u0661',
    '0x10', '1.0', '0' * (LIMIT - 4) + '{}', '0' * (LIMIT + 1) + '{}',
]


def _row_by_row(path, columns, convert, dtype):
    """The reader as it was: every row through ``tables.read_rows``."""
    rows = [value for _, value in tables.read_rows(path, columns, convert)]
    return np.array(rows, dtype=dtype).view(np.recarray)


def _outcome(read, path):
    """``("table", array)`` or ``("error", message)``, and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = ("table", read(path))
        except DataError as e:
            out = ("error", str(e))
    assert caught == []
    return out


def _same(a, b):
    """Equal outcomes: one message, or arrays equal bit for bit."""
    if a[0] != b[0] or a[0] == "error":
        return a == b
    x, y = a[1], b[1]
    return (x.dtype == y.dtype and x.shape == y.shape
            and all(x[f].tolist() == y[f].tolist()
                    if x.dtype[f] == object
                    else x[f].tobytes() == y[f].tobytes()
                    for f in x.dtype.names))


def _files(columns, rows):
    """``(case, bytes)`` for each malformed or unusual variant of a table."""
    header = ",".join(columns)
    text = header + "\n" + "\n".join(rows) + "\n"
    yield "plain", text.encode()
    yield "no final newline", text.rstrip("\n").encode()
    yield "crlf", text.replace("\n", "\r\n").encode()
    yield "cr", text.replace("\n", "\r").encode()
    yield "blank lines", (header + "\n\n" + rows[0] + "\n\r\n\n" + rows[1]
                          + "\n\n\n").encode()
    yield "blank line first", ("\n" + text).encode()
    yield "spaces line", (text + "  \n" + rows[0] + "\n").encode()
    yield "header only", (header + "\n").encode()
    yield "header only, no newline", header.encode()
    yield "empty", b""
    yield "bom", ("\ufeff" + text).encode()
    yield "not utf-8 at the end", text.encode() + b"\xff\xfe\n"
    yield "not utf-8 in a row", (header + "\n").encode() + b"\xe9" + \
        (rows[0] + "\n").encode()
    yield "quoted header", ('"' + columns[0] + '",' + text[len(columns[0])
                                                           + 1:]).encode()
    yield "header with a space", (text.replace(",", ", ", 1)).encode()
    yield "one field short", (header + "\n" + rows[0].rsplit(",", 1)[0]
                              + "\n").encode()
    yield "one field over", (text + rows[0] + ",1\n").encode()
    yield "trailing comma", (text + rows[1] + ",\n").encode()
    for f in range(len(columns)):
        for token in FIELD_TOKENS:
            fields = rows[0].split(",")
            fields[f] = token.format(fields[f])
            yield (f"field {f} as {token[:12]!r}",
                   (text + ",".join(fields) + "\n").encode())


@pytest.mark.parametrize("name", list(TABLES))
def test_whole_file_reader_matches_the_row_by_row_reader(tmp_path, name):
    read, columns, convert, dtype, rows = TABLES[name]
    accepted = 0
    for case, data in _files(columns, rows):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        want = _outcome(lambda p: _row_by_row(p, columns, convert, dtype),
                        path)
        got = _outcome(read, path)
        assert _same(got, want), (case, got, want)
        accepted += want[0] == "table"
    assert accepted >= 10


def test_long_site_ids_up_to_the_csv_field_limit(tmp_path):
    read, columns, convert, dtype, rows = TABLES["samples"]
    for size in (LIMIT - 1, LIMIT, LIMIT + 1, 3 * LIMIT):
        path = tmp_path / "samples.csv"
        path.write_text(",".join(columns) + "\n" + "s" * size
                        + ",1,2,3\n" + rows[0] + "\n", encoding="utf-8")
        want = _outcome(lambda p: _row_by_row(p, columns, convert, dtype),
                        path)
        assert _same(_outcome(read, path), want), size
        assert want[0] == ("table" if size <= LIMIT else "error")


@pytest.mark.parametrize("name", list(TABLES))
def test_plain_tables_are_read_whole(tmp_path, monkeypatch, name):
    # the row-by-row reader is only a fallback: a valid table, blank lines
    # and CRLF line ends included, never reaches it
    read, columns, convert, dtype, rows = TABLES[name]
    path = tmp_path / "table.csv"
    path.write_bytes((",".join(columns) + "\r\n" + rows[0] + "\r\n\r\n"
                      + rows[1] + "\r\n").encode())
    want = _row_by_row(path, columns, convert, dtype)

    def refuse(*args):
        raise AssertionError("read row by row")

    monkeypatch.setattr(tables, "read_rows", refuse)
    assert _same(("table", read(path)), ("table", want))
    path.write_text(",".join(columns) + "\n", encoding="utf-8")
    assert read(path).shape == (0,)
