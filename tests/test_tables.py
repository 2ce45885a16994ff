"""The CSV readers against the hand-written readers they stand in for,
kept in ``reference_readers``: every row through ``read_rows``."""

import csv
import warnings

import numpy as np
import pytest

import reference_readers as ref
from rainstats import cli, climatology, evaluation, gauge, rainmodel, tables
from rainstats.errors import DataError


def _records(columns, convert, dtype, in_time_order=False):
    """A record table's reader as it was: every row through ``read_rows``
    and ``convert``, into a record array of ``dtype``.  A table in time
    order gives ``convert`` the time of the row before, too."""
    def read(path):
        rows = [value for _, value in ref.read_rows(
            path, columns,
            ref.in_time_order(convert) if in_time_order else convert)]
        return np.array(rows, dtype=dtype).view(np.recarray)
    return read


def _keyed(table):
    """``cli``'s reading of a site-keyed table, as the dict of the fields
    after ``site_id`` (a lone field bare) that it was read into."""
    def read(path):
        return {sid: rest[0] if len(rest) == 1 else tuple(rest)
                for sid, *rest in tables.read_table(path, table).tolist()}
    return read


_LOCATION_COLUMNS = ["site_id", "lat", "lon", "country"]

#: name: (reader, the hand-written reader, columns, two valid rows, the row
#: that the corpus alters one field of)
TABLES = {
    "tips": (gauge.read_tips_csv,
             _records(ref._TIP_COLUMNS, ref._tip_row, ref._TIP_DTYPE,
                      in_time_order=True),
             ref._TIP_COLUMNS,
             ["2005-01-01T00:00:00Z,0.254", "2005-01-01T00:01:30.5,2e-1"],
             "2005-01-01T00:02:00Z,0.254"),
    "observations": (climatology.read_observations_csv,
                     _records(ref._OBS_COLUMNS, ref._observation,
                              ref._OBS_DTYPE, in_time_order=True),
                     ref._OBS_COLUMNS,
                     ["1104537600.0,6.5,3.25,12.5,1,4.5",
                      "1104537660,-6.75,-0.0,0,0,3"],
                     "1104537720.0,6.5,3.25,12.5,1,4.5"),
    "samples": (evaluation.read_error_samples_csv,
                _records(ref._SAMPLE_COLUMNS, ref._sample_row,
                         ref._SAMPLE_DTYPE),
                ref._SAMPLE_COLUMNS,
                ["a,0.01,50.0,45.5", "site b,100,2.5,0"], "c,0.01,50.0,45.5"),
    # one site on two rows, its lon once -0.0 and once 0.0
    "sites": (rainmodel.read_sites_csv, ref.read_sites_csv, ref._SITE_COLUMNS,
              ["a,6.5,-0.0,KE,2.0,0.01,80.5", "a,6.5,0.0,KE,2,1,2.5"],
              "b,1e1,3,TZ,1,0.1,30"),
    "climate": (rainmodel.read_climate_csv, ref.read_climate_csv,
                ["site_id", "mt_mm", "p0_percent"],
                ["a,1500.0,5.0", "site b,0,100"], "c,800,2.5"),
    "locations": (_keyed(cli._LOCATIONS),
                  lambda p: ref.read_keyed(p, _LOCATION_COLUMNS, ref._located),
                  _LOCATION_COLUMNS, ["a,6.5,3.25,KE", "site b,-0.0,0,TZ"],
                  "c,1,2,UG"),
    "gauge_sites": (_keyed(cli._GAUGE_SITES),
                    lambda p: ref.read_keyed(p, [*_LOCATION_COLUMNS,
                                                 "tips_path"], ref._located),
                    [*_LOCATION_COLUMNS, "tips_path"],
                    ["a,6.5,3.25,KE,a.csv", "site b,-0.0,0,TZ,tips/b.csv"],
                    "c,1,2,UG,c.csv"),
    "countries": (_keyed(cli._COUNTRIES),
                  lambda p: ref.read_keyed(p, ["site_id", "country"],
                                           lambda row: row[1]),
                  ["site_id", "country"], ["a,KE", "site b,TZ"], "c,UG"),
}

LIMIT = csv.field_size_limit()

#: stand-ins for one field; ``{}`` is the field's valid text.  A quoted
#: field keeps its ``\r\n`` or ``\r`` as it is.
FIELD_TOKENS = [
    '"{}"', ' {}', '{} ', '\t{}\t', '\u2003{}', '{}\x00', 'x"{}', '',
    '1_0', 'inf', '-inf', 'nan', 'NaN', '-0', '1e308', '1e309', '\u0661',
    '0x10', '1.0', '0' * (LIMIT - 4) + '{}', '0' * (LIMIT + 1) + '{}',
    '\x1c{}', '{}\x1f', '"{0}\r\n{0}"', '"\r{}"',
]


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
    """Equal outcomes: one message, record arrays equal bit for bit, or
    other values with one ``repr`` (which tells every double apart)."""
    if a[0] != b[0] or not isinstance(a[1], np.ndarray):
        return a[0] == b[0] and repr(a[1]) == repr(b[1])
    x, y = a[1], b[1]
    return (x.dtype == y.dtype and x.shape == y.shape
            and all(x[f].tolist() == y[f].tolist()
                    if x.dtype[f] == object
                    else x[f].tobytes() == y[f].tobytes()
                    for f in x.dtype.names))


def _files(columns, rows, variant):
    """``(case, bytes)`` for each malformed or unusual variant of a table;
    the field variants are of the row ``variant``."""
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
            fields = variant.split(",")
            fields[f] = token.format(fields[f])
            yield (f"field {f} as {token[:12]!r}",
                   (text + ",".join(fields) + "\n").encode())


@pytest.mark.parametrize("name", list(TABLES))
def test_whole_file_reader_matches_the_row_by_row_reader(tmp_path, name):
    read, reference, columns, rows, variant = TABLES[name]
    accepted = 0
    for case, data in _files(columns, rows, variant):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        want = _outcome(reference, path)
        got = _outcome(read, path)
        assert _same(got, want), (case, got, want)
        accepted += want[0] == "table"
    assert accepted >= 10


def test_long_site_ids_up_to_the_csv_field_limit(tmp_path):
    read, reference, columns, rows, _ = TABLES["samples"]
    for size in (LIMIT - 1, LIMIT, LIMIT + 1, 3 * LIMIT):
        path = tmp_path / "samples.csv"
        path.write_text(",".join(columns) + "\n" + "s" * size
                        + ",1,2,3\n" + rows[0] + "\n", encoding="utf-8")
        want = _outcome(reference, path)
        assert _same(_outcome(read, path), want), size
        assert want[0] == ("table" if size <= LIMIT else "error")


@pytest.mark.parametrize("name", list(TABLES))
def test_plain_tables_are_read_whole(tmp_path, monkeypatch, name):
    # the csv module's split is only a fallback: a valid table, blank lines
    # and CRLF line ends included, never reaches it
    read, reference, columns, rows, _ = TABLES[name]
    path = tmp_path / "table.csv"
    path.write_bytes((",".join(columns) + "\r\n" + rows[0] + "\r\n\r\n"
                      + rows[1] + "\r\n").encode())
    want = reference(path)

    def refuse(*args):
        raise AssertionError("split by csv")

    monkeypatch.setattr(tables, "_split_csv", refuse)
    assert _same(("table", read(path)), ("table", want))
    path.write_text(",".join(columns) + "\n", encoding="utf-8")
    assert _same(("table", read(path)), ("table", reference(path)))


def test_a_table_is_opened_once(tmp_path, monkeypatch):
    # the csv module splits the text that read_text decoded; a quoted field
    # sends the table there
    read, _, columns, rows, _ = TABLES["samples"]
    path = tmp_path / "samples.csv"
    path.write_text(",".join(columns) + '\n"a",1,2,3\n', encoding="utf-8")
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(tables, "open", counted, raising=False)
    assert read(path).site_id.tolist() == ["a"]
    assert opened == [path]
