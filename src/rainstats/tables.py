"""The files every subcommand reads and writes.

CSV tables are read by :func:`read_rows`, or by :func:`read_keyed` when they
hold one row per site, and written by :func:`write_rows`; text files
(reports, manifests, grids, params) are written by :func:`write_text`.
Everything written is UTF-8 with ``\n`` line ends on every platform.
"""

from __future__ import annotations

import csv

from .errors import DataError


def read_rows(path, columns, convert):
    """Yield ``(line number, convert(row))`` for each non-empty CSV row.

    The first row must equal ``columns`` and every later non-empty row must
    have that many fields.  A wrong header, a wrong field count, text the
    csv module cannot parse (such as a field over its size limit) or a
    ``ValueError`` from ``convert`` raises :class:`DataError` naming the
    file and line.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != list(columns):
                raise DataError(f"{path}: expected header "
                                f"{','.join(columns)}, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(columns):
                    raise DataError(f"{path} line {reader.line_num}: "
                                    f"expected {len(columns)} columns")
                try:
                    value = convert(row)
                except ValueError as e:
                    raise DataError(
                        f"{path} line {reader.line_num}: {e}") from None
                yield reader.line_num, value
        except csv.Error as e:
            raise DataError(f"{path} line {reader.line_num}: {e}") from None


def read_keyed(path, columns, convert) -> dict:
    """``{first field: convert(row)}`` for each row read by :func:`read_rows`,
    in file order.  The first field is a site id, and a site listed twice
    raises :class:`DataError` naming the file and the second line."""
    out = {}
    for lineno, (key, value) in read_rows(
            path, columns, lambda row: (row[0], convert(row))):
        if key in out:
            raise DataError(f"{path} line {lineno}: duplicate site {key}")
        out[key] = value
    return out


def write_rows(path, columns, rows) -> None:
    """Write a CSV table: the ``columns`` header, then each of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


def write_text(path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(text)
