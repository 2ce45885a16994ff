"""Reading the CSV tables every subcommand takes as input."""

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
