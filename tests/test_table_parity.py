"""The described record readers against the hand-written row converters
they replaced, kept in ``reference_readers``: on every file of
``test_tables``' corpus, and on rows that fail two checks at once, a reader
gives the same table bit for bit, or the same message."""

import pytest

import reference_readers as ref
from test_tables import TABLES, _files, _outcome, _row_by_row, _same

#: name: (columns, row converter, dtype, rows that each fail two ways)
REFERENCE = {
    "tips": (ref._TIP_COLUMNS, ref._tip_row, ref._TIP_DTYPE, [
        "not a stamp,-1", "2005-02-30T00:00:00Z,0", "x,nan", "x,inf",
        "2005-01-01T00:00:00Z,abc", "x,abc", "2005-01-01T24:00:00Z,-0"]),
    "observations": (ref._OBS_COLUMNS, ref._observation, ref._OBS_DTYPE, [
        "1104537600,95,3.25,12.5,2,4.5", "nan,6.5,3.25,12.5,1.0,4.5",
        "inf,abc,3.25,12.5,1,4.5", "inf,6.5,3.25,-1,1,4.5",
        "1,6.5,3.25,-1,1,7", "1,95,3.25,1,1,2", "nan,6.5,inf,1,0,4.5",
        "1,-90,3.25,nan,0,4.5", "1,6.5,3.25,1,1,abc", "1,6.5,3.25,1,x,abc"]),
    "samples": (ref._SAMPLE_COLUMNS, ref._sample_row, ref._SAMPLE_DTYPE, [
        "a,0,0,1", "a,1,0,-1", "a,101,1,abc", "a,nan,inf,nan",
        "a,100,1e-400,1", "a,abc,0,0"]),
}


def _cases(name):
    columns, _, _, faults = REFERENCE[name]
    rows = TABLES[name][-1]
    yield from _files(columns, rows)
    header = ",".join(columns) + "\n"
    for fault in faults:
        yield f"two faults: {fault}", (header + rows[0] + "\n" + fault
                                       + "\n" + rows[1] + "\n").encode()


@pytest.mark.parametrize("name", list(REFERENCE))
def test_reader_matches_the_hand_written_rows(tmp_path, name):
    read, _, row, _, _ = TABLES[name]
    columns, convert, dtype, faults = REFERENCE[name]
    errors = 0
    for case, data in _cases(name):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        want = _outcome(lambda p: _row_by_row(p, columns, convert, dtype),
                        path)
        got = _outcome(read, path)
        assert _same(got, want), (case, got, want)
        got = _outcome(lambda p: _row_by_row(p, columns, row, dtype), path)
        assert _same(got, want), (case, got, want)
        errors += case.startswith("two faults") and want[0] == "error"
    assert errors == len(faults)
