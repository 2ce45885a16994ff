"""The described CSV readers against the hand-written readers they
replaced, kept in ``reference_readers``: on every file of ``test_tables``'
corpus, and on rows that fail two ways at once, a reader gives the same
table bit for bit, or the same message."""

import pytest

from test_tables import LIMIT, TABLES, _files, _outcome, _same

#: name: rows that each fail two ways, alone or across lines; they go
#: between a table's two valid rows, so the first is on line 3
FAULTS = {
    "tips": [
        "not a stamp,-1", "2005-02-30T00:00:00Z,0", "x,nan", "x,inf",
        "2005-01-01T00:00:00Z,abc", "x,abc", "2005-01-01T24:00:00Z,-0"],
    "observations": [
        "1104537600,95,3.25,12.5,2,4.5", "nan,6.5,3.25,12.5,1.0,4.5",
        "inf,abc,3.25,12.5,1,4.5", "inf,6.5,3.25,-1,1,4.5",
        "1,6.5,3.25,-1,1,7", "1,95,3.25,1,1,2", "nan,6.5,inf,1,0,4.5",
        "1,-90,3.25,nan,0,4.5", "1,6.5,3.25,1,1,abc", "1,6.5,3.25,1,x,abc",
        "1,6.5,3.25,1e4,1,7", "1,95,3.25,1e308,1,4.5"],
    "samples": [
        "a,0,0,1", "a,1,0,-1", "a,101,1,abc", "a,nan,inf,nan",
        "a,100,1e-400,1", "a,abc,0,0"],
    "sites": [
        "b,inf,abc,KE,1,1,1", "b,abc,inf,KE,1,1,1", "b,1,nan,KE,abc,1,1",
        "b,1,2,KE,1,1,inf",
        # an inconsistent row beats a later bad number, short row, or row
        # csv cannot parse, and an earlier short row beats it
        "a,7,0,KE,2,0.1,50\nb,abc,1,KE,1,1,1", "b,1\na,7,0,KE,2,0.1,50",
        "a,6.5,0,KE,3,0.1,50\nb,1,1",
        f"a,6.5,0,TZ,2,0.1,50\nb,1,2,{'x' * (LIMIT + 1)},1,1,1",
        'a,6.5,0,KE,2.5,0.1,50\nb,1,2,"KE',
        # -0.0 and 0.0, 2.0 and 2 are the same metadata
        "a,6.5,0.0,KE,2,0.1,50\nb,1,1",
        'a,6.5,0,KE,2,0.1,50\n"a",6.5,"0",KE,2,0.2,"x"',
        # a site's own error waits until every row is read
        "a,6.5,0,KE,2,0.01,70\nb,abc,1,KE,1,1,1",
        "a,6.5,0,KE,2,0.01,70", "a,6.5,0,KE,2,0.1,90",
        "b,1,2,KE,0,0.1,5", "b,1,2,KE,-1,0.1,5\nc,1,2,KE,1,200,5"],
    "climate": [
        "a,1,1", "a,-1,1", "c,abc,200", "c,inf,200", "c,1,200", "c,1,nan",
        "c,-0.0,-1", "x,1,1\n\na,1,1", "a,1,1\nc,1", "c,1,1\nc,-1,1",
        'c,1,1\n"a",1,1'],
    "locations": [
        "c,inf,abc,UG", "c,abc,inf,UG", "c,1,nan,UG", "a,1,2,UG",
        "a,inf,2,UG", "a,1,2,UG\nc,1", "c,1,2,UG\n\nc,1,2,UG",
        'c,1,2,UG\n"a",1,2,UG'],
    "gauge_sites": [
        "c,nan,abc,UG,c.csv", "a,1,2,UG,c.csv", "a,1,x,UG,c.csv",
        "c,1,2,UG,c.csv\nc,1,2,UG", "a,1,2,UG,a.csv\nc,1,2,UG"],
    "countries": [
        "a,UG", "a,UG,x", "c,UG\na,TZ", 'c,UG\n"a",TZ', "a,UG\nb",
        "c,UG\n\n\na,TZ"],
}


def _cases(name):
    _, _, columns, rows, variant = TABLES[name]
    yield from _files(columns, rows, variant)
    header = ",".join(columns) + "\n"
    for fault in FAULTS[name]:
        yield f"two faults: {fault}", (header + rows[0] + "\n" + fault
                                       + "\n" + rows[1] + "\n").encode()


@pytest.mark.parametrize("name", list(TABLES))
def test_reader_matches_the_hand_written_rows(tmp_path, name):
    read, reference, _, _, _ = TABLES[name]
    errors = 0
    for case, data in _cases(name):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        want = _outcome(reference, path)
        got = _outcome(read, path)
        assert _same(got, want), (case, got, want)
        errors += case.startswith("two faults") and want[0] == "error"
    assert errors == len(FAULTS[name])
