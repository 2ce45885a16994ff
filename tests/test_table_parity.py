"""The described CSV readers against the hand-written readers they
replaced, kept in ``reference_readers``: on every file of ``test_tables``'
corpus, and on rows that fail two ways at once, a reader gives the same
table bit for bit, or the same message."""

import numpy as np
import pytest

from test_tables import LIMIT, TABLES, _files, _outcome, _same

#: name: rows that each fail two ways, alone or across lines; they go
#: between a table's two valid rows, so the first is on line 3
FAULTS = {
    "tips": [
        "not a stamp,-1", "2005-02-30T00:00:00Z,0", "x,nan", "x,inf",
        "2005-01-01T00:00:00Z,abc", "x,abc", "2005-01-01T24:00:00Z,-0",
        # the order rule: an earlier tip, an equal stamp, an earlier tip
        # with a bad depth (depth first), and an earlier tip before a line
        # with a bad stamp (the earlier line first)
        "2004-12-31T23:59:59Z,0.254", "2005-01-01T00:00:00+00:00,0.254",
        "2004-12-31T23:59:59Z,-1", "2004-12-31T23:59:59Z,1\nx,1"],
    "observations": [
        "1104537600,95,3.25,12.5,2,4.5", "nan,6.5,3.25,12.5,1.0,4.5",
        "inf,abc,3.25,12.5,1,4.5", "inf,6.5,3.25,-1,1,4.5",
        "1104537600,6.5,3.25,-1,1,7", "1104537600,95,3.25,1,1,2",
        "nan,6.5,inf,1,0,4.5", "1104537600,-90,3.25,nan,0,4.5",
        "1,6.5,3.25,1,1,abc", "1,6.5,3.25,1,x,abc",
        "1104537600,6.5,3.25,1e4,1,7", "1104537600,95,3.25,1e308,1,4.5",
        # the order rule (an equal time passes it): an earlier row, an
        # earlier row with a bad nsrr (the order rule first) or a bad
        # rain_certain (that first), and an earlier row before a short one
        "1104537599.5,6.5,3.25,12.5,1,4.5", "1,6.5,3.25,-1,1,7",
        "1,6.5,3.25,12.5,2,4.5", "1,6.5,3.25,12.5,1,4.5\n1"],
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
        "b,1,2,KE,0,0.1,5", "b,1,2,KE,-1,0.1,5\nc,1,2,KE,1,200,5",
        # each rule of a site's points, after every row is read: a
        # duplicate p, a tied p with another R, R < 0, p = 0 (-0.0 first
        # as the lower R), a later site failing as the first passes, and a
        # site failing years and a point rule (years first)
        "b,1,2,KE,1,0.01,5\nb,1,2,KE,1,0.010,5",
        "b,1,2,KE,1,0.1,7\nb,1,2,KE,1,0.1,5", "b,1,2,KE,1,0.1,-1",
        "b,1,2,KE,1,0,5", "b,1,2,KE,1,0.0,6\nb,1,2,KE,1,-0.0,5",
        "b,1,2,KE,1,0.1,5\nc,1,2,KE,1,1,9\nc,1,2,KE,1,0.1,5",
        "c,1,2,KE,1,1,9\nb,1,2,KE,0,0.1,5\nc,1,2,KE,1,0.1,5",
        "b,1,2,KE,0,200,-1"],
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


def test_site_rules_match_the_hand_written_sites_on_random_files(tmp_path):
    # small files of 1-3 sites in shuffled rows: monotone curves on few
    # texts, a third of the sites with a stand-in for their years or for
    # the p or R of one point, so that ties, -0.0 and every rule come up
    read, reference, columns, _, _ = TABLES["sites"]
    rng = np.random.default_rng(23)
    ps = ["0.01", "0.010", "0.1", "1", "100"]
    rates = ["80.5", "50", "7", "-0.0", "0"]
    stand_ins = [["0", "2", "-1"], ["0", "-0.0", "101", "0.1", "1"],
                 ["-1", "7", "50", "-0.0"]]
    path = tmp_path / "sites.csv"
    outcomes = {"table": 0, "error": 0}
    for _ in range(2000):
        rows = []
        for site in range(rng.integers(1, 4)):
            k = rng.integers(1, 5)
            points = [[f"s{site}", "2", p, r] for p, r in zip(
                sorted(rng.choice(ps, k, replace=False), key=float),
                sorted(rng.choice(rates, k), key=float, reverse=True))]
            if rng.random() < 0.3:
                field = rng.integers(3)
                text = rng.choice(stand_ins[field])
                for point in points if field == 0 else points[:1]:
                    point[1 + field] = text
            rows += [f"{sid},1,2,KE,{years},{p},{r}"
                     for sid, years, p, r in points]
        rng.shuffle(rows)
        path.write_text(",".join(columns) + "\n" + "\n".join(rows) + "\n")
        want = _outcome(reference, path)
        assert _same(_outcome(read, path), want), (rows, want)
        outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 400, outcomes
