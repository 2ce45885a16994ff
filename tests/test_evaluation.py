import math

import numpy as np
import pytest

from rainstats import cli
from rainstats.errors import DataError
from rainstats.evaluation import (ConfusionMatrix, accuracy, by_country,
                                  confusion, mcc, p311_summary,
                                  read_error_samples_csv, rec_curve)
from writers import samples, write_error_samples_csv


# ---------------------------------------------------------------------------
# error figures


def _eval_report(tmp_path, rows):
    """``{key: value}`` of the eval report on the sample ``rows``."""
    write_error_samples_csv(samples(rows), tmp_path / "samples.csv")
    (tmp_path / "e.cfg").write_text(
        f"samples={tmp_path / 'samples.csv'}\n"
        f"out_report={tmp_path / 'm.txt'}\n"
        f"out_rec={tmp_path / 'rec.csv'}\n")
    assert cli.main(["eval", "--config", str(tmp_path / "e.cfg")]) == 0
    lines = (tmp_path / "m.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def test_errors_zero_when_exact(tmp_path):
    report = _eval_report(tmp_path, [("a", 0.01, 100.0, 100.0)])
    assert report["rel_error_pct.mean"] == "0.0000"
    assert report["bias_error_mm_h.mean"] == "0.0000"


def test_errors_direct_arithmetic(tmp_path):
    report = _eval_report(tmp_path, [("a", 0.01, 100.0, 130.0)])
    assert float(report["rel_error_pct.mean"]) == pytest.approx(30.0)
    assert float(report["bias_error_mm_h.mean"]) == pytest.approx(30.0)
    report = _eval_report(tmp_path, [("b", 0.1, 50.0, 25.0)])
    assert report["p.0.1.rel_error_pct.mean"] == "-50.0000"


def _read_one_sample(tmp_path, p, observed, predicted):
    path = tmp_path / "samples.csv"
    write_error_samples_csv(samples([("a", p, observed, predicted)]), path)
    return read_error_samples_csv(path)


def test_error_sample_requires_positive_observed(tmp_path):
    with pytest.raises(DataError, match="line 2: observed rate"):
        _read_one_sample(tmp_path, 0.01, 0.0, 10.0)
    with pytest.raises(DataError, match="line 2: predicted rate"):
        _read_one_sample(tmp_path, 0.01, 10.0, -1.0)


def test_error_sample_requires_finite_rates_and_p_in_range(tmp_path):
    for p, observed, predicted, field in [
            (0.01, math.nan, 10.0, "observed"),
            (0.01, math.inf, 10.0, "observed"),
            (0.01, 10.0, math.nan, "predicted"),
            (0.01, 10.0, math.inf, "predicted"),
            (0.0, 10.0, 10.0, "probability"),
            (-1.0, 10.0, 10.0, "probability"),
            (150.0, 10.0, 10.0, "probability"),
            (math.inf, 10.0, 10.0, "probability")]:
        with pytest.raises(DataError, match=f"line 2: {field}"):
            _read_one_sample(tmp_path, p, observed, predicted)
    assert _read_one_sample(tmp_path, 100.0, 10.0, 0.0).p.tolist() == [100.0]


# ---------------------------------------------------------------------------
# P.311 summaries


def test_p311_all_zero():
    s = p311_summary([0.0, 0.0, 0.0])
    assert (s.mean, s.sd, s.rms) == (0.0, 0.0, 0.0)


def test_p311_symmetric_pair():
    s = p311_summary([10.0, -10.0])
    assert s.mean == 0.0
    assert s.sd == pytest.approx(10.0)
    assert s.rms == pytest.approx(10.0)


def test_p311_identity_on_random_vectors():
    rng = np.random.default_rng(21)
    for _ in range(100):
        errs = rng.normal(0, rng.uniform(0.5, 50), rng.integers(2, 200))
        s = p311_summary(errs)
        assert s.rms * s.rms == pytest.approx(s.mean ** 2 + s.sd ** 2,
                                              rel=1e-12)


def test_p311_reference_row_fixture():
    # two-point sample realizing mean -3.1 and population sd 30.88; at one
    # decimal this prints as -3.1 / 30.9 / 31.0
    s = p311_summary([-3.1 - 30.88, -3.1 + 30.88])
    assert s.mean == pytest.approx(-3.1, abs=1e-12)
    assert s.sd == pytest.approx(30.88, abs=1e-12)
    assert abs(s.rms - 31.0) <= 0.05
    assert f"{s.rms:.1f}" == "31.0"


def test_p311_empty_rejected():
    with pytest.raises(ValueError):
        p311_summary([])


def test_p311_uses_population_sd():
    s = p311_summary([1.0, 3.0])
    assert s.sd == pytest.approx(1.0)  # population form, not sample (sqrt(2))


# ---------------------------------------------------------------------------
# REC curves


def test_rec_direct_count():
    assert rec_curve([1.0, 2.0, 3.0], [1.5]) == [pytest.approx(1 / 3)]


def test_rec_reaches_one_at_max_error():
    errs = [0.5, 1.5, 2.5]
    assert rec_curve(errs, [2.5]) == [1.0]


def test_rec_monotone_and_order_invariant():
    rng = np.random.default_rng(22)
    errs = rng.uniform(0, 10, 200)
    ts = np.linspace(0, 12, 25)
    fr = rec_curve(errs, ts)
    assert all(b >= a for a, b in zip(fr, fr[1:]))
    assert rec_curve(errs[::-1], ts) == fr


def test_rec_matches_brute_force_scan():
    rng = np.random.default_rng(23)
    errs = rng.normal(0, 5, 97)
    ts = sorted(rng.uniform(0, 15, 9))
    fr = rec_curve(errs, ts)
    for t, f in zip(ts, fr):
        assert f == sum(1 for e in errs if abs(e) <= t) / len(errs)


# ---------------------------------------------------------------------------
# classification


def test_confusion_counts():
    cm = confusion([True, True, False, False],
                   [True, False, True, False])
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        confusion([True], [True, False])
    with pytest.raises(ValueError):
        confusion([], [])


def test_accuracy_and_mcc_on_imbalanced_site_counts():
    cm = ConfusionMatrix(tn=262, fp=6, fn=55, tp=25)
    assert accuracy(cm) == pytest.approx(0.82, abs=0.005)
    assert mcc(cm) == pytest.approx(0.43, abs=0.005)


def test_accuracy_and_mcc_on_small_country_counts():
    cm = ConfusionMatrix(tn=6, fp=1, fn=5, tp=8)
    assert accuracy(cm) == pytest.approx(0.70, abs=0.005)
    assert mcc(cm) == pytest.approx(0.45, abs=0.005)


def test_mcc_exposes_weak_correlation_despite_ok_accuracy():
    cm = ConfusionMatrix(tn=5, fp=2, fn=9, tp=4)
    assert accuracy(cm) == pytest.approx(0.45, abs=0.005)
    assert mcc(cm) == pytest.approx(0.02, abs=0.005)


def test_perfect_prediction():
    cm = confusion([True, False, True], [True, False, True])
    assert accuracy(cm) == 1.0
    assert mcc(cm) == 1.0


def test_mcc_degenerate_is_zero():
    assert mcc(ConfusionMatrix(tn=5, fp=0, fn=5, tp=0)) == 0.0
    assert mcc(ConfusionMatrix(tn=0, fp=0, fn=0, tp=3)) == 0.0


def test_mcc_invariant_under_label_swap():
    rng = np.random.default_rng(24)
    for _ in range(20):
        a = rng.uniform(size=30) < 0.3
        p = rng.uniform(size=30) < 0.4
        direct = mcc(confusion(a, p))
        swapped = mcc(confusion(~a, ~p))
        assert direct == pytest.approx(swapped, abs=1e-12)


def test_all_false_predictor_accuracy_is_negative_prevalence():
    actuals = [True] * 80 + [False] * 268
    cm = confusion(actuals, [False] * 348)
    assert accuracy(cm) == pytest.approx(268 / 348)


# ---------------------------------------------------------------------------
# by-country aggregation


def test_by_country_single_site_passthrough():
    actual, predicted = by_country(["KEN"], [True], [False])
    assert (actual.tolist(), predicted.tolist()) == ([True], [False])


def test_by_country_or_semantics():
    actual, predicted = by_country(["NGA", "NGA", "NGA"],
                                   [False, True, False], [False, False, True])
    assert (actual.tolist(), predicted.tolist()) == ([True], [True])


def test_by_country_matches_enumeration():
    rng = np.random.default_rng(25)
    countries = [f"C{i:02d}" for i in range(20)]
    records = []
    for c in countries:
        for _ in range(int(rng.integers(1, 6))):
            records.append((c, bool(rng.uniform() < 0.4),
                            bool(rng.uniform() < 0.4)))
    rng.shuffle(records)
    actual, predicted = by_country(*zip(*records))
    assert actual.dtype == predicted.dtype == bool
    assert actual.size == predicted.size == len(countries)
    for i, c in enumerate(countries):
        acts = [a for cc, a, _ in records if cc == c]
        preds = [p for cc, _, p in records if cc == c]
        assert (actual[i], predicted[i]) == (any(acts), any(preds))
    assert confusion(actual, predicted).total == 20


def test_by_country_rejects_no_sites():
    with pytest.raises(ValueError, match="no site records"):
        by_country([], [], [])


# ---------------------------------------------------------------------------
# error-samples CSV


def test_error_samples_csv_round_trip(tmp_path):
    records = samples([("a", 0.01, 100.0, 130.0), ("b", 0.1, 55.0, 50.0)])
    path = tmp_path / "samples.csv"
    write_error_samples_csv(records, path)
    got = read_error_samples_csv(path)
    assert got.dtype == records.dtype
    assert got.tolist() == records.tolist()


def test_error_samples_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(DataError):
        read_error_samples_csv(path)


@pytest.mark.parametrize("site", ["a", '"a"'])  # read whole, and by csv
def test_error_samples_csv_refuses_a_repeated_pair(tmp_path, site):
    # a site may repeat across rungs and a rung across sites, but a pair
    # is one sample however its probability is spelled
    path = tmp_path / "samples.csv"
    text = ("site_id,p_percent,observed,predicted\n"
            "a,0.01,100.0,130.0\na,0.1,100.0,130.0\nb,0.01,55.0,50.0\n")
    path.write_text(text)
    assert read_error_samples_csv(path).site_id.tolist() == ["a", "a", "b"]
    path.write_text(text + site + ",0.010,90.0,80.0\n")
    with pytest.raises(DataError, match=r"samples\.csv: line 5: duplicate "
                       r"sample for site a at p=0\.01$"):
        read_error_samples_csv(path)
