import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from rainstats import rainmodel
from rainstats.errors import DataError, SolverError
from rainstats.rainmodel import (RATE_CAP_MM_H, STANDARD_LADDER, ClimatePoint,
                                 ModelParams, SiteStatistics,
                                 _exceedance_array, _rain_rate_array,
                                 curve_objective, estimate_site_curve,
                                 fit_params, rain_rate,
                                 read_climate_csv, read_params,
                                 read_sites_csv, write_params,
                                 write_sites_csv)

PARAMS = ModelParams(1.0, 20000.0, 26.0)
CLIMATE = ClimatePoint(1500.0, 5.0)


def test_ladder_is_fixed_and_ascending():
    assert len(STANDARD_LADDER) == 16
    assert STANDARD_LADDER[0] == 0.001 and STANDARD_LADDER[-1] == 5.0
    assert all(a < b for a, b in zip(STANDARD_LADDER, STANDARD_LADDER[1:]))


# ---------------------------------------------------------------------------
# forward model


def test_forward_at_zero_rate_returns_p0():
    assert _exceedance_array(0.0, 800, 3, PARAMS) == 3.0


def test_forward_no_rain_climate_is_zero():
    assert _exceedance_array(25.0, 0, 0, PARAMS) == 0.0
    assert _exceedance_array(0.0, 500, 0, PARAMS) == 0.0


def test_forward_hand_arithmetic():
    # b = 1500/(20000*5) = 0.015, c = 0.39
    expected = 5.0 * math.exp(-1.0 * 30.0 * (1 + 0.015 * 30)
                              / (1 + 0.39 * 30))
    got = float(_exceedance_array(30.0, CLIMATE.mt, CLIMATE.p0, PARAMS))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.1627, abs=5e-5)


def test_forward_strictly_decreasing_in_rate():
    rates = np.linspace(0, 150, 40)
    ps = _exceedance_array(rates, CLIMATE.mt, CLIMATE.p0, PARAMS)
    assert np.all(ps[:-1] > ps[1:])


def test_params_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0, 1.0)
    # a climate point is checked where it is read
    path = tmp_path / "climate.csv"
    for row, message in [
            ("a,-1.0,5.0", "mt must be >= 0, got -1.0"),
            ("a,100.0,101.0", "p0 must be in [0, 100], got 101.0")]:
        path.write_text(f"site_id,mt_mm,p0_percent\n{row}\n")
        with pytest.raises(DataError, match=re.escape(f"line 2: {message}")):
            read_climate_csv(path)


# ---------------------------------------------------------------------------
# inversion


def test_rain_rate_boundary_and_above():
    assert rain_rate(5.0, CLIMATE, PARAMS) == 0.0   # p == p0
    assert rain_rate(80.0, CLIMATE, PARAMS) == 0.0  # p > p0


def test_rain_rate_round_trips_forward_example():
    p = float(_exceedance_array(30.0, CLIMATE.mt, CLIMATE.p0, PARAMS))
    assert rain_rate(p, CLIMATE, PARAMS) == pytest.approx(30.0, rel=1e-6)


def test_rain_rate_monotone_in_p():
    r1 = rain_rate(0.01, CLIMATE, PARAMS)
    r2 = rain_rate(0.1, CLIMATE, PARAMS)
    r3 = rain_rate(1.0, CLIMATE, PARAMS)
    assert r1 > r2 > r3 > 0


def test_rain_rate_rejects_bad_probability():
    with pytest.raises(ValueError):
        rain_rate(0.0, CLIMATE, PARAMS)
    with pytest.raises(ValueError):
        rain_rate(101.0, CLIMATE, PARAMS)


@pytest.mark.parametrize("climate, ladder, want", [
    # a climate outside the model's domain is taken as its nearest point
    (ClimatePoint(-100.0, 5.0), STANDARD_LADDER, ClimatePoint(0.0, 5.0)),
    (ClimatePoint(1000.0, 150.0), STANDARD_LADDER,
     ClimatePoint(1000.0, 100.0)),
    (ClimatePoint(1000.0, -3.0), STANDARD_LADDER, ClimatePoint(1000.0, 0.0)),
    (ClimatePoint(-1.0, 1e3), (0.01, 50.0, 100.0), ClimatePoint(0.0, 100.0)),
    # a probability outside (0, 100] is refused, naming the first one
    (CLIMATE, (0.01, 0.0, 101.0), 0.0),
    (CLIMATE, (0.01, 101.0), 101.0),
    (CLIMATE, (math.nan, 1.0), math.nan),
])
def test_model_domain_clamps_climate_and_refuses_probability(climate, ladder,
                                                             want):
    if isinstance(want, ClimatePoint):
        assert estimate_site_curve(climate, PARAMS, ladder) == \
            estimate_site_curve(want, PARAMS, ladder)
        assert [rain_rate(p, climate, PARAMS) for p in ladder] == \
            [rain_rate(p, want, PARAMS) for p in ladder]
        return
    message = re.escape(
        f"exceedance probability must be in (0, 100], got {want}") + "$"
    with pytest.raises(ValueError, match=message):
        estimate_site_curve(climate, PARAMS, ladder)
    with pytest.raises(ValueError, match=message):
        rain_rate(want, climate, PARAMS)


def test_round_trip_property_random_climates():
    rng = np.random.default_rng(7)
    for _ in range(50):
        climate = ClimatePoint(rng.uniform(100, 4000), rng.uniform(0.5, 10))
        for p in STANDARD_LADDER:
            if p >= climate.p0:
                continue
            r = rain_rate(p, climate, PARAMS)
            back = _exceedance_array(r, climate.mt, climate.p0, PARAMS)
            assert abs(back - p) <= 1e-6 * p


def test_rain_rate_nondecreasing_in_mt():
    rates = [rain_rate(0.01, ClimatePoint(mt, 5.0), PARAMS)
             for mt in (200, 500, 1000, 2000, 4000)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_rain_rate_strictly_decreasing_in_p_below_p0():
    ps = [p for p in STANDARD_LADDER if p < CLIMATE.p0]
    rates = [rain_rate(p, CLIMATE, PARAMS) for p in ps]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_bracket_cap_raises_solver_error():
    # x/z tiny makes the tail so flat that even 10000 mm/h stays too likely
    flat = ModelParams(1e-4, 20000.0, 1000.0)
    with pytest.raises(SolverError):
        rain_rate(0.001, ClimatePoint(4000, 10), flat)


def _bisection_rain_rate(p, mt, p0, params):
    """Reference inversion: bracket growth from 1 mm/h, then bisection to
    |P(R) - p| <= 1e-9 p or a bracket narrower than 1e-9 mm/h."""
    out = np.zeros(p.shape)
    active = p < p0
    pa, mta, p0a = p[active], mt[active], p0[active]
    hi = np.ones_like(pa)
    for _ in range(40):
        need = _exceedance_array(hi, mta, p0a, params) >= pa
        if not need.any():
            break
        if np.any(need & (hi >= RATE_CAP_MM_H)):
            raise SolverError("bracket cap")
        hi = np.where(need, np.minimum(hi * 2.0, RATE_CAP_MM_H), hi)
    lo = np.zeros_like(pa)
    res = np.empty_like(pa)
    done = np.zeros(pa.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        pm = _exceedance_array(mid, mta, p0a, params)
        newly = (~done) & ((np.abs(pm - pa) <= 1e-9 * pa)
                           | ((hi - lo) <= 1e-9))
        res[newly] = mid[newly]
        done |= newly
        if done.all():
            break
        go_up = (~done) & (pm > pa)
        lo[go_up] = mid[go_up]
        go_dn = (~done) & (pm <= pa)
        hi[go_dn] = mid[go_dn]
    assert done.all()
    out[active] = res
    return out


def _random_inversion_inputs(rng, n):
    mt = np.exp(rng.uniform(np.log(10.0), np.log(8000.0), n))
    mt[rng.uniform(size=n) < 0.1] = 0.0
    p0 = rng.uniform(0.1, 100.0, n)
    p0[rng.uniform(size=n) < 0.05] = 0.0
    p = np.exp(rng.uniform(np.log(1e-4), np.log(100.0), n))
    near = rng.uniform(size=n) < 0.05
    p[near] = p0[near] * (1.0 - rng.uniform(0.0, 1e-12, int(near.sum())))
    p[near & (p0 == 0.0)] = 1.0
    return p, mt, p0


def _assert_matches_bisection(p, mt, p0, params):
    closed = _rain_rate_array(p, mt, p0, params)
    ref = _bisection_rain_rate(p, mt, p0, params)
    inactive = p >= p0
    assert np.all(closed[inactive] == 0.0) and np.all(ref[inactive] == 0.0)
    a = ~inactive
    pc = _exceedance_array(closed[a], mt[a], p0[a], params)
    pr = _exceedance_array(ref[a], mt[a], p0[a], params)
    # the reference stops on |P(R) - p| <= 1e-9 p or on its bracket width
    assert np.all((np.abs(pc - pr) <= (1e-9 + 1e-12) * p[a])
                  | (np.abs(closed[a] - ref[a]) <= 1e-9))
    assert np.all(np.abs(pc - p[a]) <= 1e-12 * p[a])
    dry = a & (mt == 0.0)
    assert np.all(closed[dry] == np.log(p0[dry] / p[dry]) / params.x)
    return int(a.sum())


def test_closed_form_matches_bisection_reference_on_random_inputs():
    rng = np.random.default_rng(20160902)
    n_active = 0
    for _ in range(50):
        params = ModelParams(*np.exp(rng.uniform(np.log([0.05, 1e3, 1.0]),
                                                 np.log([8.0, 4e5, 1e3]))))
        p, mt, p0 = _random_inversion_inputs(rng, 2000)
        capped = _exceedance_array(RATE_CAP_MM_H, mt, p0, params) >= p
        if capped.any():
            with pytest.raises(SolverError):
                _rain_rate_array(p, mt, p0, params)
            with pytest.raises(SolverError):
                _bisection_rain_rate(p, mt, p0, params)
        keep = ~capped
        n_active += _assert_matches_bisection(p[keep], mt[keep], p0[keep],
                                              params)
    assert n_active > 50000


def test_closed_form_matches_bisection_just_below_cap():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = ModelParams(*np.exp(rng.uniform(np.log([1e-4, 1e4, 100.0]),
                                                 np.log([1e-3, 4e4, 1e3]))))
        mt = rng.uniform(2000.0, 5000.0, 100)
        p0 = rng.uniform(5.0, 10.0, 100)
        target = RATE_CAP_MM_H * (1.0 - np.exp(
            rng.uniform(np.log(1e-9), np.log(1e-6), 100)))
        p = _exceedance_array(target, mt, p0, params)
        assert _assert_matches_bisection(p, mt, p0, params) == 100


# ---------------------------------------------------------------------------
# site curves


def test_site_curve_matches_per_rung_inversion():
    curve = estimate_site_curve(CLIMATE, PARAMS)
    assert [p for p, _ in curve] == list(STANDARD_LADDER)
    for p, r in curve:
        assert r == rain_rate(p, CLIMATE, PARAMS)


def test_site_curve_no_rain_climate_is_all_zero():
    curve = estimate_site_curve(ClimatePoint(0, 0), PARAMS)
    assert all(r == 0.0 for _, r in curve)


def test_site_curve_is_monotone():
    curve = estimate_site_curve(CLIMATE, PARAMS)
    rates = [r for _, r in curve]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    SiteStatistics("synthetic", 0.0, 0.0, "NA", 1.0, tuple(curve))


# ---------------------------------------------------------------------------
# fitting


def _make_training(params, climates, noise_rng=None):
    training = []
    for i, climate in enumerate(climates):
        curve = [(p, r) for p, r in estimate_site_curve(climate, params)
                 if r > 0]
        if not curve:
            continue
        if noise_rng is not None:
            ps = [p for p, _ in curve]
            rs = np.array([r for _, r in curve])
            rs = rs * (1.0 + noise_rng.uniform(-0.1, 0.1, rs.size))
            # empirical quantile curves are monotone; restore that after
            # noising so the invariant holds
            rs = np.maximum.accumulate(rs[::-1])[::-1]
            curve = list(zip(ps, rs))
        training.append((SiteStatistics(f"s{i}", 0.0, 0.0, "NA", 5.0,
                                        tuple(curve)), climate))
    return training


GEN_PARAMS = ModelParams(0.9, 18000.0, 24.0)


def _training_climates(n, seed=11):
    rng = np.random.default_rng(seed)
    return [ClimatePoint(rng.uniform(200, 3500), rng.uniform(1, 9))
            for _ in range(n)]


def test_fit_recovers_noiseless_training_curves():
    training = _make_training(GEN_PARAMS, _training_climates(8))
    result = fit_params(training)
    assert result.objective <= 1e-6
    for site, climate in training:
        for p, r in site.points:
            rhat = rain_rate(p, climate, result.params)
            assert abs(rhat - r) <= 0.005 * r


def test_fit_with_noise_beats_generator_params():
    rng = np.random.default_rng(13)
    training = _make_training(GEN_PARAMS, _training_climates(8), rng)
    result = fit_params(training)
    assert result.objective <= curve_objective(training, GEN_PARAMS) + 1e-12


def test_fit_single_point_training_set():
    climate = ClimatePoint(1200.0, 4.0)
    r = rain_rate(0.01, climate, GEN_PARAMS)
    site = SiteStatistics("solo", 0.0, 0.0, "NA", 2.0, ((0.01, r),))
    result = fit_params([(site, climate)])
    assert result.objective <= 1e-6
    assert result.n_points == 1


def test_fit_is_deterministic_across_threads():
    training = _make_training(GEN_PARAMS, _training_climates(5, seed=17))
    a = fit_params(training, threads=1)
    b = fit_params(training, threads=4)
    assert a == b


def test_fit_rejects_degenerate_training():
    with pytest.raises(ValueError):
        fit_params([])
    site = SiteStatistics("z", 0.0, 0.0, "NA", 1.0, ((0.01, 0.0),))
    with pytest.raises(ValueError):
        fit_params([(site, ClimatePoint(1000, 5))])
    # observed rates exist but rain happens less often than every rung
    site2 = SiteStatistics("w", 0.0, 0.0, "NA", 1.0, ((5.0, 10.0),))
    with pytest.raises(ValueError):
        fit_params([(site2, ClimatePoint(1000, 2.0))])


def test_fit_ending_beyond_the_parameter_domain_is_a_solver_error(
        monkeypatch):
    # every descent ends where exp(theta) overflows x to inf
    training = _make_training(GEN_PARAMS, _training_climates(2))

    def minimize_beyond_the_domain(objective, theta0, **kwargs):
        x = np.array([1000.0, 0.0, 0.0])
        return SimpleNamespace(x=x, fun=objective(x))

    monkeypatch.setattr(rainmodel, "minimize", minimize_beyond_the_domain)
    with pytest.raises(SolverError, match="parameter x must be positive"):
        fit_params(training)


def test_fit_descends_from_no_seed_when_every_seed_overflows(monkeypatch):
    # the relative error against a rate of 5e-324 overflows at every seed
    (site, climate), rest = _make_training(GEN_PARAMS,
                                           _training_climates(2))
    *points, (p, _) = site.points
    site = SiteStatistics(site.site_id, site.lat, site.lon, site.country,
                          site.duration_years, (*points, (p, 5e-324)))
    calls = []
    monkeypatch.setattr(rainmodel, "minimize",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SolverError, match="no fit start converged"):
        fit_params([(site, climate), rest])
    assert calls == []


def test_fit_lets_the_models_domain_error_through():
    # p = 0 is outside the model's domain, not a parameter vector to steer
    # away from: scored 1e9 at every start, it came back as a fit
    site = SiteStatistics("a", 0.0, 0.0, "X", 1.0,
                          ((0.0, 50.0), (0.1, 20.0)))
    with pytest.raises(ValueError, match=re.escape(
            "exceedance probability must be in (0, 100], got 0.0")):
        fit_params([(site, ClimatePoint(1500.0, 5.0))])


def test_fit_calls_minimize_through_the_module_global(monkeypatch):
    training = _make_training(GEN_PARAMS, _training_climates(5, seed=17))
    expected = fit_params(training)
    nfev = []

    def counting_minimize(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    real_minimize = rainmodel.minimize
    monkeypatch.setattr(rainmodel, "minimize", counting_minimize)
    assert fit_params(training) == expected
    assert len(nfev) == 8  # one descent and one restart per start
    assert all(n > 0 for n in nfev)


# ---------------------------------------------------------------------------
# domain type validation


def test_site_statistics_rejects_non_monotone_curve(tmp_path):
    # a site is checked where the sites CSV is read, not where it is built
    path = tmp_path / "sites.csv"
    for site, message in [
            (SiteStatistics("bad", 0.0, 0.0, "NA", 1.0,
                            ((0.01, 50.0), (0.1, 80.0))),
             "exceedance monotonicity violated: R must not increase with p "
             "(p=0.1, R=80.0)"),
            (SiteStatistics("dup", 0.0, 0.0, "NA", 1.0,
                            ((0.01, 50.0), (0.01, 50.0))),
             "duplicate probability 0.01"),
            (SiteStatistics("neg", 0.0, 0.0, "NA", 1.0, ((0.01, -1.0),)),
             "rain rate -1.0 is negative"),
            (SiteStatistics("p0", 0.0, 0.0, "NA", 0.0, ((0.01, 1.0),)),
             "duration_years must be positive")]:
        write_sites_csv([site], path)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: site {site.site_id}: {message}")):
            read_sites_csv(path)


# ---------------------------------------------------------------------------
# file formats


def test_params_round_trip(tmp_path):
    path = tmp_path / "params.txt"
    write_params(PARAMS, path)
    assert read_params(path) == PARAMS


def test_params_file_errors(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("x=1.0\ny=2.0\n")
    with pytest.raises(DataError, match="missing z"):
        read_params(path)
    path.write_text("x=1.0\ny=2.0\nq=3.0\n")
    with pytest.raises(DataError, match="line 3"):
        read_params(path)
    path.write_text("x=1.0\ny=2.0\nz=banana\n")
    with pytest.raises(DataError, match="non-numeric"):
        read_params(path)


def test_params_file_reads_like_a_config(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text(f"# fitted\nx = {PARAMS.x!r}\n\n"
                    f"y={PARAMS.y!r}\nz={PARAMS.z!r}\n")
    assert read_params(path) == PARAMS


def test_sites_csv_round_trip(tmp_path):
    sites = [
        SiteStatistics("alpha", 6.5, 3.4, "NGA", 3.0,
                       ((0.01, 110.0), (0.1, 55.0), (1.0, 12.0))),
        SiteStatistics("beta", -6.2, 106.8, "IDN", 2.0,
                       ((0.01, 130.0), (0.1, 60.0))),
        # a record keeps the numpy scalars it is given
        SiteStatistics("gamma", 1.5, 2.5, "KEN", 1.0,
                       tuple(zip(np.array([0.01, 0.1]),
                                 np.array([90.5, 41.0])))),
    ]
    path = tmp_path / "sites.csv"
    write_sites_csv(sites, path)
    back = read_sites_csv(path)
    assert back == sites
    assert "gamma,1.5,2.5,KEN,1.0,0.1,41.0\n" in path.read_text()
    header = path.read_text().splitlines()[0]
    assert header == "site_id,lat,lon,country,years,p_percent,rate_mm_h"


def test_sites_csv_rejects_inconsistent_metadata(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("site_id,lat,lon,country,years,p_percent,rate_mm_h\n"
                    "a,1.0,2.0,XX,3.0,0.01,100.0\n"
                    "a,1.0,9.0,XX,3.0,0.1,50.0\n")
    with pytest.raises(DataError, match="inconsistent"):
        read_sites_csv(path)


def test_climate_csv(tmp_path):
    path = tmp_path / "climate.csv"
    path.write_text("site_id,mt_mm,p0_percent\na,1500.0,5.0\nb,800.0,2.5\n")
    out = read_climate_csv(path)
    assert out == {"a": ClimatePoint(1500.0, 5.0),
                   "b": ClimatePoint(800.0, 2.5)}
    path.write_text("site_id,mt_mm,p0_percent\na,1500.0,5.0\na,1.0,1.0\n")
    with pytest.raises(DataError, match="duplicate"):
        read_climate_csv(path)
