"""Association layer: site selection, bearing filter, EAW construction,
Gaussian indicator, Pearson correlation and venue ranking."""
import math
import random
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventcell.association import (
    EawParams,
    EventCellCorrelation,
    GeoAssocParams,
    aggregate_venue,
    associate_geographic,
    build_eaw,
    cell_bearing_offset,
    correlate_event,
    filter_by_bearing,
    identify_causes,
    pearson,
    social_indicator,
    venue_key_for,
)
from eventcell.errors import (
    ConfigError,
    LengthMismatch,
    NoDefinedCorrelations,
    OutOfRange,
)
from eventcell.geo import destination_point
from eventcell.network import Cell, Site

from conftest import T0, hourly_series, make_event


# --- bearing offset ----------------------------------------------------------

def test_offset_along_azimuth(tri_site):
    site, cells = tri_site
    point = destination_point(site.location, 120.0, 1.0)
    assert cell_bearing_offset(cells[1], site, point) == pytest.approx(0.0, abs=1e-6)


def test_offset_wraparound(tri_site):
    site, _ = tri_site
    cell = Cell("C_W", "S1", 350.0, 120.0)
    point = destination_point(site.location, 10.0, 1.0)
    assert cell_bearing_offset(cell, site, point) == pytest.approx(20.0, abs=1e-6)


def test_bearing_filter_tri_sector(tri_site):
    site, cells = tri_site
    point = destination_point(site.location, 15.22, 0.56)
    kept = filter_by_bearing(cells, site, point)
    assert [c.cell_id for c in kept] == ["C_A"]  # only the azimuth-0 sector


def test_bearing_filter_strict_boundary(tri_site):
    site, _ = tri_site
    cell = Cell("C_E", "S1", 0.0, 120.0)
    point = destination_point(site.location, 60.0, 1.0)
    offset = cell_bearing_offset(cell, site, point)
    if offset >= 60.0:  # destination/bearing round-trip lands at >= 60
        assert filter_by_bearing([cell], site, point) == []


def test_omni_cell_always_kept(tri_site):
    site, _ = tri_site
    omni = Cell("C_O", "S1", 0.0, 360.0)
    for bearing in (0.0, 90.0, 179.0, 240.0):
        point = destination_point(site.location, bearing, 1.0)
        assert filter_by_bearing([omni], site, point) == [omni]


# --- geographic association --------------------------------------------------

def _site_at(site_id, origin, bearing, dist):
    lat, lon = destination_point(origin, bearing, dist)
    return Site(site_id, lat, lon, (f"{site_id}_A",))


def test_associate_within_distance():
    event = make_event()
    origin = (event.lat, event.lon)
    sites = [
        _site_at("NEAR", origin, 90.0, 0.56),
        _site_at("FAR", origin, 90.0, 5.0),
    ]
    result = associate_geographic(event, sites, GeoAssocParams(2.0, 1, 7))
    assert [s.site_id for s, _ in result] == ["NEAR"]
    assert result[0][1] == pytest.approx(0.56, rel=1e-6)


def test_associate_truncates_to_max(tri_site):
    event = make_event()
    origin = (event.lat, event.lon)
    sites = [_site_at(f"S{i:02d}", origin, i * 36.0, 0.2 + 0.1 * i) for i in range(10)]
    result = associate_geographic(event, sites, GeoAssocParams(2.0, 1, 7))
    assert len(result) == 7
    distances = [d for _, d in result]
    assert distances == sorted(distances)
    assert result[0][0].site_id == "S00"


def test_associate_relaxes_for_min_sites():
    event = make_event()
    origin = (event.lat, event.lon)
    sites = [_site_at("ONLY", origin, 0.0, 9.0)]
    result = associate_geographic(event, sites, GeoAssocParams(2.0, 1, 7))
    assert [s.site_id for s, _ in result] == ["ONLY"]
    none_needed = associate_geographic(event, [], GeoAssocParams(2.0, 0, 7))
    assert none_needed == []


def test_associate_brute_force_equivalence():
    rng = random.Random(11)
    event = make_event()
    origin = (event.lat, event.lon)
    from eventcell.geo import haversine_km

    for _ in range(25):
        n = rng.randint(0, 20)
        sites = [
            _site_at(f"S{i:02d}", origin, rng.uniform(0, 360), rng.uniform(0.05, 4.0))
            for i in range(n)
        ]
        params = GeoAssocParams(
            max_dist_km=rng.choice([0.5, 1.0, 2.0]),
            min_sites=rng.randint(0, 3),
            max_sites=rng.randint(3, 8),
        )
        got = associate_geographic(event, sites, params)
        # exhaustive oracle: sort all sites by (distance, id), filter, relax, cut
        ranked = sorted(
            ((s, haversine_km(origin, s.location)) for s in sites),
            key=lambda p: (p[1], p[0].site_id),
        )
        oracle = [p for p in ranked if p[1] <= params.max_dist_km]
        if len(oracle) < params.min_sites:
            oracle = ranked[: params.min_sites]
        oracle = oracle[: params.max_sites]
        assert [(s.site_id, round(d, 9)) for s, d in got] == [
            (s.site_id, round(d, 9)) for s, d in oracle
        ]


def test_geo_params_validation():
    with pytest.raises(ConfigError):
        GeoAssocParams(max_dist_km=0.0)
    with pytest.raises(ConfigError):
        GeoAssocParams(min_sites=5, max_sites=2)


# --- EAW ----------------------------------------------------------------------

def test_eaw_with_end_time():
    series = hourly_series(np.zeros(48))
    event = make_event(start=T0 + timedelta(hours=20), end=T0 + timedelta(hours=22))
    eaw = build_eaw(event, series)
    assert (eaw.n_start, eaw.n_end) == (19, 23)


def test_eaw_default_duration():
    series = hourly_series(np.zeros(48))
    event = make_event(start=T0 + timedelta(hours=20))
    eaw = build_eaw(event, series)
    assert (eaw.n_start, eaw.n_end) == (19, 24)


def test_eaw_rounds_partial_stop_up():
    series = hourly_series(np.zeros(48))
    event = make_event(start=T0 + timedelta(hours=20), end=T0 + timedelta(hours=22, minutes=30))
    eaw = build_eaw(event, series)
    assert (eaw.n_start, eaw.n_end) == (19, 24)


def test_eaw_clamped_at_start():
    series = hourly_series(np.zeros(48))
    event = make_event(start=T0 - timedelta(hours=2), end=T0 + timedelta(hours=1))
    eaw = build_eaw(event, series)
    assert eaw.n_start == 0


def test_eaw_out_of_range():
    series = hourly_series(np.zeros(24))
    event = make_event(start=T0 + timedelta(days=10))
    with pytest.raises(OutOfRange):
        build_eaw(event, series)
    before = make_event(start=T0 - timedelta(days=2), end=T0 - timedelta(days=2) + timedelta(hours=1))
    with pytest.raises(OutOfRange):
        build_eaw(before, series)


def test_eaw_category_duration_via_params():
    series = hourly_series(np.zeros(48))
    params = EawParams(category_durations={"sport": timedelta(hours=6)})
    event = make_event(start=T0 + timedelta(hours=20), category="sport")
    eaw = build_eaw(event, series, default_duration=params.duration_for(event.category))
    assert eaw.n_end == 27  # 20 + 6 rounded + 1 margin


# --- social indicator ----------------------------------------------------------

def _eaw(n_start, n_end):
    from eventcell.association import Eaw

    return Eaw("C", "M", n_start, n_end, "e")


def test_indicator_degenerate():
    np.testing.assert_array_equal(social_indicator(_eaw(5, 5)).samples, [1.0])


def test_indicator_symmetry_l5():
    samples = social_indicator(_eaw(10, 14)).samples
    assert samples[0] == pytest.approx(samples[4], abs=1e-15)
    assert samples.argmax() == 2
    assert samples[2] == 1.0


def test_indicator_oracle_l7():
    # direct formula evaluation with sigma = 7/6
    samples = social_indicator(_eaw(0, 6)).samples
    sigma = 7.0 / 6.0
    for k in range(7):
        expected = math.exp(-((k - 3.0) ** 2) / (2 * sigma * sigma))
        assert samples[k] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("length", [2, 3, 4, 5, 8, 13, 50, 100])
def test_indicator_shape_properties(length):
    samples = social_indicator(_eaw(7, 7 + length - 1)).samples
    assert np.all(samples > 0) and np.all(samples <= 1.0)
    np.testing.assert_allclose(samples, samples[::-1], atol=1e-12)  # symmetric
    half = samples[: (length + 1) // 2]
    assert np.all(np.diff(half) > 0) or length <= 2  # strictly rising to the middle


def test_indicator_sigma_scale():
    narrow = social_indicator(_eaw(0, 8), sigma_scale=0.5).samples
    wide = social_indicator(_eaw(0, 8), sigma_scale=2.0).samples
    assert narrow[0] < wide[0]  # sharper slope at the edges


# --- pearson -------------------------------------------------------------------

def _pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def test_pearson_identity_and_inverse():
    x = [1.0, 2.0, 4.0, 8.0]
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_textbook_example():
    x, y = [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0]
    assert pearson(x, y) == pytest.approx(_pearson_oracle(x, y), abs=1e-12)


def test_pearson_undefined_cases():
    assert pearson([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]) is None  # zero variance
    assert pearson([1.0, 2.0], [2.0, 4.0]) is None  # fewer than 3 pairs
    assert pearson([], []) is None
    huge = [1e308, -1e308, 1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        assert pearson(huge, huge) is None  # overflows to a non-finite r


def test_pearson_nan_pairs_excluded():
    x = [1.0, np.nan, 3.0, 4.0, 5.0]
    y = [2.0, 9.0, 6.0, np.nan, 10.0]
    expected = _pearson_oracle([1.0, 3.0, 5.0], [2.0, 6.0, 10.0])
    assert pearson(x, y) == pytest.approx(expected, abs=1e-12)


def test_pearson_too_few_after_nan():
    assert pearson([1.0, np.nan, 3.0, np.nan], [1.0, 2.0, 3.0, 4.0]) is None


def test_pearson_length_mismatch():
    with pytest.raises(LengthMismatch):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_brute_force_sweep():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(3, 51))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert pearson(x, y) == pytest.approx(_pearson_oracle(list(x), list(y)), abs=1e-10)


@settings(max_examples=150)
@given(
    scale=st.floats(0.01, 100.0),
    offset=st.floats(-50.0, 50.0),
    seed=st.integers(0, 10_000),
)
def test_pearson_affine_invariance(scale, offset, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    base = pearson(x, y)
    assert pearson(x, scale * y + offset) == pytest.approx(base, abs=1e-9)
    assert pearson(x, -scale * y + offset) == pytest.approx(-base, abs=1e-9)


@pytest.mark.parametrize("length", range(3, 101))
def test_indicator_self_correlation(length):
    samples = social_indicator(_eaw(0, length - 1)).samples
    assert pearson(samples, samples) == pytest.approx(1.0, abs=1e-12)


# --- correlate_event / aggregate ------------------------------------------------

def test_correlate_event_indicator_aligned(tri_site):
    site, cells = tri_site
    event = make_event(start=T0 + timedelta(hours=20), end=T0 + timedelta(hours=22))
    series = hourly_series(np.zeros(48), cell_id="C_B", metric="M")
    eaw = build_eaw(event, series)
    values = np.zeros(48)
    values[eaw.n_start : eaw.n_end + 1] = social_indicator(eaw).samples
    series = hourly_series(values, cell_id="C_B", metric="M")
    [corr] = correlate_event(event, cells[1], [series])
    assert corr.r == pytest.approx(1.0, abs=1e-12)
    assert corr.n_samples == len(eaw)


def test_correlate_event_flat_window_undefined(tri_site):
    _, cells = tri_site
    event = make_event(start=T0 + timedelta(hours=20))
    series = hourly_series(np.full(48, 3.0), cell_id="C_B", metric="M")
    [corr] = correlate_event(event, cells[1], [series])
    assert corr.r is None


def test_correlate_event_wrong_cell_rejected(tri_site):
    _, cells = tri_site
    event = make_event(start=T0 + timedelta(hours=20))
    series = hourly_series(np.zeros(48), cell_id="OTHER", metric="M")
    with pytest.raises(ConfigError):
        correlate_event(event, cells[1], [series])


def _corr(event_id, r, cell="C", metric="M"):
    return EventCellCorrelation(event_id, cell, metric, r, 6)


def test_aggregate_single_event():
    [report] = aggregate_venue("venue", [_corr("e1", 0.62)])
    assert report.median_abs_r == report.mean_abs_r == report.max_abs_r == pytest.approx(0.62)
    assert report.n_events == 1


def test_aggregate_absolute_value():
    [report] = aggregate_venue("venue", [_corr("e1", 0.8), _corr("e2", -0.8)])
    assert report.median_abs_r == pytest.approx(0.8)
    assert report.mean_abs_r == pytest.approx(0.8)
    assert report.max_abs_r == pytest.approx(0.8)


def test_aggregate_undefined_counted_not_averaged():
    [report] = aggregate_venue("venue", [_corr("e1", 0.5), _corr("e2", None)])
    assert report.n_events == 1 and report.n_undefined == 1
    assert report.mean_abs_r == pytest.approx(0.5)


def test_aggregate_all_undefined_raises():
    with pytest.raises(NoDefinedCorrelations):
        aggregate_venue("venue", [_corr("e1", None)])


def test_aggregate_groups_by_cell_metric():
    reports = aggregate_venue(
        "venue",
        [_corr("e1", 0.5, metric="M1"), _corr("e1", 0.9, metric="M2"), _corr("e2", 0.7, metric="M1")],
        stat="max",
    )
    assert [(r.metric, r.score) for r in reports] == [("M1", 0.7), ("M2", 0.9)]


def test_aggregate_stat_selects_score():
    corrs = [_corr("e1", 0.2), _corr("e2", 0.4), _corr("e3", 0.9)]
    assert aggregate_venue("v", corrs, "median")[0].score == pytest.approx(0.4)
    assert aggregate_venue("v", corrs, "mean")[0].score == pytest.approx(0.5)
    assert aggregate_venue("v", corrs, "max")[0].score == pytest.approx(0.9)
    with pytest.raises(ConfigError):
        aggregate_venue("v", corrs, "p95")


def test_venue_key():
    assert venue_key_for(make_event(venue="The Grand Hall!")) == "the grand hall"
    keyed = venue_key_for(make_event(venue=None, lat=36.72, lon=-4.42))
    assert keyed == "@36.72000,-4.42000"


# --- identify_causes -------------------------------------------------------------

def test_identify_causes_empty_when_no_events(tri_site):
    site, cells = tri_site
    series = hourly_series(np.zeros(72), cell_id="C_B", metric="M")
    assert identify_causes(cells[1], [], [site], [series]) == []


def test_identify_causes_skips_events_a_subnormal_step_from_the_site():
    site = Site("S0", 0.0, 0.0, ("C_N",))
    cell = Cell("C_N", "S0", 0.0, 120.0, "LTE")
    values = np.zeros(72)
    values[20:23] = 5.0
    series = hourly_series(values, cell_id="C_N", metric="M")

    def ranked(lat, lon):
        event = make_event(venue="V", lat=lat, lon=lon, start=T0 + timedelta(hours=20))
        return identify_causes(cell, [event], [site], [series], normalization="none")

    assert [c.venue_key for c in ranked(0.01, 0.0)] == ["v"]  # due north, in the beam
    assert ranked(0.0, 0.0) == []
    assert ranked(0.0, 5e-324) == []  # no defined bearing, handled as at the site


def test_identify_causes_ordering_invariant():
    from eventcell.scenario import build, detection_spec

    bundle = build(detection_spec(3))
    truth = bundle.ground_truth["events"][0]
    cell = next(c for c in bundle.cells if c.cell_id == truth["causal_cells"][0])
    base = identify_causes(cell, bundle.events, bundle.sites, bundle.series)
    shuffled = list(bundle.events)
    random.Random(5).shuffle(shuffled)
    again = identify_causes(cell, shuffled, bundle.sites, bundle.series)
    assert [c.venue_key for c in base] == [c.venue_key for c in again]
    assert [c.best_score for c in base] == [c.best_score for c in again]


def test_offset_longitude_shift_invariance(tri_site):
    site, cells = tri_site
    point = destination_point(site.location, 77.0, 1.2)
    base = cell_bearing_offset(cells[0], site, point)
    for delta in (90.0, 180.0, 271.5):
        shifted_site = Site(
            site.site_id, site.lat,
            (site.lon + delta + 180.0) % 360.0 - 180.0, site.cell_ids,
        )
        shifted_point = (point[0], (point[1] + delta + 180.0) % 360.0 - 180.0)
        assert cell_bearing_offset(cells[0], shifted_site, shifted_point) == pytest.approx(
            base, abs=1e-9
        )
