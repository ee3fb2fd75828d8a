"""Association layer: site selection, bearing filter, EAW construction,
Gaussian indicator, Pearson correlation and venue ranking."""
import math
import random
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eventcell import association
from eventcell.association import (
    EventCellCorrelation,
    aggregate_venue,
    associate_events,
    associate_geographic,
    bearing_offsets,
    build_eaw,
    correlate_event,
    filter_by_bearing,
    identify_causes,
    pearson,
    social_indicator,
    venue_key_for,
)
from eventcell.config import EawParams, GeoAssocParams
from eventcell.errors import (
    ConfigError,
    LengthMismatch,
    NoDefinedCorrelations,
    OutOfRange,
)
from eventcell.geo import destination_point, distances_km, haversine_km
from eventcell.network import Cell, Site
from eventcell.scenario import build, detection_spec, table1_fixture

from conftest import T0, hourly_series, make_event, spellings


# --- bearing offset ----------------------------------------------------------

def test_offset_along_azimuth(tri_site):
    site, cells = tri_site
    point = destination_point(site.location, 120.0, 1.0)
    assert bearing_offsets([cells[1]], site, point)[0] == pytest.approx(0.0, abs=1e-6)


def test_offset_wraparound(tri_site):
    site, _ = tri_site
    cell = Cell("C_W", "S1", 350.0, 120.0)
    point = destination_point(site.location, 10.0, 1.0)
    assert bearing_offsets([cell], site, point)[0] == pytest.approx(20.0, abs=1e-6)


def test_bearing_filter_tri_sector(tri_site):
    site, cells = tri_site
    point = destination_point(site.location, 15.22, 0.56)
    kept = filter_by_bearing(cells, site, point)
    assert [c.cell_id for c in kept] == ["C_A"]  # only the azimuth-0 sector


def test_bearing_filter_strict_boundary(tri_site):
    site, _ = tri_site
    cell = Cell("C_E", "S1", 0.0, 120.0)
    point = destination_point(site.location, 60.0, 1.0)
    offset = bearing_offsets([cell], site, point)[0]
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
        oracle = _reference_associate(event, sites, params)
        assert [(s.site_id, round(d, 9)) for s, d in got] == [
            (s.site_id, round(d, 9)) for s, d in oracle
        ]


# The scalar association that once lived in ``eventcell.association``: every
# site measured with ``haversine_km``, sorted by (distance, site_id).
def _reference_associate(event, sites, params):
    if not event.has_coordinates():
        raise ConfigError(f"event {event.event_id} has no coordinates")
    point = (event.lat, event.lon)
    ranked = sorted(
        ((site, haversine_km(point, site.location)) for site in sites),
        key=lambda pair: (pair[1], pair[0].site_id),
    )
    within = [pair for pair in ranked if pair[1] <= params.max_dist_km]
    if len(within) < params.min_sites:
        within = ranked[: params.min_sites]
    return within[: params.max_sites]


def _antipode(lat, lon):
    return -lat, lon - 180.0 if lon > 0 else lon + 180.0


_CENTRES = [(36.72, -4.42), (0.0, 179.9999), (0.0, -180.0), (89.9999, 10.0), (90.0, 0.0),
            (-90.0, 45.0), (-89.99995, -179.99), (3.362091034140363, 22.088831320216457)]
_lats = st.floats(-90.0, 90.0)
_lons = st.floats(-180.0, 180.0)


def _read_high_point(origin, seed):
    """A point that ``distances_km`` puts farther from ``origin`` than
    ``haversine_km`` does (their arctan2 differ in the last ulp), or None."""
    rng = random.Random(seed)
    for _ in range(200):
        lat, lon = destination_point(origin, rng.uniform(0.0, 360.0), rng.uniform(0.0, 2e4))
        if distances_km([origin[0]], [origin[1]], [lat], [lon])[0, 0] > haversine_km(origin, (lat, lon)):
            return lat, lon
    return None


@st.composite
def _association_cases(draw):
    """Events and sites clustered around one centre, possibly at the
    dateline or a pole, with coincident sites under different ids, far sites,
    sites at (or 1e-13 degrees from) an event's antipode, and max_dist_km
    sometimes set to an event-site distance exactly."""
    centre = draw(st.one_of(st.sampled_from(_CENTRES), st.tuples(_lats, _lons)))
    near, far = (st.builds(lambda b, d: destination_point(centre, b, d),
                           st.floats(0.0, 360.0), st.floats(0.0, reach)) for reach in (6.0, 2e4))
    points = draw(st.lists(st.one_of(near, st.just(centre), far, st.tuples(_lats, _lons)),
                           max_size=12))
    events = draw(st.lists(st.one_of(near, st.just(centre)), min_size=1, max_size=5))
    nudge = st.sampled_from([0.0, 1e-13, -1e-13])
    for lat, lon in draw(st.lists(st.sampled_from(events), max_size=2)):
        a_lat, a_lon = _antipode(lat, lon)
        points.append((max(-90.0, min(90.0, a_lat + draw(nudge))), a_lon))
    if draw(st.booleans()):
        high = _read_high_point(events[0], draw(st.integers(0, 2**32 - 1)))
        points += [high] if high else []
    points += draw(st.lists(st.sampled_from(points), max_size=3)) if points else []  # ties
    order = draw(st.permutations(range(len(points))))
    sites = [Site(f"S{order[i]:02d}", lat, lon, (f"C{i}",)) for i, (lat, lon) in enumerate(points)]
    event_objs = [make_event(raw_id=f"e{i}", lat=lat, lon=lon) for i, (lat, lon) in enumerate(events)]
    # a limit on a site exactly, preferably one the numpy kernel reads high,
    # which a prune without margin would drop
    pruned = distances_km([p[0] for p in events], [p[1] for p in events],
                          [s.lat for s in sites], [s.lon for s in sites])
    exact = [(haversine_km(p, s.location), pruned[i, j])
             for i, p in enumerate(events) for j, s in enumerate(sites)]
    borderline = ([d for d, n in exact if d > 0 and n > d] or [d for d, _ in exact if d > 0]
                  or [2.0])
    max_dist = draw(st.one_of(st.sampled_from([0.5, 2.0, 5.0]), st.sampled_from(borderline)))
    min_sites = draw(st.integers(0, len(sites) + 2))
    max_sites = draw(st.integers(min_sites, min_sites + 8))
    return event_objs, sites, GeoAssocParams(max_dist, min_sites, max_sites)


def _pairs(lists):
    return [[(site.site_id, d) for site, d in close] for close in lists]


@settings(max_examples=400, deadline=None)
@given(_association_cases())
@example(([make_event(lat=3.362091034140363, lon=22.088831320216457)],
          [Site("A", -3.362091034140363, -157.91116867978354, ("A1",))],
          GeoAssocParams(2.0, 0, 7)))
@example(([make_event()], [], GeoAssocParams(2.0, 3, 7)))
def test_associate_events_matches_scalar_reference(case):
    events, sites, params = case
    expected = [_reference_associate(event, sites, params) for event in events]
    assert _pairs(associate_events(events, sites, params)) == _pairs(expected)


def _perturbed_kernel(seed):
    """``distances_km`` with every entry moved by 1.8e-3 km, either way: the
    worst matrix-vs-``haversine_km`` error derived next to _PRUNE_MARGIN_KM."""
    def perturbed(*coordinates):
        dist = distances_km(*coordinates)
        return dist + np.random.default_rng(seed).choice([-1.8e-3, 1.8e-3], size=dist.shape)

    return perturbed


@settings(max_examples=200, deadline=None)
@given(_association_cases(), st.integers(0, 2**32 - 1))
def test_associate_events_tolerates_kernel_error_up_to_its_bound(case, seed):
    # The prune stays exact for any matrix within the kernel's error bound.
    events, sites, params = case
    expected = [_reference_associate(event, sites, params) for event in events]
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(association, "distances_km", _perturbed_kernel(seed))
        got = list(associate_events(events, sites, params))
    assert _pairs(got) == _pairs(expected)


def test_associate_events_spans_chunks():
    rng = random.Random(5)
    origin = (36.72, -4.42)
    sites = [_site_at(f"S{i:03d}", origin, rng.uniform(0, 360), rng.uniform(0.0, 8.0))
             for i in range(60)]
    events = [make_event(raw_id=f"e{i}", lat=lat, lon=lon) for i, (lat, lon) in enumerate(
        destination_point(origin, rng.uniform(0, 360), rng.uniform(0.0, 6.0)) for _ in range(300))]
    params = GeoAssocParams(2.0, 2, 7)
    expected = [_reference_associate(event, sites, params) for event in events]
    assert _pairs(associate_events(events, sites, params)) == _pairs(expected)
    assert list(associate_events([], sites, params)) == []


def test_associate_events_needs_coordinates():
    with pytest.raises(ConfigError, match="no coordinates"):
        list(associate_events([make_event(), make_event(raw_id="x", lat=None, lon=None)], [],
                              GeoAssocParams()))


def _reference_near_site(events, sites, site_id, params):
    """(event, close sites) of each event whose scalar close sites include a
    site with ``site_id``."""
    for event in events:
        close = _reference_associate(event, sites, params)
        if any(site.site_id == site_id for site, _ in close):
            yield event, close


def _near(pairs):
    return [(event.event_id, [(site.site_id, d) for site, d in close]) for event, close in pairs]


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(_association_cases(), st.none() | st.integers(0, 2**32 - 1))
def test_scoped_association_matches_scalar_reference(case, seed):
    # For every site, the scoped path keeps the events, and gives them the
    # close sites, that the scalar reference picks; with a seed, under a
    # kernel perturbed by its error bound.
    events, sites, params = case
    with pytest.MonkeyPatch.context() as patched:
        if seed is not None:
            patched.setattr(association, "distances_km", _perturbed_kernel(seed))
        for site_id in sorted({site.site_id for site in sites}):
            got = association._events_near_site(events, sites, site_id, params)
            assert _near(got) == _near(_reference_near_site(events, sites, site_id, params))


@st.composite
def _shared_point_cases(draw):
    """``_association_cases`` with most events repeating a few points,
    each repeat under any spelling of its coordinates, and event ids shared
    by events at different points."""
    events, sites, params = draw(_association_cases())
    points = [(event.lat, event.lon) for event in events]
    points += [(float(round(lat)), float(round(lon))) for lat, lon in points[:1]]  # integral
    shared = []
    for k, i in enumerate(draw(st.lists(st.integers(0, len(points) - 1), min_size=1,
                                        max_size=16))):
        lat, lon = points[i]
        shared.append(make_event(raw_id=draw(st.sampled_from(["a", "b", f"e{k}"])),
                                 lat=draw(st.sampled_from(spellings(lat))),
                                 lon=draw(st.sampled_from(spellings(lon)))))
    return shared, sites, params


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(_shared_point_cases(), st.none() | st.integers(0, 2**32 - 1))
@example(([make_event(raw_id="a", lat=lat, lon=lon) for lat, lon in
           [(0.0, -180.0), (-0.0, -180), (0, -180.0), (90.0, 0.0), (90, -0.0), (0.0, -180.0)]],
          [Site("S0", 0.0, 179.9999, ("C0",)), Site("S1", 89.9999, 10.0, ("C1",))],
          GeoAssocParams(2.0, 1, 7)), None)
def test_shared_points_match_scalar_reference(case, seed):
    # Events at one point, however its coordinates are spelled, get the
    # close sites the scalar reference gives each of them, from one
    # measurement of each distinct point; with a seed, under a kernel
    # perturbed by its error bound.
    events, sites, params = case
    expected = [_reference_associate(event, sites, params) for event in events]
    with pytest.MonkeyPatch.context() as patched:
        if seed is not None:
            patched.setattr(association, "distances_km", _perturbed_kernel(seed))
        masks = [mask for _, mask in association._candidate_sites(events, sites, params)]
        measured = []
        patched.setattr(association, "haversine_km",
                        lambda a, b: measured.append(b) or haversine_km(a, b))
        assert _pairs(associate_events(events, sites, params)) == _pairs(expected)
        assert len(masks) == len({(event.lat, event.lon) for event in events})
        assert len(measured) == sum(int(mask.sum()) for mask in masks)
        for site_id in sorted({site.site_id for site in sites}):
            got = association._events_near_site(events, sites, site_id, params)
            assert _near(got) == _near(_reference_near_site(events, sites, site_id, params))


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_identify_causes_same_with_scalar_association(monkeypatch, seed):
    bundle = table1_fixture() if seed is None else build(detection_spec(seed))

    def run():
        return {cell.cell_id: identify_causes(cell, bundle.events, bundle.sites, bundle.series)
                for cell in bundle.cells}

    got = run()
    scoped = []

    def reference(events, sites, site_id, params):
        scoped.append(site_id)
        return _reference_near_site(events, sites, site_id, params)

    monkeypatch.setattr(association, "_events_near_site", reference)
    assert got == run()
    assert scoped == [cell.site_id for cell in bundle.cells]  # the oracle stood in each time


def test_identify_causes_measures_only_events_whose_mask_holds_the_site(monkeypatch):
    rng = random.Random(8)
    origin = (36.72, -4.42)
    sites = [_site_at(f"S{i:03d}", origin, rng.uniform(0, 360), rng.uniform(0.0, 8.0))
             for i in range(60)]
    events = [make_event(raw_id=f"e{i}", lat=lat, lon=lon) for i, (lat, lon) in enumerate(
        destination_point(origin, rng.uniform(0, 360), rng.uniform(0.0, 6.0)) for _ in range(300))]
    params = GeoAssocParams(2.0, 2, 7)
    masks = [mask for _, mask in association._candidate_sites(events, sites, params)]
    measured = []
    monkeypatch.setattr(association, "haversine_km",
                        lambda a, b: measured.append(b) or haversine_km(a, b))
    for j, site in enumerate(sites[:10]):
        cell = Cell(site.cell_ids[0], site.site_id, 0.0, 360.0, "LTE")
        series = hourly_series(np.zeros(72), cell_id=cell.cell_id, metric="M")
        measured.clear()
        identify_causes(cell, events, sites, [series], params)
        holding = [mask for mask in masks if mask[j]]
        assert len(measured) == sum(int(mask.sum()) for mask in holding)
        assert len(holding) < len(events) / 2


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


@pytest.mark.parametrize("hours", [0, -3])
def test_eaw_params_reject_a_non_positive_category_duration(hours):
    with pytest.raises(ConfigError) as info:
        EawParams(category_durations={"musical": timedelta(hours=4), "sport": timedelta(hours=hours)})
    assert str(info.value) == "event duration of category 'sport' must be positive"


# --- social indicator ----------------------------------------------------------

def _eaw(n_start, n_end):
    from eventcell.association import Eaw

    return Eaw(n_start, n_end)


def test_indicator_degenerate():
    np.testing.assert_array_equal(social_indicator(_eaw(5, 5)), [1.0])


def test_indicator_symmetry_l5():
    samples = social_indicator(_eaw(10, 14))
    assert samples[0] == pytest.approx(samples[4], abs=1e-15)
    assert samples.argmax() == 2
    assert samples[2] == 1.0


def test_indicator_oracle_l7():
    # direct formula evaluation with sigma = 7/6
    samples = social_indicator(_eaw(0, 6))
    sigma = 7.0 / 6.0
    for k in range(7):
        expected = math.exp(-((k - 3.0) ** 2) / (2 * sigma * sigma))
        assert samples[k] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("length", [2, 3, 4, 5, 8, 13, 50, 100])
def test_indicator_shape_properties(length):
    samples = social_indicator(_eaw(7, 7 + length - 1))
    assert np.all(samples > 0) and np.all(samples <= 1.0)
    np.testing.assert_allclose(samples, samples[::-1], atol=1e-12)  # symmetric
    half = samples[: (length + 1) // 2]
    assert np.all(np.diff(half) > 0) or length <= 2  # strictly rising to the middle


def test_indicator_sigma_scale():
    narrow = social_indicator(_eaw(0, 8), sigma_scale=0.5)
    wide = social_indicator(_eaw(0, 8), sigma_scale=2.0)
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
    samples = social_indicator(_eaw(0, length - 1))
    assert pearson(samples, samples) == pytest.approx(1.0, abs=1e-12)


# --- correlate_event / aggregate ------------------------------------------------

def test_correlate_event_indicator_aligned(tri_site):
    site, cells = tri_site
    event = make_event(start=T0 + timedelta(hours=20), end=T0 + timedelta(hours=22))
    series = hourly_series(np.zeros(48), cell_id="C_B", metric="M")
    eaw = build_eaw(event, series)
    values = np.zeros(48)
    values[eaw.n_start : eaw.n_end + 1] = social_indicator(eaw)
    series = hourly_series(values, cell_id="C_B", metric="M")
    [corr] = correlate_event(event, cells[1], [series])
    assert corr.r == pytest.approx(1.0, abs=1e-12)


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
    return EventCellCorrelation(event_id, cell, metric, r)


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


@pytest.mark.parametrize("axis", ["lat", "lon"])
def test_venue_key_spells_a_coordinate_that_rounds_to_zero_without_a_sign(axis):
    """0.0, -0.0 and a point a few cm on the negative side are one place."""
    keys = {venue_key_for(make_event(venue=None, **{"lat": 10.0, "lon": 10.0, axis: value}))
            for value in (0.0, -0.0, -1e-6)}
    assert keys == {"@0.00000,10.00000" if axis == "lat" else "@10.00000,0.00000"}


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
    base = bearing_offsets([cells[0]], site, point)[0]
    for delta in (90.0, 180.0, 271.5):
        shifted_site = Site(
            site.site_id, site.lat,
            (site.lon + delta + 180.0) % 360.0 - 180.0, site.cell_ids,
        )
        shifted_point = (point[0], (point[1] + delta + 180.0) % 360.0 - 180.0)
        assert bearing_offsets([cells[0]], shifted_site, shifted_point)[0] == pytest.approx(
            base, abs=1e-9
        )
