"""Scenario generation: portable RNG, determinism, self-consistency of the
injected anomalies with the analysis pipeline, and the curated fixtures."""
import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from eventcell.association import (
    associate_geographic,
    cell_bearing_offset,
    correlate_event,
    identify_causes,
    GeoAssocParams,
)
from eventcell.cli import load_config
from eventcell.errors import SpecError
from eventcell.filtering import run_filters
from eventcell.geo import haversine_km
from eventcell.ingest import BoundingBox, normalize_text
from eventcell.network import load_kpis, load_topology, normalize_periodic
from eventcell.scenario import (
    CounterRng,
    DecoySpec,
    FUNNEL_EXPECTED,
    InjectedEventSpec,
    MetricSpec,
    ScenarioSpec,
    T1_EXPECTED_ABS_R,
    build,
    detection_spec,
    funnel_fixture,
    generate,
    table1_fixture,
)

UTC = timezone.utc
START = datetime(2017, 3, 1, tzinfo=UTC)


# --- portable RNG -----------------------------------------------------------

def test_rng_deterministic():
    a = CounterRng(42).uniforms(100)
    b = CounterRng(42).uniforms(100)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, CounterRng(43).uniforms(100))


def test_rng_counter_independence():
    # one draw of 10 equals two draws of 5: output depends only on the counter
    one = CounterRng(7).uniforms(10)
    rng = CounterRng(7)
    two = np.concatenate([rng.uniforms(5), rng.uniforms(5)])
    np.testing.assert_array_equal(one, two)


def test_rng_uniform_bounds():
    u = CounterRng(1).uniforms(10_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert 0.45 < u.mean() < 0.55


def test_rng_normals_sane():
    z = CounterRng(2).normals(20_000)
    assert abs(z.mean()) < 0.03
    assert 0.97 < z.std() < 1.03


def test_rng_randint_range():
    rng = CounterRng(3)
    draws = [rng.randint(2, 5) for _ in range(500)]
    assert set(draws) == {2, 3, 4, 5}


# --- generic generator -------------------------------------------------------

def _flat_spec(seed=0, noise=0.0, injected=(), decoys=DecoySpec()):
    return ScenarioSpec(
        seed=seed,
        n_sites=2,
        area=BoundingBox(36.6, 36.8, -4.6, -4.4),
        days=4,
        metrics=(MetricSpec("NUM_DROPS", tuple(float(h % 6) for h in range(24)), noise),),
        injected=injected,
        decoys=decoys,
        start=START,
    )


def test_zero_noise_zero_injection_is_pure_profile():
    bundle = build(_flat_spec())
    profile = np.array([float(h % 6) for h in range(24)])
    for series in bundle.series:
        np.testing.assert_array_equal(series.values, np.tile(profile, 4))


def test_same_seed_byte_identical(tmp_path):
    spec = detection_spec(9)
    files_a = generate(spec, tmp_path / "a")
    files_b = generate(spec, tmp_path / "b")
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_different_seed_differs(tmp_path):
    a = build(detection_spec(1))
    b = build(detection_spec(2))
    assert a.sites != b.sites


def test_injection_residual_matches_formula():
    inj = InjectedEventSpec(
        venue="Main Hall",
        start=START + timedelta(days=2, hours=18),
        duration=timedelta(hours=3),
        amplitudes={"NUM_DROPS": 9.0},
        anchor_site=0,
        anchor_bearing_deg=0.0,
        anchor_distance_km=0.4,
    )
    bundle = build(_flat_spec(injected=(inj,)))
    truth = bundle.ground_truth["events"][0]
    cell_id = truth["causal_cells"][0]
    series = next(s for s in bundle.series if s.cell_id == cell_id and s.metric == "NUM_DROPS")
    residual = normalize_periodic(series, "hour_of_day").values
    # the generator formula is its own oracle
    event = next(e for e in bundle.events if e.event_id == truth["event_id"])
    from eventcell.association import build_eaw

    eaw = build_eaw(event, series)
    mu = (eaw.n_start + eaw.n_end) / 2.0
    sigma = len(eaw) / 6.0
    expected = 9.0 * np.exp(-((np.arange(len(series.values)) - mu) ** 2) / (2 * sigma * sigma))
    np.testing.assert_allclose(residual, expected, atol=1e-9)


def test_injected_event_r_high_at_zero_noise():
    bundle = build(detection_spec(5, noise_scale=0.0))
    truth = bundle.ground_truth["events"][0]
    event = next(e for e in bundle.events if e.event_id == truth["event_id"])
    cell = next(c for c in bundle.cells if c.cell_id == truth["causal_cells"][0])
    series = [
        normalize_periodic(s, "hour_of_day")
        for s in bundle.series
        if s.cell_id == cell.cell_id and s.metric in truth["metrics"]
    ]
    for corr in correlate_event(event, cell, series):
        assert corr.r is not None and corr.r >= 0.9


def test_far_decoys_never_associated():
    spec = replace(
        _flat_spec(),
        decoys=DecoySpec(count=5, placement="far", events_per_venue=1, min_km_from_sites=3.0),
    )
    bundle = build(spec)
    params = GeoAssocParams(max_dist_km=2.0, min_sites=0, max_sites=7)
    decoy_events = [e for e in bundle.events if e.venue and e.venue.startswith("Venue B")]
    assert decoy_events
    for event in decoy_events:
        assert associate_geographic(event, bundle.sites, params) == []
        assert all(
            haversine_km((event.lat, event.lon), s.location) > 3.0 for s in bundle.sites
        )


def test_spec_validation():
    with pytest.raises(SpecError):
        MetricSpec("X", (1.0,) * 23)
    with pytest.raises(SpecError):
        InjectedEventSpec("v", START, timedelta(hours=1), {"M": -1.0}, lat=1.0, lon=1.0)
    with pytest.raises(SpecError):
        InjectedEventSpec("v", START, timedelta(hours=1), {"M": 1.0})  # no placement
    with pytest.raises(SpecError):
        build(
            replace(
                _flat_spec(),
                injected=(
                    InjectedEventSpec(
                        "v", START + timedelta(days=30), timedelta(hours=1),
                        {"NUM_DROPS": 1.0}, anchor_site=0,
                    ),
                ),
            )
        )


def test_unknown_metric_rejected():
    inj = InjectedEventSpec(
        "v", START + timedelta(days=1), timedelta(hours=1),
        {"NOT_A_METRIC": 1.0}, anchor_site=0,
    )
    with pytest.raises(SpecError):
        build(replace(_flat_spec(), injected=(inj,)))


def test_detection_scenario_finds_cause():
    bundle = build(detection_spec(0))
    truth = bundle.ground_truth["events"][0]
    cell = next(c for c in bundle.cells if c.cell_id == truth["causal_cells"][0])
    candidates = identify_causes(cell, bundle.events, bundle.sites, bundle.series)
    assert candidates[0].venue_key == normalize_text(truth["venue"])
    assert candidates[0].best_score > 0.7


def test_detection_filter_keeps_every_ground_truth_event(tmp_path):
    # The config box covers the injected venue even where it lands past the
    # spec's area, as it does for seeds 44, 93, 95, 155, 165 and 191.
    config_path = tmp_path / "config.json"
    for seed in range(200):
        bundle = build(detection_spec(seed))
        config_path.write_text(json.dumps(dict(bundle.config, paths={})), encoding="utf-8")
        kept, _ = run_filters(bundle.events, load_config(config_path).filter)
        kept_ids = {e.event_id for e in kept}
        for truth in bundle.ground_truth["events"]:
            assert truth["event_id"] in kept_ids, f"seed {seed}"


# --- table1 fixture ----------------------------------------------------------

@pytest.fixture(scope="module")
def t1():
    return table1_fixture()


def test_t1_geometry(t1):
    site = t1.sites[0]
    cell = next(c for c in t1.cells if c.cell_id == "CELL_1A")
    venue_l = next(e for e in t1.events if e.venue == "VENUE_L")
    assert haversine_km(site.location, (venue_l.lat, venue_l.lon)) == pytest.approx(0.56, abs=1e-3)
    assert cell_bearing_offset(cell, site, (venue_l.lat, venue_l.lon)) == pytest.approx(15.22, abs=0.01)


def test_t1_fifteen_venues_near_site(t1):
    params = GeoAssocParams(2.0, 1, 7)
    near = {
        e.venue
        for e in t1.events
        if any(s.site_id == "SITE_1" for s, _ in associate_geographic(e, t1.sites, params))
    }
    assert len(near) == 15
    assert len(t1.events) == 29


def test_t1_bearing_filter_keeps_five(t1):
    site = t1.sites[0]
    cell = next(c for c in t1.cells if c.cell_id == "CELL_1A")
    passing = {
        e.venue
        for e in t1.events
        if cell_bearing_offset(cell, site, (e.lat, e.lon)) < cell.hor_width / 2
    }
    assert passing == set(T1_EXPECTED_ABS_R)


def test_t1_aggregates_reproduced(t1):
    cell = next(c for c in t1.cells if c.cell_id == "CELL_1A")
    candidates = identify_causes(cell, t1.events, t1.sites, t1.series)
    scores = {c.venue_label: c.metric_scores for c in candidates}
    for venue, expected in T1_EXPECTED_ABS_R.items():
        for metric, value in expected.items():
            assert scores[venue][metric] == pytest.approx(value, abs=0.05), (venue, metric)
    assert candidates[0].venue_label == "VENUE_L"
    assert [c.venue_label for c in candidates if c.flagged] == ["VENUE_L"]


def test_t1_two_drop_peaks_align_with_events(t1):
    from eventcell.association import build_eaw

    drops = next(s for s in t1.series if s.cell_id == "CELL_1A" and s.metric == "NUM_DROPS")
    e1 = next(e for e in t1.events if e.raw_id == "L1")
    e2 = next(e for e in t1.events if e.raw_id == "L2")
    w1 = build_eaw(e1, drops)
    w2 = build_eaw(e2, drops)
    top2 = set(np.argsort(drops.values)[-2:])
    windows = set(range(w1.n_start, w1.n_end + 1)) | set(range(w2.n_start, w2.n_end + 1))
    assert top2 <= windows
    assert any(i in range(w1.n_start, w1.n_end + 1) for i in top2)
    assert any(i in range(w2.n_start, w2.n_end + 1) for i in top2)


def test_t1_written_bundle_loads(tmp_path, t1):
    t1.write(tmp_path)
    sites, cells = load_topology(tmp_path / "topology.csv")
    assert len(cells) == 3
    series = load_kpis(tmp_path / "kpis.csv")
    assert len(series) == 9  # 3 cells x 3 metrics
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert truth["causal_venue"] == "VENUE_L"


# --- funnel fixture ----------------------------------------------------------

def test_funnel_counts():
    bundle = funnel_fixture()
    assert len(bundle.records) == FUNNEL_EXPECTED["fetched"] == 2200
    assert len({e.venue for e in bundle.events}) == FUNNEL_EXPECTED["venues_in"] == 600


def test_funnel_deterministic():
    a = funnel_fixture()
    b = funnel_fixture()
    assert a.records == b.records
