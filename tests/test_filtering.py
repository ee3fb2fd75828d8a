"""Filter stages: availability, geographic, semantic, temporal, and the
composed pipeline's conservation properties."""
import math
from datetime import timedelta

import pytest
from hypothesis import example, given, strategies as st

from eventcell.errors import ConfigError
from eventcell.filtering import (
    FilterConfig,
    filter_availability,
    filter_geographic,
    filter_semantic,
    filter_temporal,
    run_filters,
    write_traces,
)
from eventcell.geo import EARTH_RADIUS_KM
from eventcell.ingest import (
    Address,
    BoundingBox,
    CategoricalScope,
    CircleArea,
    GeoScope,
    TimeScope,
    normalize_text,
)

from conftest import T0, make_event

WHOLE_EARTH = GeoScope(box=BoundingBox(-90.0, 90.0, -180.0, 180.0))
SCOPE_54D = TimeScope(T0, T0 + timedelta(days=54))


def base_config(**kw):
    defaults = dict(geo=WHOLE_EARTH, time=SCOPE_54D)
    defaults.update(kw)
    return FilterConfig(**defaults)


# --- availability -----------------------------------------------------------

def test_availability_drops_missing_lat():
    cfg = base_config(required_fields=frozenset({"LAT"}))
    event = make_event(lat=None, lon=None)
    kept, traces = filter_availability([event], cfg)
    assert kept == []
    assert traces[0].stage == "availability" and "LAT" in traces[0].reason


def test_availability_keeps_complete():
    cfg = base_config()
    kept, traces = filter_availability([make_event()], cfg)
    assert len(kept) == 1 and traces == []


def test_availability_counts_match_fixture():
    cfg = base_config()
    events = [make_event(raw_id=str(i)) for i in range(20)]
    missing = [make_event(raw_id=f"m{i}", lat=None, lon=None) for i in range(7)]
    kept, traces = filter_availability(events + missing, cfg)
    assert len(kept) == 20 and len(traces) == 7


# --- geographic -------------------------------------------------------------

def test_box_boundary_inclusive():
    cfg = base_config(geo=GeoScope(box=BoundingBox(36.0, 37.0, -5.0, -4.0)))
    on_boundary = make_event(lat=37.0, lon=-4.5)
    kept, _ = filter_geographic([on_boundary], cfg)
    assert kept == [on_boundary]


def test_box_outside_dropped():
    cfg = base_config(geo=GeoScope(box=BoundingBox(36.0, 37.0, -5.0, -4.0)))
    kept, traces = filter_geographic([make_event(lat=37.001, lon=-4.5)], cfg)
    assert kept == [] and traces[0].stage == "geographic"


def test_circle_center_kept():
    cfg = base_config(geo=GeoScope(circle=CircleArea(36.72, -4.42, 2.0)))
    kept, _ = filter_geographic([make_event(lat=36.72, lon=-4.42)], cfg)
    assert len(kept) == 1


def test_circle_2_1km_from_center_dropped():
    # a point 2.1 km due north: distance is analytic (same meridian arc)
    dlat = math.degrees(2.1 / EARTH_RADIUS_KM)
    cfg = base_config(geo=GeoScope(circle=CircleArea(36.72, -4.42, 2.0)))
    kept, traces = filter_geographic([make_event(lat=36.72 + dlat, lon=-4.42)], cfg)
    assert kept == [] and "exceeds" in traces[0].reason


def test_circle_radius_zero_keeps_only_center():
    cfg = base_config(geo=GeoScope(circle=CircleArea(36.72, -4.42, 0.0)))
    center = make_event(raw_id="c", lat=36.72, lon=-4.42)
    near = make_event(raw_id="n", lat=36.7201, lon=-4.42)
    kept, _ = filter_geographic([center, near], cfg)
    assert kept == [center]


def test_box_and_circle_intersect():
    cfg = base_config(geo=GeoScope(box=BoundingBox(36.0, 37.0, -5.0, -4.0),
                                   circle=CircleArea(36.72, -4.42, 2.0)))
    center = make_event(raw_id="center", lat=36.72, lon=-4.42)
    box_only = make_event(raw_id="box_only", lat=36.2, lon=-4.42)
    neither = make_event(raw_id="neither", lat=38.0, lon=-4.42)
    kept, traces = filter_geographic([center, box_only, neither], cfg)
    assert kept == [center]
    assert traces[0].event_id == "src/box_only" and "exceeds 2.0 km" in traces[0].reason
    assert traces[1].event_id == "src/neither" and traces[1].reason == "outside box"


def test_whole_earth_box_keeps_everything():
    cfg = base_config()
    events = [make_event(raw_id=str(i), lat=float(i * 10 - 80), lon=float(i * 30 - 150)) for i in range(6)]
    kept, traces = filter_geographic(events, cfg)
    assert kept == events and traces == []


def test_geographic_requires_coordinate_scope():
    cfg = base_config(geo=GeoScope(categorical=CategoricalScope(city="X")))
    with pytest.raises(ConfigError):
        filter_geographic([make_event()], cfg)


# --- semantic ---------------------------------------------------------------

def test_blacklist_whole_word_match():
    cfg = base_config(blacklist_terms=("tavern",))
    kept, traces = filter_semantic([make_event(venue="The Tavern on Main")], cfg)
    assert kept == [] and "tavern" in traces[0].reason


def test_blacklist_substring_does_not_match():
    cfg = base_config(blacklist_terms=("tavern",))
    kept, _ = filter_semantic([make_event(venue="Tavernier Hall")], cfg)
    assert len(kept) == 1


def test_blacklist_checks_name_too():
    cfg = base_config(blacklist_terms=("pub",))
    kept, _ = filter_semantic([make_event(name="Pub Quiz Night", venue="Hall")], cfg)
    assert kept == []


def test_region_whitelist():
    cfg = base_config(region_whitelist=frozenset({"Costaluna"}))
    inside = make_event(raw_id="a", address=Address(region="Costaluna"))
    outside = make_event(raw_id="b", address=Address(region="Norland"))
    missing = make_event(raw_id="c")
    kept, traces = filter_semantic([inside, outside, missing], cfg)
    assert [e.raw_id for e in kept] == ["a", "c"]  # absent region passes
    assert traces[0].reason.startswith("region")


def test_semantic_identity_with_empty_config():
    cfg = base_config()
    events = [make_event(raw_id=str(i), venue=f"Bar {i}") for i in range(3)]
    kept, traces = filter_semantic(events, cfg)
    assert kept == events and traces == []


def test_blacklist_terms_must_be_lowercase():
    with pytest.raises(ConfigError):
        base_config(blacklist_terms=("Tavern",))


def test_blacklist_term_without_letters_or_digits_rejected():
    with pytest.raises(ConfigError, match="'!!!'"):
        base_config(blacklist_terms=("pub", "!!!"))


def _contains_term(text: str, term: str) -> bool:
    """Reference whole-word match: the term's tokens as a run of the text's tokens."""
    tokens = normalize_text(text).split()
    term_tokens = normalize_text(term).split()
    if not term_tokens:
        return False
    span = len(term_tokens)
    return any(tokens[i:i + span] == term_tokens for i in range(len(tokens) - span + 1))


_WORDS = st.text(alphabet="abé É-!.'1 ", max_size=12)


@given(st.lists(_WORDS, min_size=1, max_size=3), _WORDS, _WORDS)
@example(["rock bar"], "The Rock  Bar!", "x")
@example(["rock-bar", "bar"], "x", "Rock Bar")
@example(["b"], "a-b", "ab")
@example(["!!!"], "!!!", "!!!")
def test_semantic_match_equals_token_oracle(terms, name, venue):
    terms = [t.lower() for t in terms]
    if any(not t or not normalize_text(t) for t in terms):
        with pytest.raises(ConfigError):
            base_config(blacklist_terms=tuple(terms))
        return
    event = make_event(name=name, venue=venue)
    kept, traces = filter_semantic([event], base_config(blacklist_terms=tuple(terms)))
    expected = next(
        (f"term '{t}' in {field}" for field, text in (("NAME", name), ("VENUE", venue))
         for t in terms if _contains_term(text, t)),
        None,
    )
    assert [t.reason for t in traces] == ([expected] if expected else [])
    assert kept == ([] if expected else [event])


# --- temporal ---------------------------------------------------------------

def test_temporal_inclusive_start():
    cfg = base_config()
    kept, _ = filter_temporal([make_event(start=SCOPE_54D.start)], cfg)
    assert len(kept) == 1


def test_temporal_one_second_past_end():
    cfg = base_config()
    kept, traces = filter_temporal(
        [make_event(start=SCOPE_54D.end + timedelta(seconds=1))], cfg
    )
    assert kept == [] and traces[0].stage == "temporal"


def test_temporal_in_out_labels():
    cfg = base_config()
    inside = [make_event(raw_id=f"in{i}", start=T0 + timedelta(days=i)) for i in range(5)]
    outside = [make_event(raw_id=f"out{i}", start=T0 + timedelta(days=60 + i)) for i in range(3)]
    kept, traces = filter_temporal(inside + outside, cfg)
    assert {e.raw_id for e in kept} == {e.raw_id for e in inside}
    assert len(traces) == 3


# --- pipeline ---------------------------------------------------------------

def _mixed_events():
    return [
        make_event(raw_id="ok1", venue="Grand Hall"),
        make_event(raw_id="nocoord", lat=None, lon=None),
        make_event(raw_id="faraway", lat=10.0, lon=10.0),
        make_event(raw_id="barvenue", venue="Corner Bar"),
        make_event(raw_id="late", start=T0 + timedelta(days=99)),
        make_event(raw_id="ok2", venue="Opera House"),
    ]


def _pipeline_config():
    return FilterConfig(
        blacklist_terms=("bar",),
        geo=GeoScope(box=BoundingBox(36.0, 37.0, -5.0, -4.0)),
        time=SCOPE_54D,
    )


def test_pipeline_conservation_and_disjoint():
    events = _mixed_events()
    kept, traces = run_filters(events, _pipeline_config())
    assert len(kept) + len(traces) == len(events)
    assert {e.event_id for e in kept}.isdisjoint({t.event_id for t in traces})
    assert {e.raw_id for e in kept} == {"ok1", "ok2"}
    stages = {t.event_id: t.stage for t in traces}
    assert stages["src/nocoord"] == "availability"  # first failing stage wins
    assert stages["src/faraway"] == "geographic"
    assert stages["src/barvenue"] == "semantic"
    assert stages["src/late"] == "temporal"


def test_pipeline_is_projection():
    kept, _ = run_filters(_mixed_events(), _pipeline_config())
    again, traces2 = run_filters(kept, _pipeline_config())
    assert again == kept and traces2 == []


def test_each_stage_is_projection():
    cfg = _pipeline_config()
    events = _mixed_events()
    for stage in (filter_availability, filter_geographic, filter_semantic, filter_temporal):
        kept, _ = stage(events, cfg)
        kept2, traces2 = stage(kept, cfg)
        assert kept2 == kept and traces2 == []


def test_soft_mode_appends_dropped():
    cfg = FilterConfig(
        blacklist_terms=("bar",),
        geo=GeoScope(box=BoundingBox(36.0, 37.0, -5.0, -4.0)),
        time=SCOPE_54D,
        soft_mode=True,
    )
    events = _mixed_events()
    ordered, traces = run_filters(events, cfg)
    assert len(ordered) == len(events)  # nothing removed
    assert [e.raw_id for e in ordered[:2]] == ["ok1", "ok2"]  # kept first
    assert len(traces) == 4  # drops still traced


def test_traces_csv(tmp_path):
    _, traces = run_filters(_mixed_events(), _pipeline_config())
    path = tmp_path / "drops.csv"
    write_traces(traces, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "event_id,stage,reason"
    assert len(lines) == 1 + len(traces)
