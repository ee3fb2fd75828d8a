"""Acquisition: source fetch, record parsing, geocoding consolidation,
string similarity and duplicate fusion."""
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from datetime import datetime, timedelta
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eventcell.errors import (
    ConfigError,
    InvariantError,
    MalformedPayload,
    MissingRequiredField,
    SourceUnreachable,
    UnparseableTimestamp,
)
from eventcell.ingest import (
    _bounded_levenshtein,
    _decode_records,
    _merge_group,
    Address,
    BoundingBox,
    FixtureGeocoder,
    GeoScope,
    CategoricalScope,
    HttpGeocoder,
    SourceConfig,
    TimeScope,
    consolidate,
    event_from_record,
    event_to_record,
    fetch_raw,
    fuse_sources,
    normalize_text,
    parse_record,
    read_events,
    similarity,
    write_events,
)

from conftest import T0, UTC, make_event

ANY_GEO = GeoScope(categorical=CategoricalScope(city="Malaga"))
ANY_TIME = TimeScope(T0, T0 + timedelta(days=54))


# ---------------------------------------------------------------------------
# fetch_raw
# ---------------------------------------------------------------------------

def test_fetch_file_passthrough(simple_source):
    records = "\n".join(
        json.dumps({"title": f"Event {i}", "when": "2017-03-01T20:00Z"}) for i in range(5)
    )
    source = simple_source(records)
    assert len(fetch_raw(source, ANY_GEO, ANY_TIME)) == 5


def test_fetch_missing_file():
    source = SourceConfig(
        source_id="gone", kind="file", locator="/nonexistent/feed.ndjson",
        format="json_records", field_map={"title": "NAME", "when": "START_TIME"},
    )
    with pytest.raises(SourceUnreachable):
        fetch_raw(source, ANY_GEO, ANY_TIME)


def test_fetch_malformed_json(simple_source):
    source = simple_source('{"title": "ok", "when": "2017-03-01T20:00Z"}\nnot json\n')
    with pytest.raises(MalformedPayload):
        fetch_raw(source, ANY_GEO, ANY_TIME)


def test_fetch_json_array(simple_source):
    source = simple_source(json.dumps([{"title": "A", "when": "2017-03-01T20:00Z"}]))
    assert len(fetch_raw(source, ANY_GEO, ANY_TIME)) == 1


def test_fetch_csv(simple_source):
    source = simple_source(
        "title,when\nConcert A,2017-03-01T20:00Z\nConcert B,2017-03-02T20:00Z\n",
        fmt="csv_records",
    )
    records = fetch_raw(source, ANY_GEO, ANY_TIME)
    assert [r["title"] for r in records] == ["Concert A", "Concert B"]


class _FeedHandler(BaseHTTPRequestHandler):
    payload = b""
    last_query = None

    def do_GET(self):
        type(self).last_query = self.path
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        self.wfile.write(self.payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_feed():
    server = HTTPServer(("127.0.0.1", 0), _FeedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/events"
    server.shutdown()


def test_fetch_http(http_feed):
    _FeedHandler.payload = json.dumps({"title": "Net Event", "when": "2017-03-01T20:00Z"}).encode()
    source = SourceConfig(
        source_id="web", kind="http", locator=http_feed, format="json_records",
        field_map={"title": "NAME", "when": "START_TIME"},
    )
    records = fetch_raw(source, ANY_GEO, ANY_TIME)
    assert records == [{"title": "Net Event", "when": "2017-03-01T20:00Z"}]
    assert "city=Malaga" in _FeedHandler.last_query
    assert "start=" in _FeedHandler.last_query


def test_fetch_http_unreachable():
    source = SourceConfig(
        source_id="web", kind="http", locator="http://127.0.0.1:1/events",
        format="json_records", field_map={"title": "NAME", "when": "START_TIME"},
    )
    with pytest.raises(SourceUnreachable):
        fetch_raw(source, ANY_GEO, ANY_TIME)


# ---------------------------------------------------------------------------
# parse_record
# ---------------------------------------------------------------------------

CFG = SourceConfig(
    source_id="src", kind="file", locator="feed", format="json_records",
    field_map={
        "title": "NAME", "when": "START_TIME", "until": "END_TIME",
        "lat": "LAT", "lon": "LON", "place": "VENUE", "kind": "TYPE",
        "tickets": "POPULARITY", "id": "RAW_ID", "region": "ADDRESS_REGION",
    },
)


def test_parse_direct_mapping():
    event = parse_record({"title": "Concert A", "when": "2017-03-01T20:00Z"}, CFG)
    assert event.name == "Concert A"
    assert event.start_time == datetime(2017, 3, 1, 20, tzinfo=UTC)
    assert event.end_time is None and event.lat is None


def test_parse_missing_start():
    with pytest.raises(MissingRequiredField):
        parse_record({"title": "Concert A"}, CFG)


def test_parse_missing_name():
    with pytest.raises(MissingRequiredField):
        parse_record({"when": "2017-03-01T20:00Z"}, CFG)


def test_parse_offset_timestamp_to_utc():
    # 20:00 at UTC+2 is 18:00 UTC (independent offset arithmetic).
    event = parse_record({"title": "X", "when": "2017-03-01T20:00:00+02:00"}, CFG)
    assert event.start_time == datetime(2017, 3, 1, 18, 0, tzinfo=UTC)


def test_parse_naive_uses_source_zone():
    cfg = replace(CFG, timezone="+02:00")
    event = parse_record({"title": "X", "when": "2017-03-01T20:00:00"}, cfg)
    assert event.start_time == datetime(2017, 3, 1, 18, 0, tzinfo=UTC)


def test_parse_bad_timestamp():
    with pytest.raises(UnparseableTimestamp):
        parse_record({"title": "X", "when": "tomorrow evening"}, CFG)


def test_parse_full_record():
    event = parse_record(
        {"id": "77", "title": "Derby", "when": "2017-03-04T18:00Z", "until": "2017-03-04T20:00Z",
         "lat": "36.7", "lon": "-4.4", "place": "Stadium", "kind": "sport",
         "tickets": "30000", "region": "Costaluna"},
        CFG,
    )
    assert event.event_id == "src/77"
    assert event.category == "sport"  # TYPE alias
    assert event.popularity == 30000.0
    assert event.address.region == "Costaluna"
    assert event.end_time > event.start_time


def test_parse_end_before_start_rejected():
    with pytest.raises(InvariantError):
        parse_record(
            {"title": "X", "when": "2017-03-04T18:00Z", "until": "2017-03-04T17:00Z"}, CFG
        )


def test_parse_out_of_range_lat():
    with pytest.raises(InvariantError):
        parse_record({"title": "X", "when": "2017-03-01T20:00Z", "lat": "95", "lon": "0"}, CFG)


def test_parse_digest_id_stable():
    raw = {"title": "X", "when": "2017-03-01T20:00Z"}
    assert parse_record(raw, CFG).event_id == parse_record(dict(raw), CFG).event_id


def test_field_map_must_cover_required():
    with pytest.raises(ConfigError):
        SourceConfig(source_id="s", kind="file", locator="x", format="json_records",
                     field_map={"title": "NAME"})
    with pytest.raises(ConfigError):
        SourceConfig(source_id="s", kind="file", locator="x", format="json_records",
                     field_map={"title": "NAME", "when": "START_TIME", "oops": "NOT_A_FIELD"})


# ---------------------------------------------------------------------------
# consolidate
# ---------------------------------------------------------------------------

STUB = FixtureGeocoder({normalize_text("Av. X 1, Malaga"): (36.72, -4.42, "Avenida X 1, Malaga")})


def test_consolidate_noop_when_coordinates_present():
    event = make_event(lat=1.0, lon=2.0, address=Address(text="Av. X 1, Malaga"))
    assert consolidate(event, STUB) is event


def test_consolidate_fills_from_stub():
    event = make_event(lat=None, lon=None, address=Address(text="Av. X 1, Malaga"))
    resolved = consolidate(event, STUB)
    assert (resolved.lat, resolved.lon) == (36.72, -4.42)
    assert resolved.address.text == "Av. X 1, Malaga"  # existing value kept


def test_consolidate_fills_normalized_text_when_absent():
    event = make_event(lat=None, lon=None, venue="Av. X 1, Malaga")
    resolved = consolidate(event, STUB)
    assert resolved.address.text == "Avenida X 1, Malaga"


def test_consolidate_unresolvable_unchanged(caplog):
    event = make_event(lat=None, lon=None, address=Address(text="nowhere at all"))
    with caplog.at_level("INFO", logger="eventcell.ingest"):
        resolved = consolidate(event, STUB)
    assert resolved == event
    assert any("geocoding failed" in r.message for r in caplog.records)


def test_fixture_geocoder_from_csv(tmp_path):
    table = tmp_path / "geo.csv"
    table.write_text('query,lat,lon,normalized_address\n"Av. X 1, Malaga",36.72,-4.42,"Avenida X 1"\n')
    geocoder = FixtureGeocoder.from_csv(table)
    assert geocoder.resolve("av x 1 malaga") == (36.72, -4.42, "Avenida X 1")
    assert geocoder.resolve("unknown") is None


class _GeoHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps({"lat": 36.72, "lon": -4.42, "normalized_address": "Avenida X 1"}).encode())

    def log_message(self, *args):
        pass


def test_http_geocoder():
    server = HTTPServer(("127.0.0.1", 0), _GeoHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        client = HttpGeocoder(f"http://127.0.0.1:{server.server_port}/geocode")
        assert client.resolve("Av. X 1") == (36.72, -4.42, "Avenida X 1")
    finally:
        server.shutdown()


def test_http_geocoder_failure_is_none():
    client = HttpGeocoder("http://127.0.0.1:1/geocode", timeout=0.2)
    assert client.resolve("anything") is None



def test_importing_the_cli_leaves_requests_unloaded():
    import eventcell

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(eventcell.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = ("import sys, eventcell.cli; "
            "print(sorted({'requests', 'urllib3', 'eventcell.scenario'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


class _FakeResponse:
    def __init__(self, payload):
        self.payload = payload
        self.text = json.dumps(payload)

    def raise_for_status(self):
        pass

    def json(self):
        return self.payload


def test_http_paths_call_requests_get(monkeypatch):
    import requests

    calls = []

    def fake_get(url, params, timeout):
        calls.append((url, params))
        if url.endswith("/geocode"):
            return _FakeResponse({"lat": 36.72, "lon": -4.42, "normalized_address": "Avenida X 1"})
        return _FakeResponse({"title": "Net Event", "when": "2017-03-01T20:00Z"})

    monkeypatch.setattr(requests, "get", fake_get)
    assert HttpGeocoder("http://127.0.0.1:9/geocode").resolve("Av. X 1") == (
        36.72, -4.42, "Avenida X 1")
    source = SourceConfig(
        source_id="web", kind="http", locator="http://127.0.0.1:9/events",
        format="json_records", field_map={"title": "NAME", "when": "START_TIME"},
    )
    assert fetch_raw(source, ANY_GEO, ANY_TIME) == [{"title": "Net Event", "when": "2017-03-01T20:00Z"}]
    assert calls[0] == ("http://127.0.0.1:9/geocode", {"q": "Av. X 1"})
    assert calls[1][0] == "http://127.0.0.1:9/events" and calls[1][1]["city"] == "Malaga"


def test_http_request_failures_map_to_typed_outcomes(monkeypatch):
    import requests

    def failing_get(url, params, timeout):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "get", failing_get)
    assert HttpGeocoder("http://127.0.0.1:9/geocode").resolve("anything") is None
    source = SourceConfig(
        source_id="web", kind="http", locator="http://127.0.0.1:9/events",
        format="json_records", field_map={"title": "NAME", "when": "START_TIME"},
    )
    with pytest.raises(SourceUnreachable, match="connection refused"):
        fetch_raw(source, ANY_GEO, ANY_TIME)

# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def test_similarity_normalization_identity():
    assert similarity("Concert A", "concert a") == 1.0
    assert similarity("Café Müller!", "cafe muller") == 1.0


def test_similarity_hand_computed():
    # editdist("abc","abd") = 1, max length 3
    assert similarity("abc", "abd") == pytest.approx(1 - 1 / 3)


def test_similarity_empty():
    assert similarity("x", "") == 0.0
    assert similarity("", "") == 1.0


@given(st.text(max_size=40), st.text(max_size=40))
def test_similarity_symmetric_bounded(a, b):
    s = similarity(a, b)
    assert 0.0 <= s <= 1.0
    assert s == similarity(b, a)


def _levenshtein(a: str, b: str) -> int:
    """Reference edit distance: the full O(len(a) * len(b)) table."""
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ch_a != ch_b))
            )
        previous = current
    return previous[-1]


@st.composite
def _strings_and_cutoff(draw):
    alphabet = draw(st.sampled_from(["ab", "abc ", None]))  # None: any unicode
    text = st.text(alphabet=alphabet, max_size=24) if alphabet else st.text(max_size=24)
    a, b = draw(text), draw(text)
    return a, b, draw(st.integers(0, max(len(a), len(b)) + 2))


@settings(max_examples=500)
@given(_strings_and_cutoff())
@example(("", "", 0))
@example(("", "abc", 2))
@example(("abc", "", 3))
@example(("kitten", "sitting", 2))
@example(("kitten", "sitting", 3))
@example(("ab", "ba", 1))
@example(("é", "e\u0301", 0))
def test_bounded_levenshtein_matches_full_table(case):
    a, b, k = case
    assert _bounded_levenshtein(a, b, k) == min(_levenshtein(a, b), k + 1)


def _oracle_fusion(events, name_threshold=0.85, time_tolerance=timedelta(minutes=30)):
    """Fusion as specified: full edit distance over every pair, transitive groups."""
    order = sorted(events, key=lambda e: (e.start_time, e.name, e.event_id))
    names = [normalize_text(e.name) for e in order]
    group = list(range(len(order)))
    for i in range(len(order)):
        for j in range(len(order)):
            a, b = names[i], names[j]
            longest = max(len(a), len(b))
            sim = 1.0 if a == b else 1.0 - _levenshtein(a, b) / longest
            if abs(order[j].start_time - order[i].start_time) <= time_tolerance \
                    and sim >= name_threshold and group[i] != group[j]:
                old, new = group[j], group[i]
                group = [new if g == old else g for g in group]
    members = {}
    for idx, event in enumerate(order):
        members.setdefault(group[idx], []).append(event)
    merged = [_merge_group(m, {}) for m in members.values()]
    return sorted(merged, key=lambda e: (e.start_time, e.name, e.event_id))


@st.composite
def _near_duplicate_events(draw):
    """Events whose names are a few edits from one base name. The base
    lengths put whole edit counts exactly on each threshold (3 edits of 20
    letters is 0.85, 1 of 10 is 0.9), so pairs fall on both sides of it, and
    at 0.9 the float slack ``1 - 0.9`` sits just below 0.1."""
    threshold = draw(st.sampled_from([0.85, 0.9, 0.8, 0.7]))
    length = draw(st.sampled_from([10, 20]))
    base = draw(st.text(alphabet="abcé", min_size=length, max_size=length))
    events = []
    for i in range(draw(st.integers(2, 7))):
        name = list(base)
        for _ in range(draw(st.integers(0, 4))):
            op = draw(st.sampled_from(["sub", "ins", "del"]))
            pos = draw(st.integers(0, len(name) - 1))
            if op == "sub":
                name[pos] = draw(st.sampled_from("abcdE!"))
            elif op == "ins":
                name.insert(pos, draw(st.sampled_from("abcd ")))
            elif len(name) > 1:
                del name[pos]
        minutes = draw(st.integers(0, 60))
        events.append(make_event(raw_id=str(i), source_id=f"s{i % 2}", name="".join(name),
                                 start=T0 + timedelta(minutes=minutes)))
    return threshold, events


@settings(max_examples=300)
@given(_near_duplicate_events())
def test_fuse_matches_full_distance_oracle(case):
    threshold, events = case
    assert fuse_sources(events, name_threshold=threshold) == _oracle_fusion(events, threshold)


@pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
def test_fuse_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(ConfigError):
        fuse_sources([make_event()], name_threshold=threshold)


# ---------------------------------------------------------------------------
# fuse_sources
# ---------------------------------------------------------------------------

def test_fuse_exact_duplicates():
    a = make_event(raw_id="1", source_id="s1", name="Rock Fest")
    b = make_event(raw_id="1", source_id="s2", name="Rock Fest")
    fused = fuse_sources([a, b])
    assert len(fused) == 1


def test_fuse_priority_merge():
    low = make_event(raw_id="1", source_id="s0", name="Rock Fest",
                     start=T0 + timedelta(hours=20), popularity=None)
    high = make_event(raw_id="2", source_id="s1", name="rock fest",
                      start=T0 + timedelta(hours=20, minutes=10), popularity=5000.0)
    # exhaustive pairwise check on the 2-element fixture: the one pair matches
    assert similarity(low.name, high.name) >= 0.85
    assert abs((high.start_time - low.start_time)) <= timedelta(minutes=30)
    fused = fuse_sources([low, high], priorities={"s0": 0, "s1": 1})
    assert len(fused) == 1
    assert fused[0].popularity == 5000.0
    assert fused[0].name == "rock fest"  # winner fields from the priority-1 source
    assert fused[0].start_time == high.start_time
    assert any("discarded" in note for note in fused[0].merge_notes)


def test_fuse_same_name_far_apart():
    a = make_event(raw_id="1", name="Weekly Jam", start=T0 + timedelta(hours=10))
    b = make_event(raw_id="2", name="Weekly Jam", start=T0 + timedelta(hours=15))
    assert len(fuse_sources([a, b])) == 2


def test_fuse_equal_priority_fills_absent():
    a = make_event(raw_id="1", source_id="s1", name="Fair", venue=None,
                   start=T0, popularity=10.0)
    b = make_event(raw_id="2", source_id="s2", name="Fair", venue="Main Square",
                   start=T0 + timedelta(minutes=5), popularity=None)
    fused = fuse_sources([a, b])
    assert len(fused) == 1
    assert fused[0].venue == "Main Square"
    assert fused[0].popularity == 10.0


def test_fuse_transitive_chain():
    # a~b and b~c within tolerance: one record even though a-c spread is 40 min
    a = make_event(raw_id="1", name="Night Run", start=T0)
    b = make_event(raw_id="2", name="Night Run", start=T0 + timedelta(minutes=25))
    c = make_event(raw_id="3", name="Night Run", start=T0 + timedelta(minutes=45))
    assert len(fuse_sources([a, b, c])) == 1


def test_fuse_idempotent_and_order_insensitive():
    events = [
        make_event(raw_id="1", source_id="s1", name="Rock Fest", start=T0),
        make_event(raw_id="2", source_id="s2", name="rock fest!", start=T0 + timedelta(minutes=10)),
        make_event(raw_id="3", source_id="s1", name="Opera Gala", start=T0 + timedelta(hours=3)),
        make_event(raw_id="4", source_id="s2", name="Art Walk", start=T0 + timedelta(hours=5)),
    ]
    once = fuse_sources(events)
    assert fuse_sources(once) == once
    assert fuse_sources(list(reversed(events))) == once
    assert len(once) == 3


def test_fuse_size_bounds():
    distinct = [
        make_event(raw_id=str(i), name=f"Totally Different {chr(65 + i)} " + "x" * i,
                   start=T0 + timedelta(hours=2 * i))
        for i in range(6)
    ]
    assert len(fuse_sources(distinct)) == len(distinct)


def test_fuse_end_time_conflicting_with_start_skipped():
    # end from the losing record would precede the winning start; it is discarded
    lose = make_event(raw_id="1", source_id="s0", name="Show",
                      start=T0, end=T0 + timedelta(minutes=5))
    win = make_event(raw_id="2", source_id="s1", name="Show",
                     start=T0 + timedelta(minutes=10), end=None)
    fused = fuse_sources([lose, win], priorities={"s1": 5})
    assert len(fused) == 1
    assert fused[0].end_time is None
    assert any("precedes merged start" in n for n in fused[0].merge_notes)


# ---------------------------------------------------------------------------
# canonical round-trip
# ---------------------------------------------------------------------------

def test_record_round_trip():
    event = make_event(
        raw_id="9", name="Fiesta", venue="Plaza", category="musical", popularity=123.0,
        end=T0 + timedelta(hours=22),
        start=T0 + timedelta(hours=20),
        address=Address(city="Malaga", region="Costaluna", text="Plaza 1"),
    )
    assert event_from_record(event_to_record(event)) == event


def test_record_round_trip_minimal():
    event = make_event(lat=None, lon=None)
    assert event_from_record(event_to_record(event)) == event


def test_event_file_round_trip(tmp_path):
    events = [make_event(raw_id=str(i), name=f"E{i}", start=T0 + timedelta(hours=i)) for i in range(4)]
    path = tmp_path / "events.ndjson"
    write_events(events, path)
    assert read_events(path) == events


def test_event_file_round_trips_line_separators_in_strings(tmp_path):
    events = [make_event(raw_id=str(i), name=name, venue=f"Sala{name}")
              for i, name in enumerate(["Jazz\u2028Night", "Open\u2029Air", "Next\x85Line"])]
    path = tmp_path / "events.ndjson"
    write_events(events, path)
    assert read_events(path) == events


def test_decode_records_ends_lines_only_at_lf_crlf_and_cr(simple_source):
    # fetched text (an HTTP body) keeps its line ends untranslated
    names = ["Jazz\u2028Night", "Open\u2029Air", "Next\x85Line"]
    lines = [json.dumps({"title": n, "when": "2017-03-01T20:00Z"}, ensure_ascii=False)
             for n in names]
    source = simple_source("")
    text = f"{lines[0]}\r\n{lines[1]}\r{lines[2]}\n"
    assert [record["title"] for record in _decode_records(text, source)] == names
    with pytest.raises(MalformedPayload, match="line 4"):
        _decode_records(text + "not json\r", source)


@pytest.mark.parametrize("popularity", [math.nan, math.inf, -math.inf, -1.0])
def test_event_rejects_a_negative_or_non_finite_popularity(popularity):
    with pytest.raises(InvariantError, match="popularity"):
        make_event(popularity=popularity)


@settings(max_examples=50)
@given(
    name=st.text(min_size=1, max_size=30).filter(str.strip),
    hours=st.integers(0, 100),
    pop=st.one_of(st.none(), st.floats(0, 1e6, allow_nan=False)),
)
def test_round_trip_property(name, hours, pop):
    event = make_event(name=name, start=T0 + timedelta(hours=hours), popularity=pop)
    assert event_from_record(event_to_record(event)) == event


def test_geo_scope_validation():
    with pytest.raises(ConfigError):
        GeoScope()  # nothing set
    with pytest.raises(ConfigError):
        BoundingBox(37.0, 36.0, -5.0, -4.0)  # lat_min >= lat_max
    with pytest.raises(ConfigError):
        BoundingBox(36.0, 37.0, -4.0, -5.0)  # lon_min >= lon_max
    with pytest.raises(ConfigError):
        BoundingBox(36.0, 95.0, -5.0, -4.0)  # latitude out of range


def test_time_scope_validation():
    with pytest.raises(ConfigError):
        TimeScope(T0, T0)
    with pytest.raises(ConfigError):
        TimeScope(T0 + timedelta(days=1), T0)
