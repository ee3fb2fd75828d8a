"""Acquisition: source fetch, record parsing, geocoding consolidation,
string similarity and duplicate fusion."""
import json
import math
import os
import subprocess
import sys
import threading
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, is_dataclass, replace
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from eventcell.errors import (
    ConfigError,
    InvariantError,
    MalformedPayload,
    MissingRequiredField,
    SchemaError,
    SourceUnreachable,
    UnparseableTimestamp,
)
from eventcell.ingest import (
    _FIELD_TYPES,
    _JSON_NAMES,
    _STRICT_DECODER,
    _char_masks,
    _decode_records,
    _json_type,
    _masked_levenshtein,
    _merge_group,
    _one_edit,
    _pieces,
    _windows,
    Address,
    BoundingBox,
    FixtureGeocoder,
    GeoScope,
    CategoricalScope,
    DEFAULT_TIME_TOLERANCE,
    HttpGeocoder,
    MemoGeocoder,
    SocialEvent,
    SourceConfig,
    TimeScope,
    address_record,
    consolidate,
    event_from_record,
    fetch_raw,
    fuse_sources,
    normalize_text,
    parse_record,
    read_events,
    write_events,
)
from eventcell.timeutil import format_rfc3339, parse_rfc3339

from conftest import T0, UTC, make_event, similarity

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


_CSV_HEAD = 'title,when,place\nConcert A,2017-03-01T20:00Z,Hall\n'
# A blank line and a quoted field over two lines come before the ragged row,
# so its physical line (7) is not its record number (4).
_CSV_BEFORE_LINE_7 = _CSV_HEAD + '\n"Concert\nB",2017-03-02T20:00Z,Hall\n\n'


@pytest.mark.parametrize("text, line", [
    (_CSV_HEAD + "Concert B,2017-03-02T20:00Z\n", 3),  # short
    (_CSV_HEAD + "Concert B,2017-03-02T20:00Z,Hall,extra\n", 3),  # long
    (_CSV_BEFORE_LINE_7 + "Concert C,2017-03-03T20:00Z\n", 7),
    (_CSV_BEFORE_LINE_7 + "Concert C,2017-03-03T20:00Z,Hall,\n", 7),
], ids=["short", "long", "short after blank and multi-line", "long after blank and multi-line"])
def test_ingest_exits_1_on_a_csv_row_with_more_or_fewer_fields_than_its_header(
        tmp_path, capsys, text, line):
    from eventcell.cli import main

    (tmp_path / "feed.csv").write_text(text)
    config = {"sources": [{"source_id": "tickets", "kind": "file", "locator": "feed.csv",
                           "format": "csv_records",
                           "field_map": {"title": "NAME", "when": "START_TIME",
                                         "place": "VENUE"}}],
              "filter": {"geo": {"box": [36.0, 37.0, -5.0, -4.0]},
                         "time": {"start": "2017-03-01T00:00:00Z",
                                  "end": "2017-04-01T00:00:00Z"}},
              "paths": {"output": "out"}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["ingest", "--config", str(tmp_path / "config.json")]) == 1
    errors = [row for row in capsys.readouterr().err.splitlines() if row.startswith("error:")]
    assert len(errors) == 1
    assert f"source 'tickets' line {line}: ragged CSV row" in errors[0]
    assert not (tmp_path / "out" / "events.ndjson").exists()


@pytest.fixture
def http_server():
    """A loopback HTTP server that answers every GET with ``answer.status``
    and ``answer.body``, declaring ``answer.length`` bytes when it is set
    (more than it sends cuts the body short), and records each request's
    path and query in ``answer.paths``."""
    answer = SimpleNamespace(status=200, body=b"", length=None, paths=[])

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            answer.paths.append(self.path)
            self.send_response(answer.status)
            length = len(answer.body) if answer.length is None else answer.length
            self.send_header("Content-Length", str(length))
            self.end_headers()
            self.wfile.write(answer.body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    answer.url = f"http://127.0.0.1:{server.server_port}"
    yield answer
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _http_source(locator):
    return SourceConfig(source_id="web", kind="http", locator=locator, format="json_records",
                        field_map={"title": "NAME", "when": "START_TIME", "place": "VENUE"})


def test_fetch_http(http_server):
    http_server.body = json.dumps({"title": "Net Event", "when": "2017-03-01T20:00Z"}).encode()
    records = fetch_raw(_http_source(f"{http_server.url}/events"), ANY_GEO, ANY_TIME)
    assert records == [{"title": "Net Event", "when": "2017-03-01T20:00Z"}]
    assert http_server.paths == [
        "/events?city=Malaga&start=2017-03-01T00%3A00%3A00Z&end=2017-04-24T00%3A00%3A00Z"]


def test_fetch_http_unreachable():
    with pytest.raises(SourceUnreachable, match="Connection refused"):
        fetch_raw(_http_source("http://127.0.0.1:1/events"), ANY_GEO, ANY_TIME)


def test_http_get_appends_the_encoded_query_to_the_one_in_the_url(http_server):
    http_server.body = b"[]"
    geo = GeoScope(categorical=CategoricalScope(city="Málaga"))
    assert fetch_raw(_http_source(f"{http_server.url}/events?k=1"), geo, ANY_TIME) == []
    http_server.body = json.dumps({"lat": 36.72, "lon": -4.42}).encode()
    HttpGeocoder(f"{http_server.url}/geocode").resolve("Av. X 1, Málaga")
    assert http_server.paths == [
        "/events?k=1&city=M%C3%A1laga&start=2017-03-01T00%3A00%3A00Z&end=2017-04-24T00%3A00%3A00Z",
        "/geocode?q=Av.+X+1%2C+M%C3%A1laga",
    ]


@pytest.mark.parametrize("status", [404, 503])
def test_http_error_status_is_a_failure_on_both_paths(http_server, status, caplog):
    http_server.status = status
    http_server.body = json.dumps({"lat": 36.72, "lon": -4.42}).encode()
    with pytest.raises(SourceUnreachable, match=f"source 'web' unreachable: HTTP Error {status}"):
        fetch_raw(_http_source(f"{http_server.url}/events"), ANY_GEO, ANY_TIME)
    with caplog.at_level("WARNING", logger="eventcell.ingest"):
        assert HttpGeocoder(f"{http_server.url}/geocode").resolve("Av. X 1") is None
    assert f"HTTP Error {status}" in caplog.text


def test_http_body_cut_short_is_a_failure_on_both_paths(http_server, caplog):
    http_server.body = b'{"lat": 36.72, '
    http_server.length = 100
    with pytest.raises(SourceUnreachable, match="IncompleteRead"):
        fetch_raw(_http_source(f"{http_server.url}/events"), ANY_GEO, ANY_TIME)
    with caplog.at_level("WARNING", logger="eventcell.ingest"):
        assert HttpGeocoder(f"{http_server.url}/geocode").resolve("Av. X 1") is None
    assert "IncompleteRead" in caplog.text


def test_http_feed_body_not_utf8_is_malformed(http_server):
    http_server.body = b'{"title": "ok", "when": "2017-03-01T20:00Z"}\n{"title": "caf\xe9"}\n'
    locator = f"{http_server.url}/events"
    with pytest.raises(MalformedPayload, match=f"source 'web': {locator} line 2: not valid UTF-8"):
        fetch_raw(_http_source(locator), ANY_GEO, ANY_TIME)


def test_http_get_rejects_a_url_that_is_not_http():
    with pytest.raises(SourceUnreachable, match="not an http or https URL"):
        fetch_raw(_http_source("ftp://127.0.0.1:1/events"), ANY_GEO, ANY_TIME)


def _http_config(tmp_path, locators, geocoder=None, feed=None):
    """A run config over HTTP sources at ``locators`` and, when given, one
    file source holding the ``feed`` records."""
    sources = [{"source_id": f"web{i}", "kind": "http", "locator": locator,
                "format": "json_records",
                "field_map": {"title": "NAME", "when": "START_TIME", "place": "VENUE"}}
               for i, locator in enumerate(locators)]
    if feed is not None:
        (tmp_path / "feed.ndjson").write_text("".join(json.dumps(r) + "\n" for r in feed))
        sources.append({"source_id": "file", "kind": "file", "locator": "feed.ndjson",
                        "format": "json_records",
                        "field_map": {"title": "NAME", "when": "START_TIME", "place": "VENUE",
                                      "lat": "LAT", "lon": "LON"}})
    config = {
        "sources": sources,
        "geocoder": geocoder,
        "filter": {"geo": {"box": [36.0, 37.0, -5.0, -4.0]},
                   "time": {"start": "2017-03-01T00:00:00Z", "end": "2017-04-01T00:00:00Z"}},
        "paths": {"output": "out"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_ingest_exits_1_when_an_http_feed_is_not_utf8(http_server, tmp_path, capsys):
    from eventcell.cli import main

    http_server.body = b'{"title": "caf\xe9", "when": "2017-03-01T20:00Z"}\n'
    assert main(["ingest", "--config", _http_config(tmp_path, [f"{http_server.url}/e"])]) == 1
    assert "source 'web0'" in capsys.readouterr().err


def test_ingest_exits_2_when_every_http_source_fails(http_server, tmp_path, capsys, caplog):
    from eventcell.cli import main

    http_server.status = 503
    config = _http_config(tmp_path, [f"{http_server.url}/a", "http://127.0.0.1:1/b"])
    with caplog.at_level("WARNING", logger="eventcell.cli"):
        assert main(["ingest", "--config", config]) == 2
    assert "source 'web0' unreachable: HTTP Error 503" in caplog.text
    assert "source 'web1' unreachable" in caplog.text
    assert "every configured source failed" in capsys.readouterr().err


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


def test_parse_builds_no_address_without_address_parts():
    event = parse_record({"title": "Concert A", "when": "2017-03-01T20:00Z", "region": " "}, CFG)
    assert event.address is None
    event = parse_record({"title": "Concert A", "when": "2017-03-01T20:00Z",
                          "region": " Costaluna "}, CFG)
    assert event.address == Address(region="Costaluna") and type(event.address) is Address


@pytest.mark.parametrize("field", ["lat", "tickets"])
def test_parse_an_int_beyond_float_range_is_an_invariant_error(field):
    record = {"title": "X", "when": "2017-03-01T20:00Z", "lat": 1, "lon": 2, field: 10**400}
    with pytest.raises(InvariantError, match="is not numeric"):
        parse_record(record, CFG)


def test_source_config_keeps_its_zone_and_field_plan():
    cfg = replace(CFG, timezone="+02:00")
    assert cfg.zone == timezone(timedelta(hours=2)) and CFG.zone is UTC
    assert cfg == replace(CFG, timezone="+02:00") and cfg != CFG
    assert ("kind", "CATEGORY", False) in cfg.field_plan
    assert ("lat", "LAT", True) in cfg.field_plan
    assert [src for src, _, _ in cfg.field_plan] == list(CFG.field_map)


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


def test_consolidate_fills_text_into_the_parts_already_set():
    event = make_event(lat=None, lon=None, venue="Av. X 1, Malaga",
                       address=Address(street="Av. X 1", city="Malaga"))
    resolved = consolidate(event, STUB)
    assert type(resolved.address) is Address
    assert resolved.address == Address("Av. X 1", "Malaga", text="Avenida X 1, Malaga")


def test_address_is_a_named_tuple_not_a_dataclass():
    # so dataclasses.replace and asdict cannot be used on one: _replace and
    # _asdict are its ways to derive
    address = Address(city="Malaga")
    assert isinstance(address, tuple) and not is_dataclass(address)
    with pytest.raises(TypeError):
        replace(address, text="x")
    with pytest.raises(TypeError):
        asdict(address)
    assert address._replace(text="x") == Address(city="Malaga", text="x")


def test_consolidate_unresolvable_unchanged(caplog):
    event = make_event(lat=None, lon=None, address=Address(text="nowhere at all"))
    with caplog.at_level("INFO", logger="eventcell.ingest"):
        resolved = consolidate(event, STUB)
    assert resolved == event
    assert any("geocoding failed" in r.message for r in caplog.records)


class _CountingGeocoder:
    def __init__(self, geocoder):
        self.geocoder = geocoder
        self.calls = Counter()

    def resolve(self, query):
        self.calls[query] += 1
        return self.geocoder.resolve(query)


def test_memo_geocoder_sends_each_distinct_query_once():
    events = [
        make_event(raw_id="1", lat=None, lon=None, address=Address(text="Av. X 1, Malaga")),
        make_event(raw_id="2", lat=None, lon=None, venue="Av. X 1, Malaga"),
        # a miss, then a hit on the venue; both repeat below
        make_event(raw_id="3", lat=None, lon=None, address=Address(text="nowhere"),
                   venue="Av. X 1, Malaga"),
        make_event(raw_id="4", lat=None, lon=None, address=Address(text="nowhere")),
        make_event(raw_id="5", lat=None, lon=None, address=Address(text="nowhere"),
                   venue="Av. X 1, Malaga"),
        make_event(raw_id="6", address=Address(text="elsewhere")),  # has coordinates: not asked
    ]
    counting = _CountingGeocoder(STUB)
    memo = MemoGeocoder(counting)
    assert [consolidate(e, memo) for e in events] == [consolidate(e, STUB) for e in events]
    assert counting.calls == Counter({"Av. X 1, Malaga": 1, "nowhere": 1})


def test_fixture_geocoder_from_csv(tmp_path):
    table = tmp_path / "geo.csv"
    table.write_text('query,lat,lon,normalized_address\n"Av. X 1, Malaga",36.72,-4.42,"Avenida X 1"\n')
    geocoder = FixtureGeocoder.from_csv(table)
    assert geocoder.resolve("av x 1 malaga") == (36.72, -4.42, "Avenida X 1")
    assert geocoder.resolve("unknown") is None


@pytest.mark.parametrize("row, words", [
    ("A,inf,1,x", "lat is not finite: 'inf'"),
    ("B,95,2,y", "coordinates out of range"),
    ("C,1_0,3,z", "lat is not numeric: '1_0'"),
    ("D,abc,3,z", "lat is not numeric: 'abc'"),
    ("E,1,nan,z", "lon is not finite: 'nan'"),
    ("F,1,-181,z", "coordinates out of range"),
    ("G,1,2", "expected 4 fields"),
    ("H,1,2,z,w", "expected 4 fields"),
], ids=["lat-inf", "lat-95", "lat-separator", "lat-text", "lon-nan", "lon-181", "short", "long"])
def test_fixture_geocoder_table_is_checked_when_loaded(tmp_path, row, words):
    # the bad row is on physical line 5, after a quoted field that spans two lines
    table = tmp_path / "geo.csv"
    table.write_text(f'query,lat,lon,normalized_address\nok,36.72,-4.42,Fine\n'
                     f'"two\nlines",1,2,X\n{row}\n', encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        FixtureGeocoder.from_csv(table)
    assert str(info.value) == f"{table} line 5: {words}"


def test_http_geocoder(http_server):
    http_server.body = json.dumps(
        {"lat": 36.72, "lon": -4.42, "normalized_address": "Avenida X 1"}).encode()
    client = HttpGeocoder(f"{http_server.url}/geocode")
    assert client.resolve("Av. X 1") == (36.72, -4.42, "Avenida X 1")


def test_http_geocoder_answer_may_start_with_a_byte_order_mark(http_server):
    client = HttpGeocoder(f"{http_server.url}/geocode")
    body = json.dumps({"lat": 36.7, "lon": -4.4, "normalized_address": "X"}).encode()
    http_server.body = body
    plain = client.resolve("Av. X 1")
    http_server.body = "\ufeff".encode() + body
    assert client.resolve("Av. X 1") == plain == (36.7, -4.4, "X")


def test_http_geocoder_failure_is_none():
    client = HttpGeocoder("http://127.0.0.1:1/geocode", timeout=0.2)
    assert client.resolve("anything") is None


@pytest.mark.parametrize("answer, resolved", [
    ({"lat": 36.7, "lon": -4.4, "normalized_address": None}, (36.7, -4.4, "Av. X 1")),
    ({"lat": 36.7, "lon": -4.4}, (36.7, -4.4, "Av. X 1")),
    ({"lat": "36.72", "lon": " -4.42", "normalized_address": "Avenida X 1"},
     (36.72, -4.42, "Avenida X 1")),
    ({"lat": 36, "lon": -4}, (36.0, -4.0, "Av. X 1")),
    ({"lat": -90, "lon": "180"}, (-90.0, 180.0, "Av. X 1")),
])
def test_http_geocoder_reads_numbers_and_numeric_strings(http_server, answer, resolved):
    http_server.body = json.dumps(answer).encode()
    assert HttpGeocoder(f"{http_server.url}/geocode").resolve("Av. X 1") == resolved


@pytest.mark.parametrize("body", [
    b'{"lat": "abc", "lon": -4.4}',
    b'{"lat": [1], "lon": -4.4}',
    b'{"lat": 36.7, "lon": {}}',
    b'{"lat": true, "lon": -4.4}',
    b'{"lat": 36.7, "lon": NaN}',
    b'{"lat": "inf", "lon": -4.4}',
    b'{"lat": 1e400, "lon": -4.4}',
    b'{"lat": 1' + b"0" * 400 + b', "lon": -4.4}',
    b'{"lat": 95.0, "lon": -4.4}',
    b'{"lat": "-90.5", "lon": -4.4}',
    b'{"lat": 36.7, "lon": 180.01}',
], ids=["unreadable", "array", "object", "boolean", "nan", "inf-string", "float-overflow",
        "int-overflow", "lat-above-90", "lat-string-below-90", "lon-above-180"])
def test_http_geocoder_unusable_coordinates_are_a_failed_lookup(http_server, body, caplog):
    http_server.body = body
    with caplog.at_level("WARNING", logger="eventcell.ingest"):
        assert HttpGeocoder(f"{http_server.url}/geocode").resolve("Av. X 1") is None
    assert "no usable coordinates" in caplog.text


@pytest.mark.parametrize("body", [b"[36.7, -4.4]", b"{}", b'{"lat": null, "lon": -4.4}'])
def test_http_geocoder_answer_without_coordinates_is_a_miss(http_server, body, caplog):
    http_server.body = body
    with caplog.at_level("WARNING", logger="eventcell.ingest"):
        assert HttpGeocoder(f"{http_server.url}/geocode").resolve("Av. X 1") is None
    assert not caplog.records


def test_ingest_survives_a_malformed_geocoder_answer(http_server, tmp_path, capsys):
    from eventcell.cli import main

    http_server.body = b'{"lat": "abc", "lon": -4.4}'
    feed = [{"title": "Gig", "when": "2017-03-02T20:00Z", "place": "Sala X"}]
    config = _http_config(tmp_path, [], geocoder={"kind": "http", "endpoint": http_server.url},
                          feed=feed)
    assert main(["ingest", "--config", config]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "fused: 1" in captured.out
    assert http_server.paths == ["/?q=Sala+X"]
    [record] = map(json.loads, (tmp_path / "out" / "events.ndjson").read_text().splitlines())
    assert "LAT" not in record and record["VENUE"] == "Sala X"


def test_ingest_survives_a_geocoder_answer_out_of_range(http_server, tmp_path, capsys):
    from eventcell.cli import main

    http_server.body = b'{"lat": 95.0, "lon": -4.4}'
    feed = [{"title": "Gig", "when": "2017-03-02T20:00Z", "place": "Sala X"},
            {"title": "Derby", "when": "2017-03-04T18:00Z", "place": "Stadium",
             "lat": 36.73, "lon": -4.43}]
    config = _http_config(tmp_path, [], geocoder={"kind": "http", "endpoint": http_server.url},
                          feed=feed)
    assert main(["ingest", "--config", config]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "fused: 2" in captured.out
    assert http_server.paths == ["/?q=Sala+X"]
    records = [json.loads(line)
               for line in (tmp_path / "out" / "events.ndjson").read_text().splitlines()]
    assert [(r["NAME"], r.get("LAT"), r.get("LON")) for r in records] == [
        ("Gig", None, None), ("Derby", 36.73, -4.43)]


def test_importing_the_cli_leaves_urllib_request_unloaded(tmp_path):
    """A CLI start, reading the config and a whole ingest + filter run load
    neither numpy nor the layers that need it, nor the HTTP client."""
    import eventcell
    from eventcell.cli import main

    assert main(["simulate", "--preset", "funnel", "--out", str(tmp_path)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(eventcell.__file__).parents[1]), env.get("PYTHONPATH", "")])
    unloaded = ["numpy", "eventcell.association", "eventcell.network", "eventcell.scenario",
                "urllib.request", "http.client"]
    config = str(tmp_path / "config.json")
    code = ("import sys, eventcell.cli as cli\n"
            "loaded = [set(sys.modules)]\n"
            "cli.load_config(sys.argv[1])\n"
            "loaded.append(set(sys.modules))\n"
            "for stage in ('ingest', 'filter'):\n"
            "    assert cli.main([stage, '--config', sys.argv[1]]) == 0\n"
            "loaded.append(set(sys.modules))\n"
            f"print([sorted(set({unloaded!r}) & names) for names in loaded])")
    result = subprocess.run([sys.executable, "-c", code, config], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip().splitlines()[-1] == "[[], [], []]"


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def test_similarity_normalization_identity():
    assert similarity("Concert A", "concert a") == 1.0
    assert similarity("Café Müller!", "cafe muller") == 1.0


def _nfkd_normalize_text(text):
    """``normalize_text`` as it was before its ASCII fast path: NFKD for every text."""
    decomposed = unicodedata.normalize("NFKD", text)
    no_marks = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    cleaned = "".join(ch if ch.isalnum() else " " for ch in no_marks.lower())
    return " ".join(cleaned.split())


# all of ASCII, drawing more often the controls that str.split() takes for
# whitespace (\x0b, \x0c, \x1c-\x1f) and \x7f, which is neither space nor letter
_ASCII_TEXT = st.text(alphabet=st.one_of(st.characters(max_codepoint=127),
                                         st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x1f\x7f")))
# the same with letters that NFKD decomposes or folds, combining marks,
# non-ASCII digits and spaces, and any other character
_MIXED_TEXT = st.text(alphabet=st.one_of(
    st.characters(max_codepoint=127),
    st.sampled_from("éÉñÅßİﬁ²½\u0301\u0308\u00a0\u2028\u3000٣Ⅻ"),
    st.characters()))


@pytest.mark.seeded
@settings(max_examples=300)
@given(st.one_of(_ASCII_TEXT, _MIXED_TEXT))
@example("\x0bRock\x0cFest\x1c2017\x1d\x1e\x1f\x7f!")
@example("  Café   Müller!! ")
@example("İstanbul ﬁesta ½")
def test_normalize_text_fast_path_matches_nfkd_reference(text):
    assert normalize_text(text) == _nfkd_normalize_text(text)


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
    """Two strings and a cutoff. Lengths reach 130 characters, so the first
    string's bit masks span one to five 30-bit digits of a CPython int; half
    the time the second string is the first with one stretch rewritten, so
    long pairs do not all differ in length by more than the cutoff."""
    # a combining acute and an astral guitar in a small alphabet, so they repeat;
    # None: any unicode
    alphabet = draw(st.sampled_from(["ab", "abc ", "ae\u0301\U0001f3b8", None]))

    def text(min_size=0, max_size=8):
        return st.text(alphabet=alphabet, min_size=min_size, max_size=max_size) \
            if alphabet else st.text(min_size=min_size, max_size=max_size)

    sizes = draw(st.sampled_from([(0, 24), (25, 64), (65, 130)]))
    a = draw(text(*sizes))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(a)))
        j = draw(st.integers(i, min(len(a), i + 8)))
        b = a[:i] + draw(text()) + a[j:]
    else:
        b = draw(text(*sizes))
    return a, b, draw(st.integers(0, max(len(a), len(b)) + 2))


def _bounded_levenshtein(a: str, b: str, k: int) -> int:
    """Edit distance of ``a`` and ``b`` when it is at most ``k``, else ``k + 1``."""
    return _masked_levenshtein(_char_masks(a), len(a), b, k)


@pytest.mark.seeded
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


@pytest.mark.seeded
@settings(max_examples=500)
@given(_strings_and_cutoff())
@example(("ab", "xyz", 4))  # shorter than k + 1 pieces: empty pieces occur in every string
@example(("", "abc", 1))
@example(("abc", "abd", 0))  # k = 0: the one piece is the whole string
@example(("abc", "abc", 0))
@example(("kitten", "sitting", 2))
def test_partition_filter_rejects_only_distances_above_cutoff(case):
    a, b, k = case
    pieces = _pieces(a, k)
    assert len(pieces) == k + 1 and "".join(pieces) == a
    if not any(piece in b for piece in pieces):
        assert _levenshtein(a, b) > k


@st.composite
def _one_edit_apart(draw):
    """A string from ``_strings_and_cutoff`` and that string after one
    substitution, insertion or deletion, which may leave it as it was."""
    a, _, k = draw(_strings_and_cutoff())
    pool = a + "ab\u0301"
    i = draw(st.integers(0, len(a)))
    op = draw(st.sampled_from(["sub", "ins", "del"] if i < len(a) else ["ins"]))
    middle = "" if op == "del" else draw(st.sampled_from(pool))
    return a, a[:i] + middle + a[i + (op != "ins"):], k


@pytest.mark.seeded
@settings(max_examples=500)
@given(st.one_of(_strings_and_cutoff(), _one_edit_apart()))
@example(("", "", 0))
@example(("", "a", 0))
@example(("abc", "abd", 0))
@example(("abc", "ab", 0))
@example(("abc", "xabc", 0))
@example(("aab", "ab", 0))  # the first mismatch is after the deleted character
@example(("ab", "ba", 0))  # equal lengths, two mismatches: distance 2
@example(("abc", "cab", 0))  # lengths differ by one and the rest disagrees: distance 2
@example(("\U0001f3b8e", "e\u0301", 0))
def test_one_edit_test_holds_exactly_at_distance_one(case):
    a, b, _ = case
    assert _one_edit(a, b) == _one_edit(b, a) == (_levenshtein(a, b) == 1)


@pytest.mark.seeded
@settings(max_examples=500)
@given(_strings_and_cutoff())
@example(("abcdefgh", "efghabcd", 2))  # pieces occur, but none near its own offset
@example(("ab", "xyz", 4))  # shorter than k + 3 pieces: empty pieces occur in every window
@example(("", "abc", 3))
@example(("abc", "abd", 0))
@example(("abcdef", "xxabcdef", 2))  # every piece shifted by k
@example(("xxabcdef", "abcdef", 2))
@example(("kitten", "sitting", 3))
def test_positional_filter_rejects_only_distances_above_cutoff(case):
    a, b, k = case
    pieces, lows, highs = _windows(a, k)
    assert len(pieces) == k + 3 and "".join(pieces) == a
    if list(map(b.find, pieces, lows, highs)).count(-1) > k:
        assert _levenshtein(a, b) > k


def _oracle_merge_group(members, priorities):
    """One duplicate group merged as specified, field by field by name."""
    if len(members) == 1:
        return members[0]
    ranked = sorted(
        members,
        key=lambda e: (-priorities.get(e.source_id, 0), e.start_time, e.event_id),
    )
    winner = ranked[0]
    notes = {note for member in members for note in member.merge_notes}

    chosen = {}
    for name in ("name", "start_time", "end_time", "lat", "lon", "venue", "address", "category",
                 "popularity"):
        value = None
        for member in ranked:
            candidate = getattr(member, name)
            if candidate is None:
                continue
            if name == "end_time" and "start_time" in chosen:
                if candidate <= chosen["start_time"]:
                    notes.add(f"end_time: discarded {format_rfc3339(candidate)} from "
                              f"{member.source_id} (precedes merged start)")
                    continue
            if value is None:
                value = candidate
            elif candidate != value:
                shown = format_rfc3339(candidate) if isinstance(candidate, datetime) else repr(candidate)
                notes.add(f"{name}: discarded {shown} from {member.source_id}")
        chosen[name] = value

    return winner._replace(merge_notes=tuple(sorted(notes)), **chosen)


def _oracle_fusion(events, name_threshold=0.85, time_tolerance=timedelta(minutes=30),
                   priorities=None):
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
    merged = [_oracle_merge_group(m, priorities or {}) for m in members.values()]
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


@pytest.mark.seeded
@settings(max_examples=300)
@given(_near_duplicate_events())
def test_fuse_matches_full_distance_oracle(case):
    threshold, events = case
    assert fuse_sources(events, name_threshold=threshold) == _oracle_fusion(events, threshold)


_WORDS = ["jazz", "rock", "costa", "sol", "feria", "noche", "gala", "teatro"]


@st.composite
def _feed_shaped_events(draw):
    """Designed events and their copies as feeds deliver them. Each of up to
    three copies keeps the designed name, changes its case or changes one
    letter, starts up to 12 minutes from the designed start and carries its
    own source's fields. Names are one to three words from a small list
    before one trailing word they all share, and every start falls within
    one window, so distinct events share a word pair by pair."""
    threshold = draw(st.sampled_from([0.85, 0.9, 0.7]))
    tail = draw(st.sampled_from(_WORDS))
    events = []
    for e in range(draw(st.integers(1, 6))):
        name = " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3)) + [tail])
        start = T0 + timedelta(minutes=draw(st.integers(0, 30)))
        for c in range(draw(st.integers(1, 3))):
            copy = name
            kind = draw(st.sampled_from(["same", "case", "spelling"]))
            if kind == "case":
                copy = draw(st.sampled_from([name.upper(), name.title(), name + "!"]))
            elif kind == "spelling":
                i = draw(st.integers(0, len(name) - 1))
                op = draw(st.sampled_from(["sub", "ins", "del"]))
                letter = draw(st.sampled_from("aeiouxz"))
                copy = name[:i] + ("" if op == "del" else letter) + name[i + (op != "ins"):]
            copy_start = start + timedelta(minutes=draw(st.sampled_from([-12, -5, 0, 5, 12])))
            # an end 5 minutes after the designed start may precede or equal
            # another copy's start, which a merge then discards
            end = draw(st.sampled_from([None, start + timedelta(minutes=5),
                                        copy_start + timedelta(hours=2)]))
            lat = draw(st.sampled_from([None, 36.72, 36.73]))
            events.append(make_event(
                raw_id=f"{e}.{c}", source_id=f"s{c}", name=copy, start=copy_start,
                end=end if end is not None and end > copy_start else None,
                lat=lat, lon=None if lat is None else -4.42,
                venue=draw(st.sampled_from([None, "Teatro Cervantes", "teatro cervantes"])),
                category=draw(st.sampled_from([None, "music", "Concert"])),
                popularity=draw(st.sampled_from([None, 120.0, 3000.0]))))
    priorities = draw(st.sampled_from([{}, {"s2": 2, "s0": 1}]))
    return threshold, priorities, events


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(_feed_shaped_events())
def test_fuse_feed_shaped_events_match_full_distance_oracle(case):
    threshold, priorities, events = case
    assert (fuse_sources(events, name_threshold=threshold, priorities=priorities)
            == _oracle_fusion(events, threshold, priorities=priorities))


def test_fuse_long_names_match_full_distance_oracle():
    """Names of 70 characters, whose bit masks are wider than a 64-bit word.
    At 0.9, 7 edits of 70 sit exactly on the threshold and 8 fall below it."""
    base = "festival internacional de musica y artes escenicas de la costa del sol"
    assert len(base) == 70

    def edited(n, offset):  # n substitutions, 9 apart
        return "".join("x" if i % 9 == offset and i // 9 < n else ch for i, ch in enumerate(base))

    names = [base, edited(7, 0), edited(8, 4), base[:-1], base.upper() + "!"]
    events = [make_event(raw_id=str(i), source_id=f"s{i}", name=name,
                         start=T0 + timedelta(minutes=5 * i)) for i, name in enumerate(names)]
    fused = fuse_sources(events, name_threshold=0.9)
    assert fused == _oracle_fusion(events, 0.9)
    assert sorted(len(e.merge_notes) > 0 for e in fused) == [False, True]  # edited(8) alone


@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_fuse_short_names_match_full_distance_oracle(threshold):
    """Names shorter than the k + 1 pieces they are cut into, so some pieces
    are empty; at 0.0 every pair in a window is a duplicate."""
    names = ["a", "B", "ab", "xyz", "q!", "abcd", "zz", "a b"]
    events = [make_event(raw_id=str(i), source_id=f"s{i % 2}", name=name,
                         start=T0 + timedelta(minutes=7 * i)) for i, name in enumerate(names)]
    fused = fuse_sources(events, name_threshold=threshold)
    assert fused == _oracle_fusion(events, threshold)
    if threshold == 0.0:  # starts 7 minutes apart chain into one group
        assert len(fused) == 1


@pytest.mark.parametrize("threshold", [0.7, 0.85])
def test_fuse_names_sharing_words_in_one_window_match_full_distance_oracle(threshold):
    """Forty events within half an hour whose names share words, so most
    pairs that the length test lets through also pass the partition filter
    and reach the edit distance."""
    words = ["musica", "jazz", "rock", "del", "sol", "costa"]
    names = [f"festival de {words[i % 6]} {words[i // 6 % 6]} {i % 4}" for i in range(40)]
    events = [make_event(raw_id=str(i), source_id=f"s{i % 3}", name=name,
                         start=T0 + timedelta(seconds=45 * i)) for i, name in enumerate(names)]
    passed = checked = 0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            k = int((1.0 - threshold) * max(len(a), len(b))) + 1
            if a != b and abs(len(a) - len(b)) <= k:
                checked += 1
                passed += any(piece in b for piece in _pieces(a, k))
    assert passed > checked / 2
    fused = fuse_sources(events, name_threshold=threshold)
    assert fused == _oracle_fusion(events, threshold)
    assert len(fused) < len(events)


@pytest.mark.parametrize("tolerance", [DEFAULT_TIME_TOLERANCE, timedelta(minutes=10**9)])
def test_fuse_near_the_end_of_time_matches_full_distance_oracle(tolerance):
    """A window that reaches past 9999-12-31 raises no OverflowError."""
    starts = ["9999-12-31T23:59:00Z", "9999-12-31T23:50:00Z", "9999-12-31T23:59:00Z",
              "9000-06-01T12:00:00Z", "8000-01-01T00:00:00Z", "2017-03-01T20:00:00Z"]
    names = ["Last Dance", "last dance!", "Final Show", "Last Dance", "Last Dancer", "Last Dance"]
    events = [make_event(raw_id=str(i), source_id=f"s{i % 2}", name=name,
                         start=parse_rfc3339(start)) for i, (name, start)
              in enumerate(zip(names, starts))]
    fused = fuse_sources(events, time_tolerance=tolerance)
    assert fused == _oracle_fusion(events, time_tolerance=tolerance)
    assert len(fused) == (5 if tolerance == DEFAULT_TIME_TOLERANCE else 3)


@pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
def test_fuse_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(ConfigError, match=r"^fusion\.name_threshold .* outside \[0, 1\]$"):
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

def event_to_record(event: SocialEvent) -> dict:
    """The event's canonical record as a dict, absent fields left out: what
    ``write_events`` renders each line from, as the stdlib encoder writes it."""
    record: dict = {"EVENT_ID": event.event_id, "NAME": event.name,
                    "START_TIME": format_rfc3339(event.start_time)}
    if event.end_time is not None:
        record["END_TIME"] = format_rfc3339(event.end_time)
    if event.lat is not None:
        record["LAT"] = event.lat
        record["LON"] = event.lon
    if event.venue is not None:
        record["VENUE"] = event.venue
    address = address_record(event.address)
    if address is not None:
        record["ADDRESS"] = address
    if event.category is not None:
        record["CATEGORY"] = event.category
    if event.popularity is not None:
        record["POPULARITY"] = event.popularity
    record["SOURCE_ID"] = event.source_id
    record["RAW_ID"] = event.raw_id
    if event.merge_notes:
        record["MERGE_NOTES"] = list(event.merge_notes)
    return record


# Text the renderer must escape as the stdlib does: quotes, backslashes,
# control characters, U+2028/U+2029 (raw in JSON, line ends elsewhere) and
# non-ASCII; no lone surrogate, which SocialEvent refuses.
_RENDER_TEXT = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\u2029", "\x85", "é", "😍"]), max_size=8)
_RENDER_LAT = st.floats(-90, 90) | st.integers(-90, 90) | st.sampled_from([-0.0, 5e-324, -90])
_RENDER_LON = st.floats(-180, 180) | st.integers(-180, 180) | st.sampled_from([-0.0, 180.0])
_RENDER_POPULARITY = (st.floats(0, 1e300) | st.integers(0, 10**400)
                      | st.sampled_from([-0.0, 1e300, 1.7976931348623157e308, 10**30]))


@st.composite
def _rendered_events(draw):
    """Events with every optional field absent or set, each ADDRESS part
    subset, int and float numbers and times with and without microseconds."""
    start = T0 + timedelta(microseconds=draw(st.sampled_from([0, 1, 999_999, 86_400 * 10**6])
                                             | st.integers(0, 10**13)))
    end = draw(st.none() | st.integers(1, 10**11).map(lambda us: start + timedelta(microseconds=us)))
    lat, lon = draw(st.just((None, None)) | st.tuples(_RENDER_LAT, _RENDER_LON))
    address = draw(st.none() | st.builds(Address, *[st.none() | _RENDER_TEXT] * 5))
    return SocialEvent(
        draw(_RENDER_TEXT), draw(_RENDER_TEXT), start, draw(_RENDER_TEXT), draw(_RENDER_TEXT),
        end, lat, lon, draw(st.none() | _RENDER_TEXT), address, draw(st.none() | _RENDER_TEXT),
        draw(st.none() | _RENDER_POPULARITY),
        tuple(draw(st.lists(_RENDER_TEXT, max_size=3))))


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(events=st.lists(_rendered_events(), max_size=4))
def test_write_events_matches_the_stdlib_encoder(events):
    written = {}
    with mock.patch("eventcell.ingest.atomic_write_text",
                    lambda path, text: written.update(text=text)):
        write_events(events, "x")
    assert written["text"] == "".join(
        json.dumps(event_to_record(e), ensure_ascii=False, allow_nan=False) + "\n"
        for e in events)


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


# ---------------------------------------------------------------------------
# canonical reader against the frozen-dataclass reader
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OracleEvent:
    """The event type as a frozen dataclass, with the checks ``SocialEvent`` runs."""

    event_id: str
    name: str
    start_time: datetime
    source_id: str
    raw_id: str
    end_time: Optional[datetime] = None
    lat: Optional[float] = None
    lon: Optional[float] = None
    venue: Optional[str] = None
    address: Optional[Address] = None
    category: Optional[str] = None
    popularity: Optional[float] = None
    merge_notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.start_time.tzinfo is None:
            raise InvariantError(f"{self.event_id}: start_time must be timezone-aware")
        if self.end_time is not None and self.end_time <= self.start_time:
            raise InvariantError(f"{self.event_id}: end_time not after start_time")
        if (self.lat is None) != (self.lon is None):
            raise InvariantError(f"{self.event_id}: lat and lon must be set together")
        if self.lat is not None and not -90.0 <= self.lat <= 90.0:
            raise InvariantError(f"{self.event_id}: latitude {self.lat} out of range")
        if self.lon is not None and not -180.0 <= self.lon <= 180.0:
            raise InvariantError(f"{self.event_id}: longitude {self.lon} out of range")
        if self.popularity is not None and not 0.0 <= self.popularity < math.inf:
            raise InvariantError(f"{self.event_id}: popularity {self.popularity} is not a "
                                 "finite number >= 0")
        texts = [self.event_id, self.name, self.source_id, self.raw_id, self.venue,
                 self.category, *self.merge_notes]
        if self.address is not None:
            texts += [getattr(self.address, part) for part in
                      ("street", "city", "region", "country", "text")]
        try:
            "".join(text for text in texts if text is not None).encode()
        except UnicodeEncodeError:
            raise InvariantError("a text field holds a lone surrogate, which UTF-8 cannot "
                                 "encode") from None


def _oracle_event_from_record(record, parse_time):
    if not isinstance(record, dict):
        raise SchemaError(f"expected an object, not {_json_type(record)}")
    for key, value in record.items():
        types = _FIELD_TYPES.get(key)
        if types and type(value) not in types:
            expected = " or ".join(sorted({_JSON_NAMES[kind] for kind in types}))
            raise SchemaError(f"field {key} must be {expected}, not {_json_type(value)}")
    address = None
    raw_address = record.get("ADDRESS")
    if raw_address is not None:
        parts = [raw_address.get(key) for key in ("STREET", "CITY", "REGION", "COUNTRY", "TEXT")]
        if not all(part is None or type(part) is str for part in parts):
            raise SchemaError("field ADDRESS must hold strings")
        address = Address(*parts)
    merge_notes = tuple(record.get("MERGE_NOTES") or ())
    if not all(type(note) is str for note in merge_notes):
        raise SchemaError("field MERGE_NOTES must hold strings")
    end = record.get("END_TIME")
    try:
        return _OracleEvent(
            event_id=record["EVENT_ID"],
            name=record["NAME"],
            start_time=parse_time(record["START_TIME"]),
            end_time=parse_time(end) if end is not None else None,
            lat=record.get("LAT"),
            lon=record.get("LON"),
            venue=record.get("VENUE"),
            address=address,
            category=record.get("CATEGORY"),
            popularity=record.get("POPULARITY"),
            source_id=record["SOURCE_ID"],
            raw_id=record["RAW_ID"],
            merge_notes=merge_notes,
        )
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]}") from None


def _oracle_read_events(path):
    """The canonical reader, line by line, building ``_OracleEvent``s."""
    text = Path(path).read_text(encoding="utf-8")
    events = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"),
                                  start=1):
        if not line.strip():
            continue
        try:
            events.append(_oracle_event_from_record(_STRICT_DECODER.decode(line), parse_rfc3339))
        except (json.JSONDecodeError, SchemaError, InvariantError, UnparseableTimestamp) as exc:
            raise SchemaError(f"{path} line {lineno}: bad canonical event record ({exc})") from None
    return events


def _read_outcome(read, path):
    """The fields of each event read, or the error's type and text."""
    try:
        return [tuple(getattr(event, name) for name in SocialEvent._fields)
                for event in read(path)]
    except SchemaError as exc:
        return f"SchemaError: {exc}"


_NAMES = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\r", " ", " ", "\x85", "😍"]), max_size=6)
_TIMES = st.sampled_from(["2017-03-01T20:00:00Z", "2017-03-01T22:00:00+02:00",
                          "2017-03-02T09:30:00.250Z", "2017-03-01T20:00:00", "soon", ""])
_WRONG = st.sampled_from([0, 1.5, True, None, "x", [], ["x"], {}, {"CITY": "x"}])
_PADS = st.sampled_from(["", "", "", "", " ", "\t ", "\u00a0", "\x0c"])


@st.composite
def _canonical_line(draw):
    """The text of one canonical record line: mostly valid, else with one
    flaw a reader must name (a wrong JSON type, a bad ADDRESS part or
    MERGE_NOTES item, a missing field, a NaN or Infinity token, a latitude
    of 95, an END_TIME not after START_TIME), or not an object at all; the
    record may stand between spaces."""
    record = {"EVENT_ID": "s/" + draw(_NAMES), "NAME": draw(_NAMES),
              "START_TIME": draw(_TIMES)}
    if draw(st.booleans()):
        record["END_TIME"] = draw(_TIMES | st.just("2017-03-02T23:00:00Z"))
    if draw(st.booleans()):
        record["LAT"] = draw(st.floats(-90, 90) | st.integers(-90, 90))
        record["LON"] = draw(st.floats(-180, 180))
    for key in ("VENUE", "CATEGORY"):
        if draw(st.booleans()):
            record[key] = draw(_NAMES)
    if draw(st.booleans()):
        record["ADDRESS"] = draw(st.dictionaries(
            st.sampled_from(["STREET", "CITY", "REGION", "COUNTRY", "TEXT", "ZIP"]), _NAMES))
    if draw(st.booleans()):
        record["POPULARITY"] = draw(st.floats(0, 1e9) | st.integers(0, 10**6))
    record["SOURCE_ID"], record["RAW_ID"] = "s", draw(_NAMES)
    if draw(st.booleans()):
        record["MERGE_NOTES"] = draw(st.lists(_NAMES, max_size=2))
    flaw = draw(st.sampled_from(["none"] * 6 + ["type", "part", "missing", "constant", "lat",
                                                 "end", "array", "garbage"]))
    keys = sorted(record)
    if flaw == "type":
        record[draw(st.sampled_from(keys))] = draw(_WRONG)
    elif flaw == "part":
        record[draw(st.sampled_from(["ADDRESS", "MERGE_NOTES"]))] = draw(st.sampled_from(
            [{"CITY": 5}, {"TEXT": None, "STREET": ["x"]}, ["a", None], [3]]))
    elif flaw == "missing":
        del record[draw(st.sampled_from(keys))]
    elif flaw == "constant":
        record[draw(st.sampled_from(["LAT", "POPULARITY", "EXTRA"]))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif flaw == "lat":
        record["LAT"], record["LON"] = 95, 0.0
    elif flaw == "end":
        record["START_TIME"] = "2017-03-01T20:00:00Z"
        record["END_TIME"] = draw(st.sampled_from(["2017-03-01T20:00:00Z", "2017-03-01T19:00:00Z"]))
    elif flaw == "array":
        return json.dumps(list(record))
    text = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if flaw == "garbage":
        text = text[: draw(st.integers(1, len(text) - 1))]
    # JSON whitespace around the record, else a space JSON does not allow
    # (U+00A0, form feed) or text after the record
    return draw(_PADS) + text + draw(_PADS | st.sampled_from([" x", "{}", "1"]))


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@example(lines=['{"EVENT_ID": "s/a", "NAME": "", "START_TIME": "2017-03-01T20:00:00Z", '
                '"END_TIME": "soon", "RAW_ID": "a"}'], ends=["\n"] * 6, final=True)
@example(lines=['{"EVENT_ID": "s/", "NAME": "", "START_TIME": "2017-03-01T20:00:00Z", '
                '"SOURCE_ID": "s", "RAW_ID": "\\ud800"}'], ends=["\n"] * 6, final=False)
@given(lines=st.lists(_canonical_line() | st.sampled_from(["", "  "]), max_size=6),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=6, max_size=6),
       final=st.booleans())
def test_read_events_matches_the_dataclass_reader(tmp_path_factory, lines, ends, final):
    text = "".join(line + end for line, end in zip(lines, ends))
    if not final:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.getbasetemp() / "drawn.ndjson"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        expected = _read_outcome(_oracle_read_events, path)
    except UnicodeDecodeError:  # a raw lone surrogate is not UTF-8; both readers refuse it
        with pytest.raises(SchemaError, match="not valid UTF-8"):
            read_events(path)
        return
    assert _read_outcome(read_events, path) == expected
    if not isinstance(expected, str):
        assert all(type(event) is SocialEvent for event in read_events(path))


def test_read_events_rejects_two_records_split_across_two_lines(tmp_path):
    # one decode of the joined lines would read these as two valid records
    first = json.dumps(event_to_record(make_event(raw_id="a")))
    second = json.dumps(event_to_record(make_event(raw_id="b")) | {"MERGE_NOTES": ["x", "y"]})
    split = second.index('"y"')
    path = tmp_path / "events.ndjson"
    path.write_text(f"{first}, {second[:split]}\n{second[split:]}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"line 1: bad canonical event record \\(Extra data"):
        read_events(path)


def test_events_are_immutable():
    event = make_event()
    with pytest.raises(AttributeError):
        event.lat = 0.0
    with pytest.raises(AttributeError):
        event.extra = 1


def test_every_way_to_build_an_event_validates():
    event = make_event()
    with pytest.raises(InvariantError, match="latitude 95"):
        event._replace(lat=95.0)
    with pytest.raises(InvariantError, match="latitude 95"):
        SocialEvent._make((*event[:6], 95.0, *event[7:]))
    with pytest.raises(TypeError, match="unexpected field"):
        event._replace(latitude=0.0)
    assert event._replace(venue="Plaza") == make_event(venue="Plaza")


def test_consolidate_validates_the_geocoder_answer():
    wild = FixtureGeocoder({normalize_text("Av. X 1, Malaga"): (95.0, -4.42, "Nowhere")})
    event = make_event(lat=None, lon=None, address=Address(text="Av. X 1, Malaga"))
    with pytest.raises(InvariantError, match="latitude 95.0 out of range"):
        consolidate(event, wild)


def test_merge_group_output_is_validated():
    good = make_event(raw_id="1", source_id="s1")
    # built around the checks, as no constructor would
    bad = tuple.__new__(SocialEvent, (95.0 if name == "lat" else value for name, value
                                      in zip(good._fields, make_event(raw_id="2", source_id="s2"))))
    with pytest.raises(InvariantError, match="latitude 95.0 out of range"):
        _merge_group([good, bad], {"s2": 1})
