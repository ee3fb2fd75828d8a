"""Social-event acquisition: fetch raw records from configured sources, parse
them into the canonical event format, fill missing coordinates through a
geocoder, and fuse duplicate records across and within sources.

Sources are declarative: a :class:`SourceConfig` carries the locator, the
payload format and a field map from source field names to canonical names,
so new feeds are adapted by configuration rather than code.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import unicodedata
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, tzinfo
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol, Sequence

import requests

from .errors import (
    ConfigError,
    InvariantError,
    MalformedPayload,
    MissingRequiredField,
    SchemaError,
    SourceUnreachable,
)
from .fsutil import atomic_write_text
from .timeutil import format_rfc3339, parse_rfc3339, resolve_zone

logger = logging.getLogger(__name__)

# Canonical event field vocabulary. Sources map their own names onto these.
CANONICAL_FIELDS = frozenset(
    {
        "NAME",
        "START_TIME",
        "END_TIME",
        "LAT",
        "LON",
        "VENUE",
        "ADDRESS",
        "ADDRESS_STREET",
        "ADDRESS_CITY",
        "ADDRESS_REGION",
        "ADDRESS_COUNTRY",
        "CATEGORY",
        "POPULARITY",
        "RAW_ID",
    }
)
FIELD_ALIASES = {"TYPE": "CATEGORY"}
NUMERIC_FIELDS = frozenset({"LAT", "LON", "POPULARITY"})

DEFAULT_NAME_THRESHOLD = 0.85
DEFAULT_TIME_TOLERANCE = timedelta(minutes=30)


@dataclass(frozen=True)
class Address:
    """Structured postal details; every part is optional."""

    street: Optional[str] = None
    city: Optional[str] = None
    region: Optional[str] = None
    country: Optional[str] = None
    text: Optional[str] = None

    def is_empty(self) -> bool:
        return all(v is None for v in (self.street, self.city, self.region, self.country, self.text))


@dataclass(frozen=True)
class SocialEvent:
    """One event in the canonical internal format."""

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
        if self.popularity is not None and self.popularity < 0:
            raise InvariantError(f"{self.event_id}: negative popularity")

    def has_coordinates(self) -> bool:
        return self.lat is not None and self.lon is not None


@dataclass(frozen=True)
class SourceConfig:
    """Declarative description of one event source."""

    source_id: str
    kind: str  # "file" | "http"
    locator: str
    format: str  # "json_records" | "csv_records"
    field_map: Mapping[str, str]
    priority: int = 0
    timezone: str = "UTC"

    def __post_init__(self):
        if self.kind not in ("file", "http"):
            raise ConfigError(f"source '{self.source_id}': unknown kind {self.kind!r}")
        if self.format not in ("json_records", "csv_records"):
            raise ConfigError(f"source '{self.source_id}': unknown format {self.format!r}")
        if self.priority < 0:
            raise ConfigError(f"source '{self.source_id}': priority must be >= 0")
        mapped = set()
        for src_name, target in self.field_map.items():
            canon = FIELD_ALIASES.get(target, target)
            if canon not in CANONICAL_FIELDS:
                raise ConfigError(
                    f"source '{self.source_id}': field_map target {target!r} "
                    f"for {src_name!r} is not a canonical field"
                )
            mapped.add(canon)
        if not {"NAME", "START_TIME"} <= mapped:
            raise ConfigError(f"source '{self.source_id}': field_map must cover NAME and START_TIME")
        resolve_zone(self.timezone)  # fail fast on bad zone strings

    def zone(self) -> tzinfo:
        return resolve_zone(self.timezone)


@dataclass(frozen=True)
class CategoricalScope:
    country: Optional[str] = None
    region: Optional[str] = None
    city: Optional[str] = None


@dataclass(frozen=True)
class BoundingBox:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (-90.0 <= self.lat_min < self.lat_max <= 90.0):
            raise ConfigError(f"bad box latitudes [{self.lat_min}, {self.lat_max}]")
        if not (-180.0 <= self.lon_min < self.lon_max <= 180.0):
            raise ConfigError(f"bad box longitudes [{self.lon_min}, {self.lon_max}]")

    def contains(self, lat: float, lon: float) -> bool:
        return self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max


@dataclass(frozen=True)
class CircleArea:
    center_lat: float
    center_lon: float
    radius_km: float

    def __post_init__(self):
        if not -90.0 <= self.center_lat <= 90.0 or not -180.0 <= self.center_lon <= 180.0:
            raise ConfigError("circle center out of coordinate range")
        if self.radius_km < 0:
            raise ConfigError("circle radius must be >= 0")


@dataclass(frozen=True)
class GeoScope:
    """Where to look: a categorical scope, a box, a circle, or any mix."""

    categorical: Optional[CategoricalScope] = None
    box: Optional[BoundingBox] = None
    circle: Optional[CircleArea] = None

    def __post_init__(self):
        if self.categorical is None and self.box is None and self.circle is None:
            raise ConfigError("GeoScope needs at least one of categorical/box/circle")


@dataclass(frozen=True)
class TimeScope:
    start: datetime
    end: datetime

    def __post_init__(self):
        if self.start.tzinfo is None or self.end.tzinfo is None:
            raise ConfigError("TimeScope bounds must be timezone-aware")
        if not self.start < self.end:
            raise ConfigError("TimeScope start must precede end")


class GeocoderClient(Protocol):
    """Resolves a free-form address or venue string to coordinates."""

    def resolve(self, query: str) -> Optional[tuple[float, float, str]]:
        """Return (lat, lon, normalized_address) or None when unresolvable."""
        ...


class FixtureGeocoder:
    """Deterministic geocoder backed by a CSV table (query,lat,lon,normalized_address)."""

    def __init__(self, table: Mapping[str, tuple[float, float, str]]):
        self._table = dict(table)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FixtureGeocoder":
        table: dict[str, tuple[float, float, str]] = {}
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            required = {"query", "lat", "lon", "normalized_address"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise SchemaError(f"{path}: geocoder table needs columns {sorted(required)}")
            for row in reader:
                table[normalize_text(row["query"])] = (
                    float(row["lat"]),
                    float(row["lon"]),
                    row["normalized_address"],
                )
        return cls(table)

    def resolve(self, query: str) -> Optional[tuple[float, float, str]]:
        return self._table.get(normalize_text(query))


class HttpGeocoder:
    """Client for a JSON geocoding endpoint: GET ?q=<query> -> {lat, lon, normalized_address}."""

    def __init__(self, endpoint: str, timeout: float = 10.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def resolve(self, query: str) -> Optional[tuple[float, float, str]]:
        try:
            response = requests.get(self.endpoint, params={"q": query}, timeout=self.timeout)
            response.raise_for_status()
            payload = response.json()
        except (requests.RequestException, ValueError) as exc:
            logger.warning("geocoder request failed for %r: %s", query, exc)
            return None
        if not isinstance(payload, dict) or payload.get("lat") is None or payload.get("lon") is None:
            return None
        return float(payload["lat"]), float(payload["lon"]), str(payload.get("normalized_address", query))


# ---------------------------------------------------------------------------
# Fetching and parsing
# ---------------------------------------------------------------------------

def fetch_raw(source: SourceConfig, geo: GeoScope, time: TimeScope) -> list[dict]:
    """Fetch every raw record the source yields for the given scope.

    The categorical scope is forwarded to HTTP sources as query parameters;
    no coordinate filtering happens here (that is the filter stage's job).
    """
    if source.kind == "file":
        try:
            text = Path(source.locator).read_text(encoding="utf-8")
        except OSError as exc:
            raise SourceUnreachable(source.source_id, str(exc)) from exc
    else:
        params: dict[str, str] = {}
        if geo.categorical is not None:
            for key in ("country", "region", "city"):
                value = getattr(geo.categorical, key)
                if value:
                    params[key] = value
        params["start"] = format_rfc3339(time.start)
        params["end"] = format_rfc3339(time.end)
        try:
            response = requests.get(source.locator, params=params, timeout=30)
            response.raise_for_status()
            text = response.text
        except requests.RequestException as exc:
            raise SourceUnreachable(source.source_id, str(exc)) from exc
    return _decode_records(text, source)


def _decode_records(text: str, source: SourceConfig) -> list[dict]:
    if source.format == "json_records":
        stripped = text.lstrip()
        if stripped.startswith("["):
            try:
                items = json.loads(text)
            except json.JSONDecodeError as exc:
                raise MalformedPayload(f"source '{source.source_id}': {exc}") from None
            if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
                raise MalformedPayload(f"source '{source.source_id}': JSON array must hold objects")
            return items
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                item = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedPayload(
                    f"source '{source.source_id}' line {lineno}: {exc}"
                ) from None
            if not isinstance(item, dict):
                raise MalformedPayload(f"source '{source.source_id}' line {lineno}: not an object")
            records.append(item)
        return records

    reader = csv.DictReader(io.StringIO(text))
    records = []
    for lineno, row in enumerate(reader, start=2):
        if None in row or any(k is None for k in row):
            raise MalformedPayload(f"source '{source.source_id}' line {lineno}: ragged CSV row")
        records.append(dict(row))
    return records


def _record_digest(raw: Mapping) -> str:
    blob = json.dumps(raw, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()[:12]


def _as_float(value, field_name: str, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvariantError(f"{context}: {field_name} is not numeric: {value!r}") from None


def parse_record(raw: Mapping, cfg: SourceConfig) -> SocialEvent:
    """Interpret one raw record into a canonical :class:`SocialEvent`.

    Missing optional fields stay absent, never invented. The event id is
    ``source_id/raw_id``; when a source gives no id, a digest of the record
    stands in so ids stay stable across runs.
    """
    values: dict[str, object] = {}
    for src_name, target in cfg.field_map.items():
        canon = FIELD_ALIASES.get(target, target)
        value = raw.get(src_name)
        if value is None:
            continue
        if isinstance(value, str):
            value = value.strip()
            if not value:
                continue
        values[canon] = value

    context = f"source '{cfg.source_id}'"
    if "NAME" not in values:
        raise MissingRequiredField(f"{context}: record lacks NAME")
    if "START_TIME" not in values:
        raise MissingRequiredField(f"{context}: record lacks START_TIME")

    zone = cfg.zone()
    start_time = parse_rfc3339(str(values["START_TIME"]), default_tz=zone)
    end_time = None
    if "END_TIME" in values:
        end_time = parse_rfc3339(str(values["END_TIME"]), default_tz=zone)

    lat = _as_float(values["LAT"], "LAT", context) if "LAT" in values else None
    lon = _as_float(values["LON"], "LON", context) if "LON" in values else None
    popularity = _as_float(values["POPULARITY"], "POPULARITY", context) if "POPULARITY" in values else None

    address = Address(
        street=_opt_str(values.get("ADDRESS_STREET")),
        city=_opt_str(values.get("ADDRESS_CITY")),
        region=_opt_str(values.get("ADDRESS_REGION")),
        country=_opt_str(values.get("ADDRESS_COUNTRY")),
        text=_opt_str(values.get("ADDRESS")),
    )
    raw_id = _opt_str(values.get("RAW_ID")) or _record_digest(raw)

    return SocialEvent(
        event_id=f"{cfg.source_id}/{raw_id}",
        name=str(values["NAME"]),
        start_time=start_time,
        end_time=end_time,
        lat=lat,
        lon=lon,
        venue=_opt_str(values.get("VENUE")),
        address=None if address.is_empty() else address,
        category=_opt_str(values.get("CATEGORY")),
        popularity=popularity,
        source_id=cfg.source_id,
        raw_id=raw_id,
    )


def _opt_str(value) -> Optional[str]:
    if value is None:
        return None
    text = str(value).strip()
    return text or None


# ---------------------------------------------------------------------------
# Consolidation
# ---------------------------------------------------------------------------

def consolidate(event: SocialEvent, geocoder: GeocoderClient) -> SocialEvent:
    """Fill missing coordinates via the geocoder; never overwrite present values."""
    if event.has_coordinates():
        return event
    queries = []
    if event.address is not None:
        if event.address.text:
            queries.append(event.address.text)
        parts = [p for p in (event.address.street, event.address.city,
                             event.address.region, event.address.country) if p]
        if parts:
            queries.append(", ".join(parts))
    if event.venue:
        queries.append(event.venue)
    for query in queries:
        result = geocoder.resolve(query)
        if result is None:
            continue
        lat, lon, normalized = result
        address = event.address or Address()
        if address.text is None:
            address = replace(address, text=normalized)
        return replace(event, lat=lat, lon=lon, address=address)
    if queries:
        logger.info("geocoding failed for event %s (%s)", event.event_id, queries[0])
    return event


# ---------------------------------------------------------------------------
# String similarity and fusion
# ---------------------------------------------------------------------------

def normalize_text(text: str) -> str:
    """Lowercase, strip diacritics and punctuation, collapse whitespace."""
    decomposed = unicodedata.normalize("NFKD", text)
    no_marks = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    cleaned = "".join(ch if ch.isalnum() else " " for ch in no_marks.lower())
    return " ".join(cleaned.split())


def _levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ch_a != ch_b))
            )
        previous = current
    return previous[-1]


def _similarity_normalized(a: str, b: str) -> float:
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    return 1.0 - _levenshtein(a, b) / max(len(a), len(b))


def similarity(a: str, b: str) -> float:
    """Normalized edit-distance similarity in [0, 1]; 1.0 iff normalized forms match."""
    return _similarity_normalized(normalize_text(a), normalize_text(b))


# Fields merged value-by-value during fusion, in serialization order.
_MERGE_FIELDS = ("name", "start_time", "end_time", "lat", "lon", "venue",
                 "address", "category", "popularity")


def fuse_sources(
    events: Sequence[SocialEvent],
    name_threshold: float = DEFAULT_NAME_THRESHOLD,
    time_tolerance: timedelta = DEFAULT_TIME_TOLERANCE,
    priorities: Optional[Mapping[str, int]] = None,
) -> list[SocialEvent]:
    """Merge duplicate events: similar names and close start times.

    Two events are duplicates when their name similarity reaches
    ``name_threshold`` and their start times differ by at most
    ``time_tolerance``; duplicate groups are the transitive closure of that
    relation, so the result does not depend on input order. Within a group
    each field takes the value from the highest-priority source (priority 0
    for sources not listed), falling back to the first non-absent value;
    conflicting values are noted on the merged record.
    """
    if not events:
        return []
    priorities = dict(priorities or {})

    order = sorted(events, key=lambda e: (e.start_time, e.name, e.event_id))
    names = [normalize_text(e.name) for e in order]

    parent = list(range(len(order)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[j].start_time - order[i].start_time > time_tolerance:
                break
            len_i, len_j = len(names[i]), len(names[j])
            longest = max(len_i, len_j)
            # |len difference| lower-bounds the edit distance; skip hopeless pairs.
            if longest and 1.0 - abs(len_i - len_j) / longest < name_threshold:
                continue
            if _similarity_normalized(names[i], names[j]) >= name_threshold:
                union(i, j)

    groups: dict[int, list[SocialEvent]] = {}
    for idx, event in enumerate(order):
        groups.setdefault(find(idx), []).append(event)

    merged = [_merge_group(members, priorities) for members in groups.values()]
    merged.sort(key=lambda e: (e.start_time, e.name, e.event_id))
    return merged


def _merge_group(members: list[SocialEvent], priorities: Mapping[str, int]) -> SocialEvent:
    if len(members) == 1:
        return members[0]
    ranked = sorted(
        members,
        key=lambda e: (-priorities.get(e.source_id, 0), e.start_time, e.event_id),
    )
    winner = ranked[0]
    notes = {note for member in members for note in member.merge_notes}

    chosen: dict[str, object] = {}
    for name in _MERGE_FIELDS:
        value = None
        for member in ranked:
            candidate = getattr(member, name)
            if candidate is None:
                continue
            if name == "end_time" and "start_time" in chosen:
                if candidate <= chosen["start_time"]:  # type: ignore[operator]
                    notes.add(f"end_time: discarded {format_rfc3339(candidate)} from "
                              f"{member.source_id} (precedes merged start)")
                    continue
            if value is None:
                value = candidate
            elif candidate != value:
                shown = format_rfc3339(candidate) if isinstance(candidate, datetime) else repr(candidate)
                notes.add(f"{name}: discarded {shown} from {member.source_id}")
        chosen[name] = value

    return replace(winner, merge_notes=tuple(sorted(notes)), **chosen)


# ---------------------------------------------------------------------------
# Canonical event file (newline-delimited JSON, RFC 3339 UTC timestamps)
# ---------------------------------------------------------------------------

def address_record(address: Optional[Address]) -> Optional[dict[str, str]]:
    """The canonical ADDRESS object: the parts that are set, or None when none is."""
    if address is None:
        return None
    parts = (("STREET", address.street), ("CITY", address.city), ("REGION", address.region),
             ("COUNTRY", address.country), ("TEXT", address.text))
    return {key: value for key, value in parts if value is not None} or None


def event_to_record(event: SocialEvent) -> dict:
    """Serialize to the canonical uppercase-keyed JSON record. Absent fields are omitted."""
    record: dict[str, object] = {
        "EVENT_ID": event.event_id,
        "NAME": event.name,
        "START_TIME": format_rfc3339(event.start_time),
    }
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


def event_from_record(record: Mapping) -> SocialEvent:
    address = None
    if "ADDRESS" in record:
        raw_addr = record["ADDRESS"]
        address = Address(
            street=raw_addr.get("STREET"),
            city=raw_addr.get("CITY"),
            region=raw_addr.get("REGION"),
            country=raw_addr.get("COUNTRY"),
            text=raw_addr.get("TEXT"),
        )
    return SocialEvent(
        event_id=record["EVENT_ID"],
        name=record["NAME"],
        start_time=parse_rfc3339(record["START_TIME"]),
        end_time=parse_rfc3339(record["END_TIME"]) if "END_TIME" in record else None,
        lat=record.get("LAT"),
        lon=record.get("LON"),
        venue=record.get("VENUE"),
        address=address,
        category=record.get("CATEGORY"),
        popularity=record.get("POPULARITY"),
        source_id=record["SOURCE_ID"],
        raw_id=record["RAW_ID"],
        merge_notes=tuple(record.get("MERGE_NOTES", ())),
    )


def write_events(events: Iterable[SocialEvent], path: str | Path) -> None:
    lines = [json.dumps(event_to_record(e), ensure_ascii=False) for e in events]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_events(path: str | Path) -> list[SocialEvent]:
    events = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(event_from_record(json.loads(line)))
        except (json.JSONDecodeError, KeyError) as exc:
            raise SchemaError(f"{path} line {lineno}: bad canonical event record ({exc})") from None
    return events
