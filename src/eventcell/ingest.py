"""Social-event acquisition: fetch raw records from configured sources, parse
them into the canonical event format, fill missing coordinates through a
geocoder, and fuse duplicate records across and within sources.

Sources are declarative: a :class:`SourceConfig` carries the locator, the
payload format and a field map from source field names to canonical names,
so new feeds are adapted by configuration rather than code.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import logging
import math
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timedelta, tzinfo
from itertools import compress, count
from json.encoder import encode_basestring
from operator import ne
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Protocol, Sequence

from .errors import (
    ConfigError,
    InvariantError,
    MalformedPayload,
    MissingRequiredField,
    SchemaError,
    SourceUnreachable,
    UnparseableTimestamp,
)
from .fsutil import atomic_write_text, undecodable
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
_NUMERIC_FIELDS = frozenset({"LAT", "LON", "POPULARITY"})

DEFAULT_NAME_THRESHOLD = 0.85
DEFAULT_TIME_TOLERANCE = timedelta(minutes=30)


class Address(NamedTuple):
    """Structured postal details; every part is optional. A named tuple, like
    ``SocialEvent``: every raw record with an address part builds one."""

    street: Optional[str] = None
    city: Optional[str] = None
    region: Optional[str] = None
    country: Optional[str] = None
    text: Optional[str] = None


_NO_ADDRESS = Address()


class _EventFields(NamedTuple):
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


class SocialEvent(_EventFields):
    """One event in the canonical internal format; immutable.

    A named tuple builds faster than a frozen dataclass, and events are
    what the pipeline builds most. Every way to build one, ``_replace``
    and ``_make`` included, runs the checks in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, event_id, name, start_time, source_id, raw_id, end_time=None, lat=None,
                lon=None, venue=None, address=None, category=None, popularity=None,
                merge_notes=()):
        if start_time.tzinfo is None:
            raise InvariantError(f"{event_id}: start_time must be timezone-aware")
        if end_time is not None and end_time <= start_time:
            raise InvariantError(f"{event_id}: end_time not after start_time")
        if (lat is None) != (lon is None):
            raise InvariantError(f"{event_id}: lat and lon must be set together")
        if lat is not None and not -90.0 <= lat <= 90.0:
            raise InvariantError(f"{event_id}: latitude {lat} out of range")
        if lon is not None and not -180.0 <= lon <= 180.0:
            raise InvariantError(f"{event_id}: longitude {lon} out of range")
        if popularity is not None and not 0.0 <= popularity < math.inf:
            raise InvariantError(f"{event_id}: popularity {popularity} is not a "
                                 "finite number >= 0")
        text = f"{event_id}{name}{source_id}{raw_id}{venue or ''}{category or ''}"
        if address is not None:
            text += (f"{address.street}{address.city}{address.region}{address.country}"
                     f"{address.text}")
        if merge_notes:
            text += "".join(merge_notes)
        if not text.isascii():  # only a non-ASCII text can hold a lone surrogate
            try:
                text.encode()
            except UnicodeEncodeError:
                raise InvariantError("a text field holds a lone surrogate, which UTF-8 cannot "
                                     "encode") from None
        return tuple.__new__(cls, (event_id, name, start_time, source_id, raw_id, end_time, lat,
                                   lon, venue, address, category, popularity, merge_notes))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        event = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise TypeError(f"unexpected field names: {list(changes)!r}")
        return event

    def has_coordinates(self) -> bool:
        return self.lat is not None and self.lon is not None


@dataclass(frozen=True)
class SourceConfig:
    """Declarative description of one event source.

    ``zone`` (the resolved ``timezone``) and ``field_plan`` (each
    ``field_map`` source name with its target's canonical name and whether
    that is a numeric field) are derived once, here, for ``parse_record`` to
    use on every record.
    """

    source_id: str
    locator: str
    field_map: Mapping[str, str]
    kind: str = "file"  # or "http"
    format: str = "json_records"  # or "csv_records"
    priority: int = 0
    timezone: str = "UTC"
    zone: tzinfo = field(init=False, repr=False, compare=False)
    field_plan: tuple[tuple[str, str, bool], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("file", "http"):
            raise ConfigError(f"source '{self.source_id}': unknown kind {self.kind!r}")
        if self.format not in ("json_records", "csv_records"):
            raise ConfigError(f"source '{self.source_id}': unknown format {self.format!r}")
        if self.priority < 0:
            raise ConfigError(f"source '{self.source_id}': priority must be >= 0")
        plan = []
        for src_name, target in self.field_map.items():
            canon = FIELD_ALIASES.get(target, target)
            if canon not in CANONICAL_FIELDS:
                raise ConfigError(
                    f"source '{self.source_id}': field_map target {target!r} "
                    f"for {src_name!r} is not a canonical field"
                )
            plan.append((src_name, canon, canon in _NUMERIC_FIELDS))
        if not {"NAME", "START_TIME"} <= {canon for _, canon, _ in plan}:
            raise ConfigError(f"source '{self.source_id}': field_map must cover NAME and START_TIME")
        object.__setattr__(self, "zone", resolve_zone(self.timezone))  # fails on a bad zone
        object.__setattr__(self, "field_plan", tuple(plan))


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


def row_float(text: str, key: str, path, lineno: int) -> float:
    """A number field of line ``lineno`` of a CSV input: a finite decimal or
    exponent spelling."""
    try:
        if "_" in text:  # float() takes Python's digit separators; no export means them
            raise ValueError
        value = float(text)
    except ValueError:
        raise InvariantError(f"{path} line {lineno}: {key} is not numeric: {text!r}") from None
    if not math.isfinite(value):
        raise InvariantError(f"{path} line {lineno}: {key} is not finite: {text!r}")
    return value


def row_coordinates(lat_text: str, lon_text: str, path, lineno: int) -> tuple[float, float]:
    """The ``lat`` and ``lon`` fields of line ``lineno`` of a CSV input,
    read by ``row_float`` and in range."""
    lat = row_float(lat_text, "lat", path, lineno)
    lon = row_float(lon_text, "lon", path, lineno)
    if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
        raise InvariantError(f"{path} line {lineno}: coordinates out of range")
    return lat, lon


class FixtureGeocoder:
    """Deterministic geocoder backed by a CSV table (query,lat,lon,normalized_address).

    The whole table is checked when it is loaded: a row with more or fewer
    fields than the header, or a ``lat`` or ``lon`` that ``row_coordinates``
    refuses, raises ``SchemaError`` naming the table and the line, whether
    or not any query reaches that row.
    """

    def __init__(self, table: Mapping[str, tuple[float, float, str]]):
        self._table = dict(table)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FixtureGeocoder":
        table: dict[str, tuple[float, float, str]] = {}
        try:
            with open(path, newline="", encoding="utf-8-sig") as handle:
                reader = csv.DictReader(handle)
                required = {"query", "lat", "lon", "normalized_address"}
                if reader.fieldnames is None or not required <= set(reader.fieldnames):
                    raise SchemaError(f"{path}: geocoder table needs columns {sorted(required)}")
                for row in reader:
                    lineno = reader.line_num
                    if None in row or None in row.values():
                        raise SchemaError(
                            f"{path} line {lineno}: expected {len(reader.fieldnames)} fields")
                    try:
                        lat, lon = row_coordinates(row["lat"], row["lon"], path, lineno)
                    except InvariantError as exc:
                        raise SchemaError(str(exc)) from None
                    table[normalize_text(row["query"])] = (lat, lon, row["normalized_address"])
        except UnicodeDecodeError:
            raise SchemaError(undecodable(path)) from None
        return cls(table)

    def resolve(self, query: str) -> Optional[tuple[float, float, str]]:
        return self._table.get(normalize_text(query))


class HttpGeocoder:
    """Client for a JSON geocoding endpoint: GET ?q=<query> -> {lat, lon, normalized_address}.

    A failed request, and an answer whose ``lat`` or ``lon`` is a boolean,
    not a finite number or numeric string, or out of range, log a warning
    and resolve to None.
    When ``normalized_address`` is not a string (null or absent) the query
    stands in.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def resolve(self, query: str) -> Optional[tuple[float, float, str]]:
        try:
            payload = json.loads(_http_get(self.endpoint, {"q": query}, self.timeout))
        except (OSError, ValueError) as exc:  # ValueError: a body that is not UTF-8 or not JSON
            logger.warning("geocoder request failed for %r: %s", query, exc)
            return None
        if not isinstance(payload, dict) or payload.get("lat") is None or payload.get("lon") is None:
            return None
        lat, lon = _coordinate(payload["lat"]), _coordinate(payload["lon"])
        if lat is None or lon is None or abs(lat) > 90.0 or abs(lon) > 180.0:
            logger.warning("geocoder answer for %r has no usable coordinates: lat %r, lon %r",
                           query, payload["lat"], payload["lon"])
            return None
        normalized = payload.get("normalized_address")
        return lat, lon, normalized if isinstance(normalized, str) else query


def _coordinate(value) -> Optional[float]:
    """``value`` as a finite float, or None for a boolean, a value that
    ``float`` cannot read and a non-finite one."""
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        return None
    return number if math.isfinite(number) else None


class MemoGeocoder:
    """Sends each distinct query to ``geocoder`` once and repeats its answer,
    a miss (None) included. Many events share a venue or an address, so an
    ingest run wraps its geocoder in one."""

    def __init__(self, geocoder: GeocoderClient):
        self._geocoder = geocoder
        self._answers: dict[str, Optional[tuple[float, float, str]]] = {}

    def resolve(self, query: str) -> Optional[tuple[float, float, str]]:
        if query not in self._answers:
            self._answers[query] = self._geocoder.resolve(query)
        return self._answers[query]


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
            text = Path(source.locator).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise SourceUnreachable(source.source_id, str(exc)) from exc
        except UnicodeDecodeError:
            raise MalformedPayload(
                f"source '{source.source_id}': {undecodable(source.locator)}") from None
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
            text = _http_get(source.locator, params, timeout=30)
        except OSError as exc:
            raise SourceUnreachable(source.source_id, str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise MalformedPayload(
                f"source '{source.source_id}': {undecodable(source.locator, exc.object)}") from None
    return _decode_records(text, source)


def _http_get(url: str, params: Mapping[str, str], timeout: float) -> str:
    """The body of a 2xx answer to one GET of ``url``, with ``params``
    URL-encoded and appended to its query, decoded as UTF-8 with a leading
    byte-order mark skipped.

    Any other status, a URL that is not http or https, and every transport
    failure (a refused or timed-out connection, a body cut short) raise
    ``OSError``; a body that is not UTF-8 raises ``UnicodeDecodeError``.
    The request is sent once, with no retry.
    """
    import http.client
    import urllib.request  # imported on first use: it is slow to import and only HTTP needs it
    from urllib.parse import urlencode, urlsplit, urlunsplit

    try:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise OSError(f"{url!r} is not an http or https URL")
        query = "&".join(filter(None, (parts.query, urlencode(params))))
        with urllib.request.urlopen(urlunsplit(parts._replace(query=query)),
                                    timeout=timeout) as response:
            body = response.read()
    except (http.client.HTTPException, ValueError) as exc:  # the rest are OSError already
        raise OSError(str(exc)) from exc
    return body.decode("utf-8-sig")


def _lines(text: str) -> list[str]:
    """Split NDJSON text at LF, CR LF and lone CR only: ``str.splitlines``
    also breaks at U+2028, U+2029 and U+0085, which JSON strings may hold raw."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


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
        for lineno, line in enumerate(_lines(text), start=1):
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
    for row in reader:
        # A long row keeps its extra fields under the key None, a short one
        # gets None for the fields it lacks.
        if None in row or None in row.values():
            raise MalformedPayload(
                f"source '{source.source_id}' line {reader.line_num}: ragged CSV row")
        records.append(dict(row))
    return records


def _record_digest(raw: Mapping) -> str:
    blob = json.dumps(raw, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()[:12]


def _as_float(value, field_name: str, source_id: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise InvariantError(
            f"source '{source_id}': {field_name} is not numeric: {value!r}") from None


def parse_record(raw: Mapping, cfg: SourceConfig) -> SocialEvent:
    """Interpret one raw record into a canonical :class:`SocialEvent`.

    Missing optional fields stay absent, never invented. A field is read as
    text, stripped, and is absent when that leaves nothing; LAT, LON and
    POPULARITY keep a value that is not a string for ``float`` to read. The
    event id is ``source_id/raw_id``; when a source gives no id, a digest of
    the record stands in so ids stay stable across runs.
    """
    values: dict[str, object] = {}
    get = raw.get
    for src_name, canon, numeric in cfg.field_plan:
        value = get(src_name)
        if value is None:
            continue
        if not numeric or isinstance(value, str):
            value = str(value).strip()
            if not value:
                continue
        values[canon] = value

    get = values.get
    name, start, end = get("NAME"), get("START_TIME"), get("END_TIME")
    if name is None:
        raise MissingRequiredField(f"source '{cfg.source_id}': record lacks NAME")
    if start is None:
        raise MissingRequiredField(f"source '{cfg.source_id}': record lacks START_TIME")
    zone = cfg.zone
    start_time = parse_rfc3339(start, zone)
    end_time = None if end is None else parse_rfc3339(end, zone)

    lat, lon, popularity = get("LAT"), get("LON"), get("POPULARITY")
    if lat is not None:
        lat = _as_float(lat, "LAT", cfg.source_id)
    if lon is not None:
        lon = _as_float(lon, "LON", cfg.source_id)
    if popularity is not None:
        popularity = _as_float(popularity, "POPULARITY", cfg.source_id)

    parts = (get("ADDRESS_STREET"), get("ADDRESS_CITY"), get("ADDRESS_REGION"),
             get("ADDRESS_COUNTRY"), get("ADDRESS"))
    address = None if parts == _NO_ADDRESS else Address._make(parts)
    raw_id = get("RAW_ID") or _record_digest(raw)
    return SocialEvent(f"{cfg.source_id}/{raw_id}", name, start_time, cfg.source_id, raw_id,
                       end_time, lat, lon, get("VENUE"), address, get("CATEGORY"), popularity)


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
            address = address._replace(text=normalized)
        return event._replace(lat=lat, lon=lon, address=address)
    if queries:
        logger.info("geocoding failed for event %s (%s)", event.event_id, queries[0])
    return event


# ---------------------------------------------------------------------------
# String similarity and fusion
# ---------------------------------------------------------------------------

# Every ASCII character that is not a letter or a digit, mapped to a space.
_ASCII_SEPARATORS = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})


def normalize_text(text: str) -> str:
    """Lowercase, strip diacritics and punctuation, collapse whitespace."""
    if text.isascii():  # NFKD leaves ASCII as it is, and no ASCII character is combining
        return " ".join(text.lower().translate(_ASCII_SEPARATORS).split())
    decomposed = unicodedata.normalize("NFKD", text)
    no_marks = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    cleaned = "".join(ch if ch.isalnum() else " " for ch in no_marks.lower())
    return " ".join(cleaned.split())


def _char_masks(pattern: str) -> dict[str, int]:
    """Bit ``i`` of ``masks[ch]`` is set where ``pattern[i] == ch``."""
    masks: dict[str, int] = {}
    bit = 1
    for ch in pattern:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _masked_levenshtein(masks: Mapping[str, int], m: int, text: str, k: int) -> int:
    """Edit distance of ``text`` and the ``m``-character pattern whose
    ``_char_masks`` are ``masks`` when it is at most ``k``, else ``k + 1``.

    Bit-parallel over Python ints (Myers 1999, in Hyyrö's 2001 edit-distance
    form): bit ``i`` of ``vp``/``vn`` says that the distance of the pattern's
    first ``i + 1`` characters to the text read so far is one more/less than
    that of its first ``i``, and ``score`` is the whole pattern's distance.
    One text character costs about twenty operations on ``m``-bit ints,
    where a dynamic-programming row costs ``m`` cell updates. ``score``
    falls by at most one per text character, so the fill stops once it
    exceeds ``k`` by more than the characters left.
    """
    n = len(text)
    over = k + 1
    if abs(n - m) > k:
        return over
    if not m:
        return n
    full = (1 << m) - 1
    top = 1 << (m - 1)
    vp, vn, score = full, 0, m
    left = n
    for ch in text:
        eq = masks.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & top:
            score += 1
        elif hn & top:
            score -= 1
        left -= 1
        if score - left > k:
            return over
        hp = (hp << 1) | 1
        hn <<= 1
        # No bit above m reaches a lower one; the mask only keeps the ints short.
        vp = (hn | ~(xv | hp)) & full
        vn = hp & xv
    return score


def _pieces(text: str, k: int) -> list[str]:
    """``text`` cut into ``k + 1`` contiguous pieces of near-equal length;
    some are empty when ``text`` is shorter than ``k + 1``."""
    q = k + 1
    m = len(text)
    return [text[t * m // q:(t + 1) * m // q] for t in range(q)]


def _windows(text: str, k: int) -> tuple[list[str], list[int], list[int]]:
    """``text`` cut into ``k + 3`` contiguous pieces, with the start and end
    of the stretch that holds each piece, shifted by at most ``k``, in any
    string within ``k`` edits of ``text``: the arguments of ``str.find``."""
    q = k + 3
    m = len(text)
    cuts = [t * m // q for t in range(q + 1)]
    return ([text[lo:hi] for lo, hi in zip(cuts, cuts[1:])],
            [lo - k if lo > k else 0 for lo in cuts[:-1]], [hi + k for hi in cuts[1:]])


def _one_edit(a: str, b: str) -> bool:
    """Whether the distinct strings ``a`` and ``b`` are one edit apart. The
    first mismatch is where the one substitution, or the one character only
    the longer string has, must sit, and the rest must then agree."""
    m, n = len(a), len(b)
    if m == n:
        return sum(map(ne, a, b)) == 1
    if m < n:
        a, b, m, n = b, a, n, m
    if m - n != 1:
        return False
    p = next(compress(count(), map(ne, a, b)), n)
    return a[p + 1:] == b[p:]


def check_name_threshold(name_threshold: float) -> float:
    """``name_threshold``, which must lie in [0, 1] (NaN does not)."""
    if not 0.0 <= name_threshold <= 1.0:
        raise ConfigError(f"fusion.name_threshold {name_threshold} outside [0, 1]")
    return name_threshold


def fuse_sources(
    events: Sequence[SocialEvent],
    name_threshold: float = DEFAULT_NAME_THRESHOLD,
    time_tolerance: timedelta = DEFAULT_TIME_TOLERANCE,
    priorities: Optional[Mapping[str, int]] = None,
) -> list[SocialEvent]:
    """Merge duplicate events: similar names and close start times.

    Two events are duplicates when their name similarity (one minus the
    edit distance of the normalized names over the longer one's length, 1
    for equal names) reaches ``name_threshold`` and their start times
    differ by at most ``time_tolerance``; duplicate groups are the
    transitive closure of that relation, so the result does not depend on
    input order. Within a group each field takes the value from the
    highest-priority source (priority 0 for sources not listed), falling
    back to the first non-absent value; conflicting values are noted on the
    merged record.

    Every distance that can pass the similarity test is at most the bound
    ``k`` of the longer name's length, so a step that rejects only
    distances above ``k`` changes no group. A pair of distinct names in one
    window is decided by the first of these steps that settles it:

    1. Names whose lengths differ by more than ``k`` are more than ``k``
       edits apart.
    2. So are names where no piece of the first, cut into ``k + 1``
       contiguous pieces, occurs in the second: each edit breaks at most
       one piece, so within ``k`` edits one piece survives whole (Wu and
       Manber 1992).
    3. A pair whose events are already in one group is skipped: joining
       them would change nothing.
    4. Names one edit apart (``_one_edit``) are at distance 1, which goes
       straight to the similarity test.
    5. Cut the first name into ``k + 3`` pieces. Within ``k`` edits at most
       ``k`` pieces break, and each whole one sits in the second name
       shifted by at most ``k`` (the insertions before it less the
       deletions), so a pair with fewer than three pieces whole in their
       windows is more than ``k`` edits apart (the shift-window segment
       filter of Pass-Join, Li et al. 2011, with the window widened to
       ``k``).
    6. Only the rest get the bounded edit distance (``_masked_levenshtein``).
    """
    check_name_threshold(name_threshold)
    if not events:
        return []
    priorities = dict(priorities or {})
    slack = 1.0 - name_threshold

    order = sorted(events, key=lambda e: (e.start_time, e.name, e.event_id))
    names = [normalize_text(e.name) for e in order]
    # Start times as whole microseconds after the earliest one: a window's end
    # is then an int, which no tolerance can push past the datetime range.
    unit = timedelta(microseconds=1)
    first = order[0].start_time
    starts = [(e.start_time - first) // unit for e in order]
    reach = time_tolerance // unit
    # The bound k of each length the longer name of a pair can have.
    bounds = [int(slack * length) + 1 for length in range(max(map(len, names)) + 1)]

    total = len(order)
    parent = list(range(total))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    end = 0  # the window of i is order[i + 1:end]; starts are sorted, so end only grows
    for i in range(total):
        a = names[i]
        m = len(a)
        limit = starts[i] + reach
        while end < total and starts[end] <= limit:
            end += 1
        masks = None  # a's, built on its first pair that needs an edit distance
        pieces: dict[int, list[str]] = {}  # k -> a cut into k + 1 pieces
        windows: dict[int, tuple[list[str], list[int], list[int]]] = {}  # k -> _windows(a, k)
        for j in range(i + 1, end):
            b = names[j]
            if a == b:
                union(i, j)
                continue
            n = len(b)
            longest = m if m > n else n
            k = bounds[longest]
            if m - n > k or n - m > k:
                continue
            cut = pieces.get(k)
            if cut is None:
                cut = pieces[k] = _pieces(a, k)
            for piece in cut:
                if piece in b:
                    break
            else:
                continue
            if find(i) == find(j):
                continue
            if _one_edit(a, b):
                distance = 1
            else:
                window = windows.get(k)
                if window is None:
                    window = windows[k] = _windows(a, k)
                if list(map(b.find, *window)).count(-1) > k:
                    continue
                if masks is None:
                    masks = _char_masks(a)
                distance = _masked_levenshtein(masks, m, b, k)
            if 1.0 - distance / longest >= name_threshold:
                union(i, j)

    groups: dict[int, list[SocialEvent]] = {}
    for idx, event in enumerate(order):
        groups.setdefault(find(idx), []).append(event)

    merged = [_merge_group(members, priorities) for members in groups.values()]
    merged.sort(key=lambda e: (e.start_time, e.name, e.event_id))
    return merged


# Fields merged value by value during fusion, in serialization order, with
# their index in an event.
_MERGE_FIELDS = tuple((name, _EventFields._fields.index(name)) for name in (
    "name", "start_time", "end_time", "lat", "lon", "venue", "address", "category",
    "popularity"))
_END_TIME = _EventFields._fields.index("end_time")


def _merge_group(members: list[SocialEvent], priorities: Mapping[str, int]) -> SocialEvent:
    if len(members) == 1:
        return members[0]
    ranked = sorted(
        members,
        key=lambda e: (-priorities.get(e.source_id, 0), e.start_time, e.event_id),
    )
    notes = {note for member in members for note in member.merge_notes}
    fields = list(ranked[0])  # the winner's, whose start_time is never absent
    start_time = ranked[0].start_time
    for name, index in _MERGE_FIELDS:
        value = None
        for member in ranked:
            candidate = member[index]
            if candidate is None:
                continue
            if index == _END_TIME and candidate <= start_time:
                notes.add(f"end_time: discarded {format_rfc3339(candidate)} from "
                          f"{member.source_id} (precedes merged start)")
                continue
            if value is None:
                value = candidate
            elif candidate != value:
                shown = format_rfc3339(candidate) if isinstance(candidate, datetime) else repr(candidate)
                notes.add(f"{name}: discarded {shown} from {member.source_id}")
        fields[index] = value
    fields[-1] = tuple(sorted(notes))  # merge_notes
    return SocialEvent(*fields)


# ---------------------------------------------------------------------------
# Canonical event file (newline-delimited JSON, RFC 3339 UTC timestamps)
# ---------------------------------------------------------------------------

def address_record(address: Optional[Address]) -> Optional[dict[str, str]]:
    """The canonical ADDRESS object: the parts that are set, or None when none is."""
    if address is None:
        return None
    return {key: part for key, part in zip(_ADDRESS_PARTS, address) if part is not None} or None


# The JSON types a canonical record field may hold; NoneType is null, which
# stands for an absent optional field. ``json.loads`` yields exactly these
# types, so a test of type identity is exact and keeps booleans out of the
# numbers.
_STRING, _OPTIONAL = frozenset({str}), frozenset({str, type(None)})
_NUMBER = frozenset({int, float, type(None)})
_FIELD_TYPES = {
    "EVENT_ID": _STRING, "NAME": _STRING, "START_TIME": _STRING, "SOURCE_ID": _STRING,
    "RAW_ID": _STRING, "END_TIME": _OPTIONAL, "VENUE": _OPTIONAL, "CATEGORY": _OPTIONAL,
    "LAT": _NUMBER, "LON": _NUMBER, "POPULARITY": _NUMBER,
    "ADDRESS": frozenset({dict, type(None)}), "MERGE_NOTES": frozenset({list, type(None)}),
}
_ADDRESS_PARTS = ("STREET", "CITY", "REGION", "COUNTRY", "TEXT")
_JSON_NAMES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array", dict: "an object", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def event_from_record(record: dict, parse_time=parse_rfc3339) -> SocialEvent:
    """Build an event from its canonical record; ``parse_time`` parses
    START_TIME and END_TIME.

    Raises ``SchemaError`` naming the field when the record is not an
    object, lacks a required field or holds a field of the wrong JSON type
    (``_FIELD_TYPES``; ADDRESS parts and MERGE_NOTES items are strings).
    """
    if not isinstance(record, dict):
        raise SchemaError(f"expected an object, not {_json_type(record)}")
    for key, value in record.items():
        types = _FIELD_TYPES.get(key)
        if types and type(value) not in types:
            expected = " or ".join(sorted({_JSON_NAMES[kind] for kind in types}))
            raise SchemaError(f"field {key} must be {expected}, not {_json_type(value)}")
    get = record.get
    address = None
    raw_address = get("ADDRESS")
    if raw_address is not None:
        parts = list(map(raw_address.get, _ADDRESS_PARTS))
        if not _OPTIONAL.issuperset(map(type, parts)):
            raise SchemaError("field ADDRESS must hold strings")
        address = Address(*parts)
    merge_notes = tuple(get("MERGE_NOTES") or ())
    if not _STRING.issuperset(map(type, merge_notes)):
        raise SchemaError("field MERGE_NOTES must hold strings")
    end = get("END_TIME")
    try:  # in this order, so the first missing or unparseable field is the one named
        event_id, name = record["EVENT_ID"], record["NAME"]
        start_time = parse_time(record["START_TIME"])
        end_time = parse_time(end) if end is not None else None
        source_id, raw_id = record["SOURCE_ID"], record["RAW_ID"]
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]}") from None
    return SocialEvent(event_id, name, start_time, source_id, raw_id, end_time, get("LAT"),
                       get("LON"), get("VENUE"), address, get("CATEGORY"), get("POPULARITY"),
                       merge_notes)


def _number(value) -> str:
    """A LAT, LON or POPULARITY value (an int or a finite float) as JSON text."""
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def write_events(events: Iterable[SocialEvent], path: str | Path) -> None:
    """Write the canonical event file, one line per event.

    Each line is rendered straight from the event, byte for byte as
    ``json.dumps(record, ensure_ascii=False)`` writes the event's canonical
    record: EVENT_ID, NAME, START_TIME, END_TIME, LAT, LON, VENUE, ADDRESS
    (the parts that are set), CATEGORY, POPULARITY, SOURCE_ID, RAW_ID and
    MERGE_NOTES, absent fields left out. A time or an ADDRESS that several
    events share is rendered once per call. The lines and those renderings
    are dropped once joined, so only the whole text is kept while it is
    written.
    """
    quoted_time = functools.lru_cache(maxsize=None)(
        lambda time: encode_basestring(format_rfc3339(time)))
    string = encode_basestring

    @functools.lru_cache(maxsize=None)
    def address_field(address: Address) -> str:
        parts = [f'"{key}": {string(part)}'
                 for key, part in zip(_ADDRESS_PARTS, address) if part is not None]
        return ', "ADDRESS": {' + ", ".join(parts) + "}" if parts else ""

    lines = []
    for (event_id, name, start_time, source_id, raw_id, end_time, lat, lon, venue, address,
         category, popularity, merge_notes) in events:
        line = (f'{{"EVENT_ID": {string(event_id)}, "NAME": {string(name)}, '
                f'"START_TIME": {quoted_time(start_time)}')
        if end_time is not None:
            line += f', "END_TIME": {quoted_time(end_time)}'
        if lat is not None:
            line += f', "LAT": {_number(lat)}, "LON": {_number(lon)}'
        if venue is not None:
            line += f', "VENUE": {string(venue)}'
        if address is not None:
            line += address_field(address)
        if category is not None:
            line += f', "CATEGORY": {string(category)}'
        if popularity is not None:
            line += f', "POPULARITY": {_number(popularity)}'
        line += f', "SOURCE_ID": {string(source_id)}, "RAW_ID": {string(raw_id)}'
        if merge_notes:
            line += ', "MERGE_NOTES": [' + ", ".join(map(string, merge_notes)) + "]"
        lines.append(line + "}\n")
    text = "".join(lines)
    del lines, quoted_time, address_field
    atomic_write_text(path, text)


def _reject_constant(token: str):
    raise SchemaError(f"{token} is not a JSON number")


# ``json.loads`` reads the non-standard tokens NaN, Infinity and -Infinity.
_STRICT_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_JSON_SPACE = " \t\n\r"


def _decode_line(line: str):
    """``_STRICT_DECODER.decode(line)``. A line holding one JSON value
    between JSON whitespace is read by the scanner directly; any other
    line goes through ``decode``, which raises the error it always did."""
    try:
        value, end = _STRICT_DECODER.scan_once(line, len(line) - len(line.lstrip(_JSON_SPACE)))
    except StopIteration:
        return _STRICT_DECODER.decode(line)
    if end != len(line) and line[end:].strip(_JSON_SPACE):
        return _STRICT_DECODER.decode(line)
    return value


def read_events(path: str | Path) -> list[SocialEvent]:
    """Read a canonical event file. Events share few distinct times, so
    each distinct timestamp text is parsed once per call."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise SchemaError(undecodable(path)) from None
    parse_time = functools.lru_cache(maxsize=None)(parse_rfc3339)
    events = []
    for lineno, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        try:
            events.append(event_from_record(_decode_line(line), parse_time))
        except (json.JSONDecodeError, SchemaError, InvariantError, UnparseableTimestamp) as exc:
            raise SchemaError(f"{path} line {lineno}: bad canonical event record ({exc})") from None
    return events
