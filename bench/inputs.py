"""Seeded benchmark inputs, written only in eventcell's documented file formats.

Nothing here imports ``eventcell``: a change to the program can never change
the inputs it is measured on. Every generator takes a seed and a directory,
writes its files there and returns the designed truth the correctness checks
compare against. The same seed gives byte-identical files.

* ``feed_ingest``: three raw sources (two NDJSON, one CSV), a geocoder table
  and a run config. Each designed event appears in one to three sources as a
  near-duplicate (case change, spelling variant, start jitter). The generator
  checks with its own edit distance that two records fall inside the fusion
  criterion exactly when they are copies of one designed event.
* ``city_analyze``: a topology CSV, a long-format KPI CSV, a canonical
  ``events.ndjson`` and a run config, with one injected causal event whose
  Gaussian bump sits on the cells whose beam holds it.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import unicodedata
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

UTC = timezone.utc
EARTH_RADIUS_KM = 6371.0

# The fusion criterion eventcell documents: normalized-name similarity of at
# least 0.85 and starts at most 30 minutes apart.
FUSION_THRESHOLD = 0.85
FUSION_WINDOW = timedelta(minutes=30)


def rfc3339(ts: datetime) -> str:
    return ts.astimezone(UTC).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Name similarity, independent of eventcell.similarity
# ---------------------------------------------------------------------------

def normalize_name(text: str) -> str:
    """Lowercase, drop diacritics, turn non-alphanumerics into single spaces."""
    decomposed = unicodedata.normalize("NFKD", text)
    plain = "".join(ch for ch in decomposed if not unicodedata.combining(ch)).lower()
    return " ".join(re.sub(r"[^0-9a-z]", " ", plain).split())


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance (unit insert, delete and substitute costs)."""
    if len(a) < len(b):
        a, b = b, a
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        diagonal, row[0] = row[0], i
        for j, cb in enumerate(b, start=1):
            diagonal, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diagonal + (ca != cb))
    return row[-1]


class NameIndex:
    """Normalized names with letter counts, so most dissimilar pairs are
    rejected by the multiset lower bound on the edit distance."""

    def __init__(self):
        self.norm: list[str] = []
        self.bags: list[Counter] = []

    def add(self, name: str) -> int:
        norm = normalize_name(name)
        self.norm.append(norm)
        self.bags.append(Counter(norm))
        return len(self.norm) - 1

    def drop_last(self) -> None:
        self.norm.pop()
        self.bags.pop()

    def similarity_at_least(self, i: int, j: int, threshold: float) -> bool:
        a, b = self.norm[i], self.norm[j]
        if a == b:
            return True
        longest = max(len(a), len(b))
        if not longest:
            return False
        bound = max(sum((self.bags[i] - self.bags[j]).values()),
                    sum((self.bags[j] - self.bags[i]).values()))
        if 1.0 - bound / longest < threshold:
            return False
        return 1.0 - edit_distance(a, b) / longest >= threshold


# ---------------------------------------------------------------------------
# feed_ingest: one city's 54-day pull from three sources
# ---------------------------------------------------------------------------

FEED_START = datetime(2017, 3, 1, tzinfo=UTC)
FEED_DAYS = 54
FEED_BOX = (36.55, 36.95, -4.75, -4.15)
FEED_CITY, FEED_REGION, FEED_COUNTRY = "Costaluna City", "Costaluna", "Hispania"
FEED_FOREIGN_REGION = "Norland"
FEED_BLACKLIST = ("bar", "pub", "tavern", "club", "shop")
FEED_EVENTS = 2500
LOCAL_OFFSET = timedelta(hours=1)  # tickets and listings give local times at +01:00

# Venue modes, one per venue, with the filter stage each one trips.
_VENUE_MODES = (
    ("coords", 490, None),
    ("geocoded", 105, None),         # ~15%: no coordinates, found in the geocoder table
    ("unresolved", 21, "availability"),
    ("outside", 28, "geographic"),
    ("blacklist", 28, "semantic"),
    ("foreign", 28, "semantic"),
)
FEED_TEMPORAL = 110  # events at usable venues that start outside the scope
# Start times and copy counts are the same multiset for every seed (the seed
# only decides which event gets which), so the fusion work barely depends on it.
_SCHEDULE_SEED = 2017
_COPY_COUNTS = {1: 1125, 2: 1050, 3: 325}  # 2,500 events, 4,200 raw records

_PLACES = ("Alameda", "Bahia", "Cerro", "Duna", "Encina", "Faro", "Glorieta", "Huerta",
           "Isla", "Jardin", "Kiosko", "Loma", "Marina", "Nogal", "Olivo", "Palmeral",
           "Quinta", "Rambla", "Sierra", "Torre", "Umbria", "Vega", "Yedra", "Zarza",
           "Acacia", "Brisa", "Cala", "Delta", "Estela", "Fuente")
_VENUE_NOUNS = ("Hall", "Arena", "Theatre", "Park", "Plaza", "Auditorium", "Gardens",
                "Stadium", "Center", "Pavilion", "Forum", "Gallery", "Amphitheatre",
                "Cloister", "Warehouse", "Conservatory", "Terrace", "Boathouse",
                "Observatory", "Quarry", "Lighthouse", "Courtyard", "Chapel", "Library")
_MOODS = ("Moonlight", "Sunrise", "Harbor", "Velvet", "Crimson", "Golden", "Silver",
          "Electric", "Acoustic", "Midnight", "Riverside", "Mountain", "Coastal",
          "Twilight", "Royal", "Springtime", "Autumnal", "Wintry", "Midsummer", "Neon",
          "Lantern", "Orchard", "Meadow", "Granite", "Cobalt", "Amber", "Saffron",
          "Emerald", "Northern", "Southern", "Eastern", "Western", "Hidden", "Rooftop",
          "Seaside", "Vintage", "Modern", "Baroque", "Starlit", "Windswept")
_THEMES = ("Jazz", "Opera", "Salsa", "Tango", "Flamenco", "Poetry", "Comedy", "Cinema",
           "Chess", "Robotics", "Pottery", "Wine", "Tapas", "Yoga", "Cycling", "Regatta",
           "Derby", "Folk", "Techno", "Blues", "Gospel Choir", "Ballet", "Puppetry",
           "Photography", "Astronomy", "Ceramics", "Origami", "Fencing", "Karaoke",
           "Bluegrass", "Mariachi", "Reggae", "Samba", "Cabaret", "Circus", "Sculpture",
           "Calligraphy", "Botany", "Mosaic", "Storytelling")
_FORMATS = ("Festival", "Showcase", "Gala", "Workshop", "Market", "Parade", "Fair",
            "Summit", "Recital", "Tournament", "Exhibition", "Soiree", "Jamboree",
            "Symposium", "Carnival", "Marathon", "Retreat", "Masterclass", "Premiere",
            "Matinee", "Serenade", "Convention", "Expedition", "Celebration", "Screening",
            "Rally", "Fiesta", "Assembly", "Encounter", "Spectacle")
_KINDS = ("musical", "cultural", "sport", "fair", "social")
# Start hours weighted toward the evening, minutes on the quarter hour.
_HOURS = (10, 11, 12, 13, 16, 17, 18, 19, 20, 21, 22)
_HOUR_WEIGHTS = (1, 1, 2, 1, 2, 3, 5, 6, 6, 4, 2)
_MINUTES = (0, 15, 30, 45)
_MINUTE_WEIGHTS = (4, 1, 3, 1)
_MAX_JITTER_MIN = 12  # copies of one event start at most 24 minutes apart
_DISTINCT_MARGIN = 0.70  # base names of events that may meet in a window stay below this
_NEIGHBOUR_WINDOW = FUSION_WINDOW + timedelta(minutes=2 * _MAX_JITTER_MIN)

FEED_SOURCES = (
    {"source_id": "calendar", "kind": "file", "locator": "calendar.ndjson",
     "format": "json_records", "priority": 2, "timezone": "UTC",
     "field_map": {"id": "RAW_ID", "name": "NAME", "start": "START_TIME", "end": "END_TIME",
                   "lat": "LAT", "lon": "LON", "venue": "VENUE", "city": "ADDRESS_CITY",
                   "region": "ADDRESS_REGION", "country": "ADDRESS_COUNTRY", "kind": "TYPE"}},
    {"source_id": "tickets", "kind": "file", "locator": "tickets.ndjson",
     "format": "json_records", "priority": 1, "timezone": "UTC",
     "field_map": {"ref": "RAW_ID", "title": "NAME", "begins": "START_TIME",
                   "ends": "END_TIME", "latitude": "LAT", "longitude": "LON",
                   "place": "VENUE", "town": "ADDRESS_CITY", "province": "ADDRESS_REGION",
                   "nation": "ADDRESS_COUNTRY", "sold": "POPULARITY"}},
    {"source_id": "listings", "kind": "file", "locator": "listings.csv",
     "format": "csv_records", "priority": 0, "timezone": "+01:00",
     "field_map": {"ID": "RAW_ID", "Title": "NAME", "Start": "START_TIME", "End": "END_TIME",
                   "Lat": "LAT", "Lon": "LON", "Venue": "VENUE", "City": "ADDRESS_CITY",
                   "Region": "ADDRESS_REGION", "Country": "ADDRESS_COUNTRY",
                   "Genre": "CATEGORY"}},
)
_LISTINGS_COLUMNS = ("ID", "Title", "Start", "End", "Lat", "Lon", "Venue", "City",
                     "Region", "Country", "Genre")


def _blacklisted(name: str) -> bool:
    tokens = normalize_name(name).split()
    return any(term in tokens for term in FEED_BLACKLIST)


def _spelling_variant(rng: random.Random, name: str) -> str:
    """One edit inside a word of four or more letters: drop, double or swap in
    a vowel. Every vocabulary word has at least four letters."""
    words = name.split(" ")
    candidates = [k for k, w in enumerate(words) if len(w) >= 4]
    k = rng.choice(candidates)
    word = words[k]
    pos = rng.randrange(1, len(word) - 1)
    edit = rng.randrange(3)
    if edit == 0:
        word = word[:pos] + word[pos + 1:]
    elif edit == 1:
        word = word[:pos] + word[pos] + word[pos:]
    else:
        vowel = rng.choice([v for v in "aeiou" if v != word[pos].lower()])
        word = word[:pos] + vowel + word[pos + 1:]
    words[k] = word
    return " ".join(words)


def _case_variant(rng: random.Random, text: str) -> str:
    return rng.choice((text.upper(), text.lower(), text))


def _venues(rng: random.Random) -> list[dict]:
    lat_min, lat_max, lon_min, lon_max = FEED_BOX
    combos = [f"{p} {n}" for p in _PLACES for n in _VENUE_NOUNS]
    rng.shuffle(combos)
    modes = [(mode, stage) for mode, count, stage in _VENUE_MODES for _ in range(count)]
    rng.shuffle(modes)
    venues = []
    for k, (mode, stage) in enumerate(modes):
        name = combos[k]
        if mode == "blacklist":
            name = f"{name.split(' ')[0]} {FEED_BLACKLIST[k % len(FEED_BLACKLIST)].capitalize()}"
            name = f"{name} {k:03d}"
        if mode == "outside":
            # 0.05 to 0.3 degrees beyond a random edge of the box
            lat = rng.uniform(lat_min, lat_max)
            lon = rng.choice((lon_min - rng.uniform(0.05, 0.3), lon_max + rng.uniform(0.05, 0.3)))
        else:
            lat = rng.uniform(lat_min + 0.005, lat_max - 0.005)
            lon = rng.uniform(lon_min + 0.005, lon_max - 0.005)
        venues.append({
            "name": name, "mode": mode, "stage": stage,
            "lat": round(lat, 6), "lon": round(lon, 6),
            "region": FEED_FOREIGN_REGION if mode == "foreign" else FEED_REGION,
            "has_coords": mode in ("coords", "outside", "blacklist", "foreign"),
        })
    return venues


def _event_start(rng: random.Random, out_of_scope: bool) -> datetime:
    if out_of_scope:
        day = rng.choice((-3, -2, -1, FEED_DAYS, FEED_DAYS + 1, FEED_DAYS + 2))
    else:
        day = rng.randrange(FEED_DAYS)
    hour = rng.choices(_HOURS, _HOUR_WEIGHTS)[0]
    minute = rng.choices(_MINUTES, _MINUTE_WEIGHTS)[0]
    return FEED_START + timedelta(days=day, hours=hour, minutes=minute)


def _pick_name(rng: random.Random, names: NameIndex, neighbours: list[int]) -> str:
    """A base name dissimilar to every event that may share its window; it is
    left as the last entry of ``names``."""
    for _ in range(200):
        name = f"{rng.choice(_MOODS)} {rng.choice(_THEMES)} {rng.choice(_FORMATS)}"
        if _blacklisted(name):
            continue
        idx = names.add(name)
        if not any(names.similarity_at_least(idx, j, _DISTINCT_MARGIN) for j in neighbours):
            return name
        names.drop_last()
    raise RuntimeError("could not find a dissimilar event name")


def generate_feed(seed: int, out: Path) -> dict:
    """Write the feed_ingest inputs into ``out``; return the designed truth."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    venues = _venues(rng)

    schedule = random.Random(_SCHEDULE_SEED)
    starts = [_event_start(schedule, False) for _ in range(FEED_EVENTS - FEED_TEMPORAL)]
    late = [_event_start(schedule, True) for _ in range(FEED_TEMPORAL)]
    copy_counts = [n for n, events in _COPY_COUNTS.items() for _ in range(events)]
    rng.shuffle(starts)
    rng.shuffle(copy_counts)

    events = [{"venue": rng.randrange(len(venues)), "hours": rng.randint(2, 4),
               "kind": rng.choice(_KINDS), "copies": n} for n in copy_counts]
    usable = [e for e in events if venues[e["venue"]]["stage"] is None]
    out_of_scope = {id(e) for e in rng.sample(usable, FEED_TEMPORAL)}
    for event in events:
        event["stage"] = venues[event["venue"]]["stage"]
        if id(event) in out_of_scope:
            event["stage"], event["start"] = "temporal", late.pop()
        else:
            event["start"] = starts.pop()
    events.sort(key=lambda e: e["start"])

    base_names = NameIndex()
    for k, event in enumerate(events):
        neighbours = []
        for j in range(k - 1, -1, -1):
            if event["start"] - events[j]["start"] > _NEIGHBOUR_WINDOW:
                break
            neighbours.append(j)  # event j's base name is entry j of base_names
        event["name"] = _pick_name(rng, base_names, neighbours)

    # Near-duplicate copies, one per source that lists the event.
    records = {s["source_id"]: [] for s in FEED_SOURCES}
    copies = []  # (event index, start, name) of every raw record
    for k, event in enumerate(events):
        sources = rng.sample([s["source_id"] for s in FEED_SOURCES], event["copies"])
        for c, source_id in enumerate(sources):
            name = event["name"]
            if c > 0:
                name = _case_variant(rng, name)
                if rng.random() < 0.5:
                    name = _spelling_variant(rng, name)
                    while _blacklisted(name):
                        name = _spelling_variant(rng, event["name"])
            start = event["start"] + timedelta(
                minutes=rng.randint(-_MAX_JITTER_MIN, _MAX_JITTER_MIN) if c > 0 else 0)
            venue = venues[event["venue"]]
            venue_name = venue["name"] if c == 0 else _case_variant(rng, venue["name"])
            records[source_id].append(_raw_record(source_id, k, name, start, event, venue,
                                                  venue_name, rng))
            copies.append((k, start, name))

    _check_fusion_design(copies)

    for source in FEED_SOURCES:
        path = out / source["locator"]
        rows = records[source["source_id"]]
        if source["format"] == "json_records":
            _write(path, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows))
        else:
            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=_LISTINGS_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
            _write(path, buffer.getvalue())

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["query", "lat", "lon", "normalized_address"])
    for venue in venues:
        if venue["mode"] == "geocoded":
            writer.writerow([venue["name"], venue["lat"], venue["lon"],
                             f"{venue['name']}, {FEED_CITY}, {FEED_REGION}, {FEED_COUNTRY}"])
    _write(out / "geocodes.csv", buffer.getvalue())

    scope_end = FEED_START + timedelta(days=FEED_DAYS)
    _write_json(out / "config.json", {
        "sources": list(FEED_SOURCES),
        "geocoder": {"kind": "fixture", "table": "geocodes.csv"},
        "fusion": {"name_threshold": FUSION_THRESHOLD,
                   "time_tolerance_minutes": FUSION_WINDOW.total_seconds() / 60},
        "filter": {
            "required_fields": ["START_TIME", "LAT", "LON"],
            "blacklist_terms": list(FEED_BLACKLIST),
            "blacklist_target_fields": ["VENUE", "NAME"],
            "region_whitelist": [FEED_REGION],
            "geo": {"box": list(FEED_BOX)},
            "time": {"start": rfc3339(FEED_START), "end": rfc3339(scope_end)},
        },
        "paths": {"output": "out"},
    })

    drops = Counter(e["stage"] for e in events if e["stage"] is not None)
    truth = {
        "events": len(events),
        "records": len(copies),
        "kept": sum(1 for e in events if e["stage"] is None),
        "drops": {stage: drops.get(stage, 0)
                  for stage in ("availability", "geographic", "semantic", "temporal")},
        "geocoded_venues": sum(1 for v in venues if v["mode"] == "geocoded"),
    }
    _write_json(out / "truth.json", truth)
    return truth


def _raw_record(source_id: str, k: int, name: str, start: datetime, event: dict,
                venue: dict, venue_name: str, rng: random.Random) -> dict:
    end = event["start"] + timedelta(hours=event["hours"])
    lat, lon = (venue["lat"], venue["lon"]) if venue["has_coords"] else (None, None)
    if source_id == "calendar":
        record = {"id": f"c{k:05d}", "name": name, "start": rfc3339(start), "end": rfc3339(end),
                  "venue": venue_name, "city": FEED_CITY, "region": venue["region"],
                  "country": FEED_COUNTRY, "kind": event["kind"]}
        if lat is not None:
            record["lat"], record["lon"] = lat, lon
        return record
    if source_id == "tickets":
        local = timezone(LOCAL_OFFSET)
        record = {"ref": f"T-{k:05d}", "title": name,
                  "begins": start.astimezone(local).isoformat(timespec="seconds"),
                  "ends": end.astimezone(local).isoformat(timespec="seconds"),
                  "place": venue_name, "town": FEED_CITY, "province": venue["region"],
                  "nation": FEED_COUNTRY, "sold": rng.randint(20, 5000)}
        if lat is not None:
            record["latitude"], record["longitude"] = lat, lon
        return record
    return {"ID": f"L{k:05d}", "Title": name, "Start": _local_naive(start), "End": _local_naive(end),
            "Lat": "" if lat is None else lat, "Lon": "" if lon is None else lon,
            "Venue": venue_name, "City": FEED_CITY, "Region": venue["region"],
            "Country": FEED_COUNTRY, "Genre": event["kind"]}


def _local_naive(ts: datetime) -> str:
    return (ts.astimezone(UTC) + LOCAL_OFFSET).replace(tzinfo=None).isoformat(sep=" ")


def _check_fusion_design(copies: list[tuple[int, datetime, str]]) -> None:
    """Two records meet the fusion criterion exactly when they copy one event."""
    order = sorted(copies, key=lambda c: c[1])
    names = NameIndex()
    for _, _, name in order:
        names.add(name)
    span: dict[int, list[datetime]] = {}
    for event, start, _ in order:
        span.setdefault(event, []).append(start)
    for event, starts in span.items():
        if max(starts) - min(starts) > FUSION_WINDOW:
            raise RuntimeError(f"copies of event {event} start too far apart")
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[j][1] - order[i][1] > FUSION_WINDOW:
                break
            similar = names.similarity_at_least(i, j, FUSION_THRESHOLD)
            if similar != (order[i][0] == order[j][0]):
                raise RuntimeError(
                    f"fusion design broken: {order[i][2]!r} vs {order[j][2]!r}")


# ---------------------------------------------------------------------------
# city_analyze: 120 sites x 3 sectors, 2 metrics, 21 days hourly
# ---------------------------------------------------------------------------

CITY_START = datetime(2017, 3, 1, tzinfo=UTC)
CITY_DAYS = 21
CITY_BOX = (36.60, 36.84, -4.62, -4.34)
CITY_SITES = 120
CITY_SECTORS = 3
CITY_VENUES = 1200
CITY_EVENTS_PER_VENUE = 2
CITY_ANALYZED_CELLS = 3  # the causal cell plus two chosen by seed
CITY_CHECKED_EVENTS = 50
GEO_ASSOC = {"max_dist_km": 2.0, "min_sites": 1, "max_sites": 7}
EAW = {"pre_margin": 1, "post_margin": 1, "default_duration_hours": 3.0, "sigma_scale": 1.0}
# (name, 24-hour profile, noise sigma, causal bump amplitude)
CITY_METRICS = (
    ("NUM_DROPS", (2, 1, 1, 1, 0, 0, 1, 2, 3, 4, 4, 5, 5, 5, 4, 4, 5, 5, 6, 6, 5, 4, 3, 2),
     0.8, 8.0),
    ("NUM_RRC_CONN", (120, 100, 85, 75, 70, 70, 90, 140, 220, 300, 340, 360,
                      370, 365, 350, 345, 360, 380, 400, 390, 350, 280, 200, 150),
     30.0, 300.0),
)
CAUSAL_VENUE = "Harbourfront Arena"
_CAUSAL_QUIET = timedelta(hours=6)  # no decoy event overlaps the causal window +- this


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance on the 6371 km sphere (arcsine form; numpy-aware)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlat = p2 - p1
    dlon = np.radians(lon2) - np.radians(lon1)
    h = np.sin(dlat / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def bearing_deg(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlon = math.radians(lon2 - lon1)
    y = math.sin(dlon) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dlon)
    return math.degrees(math.atan2(y, x)) % 360.0


def destination(lat: float, lon: float, bearing: float, km: float) -> tuple[float, float]:
    delta, theta = km / EARTH_RADIUS_KM, math.radians(bearing)
    p1, l1 = math.radians(lat), math.radians(lon)
    p2 = math.asin(math.sin(p1) * math.cos(delta) + math.cos(p1) * math.sin(delta) * math.cos(theta))
    l2 = l1 + math.atan2(math.sin(theta) * math.sin(delta) * math.cos(p1),
                         math.cos(delta) - math.sin(p1) * math.sin(p2))
    return math.degrees(p2), (math.degrees(l2) + 180.0) % 360.0 - 180.0


def _offset_deg(azimuth: float, bearing: float) -> float:
    diff = abs(azimuth - bearing) % 360.0
    return 360.0 - diff if diff > 180.0 else diff


def close_sites(lat: float, lon: float, sites: list[dict]) -> list[tuple[str, float]]:
    """The documented association rule: sites within max_dist_km, nearest
    first (ties by site_id), at most max_sites, at least min_sites."""
    dist = haversine_km(lat, lon, np.array([s["lat"] for s in sites]),
                        np.array([s["lon"] for s in sites]))
    ranked = sorted(zip((s["site_id"] for s in sites), dist.tolist()), key=lambda p: (p[1], p[0]))
    within = [p for p in ranked if p[1] <= GEO_ASSOC["max_dist_km"]]
    if len(within) < GEO_ASSOC["min_sites"]:
        within = ranked[:GEO_ASSOC["min_sites"]]
    return within[:GEO_ASSOC["max_sites"]]


def _eaw_bump(start: datetime, end: datetime, n_samples: int, amplitude: float) -> np.ndarray:
    """The documented event window on the hourly grid (one sample of margin
    each side, stop rounded up) with a Gaussian peak at its midpoint,
    sigma = window / 6."""
    hour = timedelta(hours=1)
    n_start = (start - CITY_START) // hour - EAW["pre_margin"]
    quotient, remainder = divmod(end - CITY_START, hour)
    n_end = quotient + (1 if remainder else 0) + EAW["post_margin"]
    mu, sigma = (n_start + n_end) / 2.0, (n_end - n_start + 1) / 6.0
    index = np.arange(n_samples, dtype=float)
    return amplitude * np.exp(-((index - mu) ** 2) / (2.0 * sigma * sigma))


def generate_city(seed: int, out: Path) -> dict:
    """Write the city_analyze inputs into ``out``; return the designed truth."""
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "out").mkdir(exist_ok=True)
    lat_min, lat_max, lon_min, lon_max = CITY_BOX
    width = 360.0 / CITY_SECTORS

    sites, cells = [], []
    for s in range(CITY_SITES):
        site = {"site_id": f"S{s + 1:03d}", "lat": round(rng.uniform(lat_min, lat_max), 6),
                "lon": round(rng.uniform(lon_min, lon_max), 6)}
        sites.append(site)
        rotation = rng.uniform(0.0, width)
        for k in range(CITY_SECTORS):
            cells.append({"cell_id": f"{site['site_id']}{'ABC'[k]}", "site_id": site["site_id"],
                          "lat": site["lat"], "lon": site["lon"],
                          "azimuth": round((rotation + k * width) % 360.0, 3), "width": width,
                          "scale": rng.uniform(0.5, 1.5)})
    site_cells = {s["site_id"]: [c for c in cells if c["site_id"] == s["site_id"]] for s in sites}

    # The injected causal event: 0.4 km from its anchor site inside one beam.
    anchor_cell = rng.choice(cells)
    anchor = next(s for s in sites if s["site_id"] == anchor_cell["site_id"])
    lat, lon = destination(anchor["lat"], anchor["lon"],
                           anchor_cell["azimuth"] + rng.uniform(-20.0, 20.0), 0.4)
    causal = {"lat": round(lat, 6), "lon": round(lon, 6),
              "start": CITY_START + timedelta(days=rng.randint(8, 12), hours=19), "hours": 4}
    causal_end = causal["start"] + timedelta(hours=causal["hours"])
    in_beam = []
    for site_id, _ in close_sites(causal["lat"], causal["lon"], sites):
        site = next(s for s in sites if s["site_id"] == site_id)
        bearing = bearing_deg(site["lat"], site["lon"], causal["lat"], causal["lon"])
        in_beam += [c["cell_id"] for c in site_cells[site_id]
                    if _offset_deg(c["azimuth"], bearing) < c["width"] / 2.0]
    if anchor_cell["cell_id"] not in in_beam:
        raise RuntimeError("causal event fell outside its anchor beam")

    records = [{"EVENT_ID": "city/causal", "NAME": "Harbourfront Season Opener",
                "START_TIME": rfc3339(causal["start"]), "END_TIME": rfc3339(causal_end),
                "LAT": causal["lat"], "LON": causal["lon"], "VENUE": CAUSAL_VENUE,
                "CATEGORY": "musical", "SOURCE_ID": "city", "RAW_ID": "causal"}]
    quiet_from, quiet_to = causal["start"] - _CAUSAL_QUIET, causal_end + _CAUSAL_QUIET
    for v in range(CITY_VENUES):
        vlat = round(rng.uniform(lat_min, lat_max), 6)
        vlon = round(rng.uniform(lon_min, lon_max), 6)
        for e in range(CITY_EVENTS_PER_VENUE):
            while True:
                start = CITY_START + timedelta(days=rng.randrange(CITY_DAYS),
                                               hours=rng.randint(8, 20))
                end = start + timedelta(hours=rng.randint(2, 4))
                if end <= quiet_from or start >= quiet_to:
                    break
            raw_id = f"v{v:04d}e{e}"
            records.append({"EVENT_ID": f"city/{raw_id}", "NAME": f"Community Meetup {v:04d}-{e}",
                            "START_TIME": rfc3339(start), "END_TIME": rfc3339(end),
                            "LAT": vlat, "LON": vlon, "VENUE": f"Venue {v:04d}",
                            "SOURCE_ID": "city", "RAW_ID": raw_id})
    _write(out / "out" / "events.ndjson",
           "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["cell_id", "site_id", "lat", "lon", "azimuth", "hor_width", "technology"])
    for c in cells:
        writer.writerow([c["cell_id"], c["site_id"], c["lat"], c["lon"], c["azimuth"],
                         c["width"], "LTE"])
    _write(out / "topology.csv", buffer.getvalue())

    n_samples = CITY_DAYS * 24
    stamps = [rfc3339(CITY_START + timedelta(hours=n)) for n in range(n_samples)]
    hours = np.arange(n_samples) % 24
    weekend = np.array([(CITY_START + timedelta(hours=n)).weekday() >= 5
                        for n in range(n_samples)])
    bump_unit = _eaw_bump(causal["start"], causal_end, n_samples, 1.0)
    with (out / "kpis.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("cell_id,metric,timestamp,value\n")
        for c in sorted(cells, key=lambda c: c["cell_id"]):
            for name, profile, sigma, amplitude in CITY_METRICS:
                values = np.asarray(profile, dtype=float)[hours] * np.where(weekend, 0.8, 1.0)
                values = c["scale"] * values + sigma * noise.standard_normal(n_samples)
                if c["cell_id"] in in_beam:
                    values = values + c["scale"] * amplitude * bump_unit
                prefix = f"{c['cell_id']},{name},"
                handle.write("".join(f"{prefix}{ts},{v:.3f}\n"
                                     for ts, v in zip(stamps, values.tolist())))

    analyzed = [anchor_cell["cell_id"]] + rng.sample(
        sorted(c["cell_id"] for c in cells if c["cell_id"] != anchor_cell["cell_id"]),
        CITY_ANALYZED_CELLS - 1)
    checked = rng.sample([r["EVENT_ID"] for r in records], CITY_CHECKED_EVENTS)
    _write_json(out / "config.json", {
        "sources": [],
        "geocoder": None,
        "filter": {"geo": {"box": list(CITY_BOX)},
                   "time": {"start": rfc3339(CITY_START),
                            "end": rfc3339(CITY_START + timedelta(days=CITY_DAYS))}},
        "geo_assoc": GEO_ASSOC,
        "eaw": EAW,
        "metrics": [m[0] for m in CITY_METRICS],
        "r_threshold": 0.7,
        "aggregate_stat": "mean",
        "normalization": "auto",
        "paths": {"topology": "topology.csv", "kpis": "kpis.csv", "output": "out"},
    })
    truth = {"causal_venue": CAUSAL_VENUE, "causal_cell": anchor_cell["cell_id"],
             "in_beam_cells": sorted(in_beam), "analyzed_cells": analyzed,
             "checked_events": checked, "kpi_rows": len(cells) * len(CITY_METRICS) * n_samples}
    _write_json(out / "truth.json", truth)
    return truth


GENERATORS = {"feed_ingest": generate_feed, "city_analyze": generate_city}
