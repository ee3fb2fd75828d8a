"""Deterministic synthetic scenarios: topology, events, venues and KPI series
with injected event-driven anomalies, daily periodicity and noise, plus
ground-truth labels. These bundles are the oracle for end-to-end tests.

Randomness comes from SplitMix64 run in counter mode (output i is
``mix64(seed + (i+1) * golden_gamma)``), a named, portable 64-bit generator:
the same seed yields the same bytes everywhere.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import OutOfRange, SpecError
from .fsutil import atomic_write_text
from .geo import destination_point, haversine_km
from .ingest import BoundingBox, SocialEvent, SourceConfig, parse_record
from .network import Cell, KpiSeries, Site, save_topology, slot_indices, write_kpis
from .association import build_eaw, filter_by_bearing, social_indicator
from .timeutil import UTC, format_rfc3339

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SCALAR_BLOCK = 64  # uniforms one numpy call serves to scalar draws


class CounterRng:
    """SplitMix64 in counter mode; all draws derive from (seed, counter).

    Scalar draws take draw ``counter`` from a block of ``uniforms`` computed
    ahead at the same indexes, so each costs no numpy call of its own; the
    counter moves as if they had called ``uniforms(1)``.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        self._counter = 0
        self._block: list[float] = []  # uniforms at counter indexes _block_at, _block_at + 1, ...
        self._block_at = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z = idx * np.uint64(_GAMMA) + self._seed
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in (0, 1]."""
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53

    def _scalar(self) -> float:
        """The next uniform, equal to ``uniforms(1)[0]``."""
        k = self._counter - self._block_at
        if k >= len(self._block):
            self._block_at, k = self._counter, 0
            self._block = self.uniforms(_SCALAR_BLOCK).tolist()
        self._counter = self._block_at + k + 1
        return self._block[k]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + self._scalar() * (high - low)

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive."""
        return min(high, low + int(self._scalar() * (high - low + 1)))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[:pairs], u[pairs:]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]


# ---------------------------------------------------------------------------
# Scenario specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    name: str
    daily_profile: tuple[float, ...]  # 24 values, repeated every day
    noise_sigma: float = 0.0

    def __post_init__(self):
        # load_kpis strips names and reads one line per row, so no other name round-trips
        name = self.name
        if not name or name != name.strip() or "\r" in name or "\n" in name:
            raise SpecError(f"metric {name!r}: a name must be non-empty, without CR, LF "
                            f"or leading or trailing whitespace")
        if len(self.daily_profile) != 24:
            raise SpecError(f"metric {self.name}: daily_profile needs 24 values")
        if not all(map(math.isfinite, self.daily_profile)):
            raise SpecError(f"metric {self.name}: daily_profile values must be finite")
        if not 0 <= self.noise_sigma < math.inf:  # also rejects NaN
            raise SpecError(f"metric {self.name}: noise sigma must be finite and >= 0")


@dataclass(frozen=True)
class InjectedEventSpec:
    """One causal event. Placed either at explicit coordinates or anchored to
    a generated site (distance along a bearing), which guarantees a known
    geometric relation to the topology."""

    venue: str
    start: datetime
    duration: timedelta
    amplitudes: Mapping[str, float]
    lat: Optional[float] = None
    lon: Optional[float] = None
    anchor_site: Optional[int] = None
    anchor_bearing_deg: float = 0.0
    anchor_distance_km: float = 0.5
    cells: Union[str, tuple[str, ...]] = "auto"
    category: Optional[str] = None

    def __post_init__(self):
        if not all(0 <= a < math.inf for a in self.amplitudes.values()):  # also rejects NaN
            raise SpecError(f"event at {self.venue}: amplitudes must be finite and >= 0")
        placement = (self.lat, self.lon, self.anchor_bearing_deg, self.anchor_distance_km)
        if not all(math.isfinite(v) for v in placement if v is not None):
            raise SpecError(f"event at {self.venue}: lat, lon, anchor bearing and distance "
                            f"must be finite")
        explicit = self.lat is not None and self.lon is not None
        if explicit == (self.anchor_site is not None):
            raise SpecError(f"event at {self.venue}: set either lat/lon or an anchor site")
        if self.duration <= timedelta(0):
            raise SpecError(f"event at {self.venue}: duration must be positive")


@dataclass(frozen=True)
class DecoySpec:
    count: int = 0
    placement: str = "in_area"  # or "far"
    events_per_venue: int = 1
    min_km_from_sites: float = 3.0

    def __post_init__(self):
        if self.placement not in ("in_area", "far"):
            raise SpecError(f"unknown decoy placement {self.placement!r}")
        if self.count < 0 or self.events_per_venue < 1:
            raise SpecError("decoy count must be >= 0 and events_per_venue >= 1")
        if not math.isfinite(self.min_km_from_sites):
            raise SpecError("decoy min_km_from_sites must be finite")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    n_sites: int
    area: BoundingBox
    days: int
    metrics: tuple[MetricSpec, ...]
    injected: tuple[InjectedEventSpec, ...] = ()
    decoys: DecoySpec = DecoySpec()
    sectors_per_site: int = 3
    start: datetime = datetime(2017, 3, 1, tzinfo=UTC)

    def __post_init__(self):
        if self.n_sites < 1 or self.days < 1 or self.sectors_per_site < 1:
            raise SpecError("n_sites, days and sectors_per_site must be >= 1")
        if not self.metrics:
            raise SpecError("at least one metric is required")
        names = [m.name for m in self.metrics]
        if len(set(names)) != len(names):
            raise SpecError("duplicate metric names")
        end = self.start + timedelta(days=self.days)
        for ev in self.injected:
            if not (self.start <= ev.start and ev.start + ev.duration <= end):
                raise SpecError(f"event at {ev.venue} outside the scenario time span")
            if ev.anchor_site is not None and not 0 <= ev.anchor_site < self.n_sites:
                raise SpecError(f"event at {ev.venue}: anchor site {ev.anchor_site} out of range")


SIM_FIELD_MAP = {
    "id": "RAW_ID",
    "name": "NAME",
    "start": "START_TIME",
    "end": "END_TIME",
    "lat": "LAT",
    "lon": "LON",
    "venue": "VENUE",
    "kind": "TYPE",
    "street": "ADDRESS_STREET",
    "city": "ADDRESS_CITY",
    "region": "ADDRESS_REGION",
    "country": "ADDRESS_COUNTRY",
    "tickets": "POPULARITY",
}


# The source each fixture's records are parsed with, as its config.json names it.
_SOURCE = SourceConfig(source_id="calendar", locator="events.ndjson", field_map=SIM_FIELD_MAP)


@dataclass
class FixtureBundle:
    """Everything one scenario produced, in memory, plus file writers."""

    records: list[dict]
    events: list[SocialEvent]
    sites: list[Site]
    cells: list[Cell]
    series: list[KpiSeries]
    ground_truth: dict
    config: dict

    def write(self, out_dir: str | Path) -> list[Path]:
        """Write the bundle's files into ``out_dir``; return their paths.

        The KPI file goes first: ``write_kpis`` refuses an infinite value
        before it writes, so a refused bundle leaves no file behind."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        kpi_path = out / "kpis.csv"
        if self.series:
            write_kpis(self.series, kpi_path)
        written = []
        events_path = out / "events.ndjson"
        lines = [json.dumps(r, ensure_ascii=False) for r in self.records]
        atomic_write_text(events_path, "\n".join(lines) + ("\n" if lines else ""))
        written.append(events_path)
        if self.cells:
            topology_path = out / "topology.csv"
            save_topology(self.sites, self.cells, topology_path)
            written.append(topology_path)
        if self.series:
            written.append(kpi_path)
        truth_path = out / "ground_truth.json"
        atomic_write_text(truth_path, json.dumps(self.ground_truth, indent=2) + "\n")
        written.append(truth_path)
        config_path = out / "config.json"
        atomic_write_text(config_path, json.dumps(self.config, indent=2) + "\n")
        written.append(config_path)
        return written


def _run_config(
    area: BoundingBox,
    start: datetime,
    end: datetime,
    metrics: Sequence[str],
    blacklist: Sequence[str] = (),
    region_whitelist: Optional[Sequence[str]] = None,
    with_network: bool = True,
) -> dict:
    config: dict = {
        "sources": [
            {
                "source_id": "calendar",
                "kind": "file",
                "locator": "events.ndjson",
                "format": "json_records",
                "field_map": SIM_FIELD_MAP,
                "priority": 0,
            }
        ],
        "geocoder": None,
        "fusion": {"name_threshold": 0.85, "time_tolerance_minutes": 30},
        "filter": {
            "required_fields": ["START_TIME", "LAT", "LON"],
            "blacklist_terms": list(blacklist),
            "blacklist_target_fields": ["VENUE", "NAME"],
            "region_whitelist": list(region_whitelist) if region_whitelist else None,
            "geo": {"box": [area.lat_min, area.lat_max, area.lon_min, area.lon_max]},
            "time": {"start": format_rfc3339(start), "end": format_rfc3339(end)},
        },
        "geo_assoc": {"max_dist_km": 2.0, "min_sites": 1, "max_sites": 7},
        "eaw": {"pre_margin": 1, "post_margin": 1, "default_duration_hours": 3.0,
                "sigma_scale": 1.0},
        "metrics": list(metrics),
        "r_threshold": 0.7,
        "aggregate_stat": "mean",
        "normalization": "auto",
        "paths": {"output": "out"},
    }
    if with_network:
        config["paths"]["topology"] = "topology.csv"
        config["paths"]["kpis"] = "kpis.csv"
    return config


# ---------------------------------------------------------------------------
# Generic generator
# ---------------------------------------------------------------------------

def _sector_cells(site_index: int, sectors: int) -> list[Cell]:
    width = 360.0 / sectors
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [
        Cell(
            cell_id=f"CELL_{site_index + 1}{letters[k]}",
            site_id=f"SITE_{site_index + 1}",
            azimuth=(k * width) % 360.0,
            hor_width=width,
            technology="LTE",
        )
        for k in range(sectors)
    ]


def build(spec: ScenarioSpec) -> FixtureBundle:
    """Materialize a scenario in memory. Same spec and seed, same output."""
    rng = CounterRng(spec.seed)
    n_samples = spec.days * 24
    period = timedelta(hours=1)
    end = spec.start + timedelta(days=spec.days)

    sites: list[Site] = []
    cells: list[Cell] = []
    for i in range(spec.n_sites):
        lat = rng.uniform(spec.area.lat_min, spec.area.lat_max)
        lon = rng.uniform(spec.area.lon_min, spec.area.lon_max)
        site_cells = _sector_cells(i, spec.sectors_per_site)
        cells.extend(site_cells)
        sites.append(Site(f"SITE_{i + 1}", lat, lon, tuple(c.cell_id for c in site_cells)))

    records: list[dict] = []
    truth_entries: list[dict] = []
    injections: list[tuple[InjectedEventSpec, tuple[float, float], list[str]]] = []

    for k, ev in enumerate(spec.injected):
        if ev.anchor_site is not None:
            anchor = sites[ev.anchor_site]
            point = destination_point(anchor.location, ev.anchor_bearing_deg, ev.anchor_distance_km)
        else:
            point = (ev.lat, ev.lon)
        if ev.cells == "auto":
            nearest = min(sites, key=lambda s: (haversine_km(point, s.location), s.site_id))
            own = [c for c in cells if c.site_id == nearest.site_id]
            causal = [c.cell_id for c in filter_by_bearing(own, nearest, point)]
        else:
            causal = list(ev.cells)
        if not causal:
            raise SpecError(f"event at {ev.venue}: no causal cell selected")
        raw_id = f"inj{k:02d}"
        records.append(
            {
                "id": raw_id,
                "name": f"Flagship Event {k:02d}",
                "start": format_rfc3339(ev.start),
                "end": format_rfc3339(ev.start + ev.duration),
                "lat": round(point[0], 6),
                "lon": round(point[1], 6),
                "venue": ev.venue,
                **({"kind": ev.category} if ev.category else {}),
            }
        )
        injections.append((ev, point, sorted(causal)))
        truth_entries.append(
            {
                "event_id": f"calendar/{raw_id}",
                "venue": ev.venue,
                "causal_cells": sorted(causal),
                "metrics": sorted(m for m, a in ev.amplitudes.items() if a > 0),
            }
        )

    for k in range(spec.decoys.count):
        if spec.decoys.placement == "in_area":
            lat = rng.uniform(spec.area.lat_min, spec.area.lat_max)
            lon = rng.uniform(spec.area.lon_min, spec.area.lon_max)
        else:
            lat, lon = _place_far(rng, spec, sites)
        for j in range(spec.decoys.events_per_venue):
            day = rng.randint(0, spec.days - 1)
            hour = rng.randint(8, 19)
            duration = rng.randint(2, 4)
            start = spec.start + timedelta(days=day, hours=hour)
            records.append(
                {
                    "id": f"bg{k:02d}-{j}",
                    "name": _decoy_name(k * spec.decoys.events_per_venue + j),
                    "start": format_rfc3339(start),
                    "end": format_rfc3339(start + timedelta(hours=duration)),
                    "lat": round(lat, 6),
                    "lon": round(lon, 6),
                    "venue": f"Venue B{k:02d}",
                }
            )

    events = [parse_record(r, _SOURCE) for r in records]
    event_by_id = {e.event_id: e for e in events}

    probe = {
        m.name: KpiSeries("_probe", m.name, spec.start, period, np.zeros(n_samples))
        for m in spec.metrics
    }
    sample_index = np.arange(n_samples, dtype=float)
    bump_by_cell_metric: dict[tuple[str, str], np.ndarray] = {}
    for (ev, point, causal), entry in zip(injections, truth_entries):
        event = event_by_id[entry["event_id"]]
        for metric_name, amplitude in ev.amplitudes.items():
            if metric_name not in probe:
                raise SpecError(f"event at {ev.venue}: unknown metric {metric_name!r}")
            if amplitude == 0:
                continue
            try:
                eaw = build_eaw(event, probe[metric_name])
            except OutOfRange:
                raise SpecError(f"event at {ev.venue} outside the KPI span") from None
            mu = (eaw.n_start + eaw.n_end) / 2.0
            sigma = len(eaw) / 6.0
            bump = amplitude * np.exp(-((sample_index - mu) ** 2) / (2.0 * sigma * sigma))
            for cell_id in causal:
                key = (cell_id, metric_name)
                with np.errstate(over="ignore"):  # inf, refused by write_kpis like any sum below
                    bump_by_cell_metric[key] = bump_by_cell_metric.get(key, 0.0) + bump

    series: list[KpiSeries] = []
    hours = slot_indices(spec.start, period, n_samples, "hour_of_day")
    for cell in sorted(cells, key=lambda c: c.cell_id):
        for metric in spec.metrics:
            values = np.asarray(metric.daily_profile, dtype=float)[hours].copy()
            bump = bump_by_cell_metric.get((cell.cell_id, metric.name))
            with np.errstate(over="ignore"):  # a sum past float range is inf: write_kpis refuses it
                if bump is not None:
                    values += bump
                if metric.noise_sigma > 0:
                    values += metric.noise_sigma * rng.normals(n_samples)
            series.append(KpiSeries(cell.cell_id, metric.name, spec.start, period, values))

    # The filter box covers every injected event, so filtering never drops one.
    injected_points = [(r["lat"], r["lon"]) for r in records[: len(spec.injected)]]
    config = _run_config(_covering_box(spec.area, injected_points), spec.start, end,
                         [m.name for m in spec.metrics])
    ground_truth = {"seed": spec.seed, "events": truth_entries}
    return FixtureBundle(records, events, sites, cells, series, ground_truth, config)


def _covering_box(area: BoundingBox, points: Sequence[tuple[float, float]]) -> BoundingBox:
    """Smallest box that holds ``area`` and every point."""
    lats, lons = [p[0] for p in points], [p[1] for p in points]
    return BoundingBox(min([area.lat_min, *lats]), max([area.lat_max, *lats]),
                       min([area.lon_min, *lons]), max([area.lon_max, *lons]))


def _place_far(rng: CounterRng, spec: ScenarioSpec, sites: Sequence[Site]) -> tuple[float, float]:
    pad = 0.2
    for _ in range(1000):
        lat = rng.uniform(spec.area.lat_min - pad, spec.area.lat_max + pad)
        lon = rng.uniform(spec.area.lon_min - pad, spec.area.lon_max + pad)
        if all(haversine_km((lat, lon), s.location) > spec.decoys.min_km_from_sites for s in sites):
            return lat, lon
    raise SpecError("could not place a far decoy venue; area too crowded")


# Decoy event names spell their index in base 16, one word per digit. Any two
# words are at least 4 edits apart, so two names of up to three words stay
# below the 0.85 fusion similarity and decoy events never fuse.
_DECOY_WORDS = ("Amber", "Birch", "Coral", "Dunes", "Fjord", "Grove", "Heron", "Lotus",
                "Maple", "Pearl", "Quill", "Tulip", "Wheat", "Yacht", "Lilac", "Oasis")


def _decoy_name(index: int) -> str:
    words = []
    while True:
        index, digit = divmod(index, len(_DECOY_WORDS))
        words.append(_DECOY_WORDS[digit])
        if not index:
            return " ".join(reversed(words))


def detection_spec(seed: int, noise_scale: float = 1.0) -> ScenarioSpec:
    """Preset: one causal venue anchored to SITE_1 among 12 in-area decoy
    venues (two events each), over ten days with moderate noise."""
    drops_profile = (2, 1, 1, 1, 0, 0, 1, 2, 3, 4, 4, 5, 5, 5, 4, 4, 5, 5, 6, 6, 5, 4, 3, 2)
    rrc_profile = (120, 100, 85, 75, 70, 70, 90, 140, 220, 300, 340, 360,
                   370, 365, 350, 345, 360, 380, 400, 390, 350, 280, 200, 150)
    start = datetime(2017, 3, 1, tzinfo=UTC)
    return ScenarioSpec(
        seed=seed,
        n_sites=4,
        area=BoundingBox(36.60, 36.84, -4.62, -4.34),
        days=10,
        metrics=(
            MetricSpec("NUM_DROPS", drops_profile, 0.8 * noise_scale),
            MetricSpec("NUM_RRC_CONN", rrc_profile, 30.0 * noise_scale),
        ),
        injected=(
            InjectedEventSpec(
                venue="Riverside Arena",
                start=start + timedelta(days=4, hours=18),
                duration=timedelta(hours=5),
                amplitudes={"NUM_DROPS": 8.0, "NUM_RRC_CONN": 300.0},
                anchor_site=0,
                anchor_bearing_deg=0.0,
                anchor_distance_km=0.5,
                category="musical",
            ),
        ),
        decoys=DecoySpec(count=12, placement="in_area", events_per_venue=2),
        start=start,
    )


# ---------------------------------------------------------------------------
# Curated fixture: one tri-sector site, five close venues with fixed
# distance/bearing geometry, KPI windows composed to hit exact correlations.
# ---------------------------------------------------------------------------

_T1_SITE = ("SITE_1", 36.7201, -4.4203)
_T1_METRICS = ("NUM_RRC_CONN", "NUM_DROPS", "DL_USER_THR")
_T1_PROFILES = {
    "NUM_RRC_CONN": (120, 100, 85, 75, 70, 70, 90, 140, 220, 300, 340, 360,
                     370, 365, 350, 345, 360, 380, 400, 390, 350, 280, 200, 150),
    "NUM_DROPS": (2, 1, 1, 1, 0, 0, 1, 2, 3, 4, 4, 5, 5, 5, 4, 4, 5, 5, 6, 6, 5, 4, 3, 2),
    "DL_USER_THR": (45, 48, 50, 52, 53, 53, 50, 42, 35, 30, 28, 27,
                    27, 27, 28, 29, 28, 26, 25, 25, 28, 33, 38, 42),
}
# venue -> (type label, distance km, bearing offset from the 120-degree cell,
#           side of the azimuth the venue sits on)
_T1_VENUES = {
    "VENUE_L": ("Large auditorium", 0.56, 15.22, +1),
    "VENUE_M": ("Religious center", 1.2, 4.46, -1),
    "VENUE_U": ("Events pavilion", 0.53, 18.63, +1),
    "VENUE_W": ("Private shop", 1.61, 5.79, -1),
    "VENUE_Z": ("Exhibit hall", 0.67, 33.17, +1),
}
# Aggregate |r| targets per venue and metric (mean over the venue's events).
T1_EXPECTED_ABS_R = {
    "VENUE_L": {"NUM_RRC_CONN": 0.83, "NUM_DROPS": 0.73, "DL_USER_THR": 0.84},
    "VENUE_M": {"NUM_RRC_CONN": 0.13, "NUM_DROPS": 0.19, "DL_USER_THR": 0.26},
    "VENUE_U": {"NUM_RRC_CONN": 0.24, "NUM_DROPS": 0.03, "DL_USER_THR": 0.11},
    "VENUE_W": {"NUM_RRC_CONN": 0.07, "NUM_DROPS": 0.07, "DL_USER_THR": 0.03},
    "VENUE_Z": {"NUM_RRC_CONN": 0.28, "NUM_DROPS": 0.40, "DL_USER_THR": 0.12},
}
# Per-event signed r and bump amplitude; VENUE_L's three events average to
# the targets above, every other venue hosts a single event. DL throughput
# correlates negatively (congestion dips).
_T1_EVENTS = [
    # (raw_id, venue, name, kind, day, start_h, end_h or None,
    #  {metric: (r_signed, amplitude)})
    ("L1", "VENUE_L", "Massive Concert", "musical", 2, 19, 23,
     {"NUM_RRC_CONN": (0.88, 400.0), "NUM_DROPS": (0.78, 30.0), "DL_USER_THR": (-0.87, 18.0)}),
    ("L2", "VENUE_L", "Political Meeting", "political", 3, 18, 22,
     {"NUM_RRC_CONN": (0.85, 350.0), "NUM_DROPS": (0.76, 26.0), "DL_USER_THR": (-0.86, 16.0)}),
    ("L3", "VENUE_L", "Minor Sport Tournament", "sport", 6, 17, 19,
     {"NUM_RRC_CONN": (0.76, 120.0), "NUM_DROPS": (0.65, 8.0), "DL_USER_THR": (-0.79, 6.0)}),
    ("M1", "VENUE_M", "Choir Assembly", "musical", 4, 10, None,
     {"NUM_RRC_CONN": (0.13, 60.0), "NUM_DROPS": (0.19, 4.0), "DL_USER_THR": (-0.26, 3.0)}),
    ("U1", "VENUE_U", "Trade Expo", "fair", 1, 13, 16,
     {"NUM_RRC_CONN": (0.24, 70.0), "NUM_DROPS": (0.03, 4.0), "DL_USER_THR": (-0.11, 3.0)}),
    ("W1", "VENUE_W", "Private Sale", "commercial", 5, 11, None,
     {"NUM_RRC_CONN": (0.07, 50.0), "NUM_DROPS": (0.07, 3.0), "DL_USER_THR": (-0.03, 2.0)}),
    ("Z1", "VENUE_Z", "Art Exhibition", "cultural", 7, 20, 22,
     {"NUM_RRC_CONN": (0.28, 80.0), "NUM_DROPS": (0.40, 5.0), "DL_USER_THR": (-0.12, 3.0)}),
]
# Venues inside the association distance but outside the analyzed cell's
# angular field: (name, distance km, absolute bearing from the site).
_T1_SHADOW_VENUES = [
    ("VENUE_A", 0.40, 220.0), ("VENUE_B", 0.70, 250.0), ("VENUE_C", 0.90, 280.0),
    ("VENUE_D", 1.10, 310.0), ("VENUE_E", 1.30, 340.0), ("VENUE_F", 1.50, 10.0),
    ("VENUE_G", 1.70, 40.0), ("VENUE_H", 1.80, 240.0), ("VENUE_I", 1.90, 0.0),
    ("VENUE_J", 0.60, 300.0),
]
_T1_SHADOW_EVENT_COUNTS = [3, 3, 3, 2, 2, 2, 2, 2, 2, 1]  # 22 events in 10 venues


def _orthogonal_profile(samples: np.ndarray, r_target: float, amplitude: float) -> np.ndarray:
    """Window content whose Pearson correlation with ``samples`` is exactly
    ``r_target``: r * u + sqrt(1 - r^2) * v with u, v centered orthonormal."""
    centered = samples - samples.mean()
    u = centered / np.linalg.norm(centered)
    alternating = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(len(samples))])
    alternating -= alternating.mean()
    w = alternating - (alternating @ u) * u
    norm_w = np.linalg.norm(w)
    if norm_w < 1e-9:
        raise SpecError("degenerate orthogonal profile")
    v = w / norm_w
    return amplitude * (r_target * u + math.sqrt(1.0 - r_target * r_target) * v)


def table1_fixture() -> FixtureBundle:
    """One tri-sector site, five venues in the 120-degree cell's field plus
    ten outside it, nine days of hourly KPIs whose windows reproduce the
    expected per-venue correlation aggregates exactly."""
    site_id, site_lat, site_lon = _T1_SITE
    cells = [
        Cell("CELL_1A", site_id, 120.0, 120.0, "LTE"),
        Cell("CELL_1B", site_id, 240.0, 120.0, "LTE"),
        Cell("CELL_1C", site_id, 0.0, 120.0, "LTE"),
    ]
    site = Site(site_id, site_lat, site_lon, tuple(c.cell_id for c in cells))
    start = datetime(2017, 3, 1, tzinfo=UTC)
    days = 9
    n_samples = days * 24
    period = timedelta(hours=1)

    venue_pos: dict[str, tuple[float, float]] = {}
    for name, (_, dist, offset, side) in _T1_VENUES.items():
        venue_pos[name] = destination_point(site.location, 120.0 + side * offset, dist)
    for name, dist, bearing in _T1_SHADOW_VENUES:
        venue_pos[name] = destination_point(site.location, bearing, dist)

    records: list[dict] = []
    for raw_id, venue, name, kind, day, start_h, end_h, _ in _T1_EVENTS:
        lat, lon = venue_pos[venue]
        record = {
            "id": raw_id,
            "name": name,
            "start": format_rfc3339(start + timedelta(days=day, hours=start_h)),
            "lat": round(lat, 6),
            "lon": round(lon, 6),
            "venue": venue,
            "kind": kind,
        }
        if end_h is not None:
            record["end"] = format_rfc3339(start + timedelta(days=day, hours=end_h))
        records.append(record)
    counter = 0
    for (venue, _, _), n_events in zip(_T1_SHADOW_VENUES, _T1_SHADOW_EVENT_COUNTS):
        lat, lon = venue_pos[venue]
        for _ in range(n_events):
            day, hour = counter % 9, 8 + counter % 12
            records.append(
                {
                    "id": f"S{counter:02d}",
                    "name": f"Neighborhood Meetup {counter:02d}",
                    "start": format_rfc3339(start + timedelta(days=day, hours=hour)),
                    "end": format_rfc3339(start + timedelta(days=day, hours=hour + 2)),
                    "lat": round(lat, 6),
                    "lon": round(lon, 6),
                    "venue": venue,
                }
            )
            counter += 1

    events = [parse_record(r, _SOURCE) for r in records]
    event_by_raw = {e.raw_id: e for e in events}

    hours = slot_indices(start, period, n_samples, "hour_of_day")
    values: dict[tuple[str, str], np.ndarray] = {}
    for cell in cells:
        for metric in _T1_METRICS:
            values[(cell.cell_id, metric)] = (
                np.asarray(_T1_PROFILES[metric], dtype=float)[hours].copy()
            )

    for raw_id, _, _, _, _, _, _, targets in _T1_EVENTS:
        event = event_by_raw[raw_id]
        for metric, (r_signed, amplitude) in targets.items():
            base = values[("CELL_1A", metric)]
            probe = KpiSeries("CELL_1A", metric, start, period, base)
            eaw = build_eaw(event, probe)
            base[eaw.n_start : eaw.n_end + 1] += _orthogonal_profile(
                social_indicator(eaw), r_signed, amplitude
            )

    series = [
        KpiSeries(cell_id, metric, start, period, vals)
        for (cell_id, metric), vals in sorted(values.items())
    ]
    area = BoundingBox(36.60, 36.84, -4.55, -4.30)
    config = _run_config(area, start, start + timedelta(days=days), list(_T1_METRICS))
    ground_truth = {
        "degraded_cell": "CELL_1A",
        "causal_venue": "VENUE_L",
        "causal_events": ["calendar/L1", "calendar/L2"],
        "expected_abs_r": T1_EXPECTED_ABS_R,
    }
    return FixtureBundle(records, events, [site], cells, series, ground_truth, config)


# ---------------------------------------------------------------------------
# Ingest/filter funnel fixture: 2200 events in 600 venues reduce to 1768
# events in 507 venues under the default stage pipeline.
# ---------------------------------------------------------------------------

FUNNEL_BLACKLIST = ("bar", "cafe", "coffee", "pub", "tavern", "inn",
                    "church", "shop", "club", "gospel", "lounge")
FUNNEL_REGION = "Costaluna"
FUNNEL_EXPECTED = {"fetched": 2200, "venues_in": 600, "kept": 1768, "venues_out": 507}

_VENUE_NOUNS = ("Hall", "Arena", "Theatre", "Park", "Plaza",
                "Auditorium", "Gardens", "Stadium", "Center", "Pavilion")
_EVENT_ADJECTIVES = ("Morning", "Evening", "Grand", "Spring", "Summer",
                     "Autumn", "Winter", "Royal", "Classic", "Urban")
_EVENT_KINDS = ("Concert", "Festival", "Recital", "Match", "Fair",
                "Parade", "Exhibition", "Gala", "Marathon", "Ceremony")


def funnel_fixture() -> FixtureBundle:
    """Deterministic ingest corpus shaped like a 54-day city-wide pull.

    600 venues, 2200 events. 93 venues lose every event: 31 venues carry a
    small-venue blacklist term, 31 have events without coordinates, 31 sit
    in a foreign region. Event starts are 35 minutes apart, safely beyond
    the fusion time tolerance, so ingest never merges anything.
    """
    start = datetime(2017, 3, 1, tzinfo=UTC)
    scope_end = start + timedelta(days=54)
    area = BoundingBox(36.55, 36.95, -4.75, -4.15)

    surviving, eliminated = 507, 93
    venue_names: list[str] = []
    venue_mode: list[str] = []  # "ok" | "blacklist" | "nocoords" | "region"
    for v in range(surviving):
        venue_names.append(f"Venue {v:03d} {_VENUE_NOUNS[v % 10]}")
        venue_mode.append("ok")
    for k in range(eliminated):
        v = surviving + k
        mode = ("blacklist", "nocoords", "region")[k // 31]
        if mode == "blacklist":
            term = FUNNEL_BLACKLIST[k % len(FUNNEL_BLACKLIST)]
            venue_names.append(f"{term.capitalize()} {k:02d}")
        else:
            venue_names.append(f"Venue {v:03d} {_VENUE_NOUNS[v % 10]}")
        venue_mode.append(mode)

    lat_span = area.lat_max - area.lat_min - 0.02
    lon_span = area.lon_max - area.lon_min - 0.02
    venue_pos = [
        (
            round(area.lat_min + 0.01 + lat_span * ((7 * v) % 600) / 600.0, 6),
            round(area.lon_min + 0.01 + lon_span * ((11 * v) % 600) / 600.0, 6),
        )
        for v in range(600)
    ]

    assignments: list[int] = []
    for v in range(surviving):
        assignments.extend([v] * (4 if v < 247 else 3))
    for k in range(eliminated):
        assignments.extend([surviving + k] * (5 if k < 60 else 4))
    if len(assignments) != 2200:
        raise SpecError(f"funnel fixture miscounted events: {len(assignments)}")

    records: list[dict] = []
    for i, v in enumerate(assignments):
        mode = venue_mode[v]
        record = {
            "id": f"ev{i:04d}",
            "name": f"{_EVENT_ADJECTIVES[i % 10]} {_EVENT_KINDS[(i // 10) % 10]} {i:04d}",
            "start": format_rfc3339(start + i * timedelta(minutes=35)),
            "venue": venue_names[v],
            "city": "Costaluna City",
            "region": "Norland" if mode == "region" else FUNNEL_REGION,
            "country": "Hispania",
            "tickets": 50 + (i * 37) % 5000,
        }
        if mode != "nocoords":
            record["lat"], record["lon"] = venue_pos[v]
        records.append(record)

    events = [parse_record(r, _SOURCE) for r in records]
    if len({e.venue for e in events}) != 600:
        raise SpecError("funnel fixture venue count drifted")

    config = _run_config(
        area, start, scope_end, [],
        blacklist=FUNNEL_BLACKLIST,
        region_whitelist=[FUNNEL_REGION],
        with_network=False,
    )
    ground_truth = {"expected": dict(FUNNEL_EXPECTED)}
    return FixtureBundle(records, events, [], [], [], ground_truth, config)
