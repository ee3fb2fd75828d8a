"""Event reduction: availability, geographic, semantic and temporal
filters. Runs purely on social data, before any network information is
consulted.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import ConfigError
from .fsutil import atomic_write_text
from .geo import haversine_km
from .ingest import GeoScope, SocialEvent, TimeScope, normalize_text

logger = logging.getLogger(__name__)

DEFAULT_REQUIRED_FIELDS = frozenset({"START_TIME", "LAT", "LON"})
DEFAULT_BLACKLIST_TARGETS = frozenset({"VENUE", "NAME"})

# Canonical field name -> accessor on SocialEvent.
_FIELD_GETTERS = {
    "NAME": lambda e: e.name,
    "START_TIME": lambda e: e.start_time,
    "END_TIME": lambda e: e.end_time,
    "LAT": lambda e: e.lat,
    "LON": lambda e: e.lon,
    "VENUE": lambda e: e.venue,
    "ADDRESS": lambda e: e.address.text if e.address else None,
    "ADDRESS_STREET": lambda e: e.address.street if e.address else None,
    "ADDRESS_CITY": lambda e: e.address.city if e.address else None,
    "ADDRESS_REGION": lambda e: e.address.region if e.address else None,
    "ADDRESS_COUNTRY": lambda e: e.address.country if e.address else None,
    "CATEGORY": lambda e: e.category,
    "POPULARITY": lambda e: e.popularity,
}


def field_value(event: SocialEvent, name: str):
    """Look up a canonical field on an event; None when absent."""
    try:
        getter = _FIELD_GETTERS[name]
    except KeyError:
        raise ConfigError(f"unknown canonical field {name!r}") from None
    return getter(event)


@dataclass(frozen=True)
class FilterTrace:
    """Why one event was dropped; exactly one trace per dropped event."""

    event_id: str
    stage: str
    reason: str


@dataclass(frozen=True)
class FilterConfig:
    required_fields: frozenset[str] = DEFAULT_REQUIRED_FIELDS
    blacklist_terms: tuple[str, ...] = ()
    blacklist_target_fields: frozenset[str] = DEFAULT_BLACKLIST_TARGETS
    region_whitelist: Optional[frozenset[str]] = None
    geo: Optional[GeoScope] = None
    time: Optional[TimeScope] = None
    soft_mode: bool = False

    def __post_init__(self):
        for term in self.blacklist_terms:
            if not term or term != term.lower():
                raise ConfigError(f"blacklist term {term!r} must be nonempty lowercase")
            if not normalize_text(term):
                raise ConfigError(f"blacklist term {term!r} has no letters or digits")
        for name in self.required_fields | self.blacklist_target_fields:
            if name not in _FIELD_GETTERS:
                raise ConfigError(f"unknown canonical field {name!r} in filter config")


def filter_availability(
    events: Sequence[SocialEvent], cfg: FilterConfig
) -> tuple[list[SocialEvent], list[FilterTrace]]:
    """Drop events missing any required canonical field."""
    kept, traces = [], []
    for event in events:
        missing = sorted(n for n in cfg.required_fields if field_value(event, n) is None)
        if missing:
            traces.append(FilterTrace(event.event_id, "availability", f"missing {', '.join(missing)}"))
        else:
            kept.append(event)
    return kept, traces


def filter_geographic(
    events: Sequence[SocialEvent], cfg: FilterConfig
) -> tuple[list[SocialEvent], list[FilterTrace]]:
    """Keep events inside the coordinate scope: inside the box (bounds
    inclusive) and within the circle, when the scope sets both."""
    if cfg.geo is None or (cfg.geo.box is None and cfg.geo.circle is None):
        raise ConfigError("geographic filter needs a box or circle scope")
    box, circle = cfg.geo.box, cfg.geo.circle
    kept, traces = [], []
    for event in events:
        reason = None
        if not event.has_coordinates():
            reason = "no coordinates"
        elif box is not None and not box.contains(event.lat, event.lon):
            reason = "outside box"
        elif circle is not None:
            distance = haversine_km((event.lat, event.lon), (circle.center_lat, circle.center_lon))
            if distance > circle.radius_km:
                reason = f"{distance:.3f} km from center exceeds {circle.radius_km} km"
        if reason is None:
            kept.append(event)
        else:
            traces.append(FilterTrace(event.event_id, "geographic", reason))
    return kept, traces


def filter_semantic(
    events: Sequence[SocialEvent], cfg: FilterConfig
) -> tuple[list[SocialEvent], list[FilterTrace]]:
    """Drop events with a blacklisted whole-word term in a target field, or
    whose address region falls outside the whitelist (when one is set)."""
    whitelist = None
    if cfg.region_whitelist is not None:
        whitelist = {normalize_text(r) for r in cfg.region_whitelist}
    # normalize_text leaves single-space-separated alphanumeric tokens, so a
    # space-padded substring match is a match of whole consecutive tokens.
    patterns = [(term, f" {normalize_text(term)} ") for term in cfg.blacklist_terms]
    fields = sorted(cfg.blacklist_target_fields)
    kept, traces = [], []
    for event in events:
        reason = None
        for field_name in fields:
            text = field_value(event, field_name)
            if not isinstance(text, str):
                continue
            padded = f" {normalize_text(text)} "
            hit = next((term for term, pattern in patterns if pattern in padded), None)
            if hit is not None:
                reason = f"term '{hit}' in {field_name}"
                break
        if reason is None and whitelist is not None:
            region = field_value(event, "ADDRESS_REGION")
            if region is not None and normalize_text(region) not in whitelist:
                reason = f"region '{region}' not whitelisted"
        if reason is None:
            kept.append(event)
        else:
            traces.append(FilterTrace(event.event_id, "semantic", reason))
    return kept, traces


def filter_temporal(
    events: Sequence[SocialEvent], cfg: FilterConfig
) -> tuple[list[SocialEvent], list[FilterTrace]]:
    """Keep events starting inside the time scope (bounds inclusive)."""
    if cfg.time is None:
        raise ConfigError("temporal filter needs a time scope")
    kept, traces = [], []
    for event in events:
        if cfg.time.start <= event.start_time <= cfg.time.end:
            kept.append(event)
        else:
            traces.append(FilterTrace(event.event_id, "temporal", "start outside time scope"))
    return kept, traces


def run_filters(
    events: Sequence[SocialEvent], cfg: FilterConfig
) -> tuple[list[SocialEvent], list[FilterTrace]]:
    """Run the full stage pipeline: availability, geographic, semantic, temporal.

    In soft mode dropped events are appended after the kept ones (rank
    penalty instead of removal); traces are produced either way.
    """
    kept = list(events)
    traces: list[FilterTrace] = []
    for stage in (filter_availability, filter_geographic, filter_semantic, filter_temporal):
        kept, stage_traces = stage(kept, cfg)
        traces.extend(stage_traces)
    if cfg.soft_mode:
        dropped_ids = {t.event_id for t in traces}
        kept = kept + [e for e in events if e.event_id in dropped_ids]
    return kept, traces


def write_traces(traces: Iterable[FilterTrace], path: str | Path) -> None:
    """Emit the drops report: CSV with event_id, stage, reason."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["event_id", "stage", "reason"])
    for trace in traces:
        writer.writerow([trace.event_id, trace.stage, trace.reason])
    atomic_write_text(path, buffer.getvalue())
