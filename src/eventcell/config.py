"""The run-config and scenario-spec file formats, and the parameters they set.

Every stage reads the run config first, so this module loads neither numpy
nor the network, association or scenario layers. An optional key is passed
on only when the file holds it, so its default is stated once, by the
dataclass or signature that receives it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from types import GenericAlias
from typing import TYPE_CHECKING, Mapping, Optional, Union, get_args, get_origin

from . import filtering, ingest
from .errors import ConfigError
from .fsutil import undecodable
from .timeutil import parse_rfc3339

if TYPE_CHECKING:
    from .scenario import ScenarioSpec

DEFAULT_R_THRESHOLD = 0.7
AGGREGATE_STATS = ("median", "mean", "max")
# Periodic slot kinds and their cycle lengths, in hours.
CYCLE_HOURS = {"hour_of_week": 168, "hour_of_day": 24}


@dataclass(frozen=True)
class GeoAssocParams:
    """Distance association knobs; defaults fit macrocell, non-dense layouts."""

    max_dist_km: float = 2.0
    min_sites: int = 1
    max_sites: int = 7

    def __post_init__(self):
        if not self.max_dist_km > 0:  # also rejects NaN
            raise ConfigError("max_dist_km must be positive")
        if self.min_sites < 0 or self.max_sites < self.min_sites:
            raise ConfigError("need 0 <= min_sites <= max_sites")


@dataclass(frozen=True)
class EawParams:
    """Window construction knobs, with per-category duration overrides."""

    pre_margin: int = 1
    post_margin: int = 1
    default_duration: timedelta = timedelta(hours=3)
    category_durations: Mapping[str, timedelta] = field(default_factory=dict)
    sigma_scale: float = 1.0

    def __post_init__(self):
        if self.pre_margin < 0 or self.post_margin < 0:
            raise ConfigError("EAW margins must be >= 0")
        if self.default_duration <= timedelta(0):
            raise ConfigError("default event duration must be positive")
        for category, duration in self.category_durations.items():
            if duration <= timedelta(0):
                raise ConfigError(f"event duration of category {category!r} must be positive")
        if not self.sigma_scale > 0:  # also rejects NaN
            raise ConfigError("sigma_scale must be positive")

    def duration_for(self, category: Optional[str]) -> timedelta:
        if category is not None and category in self.category_durations:
            return self.category_durations[category]
        return self.default_duration


@dataclass
class RunConfig:
    sources: list[ingest.SourceConfig]
    geocoder: Optional[ingest.GeocoderClient]
    filter: filtering.FilterConfig
    geo_assoc: GeoAssocParams
    eaw: EawParams
    fusion_name_threshold: float
    fusion_time_tolerance: timedelta
    topology_path: Optional[Path]
    kpi_path: Optional[Path]
    output_dir: Optional[Path]
    metrics: list[str] = field(default_factory=list)
    r_threshold: float = DEFAULT_R_THRESHOLD
    aggregate_stat: str = "mean"
    normalization: str = "auto"

    def __post_init__(self):  # also run by ``replace``, so an analyze override is checked here
        if not 0.0 < self.r_threshold <= 1.0:
            raise ConfigError(f"r_threshold {self.r_threshold} outside (0, 1]")
        if self.aggregate_stat not in AGGREGATE_STATS:
            raise ConfigError(f"unknown aggregate_stat {self.aggregate_stat!r}")
        if self.normalization not in ("auto", "none", *CYCLE_HOURS):
            raise ConfigError(f"unknown normalization {self.normalization!r}")


_REQUIRED = object()

# The JSON type each ``_typed`` kind stands for. An int is an integral number
# (2.0 as well), a float any number; neither is a boolean.
_JSON_KINDS = {dict: "object", list: "array", str: "string", bool: "boolean", int: "integer",
               float: "number"}


def _is_kind(value, kind: type) -> bool:
    if kind is int:
        return type(value) is int or (type(value) is float and value.is_integer())
    if kind is float:
        return type(value) is int or type(value) is float
    return isinstance(value, kind)


def _typed(mapping: dict, key: str, context: str, kind, default=_REQUIRED):
    """``mapping[key]`` checked to be of the JSON type ``kind`` stands for
    (``_JSON_KINDS``), where ``list[item]`` is an array of ``item``; numbers
    come back as the int or float their kind names. A missing key is an
    error unless ``default`` is given, which is then returned; a null is
    read as absent when ``default`` is None."""
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigError(f"{context}: missing key {key!r}")
        return default
    value = mapping[key]
    if value is None and default is None:
        return None
    kind, items = (kind.__origin__, kind.__args__[0]) if type(kind) is GenericAlias else (kind, None)
    if not _is_kind(value, kind) or (items and not all(_is_kind(v, items) for v in value)):
        what = f"array of {_JSON_KINDS[items]}s" if items else _JSON_KINDS[kind]
        article = "an" if what[0] in "aeiou" else "a"
        raise ConfigError(f"{context}: {key!r} must be {article} {what}")
    if items in (int, float):
        return [items(v) for v in value]
    return kind(value) if kind in (int, float) else value


def _fields(section: dict, context: str, required: tuple[str, ...] = (), /, **kinds) -> dict:
    """The keys of ``kinds`` that ``section`` holds, each checked by
    ``_typed`` and, where its kind is given as ``(kind, convert)``, converted;
    an ``Optional[kind]`` key may also be null, passed on as None. A missing
    key of ``required`` is an error; other absent keys are left out, so the
    receiver's default applies."""
    fields = {}
    for key, kind in kinds.items():
        if key in section or key in required:
            kind, convert = kind if isinstance(kind, tuple) else (kind, None)
            nullable = get_origin(kind) is Union
            value = _typed(section, key, context, get_args(kind)[0] if nullable else kind,
                           None if nullable else _REQUIRED)
            fields[key] = convert(value) if convert else value
    return fields


def _under(base: Path, value: Optional[str]) -> Optional[Path]:
    if value is None:
        return None
    path = Path(value)
    return path if path.is_absolute() else base / path


def _read_object(path: Path, what: str) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except UnicodeDecodeError:
        raise ConfigError(undecodable(path)) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the {what} must be a JSON object")
    return raw


def _parse_geo_scope(raw: dict) -> ingest.GeoScope:
    categorical = _typed(raw, "categorical", "filter.geo", dict, None)
    box = _typed(raw, "box", "filter.geo", list[float], None)
    circle = _typed(raw, "circle", "filter.geo", list[float], None)
    return ingest.GeoScope(
        ingest.CategoricalScope(**_fields(categorical, "filter.geo.categorical",
                                          country=Optional[str], region=Optional[str],
                                          city=Optional[str])) if categorical else None,
        ingest.BoundingBox(*box) if box else None, ingest.CircleArea(*circle) if circle else None)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate the run configuration file (JSON).

    Relative paths inside the file resolve against the file's directory.
    """
    path = Path(path)
    raw = _read_object(path, "config")
    base, context = path.parent, str(path)
    try:
        sources = []
        for entry in _typed(raw, "sources", context, list[dict]):
            fields = _fields(entry, "source", ("source_id", "locator", "field_map"), source_id=str,
                             locator=str, field_map=dict, kind=str, format=str, priority=int,
                             timezone=str)
            if fields.get("kind", ingest.SourceConfig.kind) == "file":  # the dataclass default
                fields["locator"] = str(_under(base, fields["locator"]))
            sources.append(ingest.SourceConfig(**fields))

        geocoder: Optional[ingest.GeocoderClient] = None
        geo_raw = raw.get("geocoder")
        if isinstance(geo_raw, str):
            geo_raw = {"table": geo_raw}
        if isinstance(geo_raw, dict):
            kind = _typed(geo_raw, "kind", "geocoder", str, "fixture")
            if kind == "fixture":
                geocoder = ingest.FixtureGeocoder.from_csv(
                    _under(base, _typed(geo_raw, "table", "geocoder", str)))
            elif kind == "http":
                geocoder = ingest.HttpGeocoder(_typed(geo_raw, "endpoint", "geocoder", str))
            else:
                raise ConfigError(f"geocoder: 'kind' must be 'fixture' or 'http', not {kind!r}")
        elif geo_raw is not None:
            raise ConfigError(f"{path}: 'geocoder' must be a string, an object or null")

        filter_raw = _typed(raw, "filter", context, dict)
        whitelist = _typed(filter_raw, "region_whitelist", "filter", list[str], None)
        filter_cfg = filtering.FilterConfig(
            geo=_parse_geo_scope(_typed(filter_raw, "geo", "filter", dict)),
            time=ingest.TimeScope(**_fields(
                _typed(filter_raw, "time", "filter", dict), "filter.time", ("start", "end"),
                start=(str, parse_rfc3339), end=(str, parse_rfc3339))),
            region_whitelist=frozenset(whitelist) if whitelist else None,
            **_fields(filter_raw, "filter", required_fields=(list[str], frozenset),
                      blacklist_terms=(list[str], tuple),
                      blacklist_target_fields=(list[str], frozenset), soft_mode=bool),
        )

        geo_assoc = GeoAssocParams(**_fields(_typed(raw, "geo_assoc", context, dict, {}),
                                             "geo_assoc", max_dist_km=float, min_sites=int,
                                             max_sites=int))

        eaw_raw = _typed(raw, "eaw", context, dict, {})
        eaw_fields = _fields(eaw_raw, "eaw", pre_margin=int, post_margin=int, sigma_scale=float)
        if "default_duration_hours" in eaw_raw:
            eaw_fields["default_duration"] = timedelta(
                hours=_typed(eaw_raw, "default_duration_hours", "eaw", float))
        durations = _typed(eaw_raw, "category_durations_hours", "eaw", dict, {})
        eaw = EawParams(category_durations={
            name: timedelta(hours=_typed(durations, name, "eaw.category_durations_hours", float))
            for name in durations}, **eaw_fields)

        fusion_raw = _typed(raw, "fusion", context, dict, {})
        name_threshold = ingest.check_name_threshold(_typed(
            fusion_raw, "name_threshold", "fusion", float, ingest.DEFAULT_NAME_THRESHOLD))
        tolerance_minutes = _typed(fusion_raw, "time_tolerance_minutes", "fusion", float,
                                   ingest.DEFAULT_TIME_TOLERANCE / timedelta(minutes=1))
        if not 0.0 <= tolerance_minutes < math.inf:
            raise ConfigError(
                f"fusion.time_tolerance_minutes {tolerance_minutes} must be finite and >= 0")

        paths = _typed(raw, "paths", context, dict, {})
        topology_path, kpi_path, output_dir = (_under(base, _typed(paths, key, "paths", str, None))
                                               for key in ("topology", "kpis", "output"))
        for label, p in (("topology", topology_path), ("kpis", kpi_path)):
            if p is not None and not p.exists():
                raise ConfigError(f"configured {label} path does not exist: {p}")

        return RunConfig(
            sources=sources, geocoder=geocoder, filter=filter_cfg, geo_assoc=geo_assoc, eaw=eaw,
            fusion_name_threshold=name_threshold,
            fusion_time_tolerance=timedelta(minutes=tolerance_minutes),
            topology_path=topology_path, kpi_path=kpi_path, output_dir=output_dir,
            **_fields(raw, context, metrics=list[str], r_threshold=float, aggregate_stat=str,
                      normalization=str))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: bad config ({exc})") from None


def load_scenario_spec(path: str | Path) -> ScenarioSpec:
    """Read a ScenarioSpec from its JSON file form."""
    from . import scenario  # only simulate reads a spec, so other stages start without it

    path = Path(path)
    raw = _read_object(path, "scenario spec")
    context = str(path)
    try:
        metrics = tuple(
            scenario.MetricSpec(**_fields(m, "metrics", ("name", "daily_profile"), name=str,
                                          noise_sigma=float, daily_profile=(list[float], tuple)))
            for m in _typed(raw, "metrics", context, list[dict]))
        injected = []
        for e in _typed(raw, "injected_events", context, list[dict], []):
            amplitudes = _typed(e, "amplitudes", "injected_events", dict)
            # "auto" or null (the generator picks, the dataclass default), else an array of ids
            cells = {} if e.get("cells") in ("auto", None) else {"cells": (list[str], tuple)}
            injected.append(scenario.InjectedEventSpec(
                duration=timedelta(hours=_typed(e, "duration_hours", "injected_events", float)),
                amplitudes={name: _typed(amplitudes, name, "injected_events.amplitudes", float)
                            for name in amplitudes},
                **_fields(e, "injected_events", ("venue", "start"), venue=str,
                          start=(str, parse_rfc3339), lat=Optional[float], lon=Optional[float],
                          anchor_site=Optional[int], anchor_bearing_deg=float,
                          anchor_distance_km=float, category=Optional[str], **cells)))
        return scenario.ScenarioSpec(
            area=ingest.BoundingBox(*_typed(raw, "area", context, list[float])),
            metrics=metrics,
            injected=tuple(injected),
            decoys=scenario.DecoySpec(**_fields(
                _typed(raw, "decoy_events", context, dict, {}), "decoy_events",
                count=int, placement=str, events_per_venue=int, min_km_from_sites=float)),
            **_fields(raw, context, ("seed", "n_sites", "days"), seed=int, n_sites=int, days=int,
                      sectors_per_site=int, start=(str, parse_rfc3339)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: bad scenario spec ({exc})") from None
