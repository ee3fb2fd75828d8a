"""Event-to-network association and impact correlation.

Two layers:

* geometric: which sites stand near an event, and which of their cells
  point at it (azimuth vs. bearing within half the beamwidth);
* statistical: for each event a window of KPI samples around its start
  (the event association window), a Gaussian impact indicator over that
  window, and the Pearson correlation between the two. Venue-level scores
  aggregate |r| over all events hosted at the venue.

``identify_causes`` chains both layers to rank candidate venues for a
degraded cell.
"""
from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGeometry,
    LengthMismatch,
    NoDefinedCorrelations,
    OutOfRange,
    UnknownCell,
)
from .geo import angle_offset_deg, haversine_km, initial_bearing_deg
from .ingest import SocialEvent, normalize_text
from .network import Cell, KpiSeries, Site, normalize_periodic, periodic_kind

logger = logging.getLogger(__name__)

DEFAULT_R_THRESHOLD = 0.7
AGGREGATE_STATS = ("median", "mean", "max")


@dataclass(frozen=True)
class GeoAssocParams:
    """Distance association knobs; defaults fit macrocell, non-dense layouts."""

    max_dist_km: float = 2.0
    min_sites: int = 1
    max_sites: int = 7

    def __post_init__(self):
        if self.max_dist_km <= 0:
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
        if self.sigma_scale <= 0:
            raise ConfigError("sigma_scale must be positive")

    def duration_for(self, category: Optional[str]) -> timedelta:
        if category is not None and category in self.category_durations:
            return self.category_durations[category]
        return self.default_duration


@dataclass(frozen=True)
class Eaw:
    """Inclusive sample-index window of one series around one event."""

    cell_id: str
    metric: str
    n_start: int
    n_end: int
    event_id: str

    def __post_init__(self):
        if not 0 <= self.n_start <= self.n_end:
            raise OutOfRange(f"bad EAW bounds [{self.n_start}, {self.n_end}]")

    def __len__(self) -> int:
        return self.n_end - self.n_start + 1


@dataclass(frozen=True, eq=False)
class SocialIndicator:
    """Gaussian impact profile over an EAW; dimensionless samples in (0, 1]."""

    eaw: Eaw
    samples: np.ndarray


@dataclass(frozen=True)
class EventCellCorrelation:
    event_id: str
    cell_id: str
    metric: str
    r: Optional[float]  # None when undefined (too few pairs or zero variance)
    n_samples: int


@dataclass(frozen=True)
class VenueImpactReport:
    """Aggregate correlation of one venue against one (cell, metric)."""

    venue_key: str
    cell_id: str
    metric: str
    r_values: tuple[float, ...]
    median_abs_r: float
    mean_abs_r: float
    max_abs_r: float
    n_events: int
    n_undefined: int
    stat: str

    @property
    def score(self) -> float:
        return {"median": self.median_abs_r, "mean": self.mean_abs_r, "max": self.max_abs_r}[self.stat]


@dataclass(frozen=True)
class CauseCandidate:
    """One ranked venue from ``identify_causes``."""

    venue_key: str
    venue_label: str
    event_ids: tuple[str, ...]
    metric_scores: Mapping[str, float]
    best_metric: str
    best_score: float
    flagged: bool
    n_undefined: int
    reports: tuple[VenueImpactReport, ...]
    close_sites: tuple[tuple[Site, float], ...]  # of the first event, nearest first


def cell_bearing_offset(cell: Cell, site: Site, point: tuple[float, float]) -> float:
    """Angle between the cell's azimuth and the site-to-point bearing, in [0, 180]."""
    bearing = initial_bearing_deg(site.location, point)
    return angle_offset_deg(cell.azimuth, bearing)


def associate_geographic(
    event: SocialEvent, sites: Sequence[Site], params: GeoAssocParams
) -> list[tuple[Site, float]]:
    """Sites within max_dist_km of the event, nearest first, capped at max_sites.

    When fewer than min_sites fall inside the distance limit, the limit is
    waived and the min_sites nearest sites are taken instead (ties broken
    by site_id).
    """
    if not event.has_coordinates():
        raise ConfigError(f"event {event.event_id} has no coordinates")
    point = (event.lat, event.lon)
    ranked = sorted(
        ((site, haversine_km(point, site.location)) for site in sites),
        key=lambda pair: (pair[1], pair[0].site_id),
    )
    within = [pair for pair in ranked if pair[1] <= params.max_dist_km]
    if len(within) < params.min_sites:
        within = ranked[: params.min_sites]
    return within[: params.max_sites]


def filter_by_bearing(
    cells: Sequence[Cell], site: Site, point: tuple[float, float]
) -> list[Cell]:
    """Keep cells whose bearing offset to the point is strictly inside half the beamwidth."""
    return [c for c in cells if cell_bearing_offset(c, site, point) < c.hor_width / 2.0]


# ---------------------------------------------------------------------------
# Windows, indicator, correlation
# ---------------------------------------------------------------------------

def build_eaw(
    event: SocialEvent,
    series: KpiSeries,
    pre_margin: int = 1,
    post_margin: int = 1,
    default_duration: timedelta = timedelta(hours=3),
) -> Eaw:
    """Window of samples surrounding the event on this series' grid.

    Starts pre_margin epochs before the sample holding start_time and ends
    post_margin epochs after the stop time rounded up to the next epoch
    boundary (stop = end_time when known, else start + default_duration).
    Bounds are clamped to the series.
    """
    stop = event.end_time if event.end_time is not None else event.start_time + default_duration
    raw_start = series.floor_index(event.start_time) - pre_margin
    raw_end = series.ceil_index(stop) + post_margin
    last = len(series.values) - 1
    if raw_end < 0 or raw_start > last:
        raise OutOfRange(
            f"event {event.event_id} outside series {series.cell_id}/{series.metric}"
        )
    return Eaw(
        cell_id=series.cell_id,
        metric=series.metric,
        n_start=max(0, raw_start),
        n_end=min(last, raw_end),
        event_id=event.event_id,
    )


def social_indicator(eaw: Eaw, sigma_scale: float = 1.0) -> SocialIndicator:
    """Gaussian profile over the window: peak at the midpoint, sigma = L/6.

    With sigma at one sixth of the window, +-3 sigma spans the whole EAW;
    ``sigma_scale`` widens or sharpens the expected impact slope.
    """
    length = len(eaw)
    if length == 1:
        return SocialIndicator(eaw, np.ones(1))
    mu = (eaw.n_start + eaw.n_end) / 2.0
    sigma = (length / 6.0) * sigma_scale
    indices = np.arange(eaw.n_start, eaw.n_end + 1, dtype=float)
    samples = np.exp(-((indices - mu) ** 2) / (2.0 * sigma * sigma))
    return SocialIndicator(eaw, samples)


def _pearson_with_count(x, y) -> tuple[Optional[float], int]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    mask = ~(np.isnan(x) | np.isnan(y))
    xs, ys = x[mask], y[mask]
    n = int(xs.size)
    if n < 3:
        return None, n
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        return None, n
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return None, n
    r = float(np.clip((dx @ dy) / denom, -1.0, 1.0))
    return (r if math.isfinite(r) else None), n


def pearson(x, y) -> Optional[float]:
    """Sample Pearson r over pairs where both sides are present.

    Undefined (None) with fewer than 3 usable pairs, when either side has
    zero variance, or when the arithmetic overflows; never coerced to a
    number.
    """
    return _pearson_with_count(x, y)[0]


def correlate_event(
    event: SocialEvent,
    cell: Cell,
    metrics: Sequence[KpiSeries],
    eaw_params: Optional[EawParams] = None,
) -> list[EventCellCorrelation]:
    """Correlate the event's indicator against each series inside its EAW.

    The sign of r is kept: positive means the event coincided with an
    increase of the metric, negative with a decrease.
    """
    params = eaw_params or EawParams()
    duration = params.duration_for(event.category)
    results = []
    for series in metrics:
        if series.cell_id != cell.cell_id:
            raise ConfigError(
                f"series {series.cell_id}/{series.metric} does not belong to cell {cell.cell_id}"
            )
        eaw = build_eaw(event, series, params.pre_margin, params.post_margin, duration)
        indicator = social_indicator(eaw, params.sigma_scale)
        window = series.values[eaw.n_start : eaw.n_end + 1]
        r, n = _pearson_with_count(indicator.samples, window)
        results.append(
            EventCellCorrelation(event.event_id, cell.cell_id, series.metric, r, n)
        )
    return results


def aggregate_venue(
    venue_key: str,
    correlations: Sequence[EventCellCorrelation],
    stat: str = "mean",
) -> list[VenueImpactReport]:
    """Aggregate |r| per (cell, metric) group for one venue.

    Undefined correlations are excluded from the statistics but counted.
    Groups consisting only of undefined correlations are skipped; if no
    group survives, NoDefinedCorrelations is raised.
    """
    if stat not in AGGREGATE_STATS:
        raise ConfigError(f"unknown aggregate stat {stat!r}")
    groups: dict[tuple[str, str], list[EventCellCorrelation]] = defaultdict(list)
    for corr in correlations:
        groups[(corr.cell_id, corr.metric)].append(corr)

    reports = []
    for (cell_id, metric) in sorted(groups):
        defined = [c.r for c in groups[(cell_id, metric)] if c.r is not None]
        undefined = len(groups[(cell_id, metric)]) - len(defined)
        if not defined:
            logger.debug("venue %s: all correlations undefined for %s/%s", venue_key, cell_id, metric)
            continue
        abs_r = np.abs(np.array(defined))
        reports.append(
            VenueImpactReport(
                venue_key=venue_key,
                cell_id=cell_id,
                metric=metric,
                r_values=tuple(defined),
                median_abs_r=float(np.median(abs_r)),
                mean_abs_r=float(abs_r.mean()),
                max_abs_r=float(abs_r.max()),
                n_events=len(defined),
                n_undefined=undefined,
                stat=stat,
            )
        )
    if not reports:
        raise NoDefinedCorrelations(f"venue {venue_key}: no defined correlations")
    return reports


def venue_key_for(event: SocialEvent) -> str:
    """Grouping key for venue aggregation: normalized venue name, else coordinates."""
    if event.venue:
        return normalize_text(event.venue)
    if event.has_coordinates():
        return f"@{event.lat:.5f},{event.lon:.5f}"
    return f"event:{event.event_id}"


def _prepare_series(
    kpis: Sequence[KpiSeries], cell_id: str, normalization: str
) -> list[KpiSeries]:
    own = sorted((s for s in kpis if s.cell_id == cell_id), key=lambda s: s.metric)
    if not own:
        raise ConfigError(f"no KPI series loaded for cell {cell_id!r}")
    if normalization == "none":
        return own
    prepared = []
    for series in own:
        kind = periodic_kind(series) if normalization == "auto" else normalization
        if kind is None:
            logger.warning(
                "series %s/%s too short for a periodic baseline; correlating raw",
                series.cell_id, series.metric,
            )
            prepared.append(series)
        else:
            prepared.append(normalize_periodic(series, kind))
    return prepared


def identify_causes(
    degraded_cell: Cell,
    events: Sequence[SocialEvent],
    sites: Sequence[Site],
    kpis: Sequence[KpiSeries],
    params: Optional[GeoAssocParams] = None,
    r_threshold: float = DEFAULT_R_THRESHOLD,
    eaw_params: Optional[EawParams] = None,
    stat: str = "mean",
    normalization: str = "auto",
) -> list[CauseCandidate]:
    """Rank candidate venues behind a degradation of ``degraded_cell``.

    Pipeline: keep events whose associated-site set contains the degraded
    cell's site and whose location passes the cell's bearing filter, then
    correlate every such event against the cell's (normalized) KPI series,
    aggregate per venue and rank by the selected statistic. Venues whose
    score exceeds ``r_threshold`` on any metric are flagged as probable
    causes. Output order does not depend on input order.
    """
    params = params or GeoAssocParams()
    eaw_params = eaw_params or EawParams()
    site_map = {site.site_id: site for site in sites}
    site = site_map.get(degraded_cell.site_id)
    if site is None:
        raise UnknownCell(f"site {degraded_cell.site_id!r} of cell {degraded_cell.cell_id!r} not in topology")
    series = _prepare_series(kpis, degraded_cell.cell_id, normalization)

    by_venue: dict[str, list] = defaultdict(list)  # venue key -> [(event, close sites)]
    for event in events:
        if not event.has_coordinates():
            continue
        close = associate_geographic(event, sites, params)
        if not any(s.site_id == site.site_id for s, _ in close):
            continue
        try:
            if not filter_by_bearing([degraded_cell], site, (event.lat, event.lon)):
                continue
        except DegenerateGeometry:
            continue  # no defined bearing from the site
        by_venue[venue_key_for(event)].append((event, close))

    candidates = []
    for key in sorted(by_venue):
        hosted = sorted(by_venue[key], key=lambda pair: (pair[0].start_time, pair[0].event_id))
        venue_events = [event for event, _ in hosted]
        correlations: list[EventCellCorrelation] = []
        for event in venue_events:
            try:
                correlations.extend(correlate_event(event, degraded_cell, series, eaw_params))
            except OutOfRange:
                logger.info("event %s outside KPI span; skipped", event.event_id)
        if not correlations:
            continue
        try:
            reports = aggregate_venue(key, correlations, stat)
        except NoDefinedCorrelations:
            logger.info("venue %s: only undefined correlations; skipped", key)
            continue
        metric_scores = {report.metric: report.score for report in reports}
        best_metric = max(metric_scores, key=lambda m: (metric_scores[m], m))
        label = next((e.venue for e in venue_events if e.venue), key)
        candidates.append(
            CauseCandidate(
                venue_key=key,
                venue_label=label,
                event_ids=tuple(e.event_id for e in venue_events),
                metric_scores=metric_scores,
                best_metric=best_metric,
                best_score=metric_scores[best_metric],
                flagged=any(score > r_threshold for score in metric_scores.values()),
                n_undefined=sum(r.n_undefined for r in reports),
                reports=tuple(reports),
                close_sites=tuple(hosted[0][1]),
            )
        )
    candidates.sort(key=lambda c: (-c.best_score, c.venue_key))
    return candidates
