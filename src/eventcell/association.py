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
from dataclasses import dataclass
from datetime import timedelta
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .config import AGGREGATE_STATS, DEFAULT_R_THRESHOLD, EawParams, GeoAssocParams, RunConfig
from .errors import (
    ConfigError,
    DegenerateGeometry,
    LengthMismatch,
    NoDefinedCorrelations,
    OutOfRange,
    UnknownCell,
)
from .geo import angle_offset_deg, distances_km, haversine_km, initial_bearing_deg
from .ingest import SocialEvent, normalize_text
from .network import Cell, KpiSeries, Site, normalize_periodic, periodic_kind

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Eaw:
    """Inclusive sample-index window of one series around one event."""

    n_start: int
    n_end: int

    def __post_init__(self):
        if not 0 <= self.n_start <= self.n_end:
            raise OutOfRange(f"bad EAW bounds [{self.n_start}, {self.n_end}]")

    def __len__(self) -> int:
        return self.n_end - self.n_start + 1


@dataclass(frozen=True)
class EventCellCorrelation:
    event_id: str
    cell_id: str
    metric: str
    r: Optional[float]  # None when undefined (too few pairs or zero variance)


@dataclass(frozen=True)
class VenueImpactReport:
    """Aggregate correlation of one venue against one (cell, metric)."""

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


def bearing_offsets(cells: Sequence[Cell], site: Site, point: tuple[float, float]) -> list[float]:
    """Angle between each cell's azimuth and the site-to-point bearing, in
    [0, 180]. The cells share the site's location, so the bearing is taken
    once; it raises ``DegenerateGeometry`` where it is undefined, unless
    there are no cells."""
    if not cells:
        return []
    bearing = initial_bearing_deg(site.location, point)
    return [angle_offset_deg(cell.azimuth, bearing) for cell in cells]


# Events per distance matrix; bounds the matrix at 128 x len(sites) floats.
_CHUNK_EVENTS = 128
# ``distances_km`` takes h = sin^2(d / 2) as (1 - p.q) / 2 from unit vectors
# built with numpy's sin and cos, which may be off by 4 ulps (8 eps relative,
# eps = 2^-53). Each coordinate, a product of two of them, is then off by at
# most 17 eps relative, each p_i q_i by 35 eps, and since sum |p_i q_i| <= 1
# the three-term dot product by 37 eps; 1 - p.q adds 2 eps and halving is
# exact, so h is off by less than 20 eps < 2.3e-15. ``haversine_km``'s h,
# with each factor of sin^2(dlat/2) + cos lat1 cos lat2 sin^2(dlon/2) off by
# a few ulps, is off by less than 5e-15, so the two h differ by less than
# 7.3e-15. Since d = 2 R asin(sqrt h) and |asin(sqrt a) - asin(sqrt b)| <=
# (pi / 2) sqrt|a - b| on [0, 1] (by Jordan's inequality), the two distances
# differ by at most pi R sqrt|dh| < 1.8e-3 km anywhere on the sphere (arctan2
# and sqrt add a few ulps, under 1e-10 km). The sqrt amplifies rounding
# where h is near 0, from the cancellation in 1 - p.q, and near 1. A 10 m
# margin leaves ample slack and admits few extra sites.
_PRUNE_MARGIN_KM = 0.01


def _candidate_sites(
    events: Sequence[SocialEvent], sites: Sequence[Site], params: GeoAssocParams
) -> Iterator[tuple[SocialEvent, np.ndarray]]:
    """Yield each event with a mask over ``sites`` that holds every one of
    its close sites, in event order.

    A numpy distance matrix only prunes: with every matrix value within
    ``_PRUNE_MARGIN_KM`` of the scalar one, the sites kept below
    ``max(max_dist_km, k-th smallest distance) + 2 * margin`` include every
    site within max_dist_km and the k = min(min_sites, len(sites)) nearest.
    """
    for event in events:
        if not event.has_coordinates():
            raise ConfigError(f"event {event.event_id} has no coordinates")
    site_lat = np.array([site.lat for site in sites], dtype=float)
    site_lon = np.array([site.lon for site in sites], dtype=float)
    k = min(params.min_sites, len(sites))
    for start in range(0, len(events), _CHUNK_EVENTS):
        chunk = events[start : start + _CHUNK_EVENTS]
        dist = distances_km([e.lat for e in chunk], [e.lon for e in chunk], site_lat, site_lon)
        limit = np.full(len(chunk), params.max_dist_km)
        if k:
            np.maximum(limit, np.partition(dist, k - 1, axis=1)[:, k - 1], out=limit)
        yield from zip(chunk, dist <= (limit + 2.0 * _PRUNE_MARGIN_KM)[:, None])


def _close_sites(
    event: SocialEvent, sites: Sequence[Site], candidates: np.ndarray, params: GeoAssocParams
) -> list[tuple[Site, float]]:
    """The association rule over the event's candidate sites, each
    re-measured with ``haversine_km``."""
    point = (event.lat, event.lon)
    ranked = sorted(
        ((sites[j], haversine_km(point, sites[j].location)) for j in np.flatnonzero(candidates)),
        key=lambda pair: (pair[1], pair[0].site_id),
    )
    within = [pair for pair in ranked if pair[1] <= params.max_dist_km]
    if len(within) < params.min_sites:
        within = ranked[: params.min_sites]
    return within[: params.max_sites]


def associate_events(
    events: Sequence[SocialEvent], sites: Sequence[Site], params: GeoAssocParams
) -> Iterator[list[tuple[Site, float]]]:
    """Yield the close sites of each event, in event order: sites within
    max_dist_km, nearest first (ties broken by site_id), capped at max_sites.
    Yielding lets callers drop the lists they do not keep.

    When fewer than min_sites fall inside the distance limit, the limit is
    waived and the min_sites nearest sites are taken instead.

    Only the sites ``_candidate_sites`` keeps are re-measured with
    ``haversine_km`` and put through the rule, so distances and order are
    those of a scalar pass over all sites.
    """
    for event, candidates in _candidate_sites(events, sites, params):
        yield _close_sites(event, sites, candidates, params)


def _events_near_site(
    events: Sequence[SocialEvent], sites: Sequence[Site], site_id: str, params: GeoAssocParams
) -> Iterator[tuple[SocialEvent, list[tuple[Site, float]]]]:
    """Yield (event, close sites) for each event, in event order, whose
    close sites include a site with ``site_id``. An event's candidate mask
    holds all of its close sites, so only events whose mask holds such a
    site are measured."""
    own = [j for j, site in enumerate(sites) if site.site_id == site_id]
    for event, candidates in _candidate_sites(events, sites, params):
        if any(candidates[j] for j in own):
            close = _close_sites(event, sites, candidates, params)
            if any(site.site_id == site_id for site, _ in close):
                yield event, close


def associate_geographic(
    event: SocialEvent, sites: Sequence[Site], params: GeoAssocParams
) -> list[tuple[Site, float]]:
    """``associate_events`` for one event."""
    return next(associate_events([event], sites, params))


def filter_by_bearing(
    cells: Sequence[Cell], site: Site, point: tuple[float, float]
) -> list[Cell]:
    """Keep cells whose bearing offset to the point is strictly inside half the beamwidth."""
    offsets = bearing_offsets(cells, site, point)
    return [cell for cell, offset in zip(cells, offsets) if offset < cell.hor_width / 2.0]


# ---------------------------------------------------------------------------
# Windows, indicator, correlation
# ---------------------------------------------------------------------------

def build_eaw(
    event: SocialEvent,
    series: KpiSeries,
    pre_margin: int = EawParams.pre_margin,
    post_margin: int = EawParams.post_margin,
    default_duration: timedelta = EawParams.default_duration,
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
    return Eaw(max(0, raw_start), min(last, raw_end))


def social_indicator(eaw: Eaw, sigma_scale: float = 1.0) -> np.ndarray:
    """Gaussian impact profile over the window, one dimensionless sample in
    (0, 1] per index: peak at the midpoint, sigma = L/6.

    With sigma at one sixth of the window, +-3 sigma spans the whole EAW;
    ``sigma_scale`` widens or sharpens the expected impact slope.
    """
    length = len(eaw)
    if length == 1:
        return np.ones(1)
    mu = (eaw.n_start + eaw.n_end) / 2.0
    sigma = (length / 6.0) * sigma_scale
    indices = np.arange(eaw.n_start, eaw.n_end + 1, dtype=float)
    return np.exp(-((indices - mu) ** 2) / (2.0 * sigma * sigma))


def pearson(x, y) -> Optional[float]:
    """Sample Pearson r over pairs where both sides are present.

    Undefined (None) with fewer than 3 usable pairs, when either side has
    zero variance, or when the arithmetic overflows; never coerced to a
    number.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    mask = ~(np.isnan(x) | np.isnan(y))
    xs, ys = x[mask], y[mask]
    if xs.size < 3 or np.all(xs == xs[0]) or np.all(ys == ys[0]):
        return None
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return None
    r = float(np.clip((dx @ dy) / denom, -1.0, 1.0))
    return r if math.isfinite(r) else None


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
        window = series.values[eaw.n_start : eaw.n_end + 1]
        r = pearson(social_indicator(eaw, params.sigma_scale), window)
        results.append(EventCellCorrelation(event.event_id, cell.cell_id, series.metric, r))
    return results


def aggregate_venue(
    venue_key: str,
    correlations: Sequence[EventCellCorrelation],
    stat: str = RunConfig.aggregate_stat,
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
    stat: str = RunConfig.aggregate_stat,
    normalization: str = RunConfig.normalization,
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
    located = [event for event in events if event.has_coordinates()]
    for event, close in _events_near_site(located, sites, site.site_id, params):
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
