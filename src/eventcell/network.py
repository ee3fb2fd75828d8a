"""Cellular topology (sites, sectored cells) and per-cell KPI time series.

File formats are the interchange contract with operator OSS exports:

* topology CSV: ``cell_id,site_id,lat,lon,azimuth,hor_width,technology``
* KPI CSV (long format): ``cell_id,metric,timestamp,value``

Both accept ``#``-prefixed comment lines. KPI gaps become NaN samples that
propagate through normalization and are excluded from correlations, never
imputed.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InsufficientHistory, InvariantError, NonUniformPeriod, SchemaError
from .fsutil import atomic_write_text
from .timeutil import UTC, format_rfc3339, parse_rfc3339

TOPOLOGY_COLUMNS = ("cell_id", "site_id", "lat", "lon", "azimuth", "hor_width", "technology")
KPI_COLUMNS = ("cell_id", "metric", "timestamp", "value")

# Periodic slot kinds and their cycle lengths, in hours.
CYCLE_HOURS = {"hour_of_week": 168, "hour_of_day": 24}
_SLOT_ORIGIN = datetime(1970, 1, 5, tzinfo=UTC)  # a Monday, 00:00 UTC
_MICROSECOND = timedelta(microseconds=1)
_HOUR_US = 3_600_000_000


@dataclass(frozen=True)
class Cell:
    cell_id: str
    site_id: str
    azimuth: float  # degrees clockwise from true north, [0, 360)
    hor_width: float  # horizontal beamwidth, degrees in (0, 360]
    technology: str = ""

    def __post_init__(self):
        if not 0.0 <= self.azimuth < 360.0:
            raise InvariantError(f"cell {self.cell_id}: azimuth {self.azimuth} outside [0, 360)")
        if not 0.0 < self.hor_width <= 360.0:
            raise InvariantError(f"cell {self.cell_id}: hor_width {self.hor_width} outside (0, 360]")


@dataclass(frozen=True)
class Site:
    site_id: str
    lat: float
    lon: float
    cell_ids: tuple[str, ...]

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0 or not -180.0 <= self.lon <= 180.0:
            raise InvariantError(f"site {self.site_id}: coordinates out of range")
        if not self.cell_ids:
            raise InvariantError(f"site {self.site_id}: no cells")

    @property
    def location(self) -> tuple[float, float]:
        return self.lat, self.lon


@dataclass(frozen=True, eq=False)
class KpiSeries:
    """Uniformly sampled metric for one cell; NaN marks an absent sample.

    Sample n covers [epoch0 + n*period, epoch0 + (n+1)*period).
    """

    cell_id: str
    metric: str
    epoch0: datetime
    period: timedelta
    values: np.ndarray

    def __post_init__(self):
        if self.period <= timedelta(0):
            raise InvariantError(f"{self.cell_id}/{self.metric}: period must be positive")
        if self.epoch0.tzinfo is None:
            raise InvariantError(f"{self.cell_id}/{self.metric}: epoch0 must be timezone-aware")
        if len(self.values) < 1:
            raise InvariantError(f"{self.cell_id}/{self.metric}: empty series")

    def __len__(self) -> int:
        return len(self.values)

    def sample_time(self, n: int) -> datetime:
        return self.epoch0 + n * self.period

    @property
    def end_time(self) -> datetime:
        """Exclusive end of the covered span."""
        return self.epoch0 + len(self.values) * self.period

    def floor_index(self, ts: datetime) -> int:
        """Index of the sample interval containing ts (may fall outside the array)."""
        return (ts - self.epoch0) // self.period

    def ceil_index(self, ts: datetime) -> int:
        """Smallest index n with sample_time(n) >= ts."""
        quotient, remainder = divmod(ts - self.epoch0, self.period)
        return quotient + (1 if remainder else 0)


@dataclass(frozen=True, eq=False)
class NormalizedSeries(KpiSeries):
    """A KPI series whose values are residuals against a periodic baseline."""

    baseline: np.ndarray = None  # type: ignore[assignment]
    slot_kind: str = "hour_of_week"

    def reconstruct(self) -> np.ndarray:
        """Residuals plus baseline: recovers the original sample values."""
        slots = slot_indices(self.epoch0, self.period, len(self.values), self.slot_kind)
        return self.values + self.baseline[slots]


def slot_indices(epoch0: datetime, period: timedelta, n: int, kind: str) -> np.ndarray:
    """Slot of each sample time ``epoch0 + k * period``, k < n: the UTC hour of
    the week (Monday 00:00 is slot 0) or of the day, by ``kind``."""
    if kind not in CYCLE_HOURS:
        raise InvariantError(f"unknown slot kind {kind!r}")
    first = (epoch0 - _SLOT_ORIGIN) // _MICROSECOND
    offsets = first + (period // _MICROSECOND) * np.arange(n, dtype=np.int64)
    return (offsets // _HOUR_US) % CYCLE_HOURS[kind]


# ---------------------------------------------------------------------------
# Loading / saving
# ---------------------------------------------------------------------------

def _csv_rows(path: str | Path, columns: Sequence[str]):
    """Yield (line_number, row_dict) from a CSV with comments stripped."""
    with open(path, newline="", encoding="utf-8") as handle:
        numbered = [
            (lineno, line)
            for lineno, line in enumerate(handle, start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not numbered:
        raise SchemaError(f"{path}: no header row")
    header = next(csv.reader([numbered[0][1]]))
    missing = [c for c in columns if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing columns {missing}")
    index = {name: header.index(name) for name in columns}
    for lineno, line in numbered[1:]:
        cells = next(csv.reader([line]))
        if len(cells) < len(header):
            raise SchemaError(f"{path} line {lineno}: expected {len(header)} columns")
        yield lineno, {name: cells[index[name]] for name in columns}


def _row_float(row: dict, key: str, path, lineno: int) -> float:
    try:
        value = float(row[key])
    except ValueError:
        raise InvariantError(f"{path} line {lineno}: {key} is not numeric: {row[key]!r}") from None
    if not math.isfinite(value):
        raise InvariantError(f"{path} line {lineno}: {key} is not finite: {row[key]!r}")
    return value


def load_topology(path: str | Path) -> tuple[list[Site], list[Cell]]:
    """Load cells and derive sites by grouping rows on site_id."""
    cells: list[Cell] = []
    seen: set[str] = set()
    site_coords: dict[str, tuple[float, float]] = {}
    site_cells: dict[str, list[str]] = {}
    for lineno, row in _csv_rows(path, TOPOLOGY_COLUMNS):
        cell_id, site_id = row["cell_id"].strip(), row["site_id"].strip()
        if not cell_id or not site_id:
            raise InvariantError(f"{path} line {lineno}: empty cell_id or site_id")
        if cell_id in seen:
            raise InvariantError(f"{path} line {lineno}: duplicate cell_id {cell_id!r}")
        seen.add(cell_id)
        lat = _row_float(row, "lat", path, lineno)
        lon = _row_float(row, "lon", path, lineno)
        if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
            raise InvariantError(f"{path} line {lineno}: coordinates out of range")
        try:
            cell = Cell(
                cell_id=cell_id,
                site_id=site_id,
                azimuth=_row_float(row, "azimuth", path, lineno),
                hor_width=_row_float(row, "hor_width", path, lineno),
                technology=row["technology"].strip(),
            )
        except InvariantError as exc:
            raise InvariantError(f"{path} line {lineno}: {exc}") from None
        known = site_coords.get(site_id)
        if known is None:
            site_coords[site_id] = (lat, lon)
        elif known != (lat, lon):
            raise InvariantError(f"{path} line {lineno}: site {site_id!r} coordinates disagree")
        cells.append(cell)
        site_cells.setdefault(site_id, []).append(cell_id)

    sites = [
        Site(site_id=sid, lat=site_coords[sid][0], lon=site_coords[sid][1],
             cell_ids=tuple(sorted(site_cells[sid])))
        for sid in sorted(site_cells)
    ]
    return sites, cells


def save_topology(sites: Sequence[Site], cells: Sequence[Cell], path: str | Path) -> None:
    coords = {site.site_id: (site.lat, site.lon) for site in sites}
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(TOPOLOGY_COLUMNS)
    for cell in sorted(cells, key=lambda c: c.cell_id):
        lat, lon = coords[cell.site_id]
        writer.writerow([cell.cell_id, cell.site_id, repr(lat), repr(lon),
                         repr(cell.azimuth), repr(cell.hor_width), cell.technology])
    atomic_write_text(path, buffer.getvalue())


def load_kpis(path: str | Path) -> list[KpiSeries]:
    """Load long-format KPI rows into one series per (cell_id, metric).

    The sampling period is inferred as the minimum positive timestamp delta;
    all other deltas must be integer multiples of it. Missing rows (and rows
    with an empty value) become NaN samples; any other value must be a
    finite number.
    """
    samples: dict[tuple[str, str], dict[datetime, float]] = {}
    for lineno, row in _csv_rows(path, KPI_COLUMNS):
        key = (row["cell_id"].strip(), row["metric"].strip())
        if not key[0] or not key[1]:
            raise InvariantError(f"{path} line {lineno}: empty cell_id or metric")
        ts = parse_rfc3339(row["timestamp"])
        value_text = row["value"].strip()
        value = math.nan if not value_text else _row_float(row, "value", path, lineno)
        bucket = samples.setdefault(key, {})
        if ts in bucket:
            raise InvariantError(f"{path} line {lineno}: duplicate sample for {key} at {row['timestamp']}")
        bucket[ts] = value

    series_list = []
    for (cell_id, metric), bucket in sorted(samples.items()):
        stamps = sorted(bucket)
        if len(stamps) == 1:
            period = timedelta(hours=1)  # undecidable from one sample; hourly default
        else:
            deltas = [b - a for a, b in zip(stamps, stamps[1:])]
            period = min(deltas)
            for delta in deltas:
                if delta % period:
                    raise NonUniformPeriod(
                        f"{cell_id}/{metric}: delta {delta} is not a multiple of {period}"
                    )
        n = (stamps[-1] - stamps[0]) // period + 1
        values = np.full(n, np.nan)
        for ts, value in bucket.items():
            values[(ts - stamps[0]) // period] = value
        series_list.append(KpiSeries(cell_id=cell_id, metric=metric, epoch0=stamps[0],
                                     period=period, values=values))
    return series_list


def write_kpis(series_list: Iterable[KpiSeries], path: str | Path) -> None:
    """Write series in the long CSV format; NaN samples keep their row with an empty value."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(KPI_COLUMNS)
    for series in sorted(series_list, key=lambda s: (s.cell_id, s.metric)):
        for n, value in enumerate(series.values):
            text = "" if math.isnan(value) else repr(float(value))
            writer.writerow([series.cell_id, series.metric,
                             format_rfc3339(series.sample_time(n)), text])
    atomic_write_text(path, buffer.getvalue())


# ---------------------------------------------------------------------------
# Periodic normalization
# ---------------------------------------------------------------------------

def _covers_two_cycles(series: KpiSeries, kind: str) -> bool:
    return len(series.values) * series.period >= timedelta(hours=2 * CYCLE_HOURS[kind])


def periodic_kind(series: KpiSeries) -> Optional[str]:
    """The longest slot kind with two full cycles of history, else None."""
    return next((kind for kind in CYCLE_HOURS if _covers_two_cycles(series, kind)), None)


def normalize_periodic(series: KpiSeries, period_hint: str = "hour_of_week") -> NormalizedSeries:
    """Subtract a per-slot median baseline (hour-of-week or hour-of-day).

    The median is robust to the sparse event-driven spikes this pipeline
    hunts for, so those survive into the residuals. Requires at least two
    full cycles of history.
    """
    slots = slot_indices(series.epoch0, series.period, len(series.values), period_hint)
    if not _covers_two_cycles(series, period_hint):
        raise InsufficientHistory(
            f"{series.cell_id}/{series.metric}: {len(series.values) * series.period} "
            f"covers less than two {period_hint} cycles"
        )
    baseline = np.full(CYCLE_HOURS[period_hint], np.nan)
    for slot in range(len(baseline)):
        members = series.values[(slots == slot) & ~np.isnan(series.values)]
        if members.size:
            baseline[slot] = float(np.median(members))
    residuals = series.values - baseline[slots]
    return NormalizedSeries(
        cell_id=series.cell_id,
        metric=series.metric,
        epoch0=series.epoch0,
        period=series.period,
        values=residuals,
        baseline=baseline,
        slot_kind=period_hint,
    )
