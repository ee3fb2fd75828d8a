"""Cellular topology (sites, sectored cells) and per-cell KPI time series.

File formats are the interchange contract with operator OSS exports:

* topology CSV: ``cell_id,site_id,lat,lon,azimuth,hor_width,technology``
* KPI CSV (long format): ``cell_id,metric,timestamp,value``

Both accept ``#``-prefixed comment lines. KPI gaps become NaN samples that
propagate through normalization and are excluded from correlations, never
imputed.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import operator
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import CYCLE_HOURS
from .errors import (
    InsufficientHistory,
    InvariantError,
    NonUniformPeriod,
    SchemaError,
    UnparseableTimestamp,
)
from .fsutil import atomic_write_text, undecodable
from .timeutil import UTC, format_rfc3339, parse_rfc3339

TOPOLOGY_COLUMNS = ("cell_id", "site_id", "lat", "lon", "azimuth", "hor_width", "technology")
KPI_COLUMNS = ("cell_id", "metric", "timestamp", "value")

_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_SLOT_ORIGIN = datetime(1970, 1, 5, tzinfo=UTC)  # a Monday, 00:00 UTC
_MICROSECOND = timedelta(microseconds=1)
_HOUR_US = 3_600_000_000
# Longest grid one KPI series may span: 128 MiB of float64, or 479 years of
# 15-minute samples. A stray far-off row must not allocate without bound.
MAX_SERIES_SAMPLES = 2**24
# Bytes a CSV scan reads at a time; its numpy arrays take a few times this.
_BLOCK_BYTES = 1 << 17


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

    def floor_index(self, ts: datetime) -> int:
        """Index of the sample interval containing ts (may fall outside the array)."""
        return (ts - self.epoch0) // self.period

    def ceil_index(self, ts: datetime) -> int:
        """Smallest index n with sample_time(n) >= ts."""
        quotient, remainder = divmod(ts - self.epoch0, self.period)
        return quotient + (1 if remainder else 0)


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

def _line_runs(handle):
    """Yield a binary file's bytes in runs of whole lines, read in blocks of
    ``_BLOCK_BYTES``.

    A line ends at LF, CR LF or a lone CR, as for a text file opened with
    ``newline=""``; a CR that ends a block waits for the next byte. The last
    run may lack its line end. No line end holds a byte of a multibyte UTF-8
    character, so no run splits one.
    """
    pending: list[bytes] = []
    for block in iter(lambda: handle.read(_BLOCK_BYTES), b""):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending)
            pending = []
            block = block[cut:]
        pending.append(block)
    if any(pending):
        yield b"".join(pending)


def _line_ends(run: bytes, view: np.ndarray) -> np.ndarray:
    """Offset of the last byte of each line of ``run``, a run of whole lines."""
    ends = view == 10
    if b"\r" in run:
        lone = view == 13
        lone[:-1] &= view[1:] != 10
        ends |= lone
    ends = np.flatnonzero(ends)
    if run[-1] not in b"\r\n":
        ends = np.append(ends, len(run) - 1)
    return ends


def _candidates(run: bytes, view: np.ndarray, ends: np.ndarray, width: int,
                needle: Optional[bytes]) -> np.ndarray:
    """Indexes of the lines of ``run`` that the row loop must parse.

    Before the header (``width`` 0) and without a non-empty ``needle`` that
    is every line. Otherwise a line is picked if it holds ``needle``, holds
    a quote, or has fewer than ``width - 1`` commas: a line that is none of
    these is a quote-free row of another id, or a comment, which the loop
    would skip. Picking too many lines is safe; missing one is not.
    """
    if not width or not needle:
        return np.arange(len(ends))
    commas = np.searchsorted(np.flatnonzero(view == 44), ends)
    picked = np.diff(commas, prepend=0) < width - 1
    if b'"' in run:
        picked[np.searchsorted(ends, np.flatnonzero(view == 34))] = True
    hits = []
    at = run.find(needle)
    while at >= 0:
        hits.append(at)
        at = run.find(needle, at + 1)
    picked[np.searchsorted(ends, hits)] = True
    return np.flatnonzero(picked)


def _regular_candidates(run: bytes, view: np.ndarray, width: int, column: int,
                        needle: bytes) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The line ends of ``run`` and the indexes of the lines the row loop
    must parse, if every line ends at LF (CR LF included) and has exactly
    ``width - 1`` commas; else None.

    Then the separators (commas and LFs) form a grid of ``width`` per line,
    which gives the start of each line's field ``column`` directly. A line
    is picked if that field starts with ``needle``, starts with a byte that
    ``strip()`` may remove (at most 0x20, or a UTF-8 lead byte), or the line
    holds a quote; any other line is a quote-free row of full width whose
    field, stripped, is not ``needle``.
    """
    if run[-1] != 10 or (b"\r" in run and run.count(b"\r") != run.count(b"\r\n")):
        return None
    lf = view == 10
    seps = np.flatnonzero(lf | (view == 44))
    ends = seps[width - 1::width]
    # n LFs in all, each the width-th separator of its line: no line is short or long
    if (len(seps) != width * len(ends) or np.count_nonzero(lf) != len(ends)
            or not np.all(view[ends] == 10)):
        return None
    starts = seps[column - 1::width] + 1 if column else np.concatenate(([0], ends[:-1] + 1))
    first = view[starts]
    picked = (first <= 0x20) | (first >= 0x80)
    if len(needle) <= len(run):
        # each byte offset as the start of a len(needle)-byte window of run; a
        # field too near the end reads the last window, at worst a needless pick
        windows = np.ndarray((len(run) - len(needle) + 1,), f"V{len(needle)}", run, 0, (1,))
        picked |= windows[np.minimum(starts, len(windows) - 1)] == np.void(needle)
    if b'"' in run:
        picked[np.searchsorted(ends, np.flatnonzero(view == 34))] = True
    return ends, np.flatnonzero(picked)


def _split_line(line: str) -> Optional[list[str]]:
    """The fields of one CSV line, or None for a blank or comment line."""
    head = line.lstrip()
    if not head or head[0] == "#":
        return None
    if '"' in line:
        return next(csv.reader((line,)))
    return line.rstrip("\r\n").split(",")


def _csv_rows(path: str | Path, columns: Sequence[str], match: Optional[str] = None):
    """Stream (line_number, fields) from a CSV, skipping comment and blank
    lines; ``fields`` holds the named ``columns`` in that order.

    Each physical line is parsed on its own, so an unterminated quote fails
    its own row rather than swallowing the next one. The file is scanned in
    blocks of ``_BLOCK_BYTES``, each checked as UTF-8 as a whole, and only
    the lines the scan picks are decoded and split. With ``match``, only
    rows whose first named column, stripped, equals it are yielded; every
    row's column count is still checked. A quote-free line holds its fields
    as substrings, so one that cannot hold ``match`` is skipped on its raw
    bytes. Lines holding a quote are split as usual, since ``csv`` reads
    ``"S0"26C`` as ``S026C``.

    With ``match``, a block after the header whose lines all end at LF or
    CR LF and hold the header's comma count is regular: one pass over its
    separators places each line's first named column, and
    ``_regular_candidates`` picks the lines whose field there may be
    ``match``. Any other block (a comment, blank, short or long line, or a
    lone CR) goes through ``_line_ends`` and ``_candidates``, which pick the
    short lines and those holding ``match`` anywhere.
    """
    needle = None if match is None else match.encode("utf-8", "surrogatepass")
    header = None
    width = column = 0  # the header's column count and index of columns[0], once it is read
    lineno = 0  # lines before the current run
    try:
        with open(path, "rb") as handle:
            for run in _line_runs(handle):
                if not lineno:
                    run = run.removeprefix(codecs.BOM_UTF8)
                if not run.isascii():
                    run.decode("utf-8")  # a bad byte fails the read in any row
                while run:
                    view = np.frombuffer(run, np.uint8)
                    scan = (_regular_candidates(run, view, width, column, needle)
                            if width and needle else None)
                    if scan is None:
                        ends = _line_ends(run, view)
                        scan = ends, _candidates(run, view, ends, width, needle)
                    ends, picked = scan
                    bounds = np.concatenate(([0], ends + 1))  # line k is bounds[k]:bounds[k + 1]
                    rest = b""
                    for k, start, stop in zip(picked.tolist(), bounds[picked].tolist(),
                                              bounds[picked + 1].tolist()):
                        cells = _split_line(run[start:stop].decode("utf-8"))
                        if cells is None:
                            continue
                        if header is None:
                            header = cells
                            missing = [c for c in columns if c not in header]
                            if missing:
                                raise SchemaError(f"{path}: missing columns {missing}")
                            pick = operator.itemgetter(*(header.index(name) for name in columns))
                            width, column = len(header), header.index(columns[0])
                            rest = run[stop:]  # pick its lines by the header's width
                            lineno += k + 1
                            break
                        if len(cells) < width:
                            raise SchemaError(f"{path} line {lineno + k + 1}: expected {width} columns")
                        row = pick(cells)
                        if match is None or row[0].strip() == match:
                            yield lineno + k + 1, row
                    else:
                        lineno += len(ends)
                    run = rest
    except UnicodeDecodeError:
        raise SchemaError(undecodable(path)) from None
    if header is None:
        raise SchemaError(f"{path}: no header row")


def _row_float(text: str, key: str, path, lineno: int) -> float:
    try:
        if "_" in text:  # float() takes Python's digit separators; no export means them
            raise ValueError
        value = float(text)
    except ValueError:
        raise InvariantError(f"{path} line {lineno}: {key} is not numeric: {text!r}") from None
    if not math.isfinite(value):
        raise InvariantError(f"{path} line {lineno}: {key} is not finite: {text!r}")
    return value


def load_topology(path: str | Path) -> tuple[list[Site], list[Cell]]:
    """Load cells and derive sites by grouping rows on site_id."""
    cells: list[Cell] = []
    seen: set[str] = set()
    site_coords: dict[str, tuple[float, float]] = {}
    site_cells: dict[str, list[str]] = {}
    for lineno, row in _csv_rows(path, TOPOLOGY_COLUMNS):
        cell_text, site_text, lat_text, lon_text, azimuth_text, width_text, technology = row
        cell_id, site_id = cell_text.strip(), site_text.strip()
        if not cell_id or not site_id:
            raise InvariantError(f"{path} line {lineno}: empty cell_id or site_id")
        if cell_id in seen:
            raise InvariantError(f"{path} line {lineno}: duplicate cell_id {cell_id!r}")
        seen.add(cell_id)
        lat = _row_float(lat_text, "lat", path, lineno)
        lon = _row_float(lon_text, "lon", path, lineno)
        if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
            raise InvariantError(f"{path} line {lineno}: coordinates out of range")
        try:
            cell = Cell(
                cell_id=cell_id,
                site_id=site_id,
                azimuth=_row_float(azimuth_text, "azimuth", path, lineno),
                hor_width=_row_float(width_text, "hor_width", path, lineno),
                technology=technology.strip(),
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


def load_kpis(path: str | Path, cell_id: Optional[str] = None) -> list[KpiSeries]:
    """Load long-format KPI rows into one series per (cell_id, metric).

    The sampling period is inferred as the minimum positive timestamp delta;
    all other deltas must be integer multiples of it, and a series' grid may
    span at most ``MAX_SERIES_SAMPLES`` samples. Missing rows (and rows with
    an empty value) become NaN samples; any other value must be a finite
    number. Each distinct timestamp text is parsed once.

    Without ``cell_id`` every row is checked. With it, only that cell's
    series are loaded: every row's column count is checked, but only the
    rows of that cell are fully checked, so a bad value in another cell's
    row is not reported. The file is read in blocks (see ``_csv_rows``),
    so memory beyond the loaded series does not grow with the file, and a
    scoped read decodes and splits only the lines that may hold the cell.
    """
    # (cell_id, metric) -> {microseconds since the epoch: value}
    buckets: dict[tuple[str, str], dict[int, float]] = {}
    stamp_us: dict[str, int] = {}  # timestamp text -> microseconds since the epoch
    rows = _csv_rows(path, KPI_COLUMNS, cell_id)
    for lineno, (cell_text, metric_text, stamp, value_text) in rows:
        key = (cell_text.strip(), metric_text.strip())
        bucket = buckets.get(key)
        if bucket is None:
            if not key[0] or not key[1]:
                raise InvariantError(f"{path} line {lineno}: empty cell_id or metric")
            bucket = buckets[key] = {}
        us = stamp_us.get(stamp)
        if us is None:
            try:
                us = stamp_us[stamp] = (parse_rfc3339(stamp) - _EPOCH) // _MICROSECOND
            except UnparseableTimestamp as exc:
                raise UnparseableTimestamp(f"{path} line {lineno}: {exc}") from None
        value = _row_float(value_text, "value", path, lineno) if value_text.strip() else math.nan
        if us in bucket:
            raise InvariantError(f"{path} line {lineno}: duplicate sample for {key} at {stamp}")
        bucket[us] = value

    series_list = []
    for (cell, metric), bucket in sorted(buckets.items()):
        stamps = np.fromiter(bucket, dtype=np.int64, count=len(bucket))
        deltas = np.diff(np.sort(stamps))
        if not deltas.size:
            period = _HOUR_US  # undecidable from one sample; hourly default
        else:
            period = int(deltas.min())
            bad = np.flatnonzero(deltas % period)
            if bad.size:
                raise NonUniformPeriod(
                    f"{cell}/{metric}: delta {timedelta(microseconds=int(deltas[bad[0]]))} "
                    f"is not a multiple of {timedelta(microseconds=period)}"
                )
        first, last = int(stamps.min()), int(stamps.max())
        length = (last - first) // period + 1
        if length > MAX_SERIES_SAMPLES:
            raise InvariantError(
                f"{path}: {cell}/{metric} from {format_rfc3339(_EPOCH + first * _MICROSECOND)} "
                f"to {format_rfc3339(_EPOCH + last * _MICROSECOND)} spans {length} samples, "
                f"over the limit of {MAX_SERIES_SAMPLES}"
            )
        values = np.full(length, np.nan)
        values[(stamps - first) // period] = np.fromiter(bucket.values(), dtype=float,
                                                          count=len(bucket))
        series_list.append(KpiSeries(cell_id=cell, metric=metric,
                                     epoch0=_EPOCH + timedelta(microseconds=first),
                                     period=timedelta(microseconds=period), values=values))
    return series_list


def _csv_line(fields: Sequence[str]) -> str:
    """One CSV row as ``csv.writer`` writes it, quotes and ``\\r\\n`` included."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(fields)
    return buffer.getvalue()


def write_kpis(series_list: Iterable[KpiSeries], path: str | Path) -> None:
    """Write series in the long CSV format; NaN samples keep their row with an empty value.

    The text is what ``csv.writer`` would write row by row, rendered a series
    at a time: the cell id and metric are quoted once, each grid's timestamps
    are formatted once, and the values come from one ``repr`` of the series'
    list, whose items are ``float.__repr__`` texts. An infinite value is
    refused before anything is written.
    """
    chunks = [_csv_line(KPI_COLUMNS)]
    grids: dict[tuple[datetime, timedelta, int], list[str]] = {}  # series share sample times
    for series in sorted(series_list, key=lambda s: (s.cell_id, s.metric)):
        values = np.asarray(series.values, dtype=float)
        infinite = np.isinf(values)
        if infinite.any():
            raise InvariantError(f"{series.cell_id}/{series.metric}: value "
                                 f"{values[infinite][0]} is not finite")
        grid = (series.epoch0, series.period, len(values))
        stamps = grids.get(grid)
        if stamps is None:
            stamps = grids[grid] = [format_rfc3339(series.sample_time(k)) + ","
                                    for k in range(grid[2])]
        prefix = _csv_line((series.cell_id, series.metric))[:-2] + ","
        # No float repr but NaN's holds "nan", so this empties exactly the NaN items.
        texts = repr(values.tolist())[1:-1].replace("nan", "").split(", ")
        chunks.append(prefix + ("\r\n" + prefix).join(map(operator.add, stamps, texts)) + "\r\n")
    atomic_write_text(path, "".join(chunks))


# ---------------------------------------------------------------------------
# Periodic normalization
# ---------------------------------------------------------------------------

def _covers_two_cycles(series: KpiSeries, kind: str) -> bool:
    return len(series.values) * series.period >= timedelta(hours=2 * CYCLE_HOURS[kind])


def _slots_filled(series: KpiSeries, kind: str) -> bool:
    """Whether every slot the series' grid reaches holds two present samples."""
    slots = slot_indices(series.epoch0, series.period, len(series.values), kind)
    reached = np.bincount(slots, minlength=CYCLE_HOURS[kind]) > 0
    present = np.bincount(slots[~np.isnan(series.values)], minlength=CYCLE_HOURS[kind])
    return bool(np.all(present[reached] >= 2))


def periodic_kind(series: KpiSeries) -> Optional[str]:
    """The longest slot kind with two full cycles of history, in which every
    slot the grid reaches holds at least two present samples, else None."""
    return next((kind for kind in CYCLE_HOURS
                 if _covers_two_cycles(series, kind) and _slots_filled(series, kind)), None)


def normalize_periodic(series: KpiSeries, period_hint: str = "hour_of_week") -> KpiSeries:
    """The series' residuals against a per-slot median baseline (hour-of-week
    or hour-of-day).

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
    present = ~np.isnan(series.values)
    keys, values = slots[present], series.values[present]
    ordered = values[np.lexsort((values, keys))]  # by slot, then by value
    counts = np.bincount(keys, minlength=CYCLE_HOURS[period_hint])
    filled = counts > 0
    low = (np.cumsum(counts) - counts // 2 - 1)[filled]  # each slot's lower middle index
    even = counts[filled] % 2 == 0
    median = ordered[low]  # an odd count's middle value itself: (a + a) / 2 may overflow
    median[even] = (median[even] + ordered[low[even] + 1]) / 2
    baseline = np.full(len(counts), np.nan)
    baseline[filled] = median
    return replace(series, values=series.values - baseline[slots])
