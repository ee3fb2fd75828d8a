"""Shared fixtures and builders."""
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from eventcell.ingest import (
    SocialEvent, SourceConfig, _char_masks, _masked_levenshtein, normalize_text)
from eventcell.network import Cell, KpiSeries, Site

UTC = timezone.utc
T0 = datetime(2017, 3, 1, tzinfo=UTC)


def make_event(
    raw_id="e1",
    name="Concert A",
    start=None,
    end=None,
    lat=36.72,
    lon=-4.42,
    venue=None,
    address=None,
    category=None,
    popularity=None,
    source_id="src",
):
    return SocialEvent(
        event_id=f"{source_id}/{raw_id}",
        name=name,
        start_time=start or T0 + timedelta(hours=20),
        end_time=end,
        lat=lat,
        lon=lon,
        venue=venue,
        address=address,
        category=category,
        popularity=popularity,
        source_id=source_id,
        raw_id=raw_id,
    )


def spellings(value):
    """Spellings of a coordinate equal to ``value``: itself, as a float, as
    an int where integral, and 0.0 and -0.0 where zero."""
    spellings = [value, float(value)]
    if float(value).is_integer():
        spellings.append(int(value))
    if value == 0:
        spellings += [0.0, -0.0]
    return spellings


def similarity(a: str, b: str) -> float:
    """Fusion's name similarity in [0, 1]: one minus the edit distance of the
    normalized names over the longer one's length; 1.0 iff they match."""
    a, b = normalize_text(a), normalize_text(b)
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - _masked_levenshtein(_char_masks(a), len(a), b, longest) / longest


def hourly_series(values, cell_id="CELL_1A", metric="NUM_DROPS", epoch0=T0):
    return KpiSeries(
        cell_id=cell_id,
        metric=metric,
        epoch0=epoch0,
        period=timedelta(hours=1),
        values=np.asarray(values, dtype=float),
    )


@pytest.fixture
def tri_site():
    """One tri-sector site with 120-degree cells at azimuths 0/120/240."""
    cells = [
        Cell("C_A", "S1", 0.0, 120.0, "LTE"),
        Cell("C_B", "S1", 120.0, 120.0, "LTE"),
        Cell("C_C", "S1", 240.0, 120.0, "LTE"),
    ]
    site = Site("S1", 36.7201, -4.4203, ("C_A", "C_B", "C_C"))
    return site, cells


@pytest.fixture
def simple_source(tmp_path):
    def _build(records_text, fmt="json_records", field_map=None, **kwargs):
        path = tmp_path / "feed.ndjson"
        path.write_text(records_text, encoding="utf-8")
        return SourceConfig(
            source_id=kwargs.pop("source_id", "src"),
            kind="file",
            locator=str(path),
            format=fmt,
            field_map=field_map or {"title": "NAME", "when": "START_TIME"},
            **kwargs,
        )

    return _build
