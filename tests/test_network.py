"""Topology and KPI loading, plus periodic-baseline normalization."""
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from eventcell.errors import (
    InsufficientHistory,
    InvariantError,
    NonUniformPeriod,
    SchemaError,
)
from eventcell.network import (
    CYCLE_HOURS,
    Cell,
    load_kpis,
    load_topology,
    normalize_periodic,
    periodic_kind,
    save_topology,
    slot_indices,
    write_kpis,
)

from conftest import T0, hourly_series

TOPOLOGY_HEADER = "cell_id,site_id,lat,lon,azimuth,hor_width,technology\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- topology ---------------------------------------------------------------

def test_tri_sector_grouping(tmp_path):
    path = _write(
        tmp_path, "topo.csv",
        TOPOLOGY_HEADER
        + "CELL_1A,SITE_1,36.72,-4.42,0,120,LTE\n"
        + "CELL_1B,SITE_1,36.72,-4.42,120,120,LTE\n"
        + "CELL_1C,SITE_1,36.72,-4.42,240,120,LTE\n",
    )
    sites, cells = load_topology(path)
    assert len(sites) == 1 and len(cells) == 3
    assert sites[0].cell_ids == ("CELL_1A", "CELL_1B", "CELL_1C")


def test_empty_topology(tmp_path):
    sites, cells = load_topology(_write(tmp_path, "t.csv", TOPOLOGY_HEADER))
    assert sites == [] and cells == []


def test_topology_comments_skipped(tmp_path):
    path = _write(
        tmp_path, "t.csv",
        "# operator export 2017\n" + TOPOLOGY_HEADER + "# sector A\nC1,S1,1,2,90,120,LTE\n",
    )
    sites, cells = load_topology(path)
    assert len(cells) == 1


def test_azimuth_360_rejected(tmp_path):
    path = _write(tmp_path, "t.csv", TOPOLOGY_HEADER + "C1,S1,1,2,360,120,LTE\n")
    with pytest.raises(InvariantError, match="line 2"):
        load_topology(path)


def test_missing_column(tmp_path):
    path = _write(tmp_path, "t.csv", "cell_id,site_id,lat,lon,azimuth,technology\n")
    with pytest.raises(SchemaError, match="hor_width"):
        load_topology(path)


def test_duplicate_cell_rejected(tmp_path):
    path = _write(
        tmp_path, "t.csv",
        TOPOLOGY_HEADER + "C1,S1,1,2,0,120,LTE\nC1,S1,1,2,90,120,LTE\n",
    )
    with pytest.raises(InvariantError, match="duplicate"):
        load_topology(path)


def test_site_coordinate_mismatch(tmp_path):
    path = _write(
        tmp_path, "t.csv",
        TOPOLOGY_HEADER + "C1,S1,1,2,0,120,LTE\nC2,S1,1.5,2,90,120,LTE\n",
    )
    with pytest.raises(InvariantError, match="disagree"):
        load_topology(path)


def test_cell_invariants():
    with pytest.raises(InvariantError):
        Cell("X", "S", azimuth=400.0, hor_width=120.0)
    with pytest.raises(InvariantError):
        Cell("X", "S", azimuth=0.0, hor_width=0.0)
    assert Cell("X", "S", azimuth=0.0, hor_width=360.0).hor_width == 360.0


def test_topology_round_trip(tmp_path):
    original = _write(
        tmp_path, "t.csv",
        TOPOLOGY_HEADER
        + "CELL_1A,SITE_1,36.72,-4.42,0,120,LTE\n"
        + "CELL_2A,SITE_2,36.75,-4.40,45.5,90,NR\n",
    )
    sites, cells = load_topology(original)
    copy = tmp_path / "copy.csv"
    save_topology(sites, cells, copy)
    sites2, cells2 = load_topology(copy)
    assert sites2 == sites and cells2 == cells


# --- KPI loading ------------------------------------------------------------

def _kpi_csv(rows):
    return "cell_id,metric,timestamp,value\n" + "".join(rows)


def test_load_hourly_series(tmp_path):
    rows = [
        f"C1,NUM_DROPS,2017-03-01T{h:02d}:00:00Z,{h}\n" for h in range(24)
    ]
    path = _write(tmp_path, "k.csv", _kpi_csv(rows))
    series_list = load_kpis(path)
    assert len(series_list) == 1
    series = series_list[0]
    assert len(series) == 24
    assert series.period == timedelta(hours=1)
    assert series.values[5] == 5.0


def test_gap_becomes_nan(tmp_path):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        "C1,M,2017-03-01T01:00:00Z,2\n",
        "C1,M,2017-03-01T03:00:00Z,4\n",
    ]
    series = load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))[0]
    assert len(series) == 4
    assert math.isnan(series.values[2])


def test_non_uniform_period(tmp_path):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        "C1,M,2017-03-01T01:00:00Z,2\n",
        "C1,M,2017-03-01T02:30:00Z,3\n",
    ]
    with pytest.raises(NonUniformPeriod):
        load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))


def test_duplicate_sample_rejected(tmp_path):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        "C1,M,2017-03-01T00:00:00Z,2\n",
    ]
    with pytest.raises(InvariantError, match="duplicate"):
        load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN", "1e400"])
def test_non_finite_value_rejected_with_line(tmp_path, value):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        f"C1,M,2017-03-01T01:00:00Z,{value}\n",
    ]
    with pytest.raises(InvariantError, match="line 3: value is not finite"):
        load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))


def test_multiple_series_split(tmp_path):
    rows = [
        "C1,M1,2017-03-01T00:00:00Z,1\n",
        "C1,M2,2017-03-01T00:00:00Z,5\n",
        "C1,M1,2017-03-01T01:00:00Z,2\n",
        "C2,M1,2017-03-01T00:00:00Z,9\n",
    ]
    series_list = load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))
    keys = [(s.cell_id, s.metric) for s in series_list]
    assert keys == [("C1", "M1"), ("C1", "M2"), ("C2", "M1")]


def test_empty_value_is_absent(tmp_path):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        "C1,M,2017-03-01T01:00:00Z,\n",
        "C1,M,2017-03-01T02:00:00Z,3\n",
    ]
    series = load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))[0]
    assert math.isnan(series.values[1])


def test_kpi_round_trip(tmp_path):
    values = np.array([1.25, np.nan, 3.5, 4.0])
    series = hourly_series(values, cell_id="C1", metric="M")
    path = tmp_path / "k.csv"
    write_kpis([series], path)
    loaded = load_kpis(path)[0]
    assert loaded.period == series.period and loaded.epoch0 == series.epoch0
    np.testing.assert_array_equal(loaded.values, values)


def test_series_index_arithmetic():
    series = hourly_series(np.zeros(48))
    assert series.floor_index(T0 + timedelta(hours=5, minutes=30)) == 5
    assert series.ceil_index(T0 + timedelta(hours=5, minutes=30)) == 6
    assert series.ceil_index(T0 + timedelta(hours=5)) == 5
    assert series.floor_index(T0 - timedelta(hours=1)) == -1


# --- normalization ----------------------------------------------------------

def test_periodic_signal_removed_exactly():
    daily = np.array([10.0 + 3.0 * math.sin(2 * math.pi * h / 24) for h in range(24)])
    series = hourly_series(np.tile(daily, 4))
    normalized = normalize_periodic(series, "hour_of_day")
    assert np.nanmax(np.abs(normalized.values)) <= 1e-9
    assert normalized.baseline.shape == (24,)


def test_constant_series():
    series = hourly_series(np.full(336, 7.5))
    normalized = normalize_periodic(series, "hour_of_week")
    assert np.allclose(normalized.baseline, 7.5)
    assert np.nanmax(np.abs(normalized.values)) <= 1e-9
    assert normalized.baseline.shape == (168,)


def test_spike_recovered():
    daily = np.arange(24, dtype=float)
    values = np.tile(daily, 5)
    values[60] += 42.0  # injected spike, location and magnitude known
    series = hourly_series(values)
    normalized = normalize_periodic(series, "hour_of_day")
    assert normalized.values[60] == pytest.approx(42.0, abs=1e-9)
    mask = np.ones(len(values), dtype=bool)
    mask[60] = False
    assert np.nanmax(np.abs(normalized.values[mask])) <= 1e-9


def test_insufficient_history():
    with pytest.raises(InsufficientHistory):
        normalize_periodic(hourly_series(np.zeros(47)), "hour_of_day")
    with pytest.raises(InsufficientHistory):
        normalize_periodic(hourly_series(np.zeros(335)), "hour_of_week")


def test_absent_samples_preserved():
    values = np.tile(np.arange(24, dtype=float), 3)
    values[10] = np.nan
    normalized = normalize_periodic(hourly_series(values), "hour_of_day")
    assert math.isnan(normalized.values[10])
    assert len(normalized.values) == len(values)
    present = ~np.isnan(values)
    assert np.array_equal(~np.isnan(normalized.values), present)


def test_reconstruct_matches_original():
    rng = np.random.default_rng(3)
    values = np.tile(np.arange(24, dtype=float), 3) + rng.normal(0, 1, 72)
    series = hourly_series(values)
    normalized = normalize_periodic(series, "hour_of_day")
    np.testing.assert_allclose(normalized.reconstruct(), values, atol=1e-9)


def _slot_oracle(ts, kind):
    """Scalar slot: weekday * 24 + hour of the UTC time (hour only per day)."""
    ts = ts.astimezone(timezone.utc)
    return ts.weekday() * 24 + ts.hour if kind == "hour_of_week" else ts.hour


@given(
    epoch0=st.datetimes(
        min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
        timezones=st.sampled_from([timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                                   timezone(-timedelta(hours=3))]),
    ),
    period=st.one_of(
        st.timedeltas(min_value=timedelta(microseconds=1), max_value=timedelta(days=3)),
        st.sampled_from([timedelta(seconds=37), timedelta(minutes=15), timedelta(hours=1),
                         timedelta(hours=7)]),
    ),
    n=st.integers(0, 60),
    kind=st.sampled_from(sorted(CYCLE_HOURS)),
)
@example(epoch0=datetime(1969, 12, 31, 23, 59, 30, tzinfo=timezone.utc),
         period=timedelta(seconds=37), n=60, kind="hour_of_week")
@example(epoch0=datetime(1955, 6, 5, 22, 10, tzinfo=timezone.utc),
         period=timedelta(hours=7), n=60, kind="hour_of_week")
@example(epoch0=datetime(2017, 3, 5, 23, 45, tzinfo=timezone.utc),
         period=timedelta(minutes=15), n=60, kind="hour_of_day")
def test_slot_indices_match_scalar_oracle(epoch0, period, n, kind):
    got = slot_indices(epoch0, period, n, kind)
    assert got.tolist() == [_slot_oracle(epoch0 + k * period, kind) for k in range(n)]


def test_slot_indices_unknown_kind():
    with pytest.raises(InvariantError, match="unknown slot kind"):
        slot_indices(T0, timedelta(hours=1), 3, "minute_of_hour")


@pytest.mark.parametrize("hours, kind", [
    (47, None), (48, "hour_of_day"), (335, "hour_of_day"), (336, "hour_of_week"),
])
def test_periodic_kind_boundaries(hours, kind):
    assert periodic_kind(hourly_series(np.zeros(hours))) == kind


def test_hour_of_week_captures_weekday_structure():
    # weekday 'w' contributes value w at every hour; hour-of-day cannot
    # separate that, hour-of-week can.
    values = []
    for day in range(14):
        weekday = (T0 + timedelta(days=day)).weekday()
        values.extend([float(weekday)] * 24)
    series = hourly_series(np.array(values))
    normalized = normalize_periodic(series, "hour_of_week")
    assert np.nanmax(np.abs(normalized.values)) <= 1e-9


def test_single_sample_series_defaults_hourly(tmp_path):
    path = _write(tmp_path, "k.csv", _kpi_csv(["C1,M,2017-03-01T00:00:00Z,4\n"]))
    series = load_kpis(path)[0]
    assert len(series) == 1 and series.period == timedelta(hours=1)


def test_series_invariants():
    from eventcell.network import KpiSeries
    import numpy as np
    from conftest import T0

    with pytest.raises(InvariantError):
        KpiSeries("C", "M", T0, timedelta(0), np.zeros(3))
    with pytest.raises(InvariantError):
        KpiSeries("C", "M", T0, timedelta(hours=1), np.array([]))
