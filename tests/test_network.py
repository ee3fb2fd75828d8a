"""Topology and KPI loading, plus periodic-baseline normalization."""
import csv
import io
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eventcell.config import CYCLE_HOURS
from eventcell.errors import (
    EventcellError,
    InsufficientHistory,
    InvariantError,
    NonUniformPeriod,
    SchemaError,
    UnparseableTimestamp,
)
from eventcell import network
from eventcell.fsutil import atomic_write_text
from eventcell.network import (
    KPI_COLUMNS,
    MAX_SERIES_SAMPLES,
    Cell,
    KpiSeries,
    load_kpis,
    load_topology,
    normalize_periodic,
    periodic_kind,
    save_topology,
    slot_indices,
    write_kpis,
)
from eventcell.timeutil import format_rfc3339, parse_rfc3339

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


def test_topology_with_byte_order_mark(tmp_path):
    text = TOPOLOGY_HEADER + "C1,S1,1,2,90,120,LTE\n"
    sites, cells = load_topology(_write(tmp_path, "bom.csv", "\ufeff" + text))
    assert (sites, cells) == load_topology(_write(tmp_path, "plain.csv", text))
    assert cells[0].cell_id == "C1"


@pytest.mark.parametrize("column, row", [
    ("lat", "C1,S1,1_0,2,90,120,LTE\n"),
    ("azimuth", "C1,S1,1,2,9_0,120,LTE\n"),
], ids=["lat", "azimuth"])
def test_topology_rejects_digit_separators(tmp_path, column, row):
    path = _write(tmp_path, "t.csv", TOPOLOGY_HEADER + row)
    with pytest.raises(InvariantError, match=f"line 2: {column} is not numeric"):
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


def test_kpi_with_byte_order_mark(tmp_path):
    text = _kpi_csv(["C1,M,2017-03-01T00:00:00Z,1\n", "C1,M,2017-03-01T01:00:00Z,2\n"])
    series = load_kpis(_write(tmp_path, "bom.csv", "\ufeff" + text))
    assert [(s.cell_id, s.values.tolist()) for s in series] == [("C1", [1.0, 2.0])]


@pytest.mark.parametrize("value", ["1_000", "1_0.5", "1e1_0", "_1"])
def test_kpi_value_rejects_digit_separators(tmp_path, value):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        f"C1,M,2017-03-01T01:00:00Z,{value}\n",
    ]
    with pytest.raises(InvariantError, match="line 3: value is not numeric"):
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


def test_unterminated_quote_fails_its_own_line(tmp_path):
    rows = [
        'C1,"M,2017-03-01T00:00:00Z,1\n',
        'C1,M,2017-03-01T01:00:00Z,2"\n',
    ]
    with pytest.raises(SchemaError, match="line 2: expected 4 columns"):
        load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))


@pytest.mark.parametrize("stamp", ["yesterday", "2017-03-01T5", "", "0001-01-01T00:00:00+01:00"])
def test_bad_timestamp_names_path_and_first_line(tmp_path, stamp):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        f"C1,M,{stamp},2\n",
        f"C2,M,{stamp},3\n",
    ]
    path = _write(tmp_path, "k.csv", _kpi_csv(rows))
    with pytest.raises(UnparseableTimestamp) as info:
        load_kpis(path)
    assert str(info.value).startswith(f"{path} line 3: ")
    assert repr(stamp) in str(info.value)


def test_duplicate_detected_across_timestamp_spellings(tmp_path):
    rows = [
        "C1,M,2017-03-01T00:00:00Z,1\n",
        "C1,M,2017-03-01T02:00:00+02:00,2\n",
    ]
    path = _write(tmp_path, "k.csv", _kpi_csv(rows))
    with pytest.raises(InvariantError) as info:
        load_kpis(path)
    assert str(info.value) == (
        f"{path} line 3: duplicate sample for ('C1', 'M') at 2017-03-01T02:00:00+02:00")


# --- KPI loader and writer against their reference implementations --------
#
# The references below are the straightforward versions that once lived in
# ``eventcell.network``: a list of every line, a csv reader and a dict per
# row, one timestamp parse per row and a timedelta loop per series. The only
# changes are the path-and-line prefix on an unparseable timestamp and the
# bound on a series' grid.

def _reference_csv_rows(path, columns):
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


def _reference_row_float(row, key, path, lineno):
    try:
        value = float(row[key])
    except ValueError:
        raise InvariantError(f"{path} line {lineno}: {key} is not numeric: {row[key]!r}") from None
    if not math.isfinite(value):
        raise InvariantError(f"{path} line {lineno}: {key} is not finite: {row[key]!r}")
    return value


def _reference_load_kpis(path):
    samples = {}
    for lineno, row in _reference_csv_rows(path, KPI_COLUMNS):
        key = (row["cell_id"].strip(), row["metric"].strip())
        if not key[0] or not key[1]:
            raise InvariantError(f"{path} line {lineno}: empty cell_id or metric")
        try:
            ts = parse_rfc3339(row["timestamp"])
        except UnparseableTimestamp as exc:
            raise UnparseableTimestamp(f"{path} line {lineno}: {exc}") from None
        value_text = row["value"].strip()
        value = math.nan if not value_text else _reference_row_float(row, "value", path, lineno)
        bucket = samples.setdefault(key, {})
        if ts in bucket:
            raise InvariantError(f"{path} line {lineno}: duplicate sample for {key} at {row['timestamp']}")
        bucket[ts] = value

    series_list = []
    for (cell_id, metric), bucket in sorted(samples.items()):
        stamps = sorted(bucket)
        if len(stamps) == 1:
            period = timedelta(hours=1)
        else:
            deltas = [b - a for a, b in zip(stamps, stamps[1:])]
            period = min(deltas)
            for delta in deltas:
                if delta % period:
                    raise NonUniformPeriod(
                        f"{cell_id}/{metric}: delta {delta} is not a multiple of {period}"
                    )
        n = (stamps[-1] - stamps[0]) // period + 1
        if n > MAX_SERIES_SAMPLES:
            raise InvariantError(
                f"{path}: {cell_id}/{metric} from {format_rfc3339(stamps[0])} "
                f"to {format_rfc3339(stamps[-1])} spans {n} samples, "
                f"over the limit of {MAX_SERIES_SAMPLES}"
            )
        values = np.full(n, np.nan)
        for ts, value in bucket.items():
            values[(ts - stamps[0]) // period] = value
        series_list.append(KpiSeries(cell_id=cell_id, metric=metric, epoch0=stamps[0],
                                     period=period, values=values))
    return series_list


def _reference_write_kpis(series_list, path):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(KPI_COLUMNS)
    for series in sorted(series_list, key=lambda s: (s.cell_id, s.metric)):
        for n, value in enumerate(series.values):
            text = "" if math.isnan(value) else repr(float(value))
            writer.writerow([series.cell_id, series.metric,
                             format_rfc3339(series.sample_time(n)), text])
    atomic_write_text(path, buffer.getvalue())


_EPOCH_US = 1_488_326_400_000_000  # 2017-03-01T00:00:00Z
_PERIODS_US = (1, 250_000, 1_000_000, 900_000_000, 3_600_000_000)


def _stamp_text(us, form):
    ts = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=us)
    if form == "Z":
        return format_rfc3339(ts)
    if form == "+02:00":
        return ts.astimezone(timezone(timedelta(hours=2))).isoformat()
    return ts.replace(tzinfo=None).isoformat(timespec="microseconds")  # naive reads as UTC


def _field(text, quoted):
    if quoted or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _kpi_tables(draw, cells=("C1", "CELL_2A", "c,3", 'q"4'), max_keys=3):
    """A valid long-format KPI table: (header, rows); each row maps a column to its text."""
    keys = draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(["NUM_DROPS", "M 2"])),
                         min_size=1, max_size=max_keys, unique=True))
    rows = []
    for cell_id, metric in keys:
        period = draw(st.sampled_from(_PERIODS_US))
        start = _EPOCH_US + draw(st.integers(0, 10**12))
        n = draw(st.integers(1, 7))
        # samples 0 and 1 pin the period; the rest may be gaps
        present = {0, 1} & set(range(n)) | draw(st.sets(st.integers(2, max(n - 1, 2))).map(
            lambda s: {i for i in s if i < n}))
        for index in sorted(present):
            value = draw(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(-1000, 1000)))
            pad = draw(st.sampled_from(["", " "]))
            rows.append({
                "cell_id": pad + cell_id,
                "metric": metric + pad,
                "timestamp": _stamp_text(start + index * period,
                                         draw(st.sampled_from(["Z", "+02:00", "naive"]))),
                "value": draw(st.sampled_from(["", " "])) if value is None else pad + repr(value),
                "extra": draw(st.sampled_from(["", "x", "a,b"])),
            })
    header = draw(st.permutations(list(KPI_COLUMNS) + draw(st.sampled_from([[], ["extra"]]))))
    return header, draw(st.permutations(rows))


_JUNK = ("", "# note\n", "\n", "  \r\n", "  # x,y\n")


def _render_lines(header, rows, data, *, truncate=None, open_quote=None, junk=_JUNK,
                  ends=("\n", "\r\n"), field=None):
    """The header line, then one line per row, as [junk before it, text, line end];
    ``field(text)`` renders one field (by default quoted or not at random)."""
    field = field or (lambda text: _field(text, data.draw(st.booleans())))
    texts = [",".join(_field(name, False) for name in header)]
    for i, row in enumerate(rows):
        fields = [field(row[c]) for c in header]
        if i == truncate:
            fields = fields[:-1]
        if i == open_quote:
            fields[0] = '"' + fields[0]
        texts.append(",".join(fields))
    return [[data.draw(st.sampled_from(junk)), text, data.draw(st.sampled_from(ends))]
            for text in texts]


def _render(header, rows, data, **options):
    return "".join("".join(line) for line in _render_lines(header, rows, data, **options))


def _outcome(load, path):
    try:
        return [(s.cell_id, s.metric, s.epoch0, s.epoch0.utcoffset(), s.period, s.values.tobytes())
                for s in load(path)]
    except EventcellError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(table=_kpi_tables(), data=st.data())
def test_load_kpis_matches_reference(tmp_path_factory, table, data):
    header, rows = table
    path = tmp_path_factory.mktemp("kpis") / "kpis.csv"
    path.write_text(_render(header, rows, data), encoding="utf-8", newline="")
    expected = _outcome(_reference_load_kpis, path)
    assert isinstance(expected, list)
    assert _outcome(load_kpis, path) == expected


_MUTATIONS = {
    "empty_id": ("cell_id", ["", "  "]),
    "empty_metric": ("metric", [" "]),
    "bad_timestamp": ("timestamp", ["yesterday", "2017-03-01T5", "", "0001-01-01T00:00:00+01:00"]),
    "non_numeric": ("value", ["abc", "1,5", "0x10", "--1"]),
    "non_finite": ("value", ["inf", "-inf", "nan", "NaN", "1e400"]),
}


def test_non_uniform_period_names_first_bad_delta(tmp_path):
    # rows out of order; sorted deltas are 60, 60, 30, 15, 50, 30 and 40
    # minutes, so the period is 15 minutes and 50 is the first bad delta
    rows = [f"C1,M,{stamp},1\n" for stamp in (
        "2017-03-01T04:05:00Z", "2017-03-01T00:00:00Z", "2017-03-01T02:30:00Z",
        "2017-03-01T04:45:00Z", "2017-03-01T02:45:00Z", "2017-03-01T01:00:00Z",
        "2017-03-01T02:00:00Z", "2017-03-01T03:35:00Z")]
    path = _write(tmp_path, "k.csv", _kpi_csv(rows))
    message = "C1/M: delta 0:50:00 is not a multiple of 0:15:00"
    for load in (load_kpis, _reference_load_kpis):
        with pytest.raises(NonUniformPeriod) as info:
            load(path)
        assert str(info.value) == message


def _mutate(rows, data, mutation):
    """Break one row of a valid table by ``mutation``; return the new rows and
    the ``_render`` options that go with them."""
    rows = [dict(row) for row in rows]
    target = data.draw(st.integers(0, len(rows) - 1))
    options = {}
    if mutation in _MUTATIONS:
        column, texts = _MUTATIONS[mutation]
        rows[target][column] = data.draw(st.sampled_from(texts))
    elif mutation == "short_row":
        options["truncate"] = target
    elif mutation == "open_quote":
        options["open_quote"] = target
    elif mutation == "duplicate":
        copy = dict(rows[target], value="7.5")
        rows.insert(data.draw(st.integers(0, len(rows))), copy)
    else:  # move one sample off its series' grid
        ts = parse_rfc3339(rows[target]["timestamp"])
        shift = timedelta(microseconds=data.draw(st.sampled_from([1, 7, 100_000, 1_800_000_000])))
        rows[target]["timestamp"] = format_rfc3339(ts + shift)
    return rows, options


_MUTATION_NAMES = sorted(_MUTATIONS) + ["short_row", "open_quote", "duplicate", "off_grid"]


@settings(max_examples=300, deadline=None)
@given(table=_kpi_tables(), data=st.data(), mutation=st.sampled_from(_MUTATION_NAMES))
def test_load_kpis_errors_match_reference(tmp_path_factory, table, data, mutation):
    header, rows = table
    rows, options = _mutate(rows, data, mutation)
    path = tmp_path_factory.mktemp("kpis") / "kpis.csv"
    path.write_text(_render(header, rows, data, **options), encoding="utf-8", newline="")
    assert _outcome(load_kpis, path) == _outcome(_reference_load_kpis, path)


def test_series_grid_over_the_limit_rejected(tmp_path):
    # a 1 µs-period series with one sample 30 minutes on: a grid of 1.8e9 samples
    rows = ["C1,M,2017-03-01T00:00:00Z,1\n", "C1,M,2017-03-01T00:00:00.000001Z,2\n",
            "C1,M,2017-03-01T00:30:00.000001Z,3\n", "C2,M,2017-03-01T00:00:00Z,4\n"]
    path = _write(tmp_path, "k.csv", _kpi_csv(rows))
    message = (f"{path}: C1/M from 2017-03-01T00:00:00Z to 2017-03-01T00:30:00.000001Z "
               f"spans 1800000002 samples, over the limit of {MAX_SERIES_SAMPLES}")
    for load in (load_kpis, _reference_load_kpis, lambda p: load_kpis(p, "C1")):
        with pytest.raises(InvariantError) as info:
            load(path)
        assert str(info.value) == message
    assert [s.cell_id for s in load_kpis(path, "C2")] == ["C2"]


def test_series_grid_limit_is_inclusive(tmp_path, monkeypatch):
    monkeypatch.setattr("eventcell.network.MAX_SERIES_SAMPLES", 4)
    rows = ["C1,M,2017-03-01T00:00:00Z,1\n", "C1,M,2017-03-01T01:00:00Z,2\n",
            "C1,M,2017-03-01T03:00:00Z,3\n"]
    assert len(load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))[0]) == 4
    rows[2] = "C1,M,2017-03-01T04:00:00Z,3\n"
    with pytest.raises(InvariantError, match="spans 5 samples, over the limit of 4"):
        load_kpis(_write(tmp_path, "k.csv", _kpi_csv(rows)))


# --- KPI reads scoped to one cell ---------------------------------------------
#
# ``load_kpis(path, cell)`` must load what the full load holds for that cell.
# The ids collide by prefix and suffix with each other, and two of them need
# quoting; fields may also be quoted around part of their text, which ``csv``
# reads as the whole text (``"S0"26C`` is ``S026C``).

_SCOPED_CELLS = ("S026C", "S026CX", "XS026C", "S0,26C", 'S0"26C')


def _scoped_field(data, forms=("plain", "quoted", "split")):
    def render(text):
        form = data.draw(st.sampled_from(forms))
        if form == "split" and text and not set(text) & set(',"'):
            cut = data.draw(st.integers(0, len(text)))
            return '"' + text[:cut] + '"' + text[cut:]
        return _field(text, form == "quoted")
    return render


@settings(max_examples=300, deadline=None)
@given(table=_kpi_tables(cells=_SCOPED_CELLS, max_keys=4), data=st.data(),
       cell=st.sampled_from(_SCOPED_CELLS + ("S02",)),
       mutation=st.sampled_from([None] + _MUTATION_NAMES))
def test_scoped_load_kpis_matches_full_load(tmp_path_factory, table, data, cell, mutation):
    header, rows = table
    options = {}
    if mutation is not None:
        rows, options = _mutate(rows, data, mutation)
    if "extra" in header and data.draw(st.booleans()):  # a header naming the cell
        header = [cell if name == "extra" else name for name in header]
        rows = [{cell if key == "extra" else key: text for key, text in row.items()}
                for row in rows]
    junk = ("", f"# {cell}\n", "\n", "  \r", f"  # {cell},x\r\n")
    # quote-free rows of other cells are the ones the scan skips
    forms = data.draw(st.sampled_from([("plain",), ("plain", "quoted", "split")]))
    lines = _render_lines(header, rows, data, junk=junk, ends=("\n", "\r\n", "\r"),
                          field=_scoped_field(data, forms), **options)
    if data.draw(st.booleans()):
        lines[0][0] = "\ufeff" + lines[0][0]
    path = tmp_path_factory.mktemp("scoped") / "kpis.csv"
    path.write_text("".join(map("".join, lines)), encoding="utf-8", newline="")
    scoped = _outcome(lambda p: load_kpis(p, cell), path)
    full = _outcome(load_kpis, path)
    if isinstance(full, list):
        assert scoped == [s for s in full if s[0] == cell]
    # Blank each well-formed row of another cell, keeping the line count: the
    # full load of what is left, which holds only rows of the cell and
    # malformed ones, fails or loads exactly as the scoped load did.
    column = header.index("cell_id")
    for line in lines[1:]:
        fields = next(csv.reader([line[1]]))
        if len(fields) >= len(header) and fields[column].strip() != cell:
            line[1] = " "
    path.write_text("".join(map("".join, lines)), encoding="utf-8", newline="")
    assert scoped == _outcome(load_kpis, path)


# --- the block scan behind every CSV read ------------------------------------
#
# ``_csv_rows`` reads a file in blocks of ``_BLOCK_BYTES`` and parses only the
# lines its numpy scan picks. The reference is the row loop it replaced, over
# the lines of a text file, which parses every line it does not skip on its
# raw text.

def _reference_csv_rows_scoped(path, columns, match=None):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header = None
        scoped = False  # true once the header is read, if match is given
        for lineno, line in enumerate(handle, start=1):
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            if scoped and match not in line and '"' not in line:
                if line.count(",") < width - 1:
                    raise SchemaError(f"{path} line {lineno}: expected {width} columns")
                continue
            if '"' in line:
                cells = next(csv.reader((line,)))
            else:
                cells = line.rstrip("\r\n").split(",")
            if header is None:
                header = cells
                missing = [c for c in columns if c not in header]
                if missing:
                    raise SchemaError(f"{path}: missing columns {missing}")
                index = [header.index(name) for name in columns]
                width = len(header)
                scoped = match is not None
            elif len(cells) < width:
                raise SchemaError(f"{path} line {lineno}: expected {width} columns")
            else:
                row = tuple(cells[i] for i in index)
                if not scoped or row[0].strip() == match:
                    yield lineno, row
    if header is None:
        raise SchemaError(f"{path}: no header row")


def _rows_outcome(rows):
    try:
        return list(rows)
    except EventcellError as exc:
        return type(exc), str(exc)


_EDGE_CELLS = _SCOPED_CELLS + ("Célula_1",)


@settings(max_examples=150, deadline=None)
@given(table=_kpi_tables(cells=_EDGE_CELLS, max_keys=4), data=st.data(),
       cell=st.sampled_from(_EDGE_CELLS + ("S02", "é", None)),
       mutation=st.sampled_from([None] + _MUTATION_NAMES),
       block=st.integers(1, 16) | st.just(network._BLOCK_BYTES))
def test_scoped_load_kpis_block_edges(tmp_path_factory, table, data, cell, mutation, block):
    # Blocks of 1-16 bytes split the byte-order mark, CR LF pairs, the
    # two-byte "é" and the id itself; the rows and errors must not change.
    header, rows = table
    options = {}
    if mutation is not None:
        rows, options = _mutate(rows, data, mutation)
    junk = ("", f"# {cell}\n", "\n", "  \r", f"  # {cell},x\r\n", "#é\r\n")
    # quote-free rows of other cells are the ones the scan skips
    forms = data.draw(st.sampled_from([("plain",), ("plain", "quoted", "split")]))
    lines = _render_lines(header, rows, data, junk=junk, ends=("\n", "\r\n", "\r"),
                          field=_scoped_field(data, forms), **options)
    if data.draw(st.booleans()):
        lines[0][0] = "\ufeff" + lines[0][0]
    if data.draw(st.booleans()):  # a mark past the file's first bytes is text
        line = lines[data.draw(st.integers(0, len(lines) - 1))]
        line[1] = "\ufeff" + line[1]
    if data.draw(st.booleans()):
        lines[-1][2] = ""  # no line end after the last line
    path = tmp_path_factory.mktemp("edges") / "kpis.csv"
    path.write_text("".join(map("".join, lines)), encoding="utf-8", newline="")
    expected = _rows_outcome(_reference_csv_rows_scoped(path, KPI_COLUMNS, cell))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_BLOCK_BYTES", block)
        assert _rows_outcome(network._csv_rows(path, KPI_COLUMNS, cell)) == expected


def test_scoped_load_kpis_parses_only_candidate_lines(tmp_path, monkeypatch):
    # 20,000 rows, 10 of them of C1, spread over several blocks. Only those,
    # the header, comment and blank lines and a quoted row reach the line
    # parser; a scan that fell back to parsing every line would fail here.
    lines = ["# export\n", "cell_id,metric,timestamp,value\n", "# C1 below\n", "\n",
             '"X07",M,2017-03-01T00:00:00Z,1\n']
    for i in range(20_000):
        cell = "C1" if i % 2_000 == 0 else f"X{i % 100:02d}"
        lines.append(f"{cell},M,{format_rfc3339(T0 + timedelta(hours=i // 100))},{i}\n")
    path = _write(tmp_path, "k.csv", "".join(lines))
    assert path.stat().st_size > 4 * network._BLOCK_BYTES
    parsed = []
    split_line = network._split_line
    monkeypatch.setattr(network, "_split_line", lambda line: parsed.append(line) or split_line(line))
    [series] = load_kpis(path, "C1")
    assert series.cell_id == "C1" and np.count_nonzero(~np.isnan(series.values)) == 10
    assert len(parsed) <= 10 + 5
    assert sum(line.startswith("C1,") for line in parsed) == 10


# A block whose every line ends at LF or CR LF and has the header's comma
# count takes the regular-block path: one separator scan gives each line's id
# field, and only lines whose id field starts with the cell's bytes, with a
# byte ``strip()`` may remove, or that hold a quote are parsed. Any other
# block falls back to the general scan, which the properties above cover.

_REGULAR_CELLS = ("S026C", "S026CX", "XS026C", 'S0"26C', "S\u00e9")


def _scan_paths(monkeypatch):
    """Count the blocks each path of the scoped scan takes after the header:
    ``regular`` and ``fallback``."""
    taken = {"regular": 0, "fallback": 0}
    regular = network._regular_candidates

    def counted_regular(*args):
        scan = regular(*args)
        taken["regular" if scan is not None else "fallback"] += 1
        return scan

    monkeypatch.setattr(network, "_regular_candidates", counted_regular)
    return taken


@settings(max_examples=200, deadline=None)
@given(table=_kpi_tables(cells=_REGULAR_CELLS, max_keys=4), data=st.data(),
       cell=st.sampled_from(_REGULAR_CELLS + ("S02", "S026")),
       block=st.integers(1, 64) | st.just(network._BLOCK_BYTES))
def test_scoped_scan_of_regular_files(tmp_path_factory, table, data, cell, block):
    # Regular files: no comment or blank line and no comma inside a field,
    # with LF or CR LF line ends, ids padded or after a no-break space, and
    # plain, quoted or partly quoted fields. Every block after the header
    # takes the regular path, and the rows are the reference's.
    header, rows = table
    nbsp = st.sampled_from(["", "\u00a0"])  # which strip() removes, as it does the pad
    rows = [dict(row, cell_id=data.draw(nbsp) + row["cell_id"], extra=row["extra"].replace(",", ""))
            for row in rows]
    forms = data.draw(st.sampled_from([("plain",), ("plain", "quoted", "split")]))
    lines = _render_lines(header, rows, data, junk=("",), ends=("\n", "\r\n"),
                          field=_scoped_field(data, forms))
    path = tmp_path_factory.mktemp("regular") / "kpis.csv"
    path.write_text("".join(map("".join, lines)), encoding="utf-8", newline="")
    expected = _rows_outcome(_reference_csv_rows_scoped(path, KPI_COLUMNS, cell))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_BLOCK_BYTES", block)
        taken = _scan_paths(patch)
        assert _rows_outcome(network._csv_rows(path, KPI_COLUMNS, cell)) == expected
        assert taken["fallback"] == 0 < taken["regular"]
        scoped = _outcome(lambda p: load_kpis(p, cell), path)
    full = _outcome(load_kpis, path)
    assert isinstance(full, list)
    assert scoped == [s for s in full if s[0] == cell]


def test_regular_file_takes_the_regular_path_on_every_block(tmp_path, monkeypatch):
    # 20,000 rows in CR LF lines over several blocks, 10 of them of C1: every
    # block after the header's takes the regular path, and only the C1 rows
    # and the row whose id is padded reach the line parser.
    lines = ["cell_id,metric,timestamp,value\r\n"]
    for i in range(20_000):
        cell = "C1" if i % 2_000 == 0 else " X07" if i == 7 else f"X{i % 100:02d}"
        lines.append(f"{cell},M,{format_rfc3339(T0 + timedelta(hours=i // 100))},{i}\r\n")
    path = _write(tmp_path, "k.csv", "".join(lines))
    assert path.stat().st_size > 4 * network._BLOCK_BYTES
    taken = _scan_paths(monkeypatch)
    parsed = []
    split_line = network._split_line
    monkeypatch.setattr(network, "_split_line", lambda line: parsed.append(line) or split_line(line))
    [series] = load_kpis(path, "C1")
    assert np.count_nonzero(~np.isnan(series.values)) == 10
    blocks = -(-path.stat().st_size // network._BLOCK_BYTES)
    assert taken == {"regular": blocks, "fallback": 0}
    assert len(parsed) == 1 + 10 + 1  # the header, the C1 rows and " X07"
    assert sum(line.startswith("C1,") for line in parsed) == 10


_GRID_EPOCHS = [datetime(2017, 3, 1, tzinfo=timezone.utc),
                datetime(2017, 3, 1, 0, 0, 0, 123456, tzinfo=timezone.utc),
                datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
                datetime(2017, 3, 1, 2, tzinfo=timezone(timedelta(hours=2)))]
_SPECIAL_VALUES = [np.nan, -0.0, 0.0, -1.5, 1e308, -1.7976931348623157e308, 5e-324, 1e-300,
                   0.1, 123456789.125, 3.0]


# Cell ids and metrics: plain, needing quotes (comma, quote, CR, LF), padded,
# empty, non-ASCII, or any text without a lone surrogate (UTF-8 cannot hold one).
_SERIES_NAMES = st.one_of(
    st.sampled_from(["C1", "C2", "M", "NUM DROPS", "a,b", 'q"x', '"', "cr\rlf\n", "l\r\nf",
                     " pad ", "\tX", "", "Ümlaut,é", "\u00a0nbsp", "日本"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(_SERIES_NAMES, _SERIES_NAMES,
              st.sampled_from(_GRID_EPOCHS),
              st.sampled_from([timedelta(microseconds=1), timedelta(seconds=0.5),
                               timedelta(minutes=15), timedelta(hours=1)]),
              st.lists(st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(allow_infinity=False)),
                       min_size=1, max_size=30)),
    min_size=1, max_size=5))
def test_write_kpis_matches_reference(tmp_path_factory, specs):
    series = [KpiSeries(cell_id, metric, epoch0, period, np.array(values, dtype=float))
              for cell_id, metric, epoch0, period, values in specs]
    directory = tmp_path_factory.mktemp("write")
    write_kpis(series, directory / "new.csv")
    _reference_write_kpis(series, directory / "reference.csv")
    assert (directory / "new.csv").read_bytes() == (directory / "reference.csv").read_bytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_write_kpis_refuses_infinite_values_and_writes_nothing(tmp_path, bad):
    good = hourly_series([1.0, 2.0], cell_id="C1")
    overflowed = hourly_series([1.0, np.nan, bad], cell_id="C2", metric="M")
    with pytest.raises(InvariantError, match=f"^C2/M: value {bad} is not finite$"):
        write_kpis([good, overflowed], tmp_path / "kpis.csv")
    assert list(tmp_path.iterdir()) == []


def test_series_index_arithmetic():
    series = hourly_series(np.zeros(48))
    assert series.floor_index(T0 + timedelta(hours=5, minutes=30)) == 5
    assert series.ceil_index(T0 + timedelta(hours=5, minutes=30)) == 6
    assert series.ceil_index(T0 + timedelta(hours=5)) == 5
    assert series.floor_index(T0 - timedelta(hours=1)) == -1


# --- normalization ----------------------------------------------------------

def _assert_slot_median_baseline(series, residuals, kind, n_slots):
    """The series reaches all ``n_slots`` slots of ``kind``, and in each one
    ``series.values - residuals`` is constant over the slot's present samples
    and equal to their median."""
    slots = np.array([_slot_oracle(series.sample_time(n), kind) for n in range(len(series))])
    assert set(slots.tolist()) == set(range(n_slots))
    baseline = series.values - residuals
    for slot in range(n_slots):
        present = (slots == slot) & ~np.isnan(series.values)
        np.testing.assert_allclose(
            baseline[present], np.median(series.values[present]), rtol=0, atol=1e-9)


def test_periodic_signal_removed_exactly():
    daily = np.array([10.0 + 3.0 * math.sin(2 * math.pi * h / 24) for h in range(24)])
    series = hourly_series(np.tile(daily, 4))
    normalized = normalize_periodic(series, "hour_of_day")
    assert np.nanmax(np.abs(normalized.values)) <= 1e-9
    _assert_slot_median_baseline(series, normalized.values, "hour_of_day", 24)


def test_constant_series():
    series = hourly_series(np.full(336, 7.5))
    normalized = normalize_periodic(series, "hour_of_week")
    assert np.allclose(series.values - normalized.values, 7.5)
    assert np.nanmax(np.abs(normalized.values)) <= 1e-9
    _assert_slot_median_baseline(series, normalized.values, "hour_of_week", 168)


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
    _assert_slot_median_baseline(hourly_series(values), normalized.values, "hour_of_day", 24)


def test_reconstruct_matches_original():
    rng = np.random.default_rng(3)
    values = np.tile(np.arange(24, dtype=float), 3) + rng.normal(0, 1, 72)
    series = hourly_series(values)
    normalized = normalize_periodic(series, "hour_of_day")
    _assert_slot_median_baseline(series, normalized.values, "hour_of_day", 24)


def _reference_normalize_periodic(series, kind):
    """The residuals as ``normalize_periodic`` once computed them: one
    ``np.median`` call per slot over its present samples."""
    slots = slot_indices(series.epoch0, series.period, len(series.values), kind)
    baseline = np.full(CYCLE_HOURS[kind], np.nan)
    for slot in range(len(baseline)):
        members = series.values[(slots == slot) & ~np.isnan(series.values)]
        if members.size:
            baseline[slot] = float(np.median(members))
    return series.values - baseline[slots]


_MEDIAN_VALUES = st.one_of(
    st.sampled_from([np.nan, -0.0, 0.0, 1.0, -1.0, 9e307, 1.7e308, -1.7e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(list(CYCLE_HOURS)), data=st.data())
def test_normalize_periodic_matches_median_loop(kind, data):
    # Two to three cycles of samples from an epoch off the hour, one to four
    # per hour, each picked from a small pool so that slots hold ties; some
    # slots lose every sample, so their baseline stays NaN.
    per_hour = data.draw(st.sampled_from([1, 2, 4]))
    cycle = CYCLE_HOURS[kind] * per_hour
    pool = np.array(data.draw(st.lists(_MEDIAN_VALUES, min_size=1, max_size=8)))
    pick = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = pool[pick.integers(len(pool), size=data.draw(st.integers(2 * cycle, 3 * cycle)))]
    epoch0 = T0 + timedelta(minutes=data.draw(st.integers(0, 7 * 24 * 60)))
    series = KpiSeries("C1", "M", epoch0, timedelta(hours=1) / per_hour, values)
    slots = slot_indices(epoch0, series.period, len(values), kind)
    empty = data.draw(st.sets(st.integers(0, CYCLE_HOURS[kind] - 1), max_size=3))
    values[np.isin(slots, list(empty))] = np.nan
    with np.errstate(over="ignore"):  # two middle values above 8.99e307 sum to inf
        expected = _reference_normalize_periodic(series, kind)
        got = normalize_periodic(series, kind).values
    np.testing.assert_array_equal(got, expected)


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


def test_periodic_kind_needs_two_present_samples_per_slot():
    # 10 days of data and one sample 14 days later: the span covers two
    # weeks, but most hour-of-week slots hold one present sample
    values = np.full(577, np.nan)
    values[:240] = 1.0
    values[-1] = 1.0
    assert periodic_kind(hourly_series(values)) == "hour_of_day"
    values[:240:24] = np.nan  # slot 0 of the day keeps one present sample
    assert periodic_kind(hourly_series(values)) is None


def test_periodic_kind_counts_only_slots_the_grid_reaches():
    every_two_hours = KpiSeries("C1", "M", T0, timedelta(hours=2), np.zeros(168))
    assert periodic_kind(every_two_hours) == "hour_of_week"


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
