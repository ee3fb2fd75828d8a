"""Command-line pipeline: stage handoffs, exit codes, reproducibility."""
import json
import shutil

import pytest

from eventcell.cli import _association_record, main
from eventcell.ingest import write_events
from eventcell.network import MAX_SERIES_SAMPLES, Cell, Site, load_kpis, periodic_kind

from conftest import make_event


@pytest.fixture(scope="module")
def t1_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("t1")
    assert main(["simulate", "--preset", "table1", "--out", str(path)]) == 0
    return path


def _config(t1_dir):
    return str(t1_dir / "config.json")


# --- simulate ----------------------------------------------------------------

def test_simulate_writes_bundle(t1_dir):
    for name in ("events.ndjson", "topology.csv", "kpis.csv", "ground_truth.json", "config.json"):
        assert (t1_dir / name).exists()


def test_simulate_same_seed_identical(tmp_path):
    assert main(["simulate", "--preset", "detection", "--seed", "4", "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--preset", "detection", "--seed", "4", "--out", str(tmp_path / "b")]) == 0
    for name in ("events.ndjson", "topology.csv", "kpis.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_spec_file(tmp_path):
    spec = {
        "seed": 11,
        "n_sites": 2,
        "area": [36.6, 36.8, -4.6, -4.4],
        "days": 3,
        "metrics": [{"name": "NUM_DROPS", "daily_profile": list(range(24)), "noise_sigma": 0.5}],
        "decoy_events": {"count": 2, "events_per_venue": 1},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "kpis.csv").exists()


def test_simulate_invalid_spec(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"seed": 1}))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1


def test_simulate_spec_overflowing_duration_exits_1(tmp_path):
    spec = {
        "seed": 1, "n_sites": 2, "area": [36.6, 36.8, -4.6, -4.4], "days": 3,
        "metrics": [{"name": "NUM_DROPS", "daily_profile": list(range(24))}],
        "injected_events": [{"venue": "V", "start": "2017-03-02T10:00:00Z",
                             "duration_hours": 1e300, "amplitudes": {"NUM_DROPS": 1.0},
                             "anchor_site": 0}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1


def test_simulate_needs_exactly_one_input(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == 1


# --- ingest ------------------------------------------------------------------

def test_ingest_counts(t1_dir, tmp_path, capsys):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fetched: 29" in out
    assert "fused: 29" in out
    assert "venues: 15" in out
    assert (tmp_path / "events.ndjson").exists()


def test_ingest_all_sources_unreachable(tmp_path):
    config = {
        "sources": [{
            "source_id": "gone", "kind": "file", "locator": "missing.ndjson",
            "format": "json_records", "field_map": {"name": "NAME", "start": "START_TIME"},
        }],
        "filter": {
            "geo": {"box": [36.0, 37.0, -5.0, -4.0]},
            "time": {"start": "2017-03-01T00:00:00Z", "end": "2017-04-01T00:00:00Z"},
        },
        "paths": {"output": "out"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(path)]) == 2


def test_ingest_partial_failure_warns(t1_dir, tmp_path, capsys):
    config = json.loads((t1_dir / "config.json").read_text())
    config["sources"][0]["locator"] = str(t1_dir / "events.ndjson")
    config["sources"].append({
        "source_id": "broken", "kind": "file", "locator": "missing.ndjson",
        "format": "json_records", "field_map": {"name": "NAME", "start": "START_TIME"},
    })
    config["paths"]["topology"] = str(t1_dir / "topology.csv")
    config["paths"]["kpis"] = str(t1_dir / "kpis.csv")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err.lower()
    assert "fetched: 29" in captured.out


def test_missing_config_is_io_error(tmp_path):
    assert main(["ingest", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_invalid_config_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["ingest", "--config", str(path), "--out", str(tmp_path)]) == 1


def _t1_config_with(t1_dir, tmp_path, section, values):
    config = json.loads((t1_dir / "config.json").read_text())
    config["sources"][0]["locator"] = str(t1_dir / "events.ndjson")
    config["paths"] = {"output": str(tmp_path / "out")}
    config.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("section, values", [
    ("fusion", {"name_threshold": "abc"}),
    ("fusion", {"name_threshold": float("nan")}),
    ("fusion", {"name_threshold": 1.5}),
    ("fusion", {"name_threshold": -1}),
    ("fusion", {"name_threshold": None}),
    ("fusion", {"time_tolerance_minutes": -5}),
    ("fusion", {"time_tolerance_minutes": float("inf")}),
    ("fusion", {"time_tolerance_minutes": 1e300}),
    ("geo_assoc", {"max_sites": "seven"}),
    ("geo_assoc", {"max_dist_km": float("nan")}),
    ("eaw", {"default_duration_hours": 1e300}),
    ("eaw", {"sigma_scale": float("nan")}),
], ids=["threshold-text", "threshold-nan", "threshold-above-1", "threshold-negative",
        "threshold-null", "tolerance-negative", "tolerance-inf", "tolerance-overflow",
        "max-sites-text", "max-dist-nan", "duration-overflow", "sigma-scale-nan"])
def test_bad_config_number_exits_1(t1_dir, tmp_path, capsys, section, values):
    path = _t1_config_with(t1_dir, tmp_path, section, values)
    assert main(["ingest", "--config", path]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [
    {"name_threshold": 0.0, "time_tolerance_minutes": 0},
    {"name_threshold": 1.0, "time_tolerance_minutes": 1e6},
], ids=["lowest", "highest"])
def test_fusion_range_bounds_accepted(t1_dir, tmp_path, values):
    assert main(["ingest", "--config", _t1_config_with(t1_dir, tmp_path, "fusion", values)]) == 0


# --- filter ------------------------------------------------------------------

def test_filter_conservation(t1_dir, tmp_path, capsys):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["filter", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    drops = (tmp_path / "drops.csv").read_text().strip().splitlines()
    kept = (tmp_path / "filtered.ndjson").read_text().strip().splitlines()
    assert len(kept) + (len(drops) - 1) == 29  # conservation incl. header row


def test_filter_identity_when_everything_passes(t1_dir, tmp_path):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["filter", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    events = (tmp_path / "events.ndjson").read_text()
    filtered = (tmp_path / "filtered.ndjson").read_text()
    assert events == filtered  # table1 events all pass the default scope


def test_filter_circle_centred_on_the_antipode(t1_dir, tmp_path, capsys):
    # haversine's h rounds to 1 + 2**-52 for this pair; unclamped, the filter
    # raised a math domain error out of main
    point = (3.362091034140363, 22.088831320216457)
    antipode = (-3.362091034140363, -157.91116867978354)
    out = tmp_path / "out"
    out.mkdir()
    write_events([make_event(lat=point[0], lon=point[1])], out / "events.ndjson")
    path = _t1_config_with(t1_dir, tmp_path, "filter", {"geo": {"circle": [*antipode, 20100.0]}})
    assert main(["filter", "--config", path, "--out", str(out)]) == 0
    assert "kept: 1" in capsys.readouterr().out


# --- associate -----------------------------------------------------------------

def test_associate_report(t1_dir, tmp_path):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["associate", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "associations.json").read_text())
    records = report["records"]
    assert len(records) == 29
    assert len({r["VENUE"] for r in records}) == 15
    for record in records:
        distances = [s["DISTANCE_KM"] for s in record["GEOGRAPHICAL_CLOSE_SITES"]]
        assert distances == sorted(distances)
        for site in record["GEOGRAPHICAL_CLOSE_SITES"]:
            assert {"SITE_ID", "DISTANCE_KM", "CELLS"} <= set(site)


def test_associate_rerun_byte_identical(t1_dir, tmp_path):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["associate", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    first = (tmp_path / "associations.json").read_bytes()
    assert main(["associate", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "associations.json").read_bytes() == first


def test_association_record_has_no_cells_a_subnormal_step_from_the_site():
    site = Site("S0", 0.0, 0.0, ("C_N",))
    cells_by_site = {"S0": [Cell("C_N", "S0", 0.0, 120.0, "LTE")]}

    def site_entry(lat, lon):
        record = _association_record(make_event(lat=lat, lon=lon), [(site, 0.0)], cells_by_site)
        [entry] = record["GEOGRAPHICAL_CLOSE_SITES"]
        return entry

    assert site_entry(0.01, 0.0)["CELLS"] == [{"CELL_ID": "C_N", "BEARING_OFFSET_DEG": 0.0}]
    at_site = {"SITE_ID": "S0", "DISTANCE_KM": 0.0}
    assert site_entry(0.0, 0.0) == at_site
    assert site_entry(0.0, 5e-324) == at_site  # no defined bearing, handled as at the site


# --- analyze -------------------------------------------------------------------

@pytest.fixture()
def analyzed(t1_dir, tmp_path, capsys):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return tmp_path, summary


def test_analyze_summary(analyzed):
    out_dir, summary = analyzed
    assert summary["top_venue"] == "VENUE_L"
    assert summary["flagged"] == ["VENUE_L"]
    assert summary["n_candidates"] == 5
    report = json.loads((out_dir / "report.json").read_text())
    top = report["records"][0]
    assert top["rank"] == 1 and top["VENUE"] == "VENUE_L" and top["FLAGGED"]
    ranks = [r["rank"] for r in report["records"]]
    assert ranks == list(range(1, len(ranks) + 1))  # dense 1..N


def test_analyze_summary_csv(analyzed):
    out_dir, _ = analyzed
    lines = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,venue,n_events,best_metric,best_abs_r,flagged"
    assert lines[1].startswith("1,VENUE_L,3,")
    assert lines[1].endswith("true")


def test_analyze_report_round_trips(analyzed):
    out_dir, _ = analyzed
    path = out_dir / "report.json"
    document = json.loads(path.read_text())
    re_serialized = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    assert re_serialized == path.read_text()


def test_analyze_rerun_byte_identical(t1_dir, tmp_path):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A", "--out", str(tmp_path)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first


def test_analyze_stamp_adds_timestamp(t1_dir, tmp_path):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A",
                 "--out", str(tmp_path), "--stamp"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert "GENERATED_AT" in report


def test_analyze_unknown_cell(t1_dir, tmp_path):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "NO_SUCH",
                 "--out", str(tmp_path)]) == 1


def test_analyze_high_threshold_flags_nothing(t1_dir, tmp_path, capsys):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A",
                 "--threshold", "0.99", "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["flagged"] == []  # empty flagged set is still exit 0


def test_analyze_stat_override(t1_dir, tmp_path, capsys):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A",
                 "--stat", "max", "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["stat"] == "max"
    assert summary["top_venue"] == "VENUE_L"
    assert summary["top_score"] > 0.84  # max over VENUE_L events exceeds the mean


def test_analyze_no_candidates_ok(tmp_path, capsys):
    # detection scenario, but analyze a cell pointing away from everything
    assert main(["simulate", "--preset", "detection", "--seed", "8", "--out", str(tmp_path)]) == 0
    config = str(tmp_path / "config.json")
    assert main(["ingest", "--config", config, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rc = main(["analyze", "--config", config, "--cell", "CELL_4C", "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["n_candidates"] >= 0


def test_analyze_rejects_non_finite_kpi_value(tmp_path, capsys):
    # one CELL_1A sample inside the causal event's window set to inf
    assert main(["simulate", "--preset", "detection", "--seed", "7", "--out", str(tmp_path)]) == 0
    kpis = tmp_path / "kpis.csv"
    lines = kpis.read_text(encoding="utf-8").splitlines(keepends=True)
    row = "CELL_1A,NUM_DROPS,2017-03-05T20:00:00Z,"
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(row))
    lines[lineno - 1] = row + "inf\n"
    kpis.write_text("".join(lines), encoding="utf-8")
    config = str(tmp_path / "config.json")
    assert main(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert main(["analyze", "--config", config, "--cell", "CELL_1A"]) == 1
    assert f"line {lineno}: value is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


# --- analyze reads only the analyzed cell's KPI rows ----------------------------

@pytest.fixture(scope="module")
def detection7(tmp_path_factory):
    """Detection seed 7, ingested and analyzed on its causal cell CELL_1A."""
    path = tmp_path_factory.mktemp("detection7")
    assert main(["simulate", "--preset", "detection", "--seed", "7", "--out", str(path)]) == 0
    assert main(["ingest", "--config", str(path / "config.json")]) == 0
    assert main(["analyze", "--config", str(path / "config.json"), "--cell", "CELL_1A"]) == 0
    return path


def _edited_detection7(detection7, tmp_path, replace=(), append=()):
    """A copy of the bundle without its report. ``replace`` is a pair (start
    of a KPI line, its new text); ``append`` adds KPI lines. Returns the copy,
    its KPI path and the number of the replaced line."""
    bundle = tmp_path / "bundle"
    shutil.copytree(detection7, bundle)
    for name in ("report.json", "summary.csv"):
        (bundle / "out" / name).unlink()
    kpis = bundle / "kpis.csv"
    lines = kpis.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = None
    if replace:
        row_start, text = replace
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(row_start))
        lines[lineno - 1] = text + "\n"
    kpis.write_text("".join(lines + list(append)), encoding="utf-8")
    return bundle, kpis, lineno


def _analyze_cell_1a(bundle):
    return main(["analyze", "--config", str(bundle / "config.json"), "--cell", "CELL_1A"])


_OTHER_ROW = "CELL_2B,NUM_DROPS,2017-03-05T20:00:00Z,"
_OWN_ROW = "CELL_1A,NUM_DROPS,2017-03-05T20:00:00Z,"


def test_analyze_ignores_bad_values_of_other_cells(detection7, tmp_path):
    bundle, _, _ = _edited_detection7(detection7, tmp_path, (_OTHER_ROW, _OTHER_ROW + "abc"))
    assert _analyze_cell_1a(bundle) == 0
    for name in ("report.json", "summary.csv"):
        assert (bundle / "out" / name).read_bytes() == (detection7 / "out" / name).read_bytes()


def test_analyze_checks_the_column_count_of_other_cells(detection7, tmp_path, capsys):
    bundle, kpis, lineno = _edited_detection7(detection7, tmp_path,
                                              (_OTHER_ROW, _OTHER_ROW.rstrip(",")))
    capsys.readouterr()
    assert _analyze_cell_1a(bundle) == 1
    assert f"error: {kpis} line {lineno}: expected 4 columns" in capsys.readouterr().err


def test_analyze_bad_value_of_the_cell_keeps_its_message(detection7, tmp_path, capsys):
    bundle, kpis, lineno = _edited_detection7(detection7, tmp_path, (_OWN_ROW, _OWN_ROW + "abc"))
    capsys.readouterr()
    assert _analyze_cell_1a(bundle) == 1
    err = capsys.readouterr().err
    assert f"error: {kpis} line {lineno}: value is not numeric: 'abc'" in err
    assert not (bundle / "out" / "report.json").exists()


def test_analyze_rejects_a_series_grid_over_the_limit(detection7, tmp_path, capsys):
    # a 1 µs-period series of the analyzed cell with one sample 30 minutes on
    stamps = ("2017-03-05T00:00:00Z", "2017-03-05T00:00:00.000001Z",
              "2017-03-05T00:30:00.000001Z")
    bundle, kpis, _ = _edited_detection7(
        detection7, tmp_path, append=[f"CELL_1A,PING,{t},1\n" for t in stamps])
    capsys.readouterr()
    assert _analyze_cell_1a(bundle) == 1
    err = capsys.readouterr().err
    assert f"error: {kpis}: CELL_1A/PING from 2017-03-05T00:00:00Z" in err
    assert f"spans 1800000002 samples, over the limit of {MAX_SERIES_SAMPLES}" in err


def test_analyze_stray_row_keeps_the_daily_baseline(detection7, tmp_path):
    # One row two weeks on stretches NUM_DROPS to 24 days, most of them
    # gaps: hour-of-week slots would hold one present sample each, making
    # every residual 0 and the correlation undefined.
    bundle, kpis, _ = _edited_detection7(
        detection7, tmp_path, append=["CELL_1A,NUM_DROPS,2017-03-25T00:00:00Z,1\n"])
    drops = next(s for s in load_kpis(kpis, "CELL_1A") if s.metric == "NUM_DROPS")
    assert len(drops) == 577 and periodic_kind(drops) == "hour_of_day"
    assert _analyze_cell_1a(bundle) == 0
    top = json.loads((bundle / "out" / "report.json").read_text())["records"][0]
    assert top["VENUE"] == "Riverside Arena" and top["FLAGGED"]
    r = {c["METRIC"]: c["R"] for c in top["CORRELATED_CELLS"]}
    assert r["NUM_DROPS"] == pytest.approx(0.925, abs=1e-3)


def test_usage_error_is_config_exit():
    assert main(["analyze"]) == 1  # missing required options


# --- unreadable input ----------------------------------------------------------

def _bundle_copy(t1_dir, tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(t1_dir, bundle)
    return bundle


def _corrupt_line_2(path):
    """Put a byte that is not valid UTF-8 at the start of the file's second line."""
    head, _, tail = path.read_bytes().partition(b"\n")
    path.write_bytes(head + b"\n\xff" + tail)


def test_bad_kpi_timestamp_names_path_and_line(t1_dir, tmp_path, capsys):
    bundle = _bundle_copy(t1_dir, tmp_path)
    kpis = bundle / "kpis.csv"
    lines = kpis.read_text(encoding="utf-8").splitlines(keepends=True)
    cell, metric, _, value = lines[4].split(",")
    lines[4] = ",".join([cell, metric, "2017-03-01T5", value])
    kpis.write_text("".join(lines), encoding="utf-8")
    assert main(["analyze", "--config", str(bundle / "config.json"), "--cell", "CELL_1A"]) == 1
    err = capsys.readouterr().err
    assert f"error: {kpis} line 5: cannot parse timestamp '2017-03-01T5'" in err


def _add_geocoder_table(bundle):
    (bundle / "geo.csv").write_text("query,lat,lon,normalized_address\nx,36.7,-4.4,X\n",
                                    encoding="utf-8")
    config = json.loads((bundle / "config.json").read_text())
    config["geocoder"] = "geo.csv"
    (bundle / "config.json").write_text(json.dumps(config, indent=2))


@pytest.mark.parametrize("name, before, stage", [
    ("config.json", [], ["ingest"]),
    ("events.ndjson", [], ["ingest"]),
    ("geo.csv", [], ["ingest"]),
    ("out/filtered.ndjson", ["ingest", "filter"], ["associate"]),
    ("topology.csv", ["ingest", "filter"], ["associate"]),
    ("kpis.csv", ["ingest", "filter"], ["analyze", "--cell", "CELL_1A"]),
], ids=["config", "source-file", "geocoder-table", "filtered-events", "topology", "kpis"])
def test_undecodable_input_exits_1_naming_the_file(t1_dir, tmp_path, capsys, name, before, stage):
    bundle = _bundle_copy(t1_dir, tmp_path)
    _add_geocoder_table(bundle)
    config = str(bundle / "config.json")
    for command in before:
        assert main([command, "--config", config]) == 0
    _corrupt_line_2(bundle / name)
    capsys.readouterr()
    assert main([stage[0], "--config", config, *stage[1:]]) == 1
    assert f"{bundle / name} line 2: not valid UTF-8" in capsys.readouterr().err


def test_undecodable_scenario_spec_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{\n\xff"seed": 1}\n')
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {spec} line 2: not valid UTF-8" in capsys.readouterr().err
