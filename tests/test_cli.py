"""Command-line pipeline: stage handoffs, exit codes, reproducibility."""
import json

import pytest

from eventcell.cli import _association_record, main
from eventcell.network import Cell, Site

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


def test_usage_error_is_config_exit():
    assert main(["analyze"]) == 1  # missing required options
