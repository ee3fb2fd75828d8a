"""Command-line pipeline: stage handoffs, exit codes, reproducibility."""
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventcell import association, cli, network
from eventcell.cli import _association_texts, _write_json_report, main
from eventcell.config import (DEFAULT_R_THRESHOLD, EawParams, GeoAssocParams, load_config,
                              load_scenario_spec)
from eventcell.errors import ConfigError, DegenerateGeometry
from eventcell.filtering import FilterConfig
from eventcell.ingest import (DEFAULT_NAME_THRESHOLD, DEFAULT_TIME_TOLERANCE, Address,
                              CategoricalScope, SourceConfig, address_record, fuse_sources,
                              read_events, write_events)
from eventcell.network import MAX_SERIES_SAMPLES, Cell, Site, load_kpis, periodic_kind
from eventcell.timeutil import format_rfc3339

from conftest import T0, make_event


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


@pytest.mark.parametrize("key, value, named", [
    ("area", "1234", "area"),
    ("area", ["36.6", 36.8, -4.6, -4.4], "area"),
    ("decoy_events", [], "decoy_events"),
    ("metrics", {"name": "NUM_DROPS"}, "metrics"),
    ("injected_events", ["V"], "injected_events"),
    ("seed", "11", "seed"),
    ("n_sites", 2.7, "n_sites"),
    ("days", True, "days"),
    ("metrics", [{"name": "NUM_DROPS", "daily_profile": ["1"] * 24}], "daily_profile"),
    ("decoy_events", {"count": 2.9}, "count"),
    ("decoy_events", {"events_per_venue": "1"}, "events_per_venue"),
], ids=["area-string", "area-string-item", "decoys-array", "metrics-object", "injected-string",
        "seed-string", "sites-fraction", "days-bool", "profile-strings", "decoy-count-fraction",
        "decoys-per-venue-string"])
def test_simulate_spec_section_of_wrong_json_type_exits_1(tmp_path, capsys, key, value, named):
    spec = {
        "seed": 11, "n_sites": 2, "area": [36.6, 36.8, -4.6, -4.4], "days": 3,
        "metrics": [{"name": "NUM_DROPS", "daily_profile": list(range(24))}],
        key: value,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"'{named}'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_spec_integers_may_be_integral_numbers(tmp_path):
    spec = {
        "seed": 11.0, "n_sites": 2.0, "area": [36.6, 36.8, -4.6, -4.4], "days": 3.0,
        "metrics": [{"name": "NUM_DROPS", "daily_profile": list(range(24))}],
        "decoy_events": {"count": 2.0, "events_per_venue": 1},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    loaded = load_scenario_spec(spec_path)
    assert (loaded.seed, loaded.n_sites, loaded.days, loaded.decoys.count) == (11, 2, 3, 2)
    assert type(loaded.seed) is int and type(loaded.metrics[0].daily_profile[1]) is float


_SPEC_EVENT = {"venue": "V", "start": "2017-03-02T10:00:00Z", "duration_hours": 2.0,
               "amplitudes": {"NUM_DROPS": 1.0}, "anchor_site": 0}


@pytest.mark.parametrize("keys", [
    ("seed",), ("n_sites",), ("days",), ("metrics", 0, "name"), ("metrics", 0, "daily_profile"),
    ("injected_events", 0, "venue"), ("injected_events", 0, "start"),
], ids=lambda keys: keys[-1])
def test_simulate_spec_missing_key_exits_1_naming_it(tmp_path, capsys, keys):
    spec = {
        "seed": 11, "n_sites": 2, "area": [36.6, 36.8, -4.6, -4.4], "days": 3,
        "metrics": [{"name": "NUM_DROPS", "daily_profile": list(range(24))}],
        "injected_events": [dict(_SPEC_EVENT)],
    }
    section = spec
    for key in keys[:-1]:
        section = section[key]
    del section[keys[-1]]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1
    assert f"missing key '{keys[-1]}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_spec_optional_event_keys_may_be_null(tmp_path):
    spec = {
        "seed": 11, "n_sites": 2, "area": [36.6, 36.8, -4.6, -4.4], "days": 3,
        "metrics": [{"name": "NUM_DROPS", "daily_profile": list(range(24))}],
        "injected_events": [dict(_SPEC_EVENT, lat=None, lon=None, category=None, cells=None)],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    [event] = load_scenario_spec(spec_path).injected
    assert (event.lat, event.lon, event.category, event.cells) == (None, None, None, "auto")


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


def _simulate_spec(tmp_path, metric="NUM_DROPS", profile=tuple(range(24)), sigma=0.5,
                   **event):
    """Run simulate on a one-metric spec with one injected event (``event``
    overrides its keys); return the exit code."""
    spec = {
        "seed": 1, "n_sites": 2, "area": [36.6, 36.8, -4.6, -4.4], "days": 3,
        "metrics": [{"name": metric, "daily_profile": list(profile), "noise_sigma": sigma}],
        "injected_events": [{**_SPEC_EVENT, "amplitudes": {metric: 5.0}, **event}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))  # NaN and Infinity as JSON's loader takes them
    return main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("name", ["", " NUM_DROPS", "NUM_DROPS ", "NUM_DROPS\t", "A\nB",
                                  "A\rB", "\u00a0X"])
def test_simulate_refuses_metric_names_that_cannot_round_trip(tmp_path, capsys, name):
    assert _simulate_spec(tmp_path, metric=name) == 1
    assert f"error: metric {name!r}: a name must be non-empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_metric_names_that_need_quotes_round_trip(tmp_path):
    for k, name in enumerate(['NUM,DROPS', 'say "hi"', "Durchsatz Ü"]):
        directory = tmp_path / str(k)
        directory.mkdir()
        assert _simulate_spec(directory, metric=name) == 0
        series = load_kpis(directory / "out" / "kpis.csv")
        assert {s.metric for s in series} == {name}
        config = json.loads((directory / "out" / "config.json").read_text(encoding="utf-8"))
        assert config["metrics"] == [name]


_PLACEMENT = "event at V: lat, lon, anchor bearing and distance must be finite"


@pytest.mark.parametrize("options, message", [
    ({"profile": (1.0,) * 23 + (math.inf,)}, "metric NUM_DROPS: daily_profile values must be"),
    ({"profile": (math.nan,) + (1.0,) * 23}, "metric NUM_DROPS: daily_profile values must be"),
    ({"sigma": math.nan}, "metric NUM_DROPS: noise sigma must be finite and >= 0"),
    ({"sigma": math.inf}, "metric NUM_DROPS: noise sigma must be finite and >= 0"),
    ({"amplitudes": {"NUM_DROPS": math.nan}}, "event at V: amplitudes must be finite and >= 0"),
    ({"amplitudes": {"NUM_DROPS": math.inf}}, "event at V: amplitudes must be finite and >= 0"),
    ({"anchor_bearing_deg": math.inf}, _PLACEMENT),
    ({"anchor_distance_km": -math.inf}, _PLACEMENT),
    ({"anchor_site": None, "lat": math.inf, "lon": -4.5}, _PLACEMENT),
])
def test_simulate_refuses_non_finite_spec_numbers(tmp_path, capsys, options, message):
    assert _simulate_spec(tmp_path, **options) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warning stays off stderr
def test_simulate_refuses_a_kpi_sum_that_overflows(tmp_path, capsys):
    # Finite spec numbers whose sum at the event's peak is beyond float range:
    # one error line, and no file of the bundle is written.
    assert _simulate_spec(tmp_path, profile=(1.7e308,) * 24, sigma=0.0,
                          amplitudes={"NUM_DROPS": 1.7e308}) == 1
    assert re.fullmatch(r"error: CELL_\w+/NUM_DROPS: value inf is not finite\n",
                        capsys.readouterr().err)
    assert list((tmp_path / "out").iterdir()) == []


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


def test_ingest_partial_failure_warns(t1_dir, tmp_path):
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
    # A fresh process, as an operator runs the CLI.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = "import sys; from eventcell.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["ingest", "--config", str(path), "--out", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "warning" in result.stderr.lower()
    assert result.stderr.count("source 'broken' unreachable") == 1
    assert "fetched: 29" in result.stdout


_UNREACHABLE = "WARNING eventcell.cli: source 'gone' unreachable"
_GEOCODING = "INFO eventcell.ingest: geocoding failed for event feed/"


def _logging_config(tmp_path) -> str:
    """A config whose ingest logs a warning (an unreachable source) and, at
    debug level, an info line (a venue the geocoder does not know)."""
    (tmp_path / "feed.ndjson").write_text(
        '{"n": "Concert", "t": "2017-03-01T20:00:00Z", "v": "Nowhere Hall"}\n', encoding="utf-8")
    (tmp_path / "geocodes.csv").write_text("query,lat,lon,normalized_address\n", encoding="utf-8")
    field_map = {"n": "NAME", "t": "START_TIME", "v": "VENUE"}
    (tmp_path / "config.json").write_text(json.dumps({
        "sources": [{"source_id": "feed", "locator": "feed.ndjson", "field_map": field_map},
                    {"source_id": "gone", "locator": "missing.ndjson", "field_map": field_map}],
        "geocoder": "geocodes.csv",
        "filter": {"geo": {"box": [36.0, 37.0, -5.0, -4.0]},
                   "time": {"start": "2017-03-01T00:00:00Z", "end": "2017-04-01T00:00:00Z"}},
    }))
    return str(tmp_path / "config.json")


def test_logging_is_set_on_every_main_call(tmp_path, capsys, caplog):
    """Each ``main`` call takes its level from --verbose and logs to the
    stderr of the moment through one handler, whatever calls came before
    and although pytest has configured logging; pytest's capture handlers,
    which write to no stderr, still get every record."""
    argv = ["ingest", "--config", _logging_config(tmp_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.count(_UNREACHABLE) == 1 and _GEOCODING not in err
    assert main(["--verbose", *argv]) == 0
    err = capsys.readouterr().err
    assert err.count(_UNREACHABLE) == 1 and err.count(_GEOCODING) == 1
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.count(_UNREACHABLE) == 1 and _GEOCODING not in err
    assert len(logging.getLogger("eventcell").handlers) == 1
    assert sum(record.getMessage().startswith("source 'gone' unreachable")
               for record in caplog.records) == 3


def test_logging_under_python_m(tmp_path):
    # run as __main__, the CLI module still logs under the package logger
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-m", "eventcell.cli", "--verbose", "ingest", "--config",
         _logging_config(tmp_path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.count(_UNREACHABLE) == 1 and result.stderr.count(_GEOCODING) == 1


def test_warnings_print_once_under_a_configured_host(tmp_path):
    # The host gave the root logger a stderr handler, so the package's own
    # handler stands aside and each warning is printed once, in the host's format.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = ("import logging, sys; logging.basicConfig(); from eventcell.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    argv = ["ingest", "--config", _logging_config(tmp_path), "--out", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.count("source 'gone' unreachable") == 1
    assert "WARNING:eventcell.cli:source 'gone' unreachable" in result.stderr


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


def test_config_and_fusion_reject_a_threshold_in_the_same_words(t1_dir, tmp_path):
    path = _t1_config_with(t1_dir, tmp_path, "fusion", {"name_threshold": 1.5})
    with pytest.raises(ConfigError) as at_load:
        load_config(path)
    with pytest.raises(ConfigError) as at_fusion:
        fuse_sources([make_event()], name_threshold=1.5)
    assert str(at_load.value) == str(at_fusion.value) == "fusion.name_threshold 1.5 outside [0, 1]"


@pytest.mark.parametrize("values", [
    {"name_threshold": 0.0, "time_tolerance_minutes": 0},
    {"name_threshold": 1.0, "time_tolerance_minutes": 1e6},
], ids=["lowest", "highest"])
def test_fusion_range_bounds_accepted(t1_dir, tmp_path, values):
    assert main(["ingest", "--config", _t1_config_with(t1_dir, tmp_path, "fusion", values)]) == 0


@pytest.mark.parametrize("keys, value", [
    (("geo_assoc",), []),
    (("eaw",), "x"),
    (("fusion",), 5),
    (("paths",), []),
    (("sources",), [1]),
    (("sources", 0, "field_map"), ["NAME"]),
    (("filter",), []),
    (("filter", "geo", "categorical"), "Spain"),
    (("eaw", "category_durations_hours"), []),
    (("metrics",), "NUM_DROPS"),
    (("filter", "blacklist_terms"), "bar"),
    (("filter", "geo", "box"), "1234"),
    (("geocoder",), 5),
], ids=["geo-assoc-array", "eaw-string", "fusion-number", "paths-array", "source-number",
        "field-map-array", "filter-array", "categorical-string", "category-durations-array",
        "metrics-string", "blacklist-string", "box-string", "geocoder-number"])
def test_config_section_of_wrong_json_type_exits_1(t1_dir, tmp_path, capsys, keys, value):
    _assert_config_value_refused(t1_dir, tmp_path, capsys, keys, value)


@pytest.mark.parametrize("kind, words", [
    ("Fixture", "'kind' must be 'fixture' or 'http', not 'Fixture'"),
    ("https", "'kind' must be 'fixture' or 'http', not 'https'"),
    (5, "'kind' must be a string"),
    (None, "'kind' must be a string"),
])
def test_geocoder_of_unknown_kind_exits_1_naming_it(t1_dir, tmp_path, capsys, kind, words):
    config = json.loads((t1_dir / "config.json").read_text())
    config["geocoder"] = {"kind": kind, "table": "geo.csv", "endpoint": "http://localhost:1/"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"error: geocoder: {words}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, value", [
    (("filter", "soft_mode"), "false"),
    (("filter", "soft_mode"), 0),
    (("geo_assoc", "min_sites"), 1.9),
    (("geo_assoc", "max_sites"), "7"),
    (("geo_assoc", "max_sites"), True),
    (("eaw", "pre_margin"), "1"),
    (("eaw", "post_margin"), 0.5),
    (("sources", 0, "priority"), "3"),
    (("sources", 0, "priority"), False),
    (("r_threshold",), True),
    (("r_threshold",), "0.7"),
    (("geo_assoc", "max_dist_km"), "2"),
    (("eaw", "sigma_scale"), True),
    (("eaw", "category_durations_hours", "musical"), "4"),
    (("fusion", "time_tolerance_minutes"), False),
    (("filter", "geo", "box"), ["36.6", 36.8, -4.6, -4.4]),
], ids=["soft-mode-string", "soft-mode-number", "min-sites-fraction", "max-sites-string",
        "max-sites-bool", "pre-margin-string", "post-margin-fraction", "priority-string",
        "priority-bool", "threshold-bool", "threshold-string", "max-dist-string",
        "sigma-scale-bool", "category-duration-string", "tolerance-bool", "box-string-item"])
def test_config_scalar_of_wrong_json_type_exits_1(t1_dir, tmp_path, capsys, keys, value):
    _assert_config_value_refused(t1_dir, tmp_path, capsys, keys, value)


def test_config_integers_may_be_integral_numbers(t1_dir, tmp_path):
    path = _t1_config_with(t1_dir, tmp_path, "geo_assoc", {"min_sites": 2.0, "max_sites": 7.0})
    params = load_config(path).geo_assoc
    assert (params.min_sites, params.max_sites) == (2, 7) and type(params.min_sites) is int


def test_config_of_required_keys_only_takes_each_receivers_defaults(tmp_path):
    field_map = {"n": "NAME", "t": "START_TIME"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "sources": [{"source_id": "s", "locator": "feed.ndjson", "field_map": field_map}],
        "filter": {"geo": {"box": [36.0, 37.0, -5.0, -4.0]},
                   "time": {"start": "2017-03-01T00:00:00Z", "end": "2017-04-01T00:00:00Z"}},
    }))
    config = load_config(path)
    assert config.sources == [
        SourceConfig(source_id="s", locator=str(tmp_path / "feed.ndjson"), field_map=field_map)]
    assert config.filter == FilterConfig(geo=config.filter.geo, time=config.filter.time)
    assert config.geo_assoc == GeoAssocParams() and config.eaw == EawParams()
    assert config.fusion_name_threshold == DEFAULT_NAME_THRESHOLD
    assert config.fusion_time_tolerance == DEFAULT_TIME_TOLERANCE
    assert config.r_threshold == DEFAULT_R_THRESHOLD
    assert (config.metrics, config.aggregate_stat, config.normalization) == ([], "mean", "auto")
    assert config.geocoder is config.topology_path is config.kpi_path is config.output_dir is None


@pytest.mark.parametrize("keys, context", [
    (("sources", 0, "source_id"), "source"),
    (("sources", 0, "locator"), "source"),
    (("sources", 0, "field_map"), "source"),
    (("filter", "time", "start"), "filter.time"),
    (("filter", "time", "end"), "filter.time"),
], ids=lambda v: v[-1] if isinstance(v, tuple) else v)
def test_config_missing_required_key_exits_1_naming_it(t1_dir, tmp_path, capsys, keys, context):
    config = json.loads((t1_dir / "config.json").read_text())
    config["paths"] = {}
    section = config
    for key in keys[:-1]:
        section = section[key]
    del section[keys[-1]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"{context}: missing key '{keys[-1]}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_categorical_parts_may_be_null(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "sources": [],
        "filter": {"geo": {"categorical": {"country": "Spain", "region": None, "city": None}},
                   "time": {"start": "2017-03-01T00:00:00Z", "end": "2017-04-01T00:00:00Z"}},
    }))
    assert load_config(path).filter.geo.categorical == CategoricalScope(country="Spain")


def _assert_config_value_refused(t1_dir, tmp_path, capsys, keys, value):
    """ingest exits 1 naming the last of ``keys`` when the table1 config
    holds ``value`` there, and writes nothing."""
    config = json.loads((t1_dir / "config.json").read_text())
    config["sources"][0]["locator"] = str(t1_dir / "events.ndjson")
    config["paths"] = {}
    section = config
    for key in keys[:-1]:
        section = section[key] if isinstance(key, int) else section.setdefault(key, {})
    section[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"'{keys[-1]}'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
        [text] = _association_texts([make_event(lat=lat, lon=lon)], [[(site, 0.0)]], cells_by_site)
        [entry] = json.loads(text)["GEOGRAPHICAL_CLOSE_SITES"]
        return entry

    assert site_entry(0.01, 0.0)["CELLS"] == [{"CELL_ID": "C_N", "BEARING_OFFSET_DEG": 0.0}]
    at_site = {"SITE_ID": "S0", "DISTANCE_KM": 0.0}
    assert site_entry(0.0, 0.0) == at_site
    assert site_entry(0.0, 5e-324) == at_site  # no defined bearing, handled as at the site


def test_associate_report_round_trips(t1_dir, tmp_path):
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    assert main(["associate", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    path = tmp_path / "associations.json"
    document = json.loads(path.read_text())
    re_serialized = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    assert re_serialized == path.read_text()


# --- non-finite numbers in a report ------------------------------------------------

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_with_a_non_finite_float_exits_1_naming_the_file(t1_dir, tmp_path, capsys,
                                                                monkeypatch, value):
    words = f"Out of range float values are not JSON compliant: {value!r}"
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(cli, "_cause_record",
                        lambda rank, candidate, events_by_id: {"R_VALUES": [0.5, [value]]})
    capsys.readouterr()
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A",
                 "--out", str(tmp_path)]) == 1
    assert f"error: {tmp_path / 'report.json'}: {words}" in capsys.readouterr().err
    assert list(tmp_path.glob("report.json*")) == []

    monkeypatch.setattr(association, "associate_events",
                        lambda events, sites, params: ([(sites[0], value)] for _ in events))
    assert main(["associate", "--config", _config(t1_dir), "--out", str(tmp_path)]) == 1
    assert f"error: {tmp_path / 'associations.json'}: {words}" in capsys.readouterr().err
    assert list(tmp_path.glob("associations.json*")) == []


# --- associations.json renderer --------------------------------------------------
#
# associate renders each record's text directly; the dict each record stands
# for, encoded by the stdlib, is the oracle.

def _association_record(event, close_sites, cells_by_site) -> dict:
    """An associations.json record as a dict: the event's fields, then each
    close site with its distance and, where the bearing from the site is
    defined, its cells' bearing offsets."""
    record = {
        "NAME": event.name,
        "START_TIME": format_rfc3339(event.start_time),
        "END_TIME": format_rfc3339(event.end_time) if event.end_time else None,
        "VENUE": event.venue,
        "ADDRESS": address_record(event.address),
        "LAT": event.lat,
        "LON": event.lon,
        "EVENT_ID": event.event_id,
    }
    point = (event.lat, event.lon)
    site_entries = []
    for site, distance in close_sites:
        entry: dict = {"SITE_ID": site.site_id, "DISTANCE_KM": round(distance, 6)}
        cells = cells_by_site.get(site.site_id, [])
        try:
            offsets = association.bearing_offsets(cells, site, point)
        except DegenerateGeometry:
            pass
        else:
            entry["CELLS"] = [
                {"CELL_ID": cell.cell_id, "BEARING_OFFSET_DEG": round(offset, 6)}
                for cell, offset in zip(cells, offsets)
            ]
        site_entries.append(entry)
    record["GEOGRAPHICAL_CLOSE_SITES"] = site_entries
    return record


_JSON_CHARS = st.characters(exclude_categories=()) | st.sampled_from(
    ["\ud800", "\udfff", "\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "é", "😍"])
_TEXT = st.text(_JSON_CHARS, max_size=8)
# An event holds no lone surrogate (SocialEvent refuses one), so its texts draw none.
_EVENT_TEXT = st.text(_JSON_CHARS.filter(lambda c: not "\ud800" <= c <= "\udfff"), max_size=8)
# Integers too: the canonical reader keeps "LAT": 36 an int, which the report writes as 36.
_COORDINATES = st.tuples(
    st.floats(-90, 90) | st.integers(-90, 90)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-180, 180) | st.integers(-180, 180)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 180.0, -180.0]))


@st.composite
def _associations(draw):
    """Events, each with its close sites, and the sites' cells: sites without
    cells, sites with several, events at a site and events with no close site,
    addresses with some, all or none of their parts set."""
    site_ids = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    sites = [Site(site_id, *draw(_COORDINATES), ("C",)) for site_id in site_ids]
    cells_by_site = {
        site_id: sorted((Cell(cell_id, site_id, draw(st.floats(0, 360, exclude_max=True)), 120.0)
                         for cell_id in draw(st.lists(_TEXT, max_size=3, unique=True))),
                        key=lambda cell: cell.cell_id)
        for site_id in site_ids if draw(st.booleans())}
    address = (st.none() | st.builds(Address, *[st.none() | _EVENT_TEXT] * 5)
               | st.builds(Address, *[_EVENT_TEXT] * 5))
    events, closes = [], []
    for k in range(draw(st.integers(0, 4))):
        lat, lon = draw(st.sampled_from(sites).map(lambda site: site.location) | _COORDINATES)
        start = T0 + timedelta(minutes=draw(st.integers(0, 10_000)))
        end = draw(st.none() | st.integers(1, 600).map(lambda m: start + timedelta(minutes=m)))
        events.append(make_event(raw_id=draw(_EVENT_TEXT) + str(k), name=draw(_EVENT_TEXT),
                                 start=start, end=end, lat=lat, lon=lon,
                                 venue=draw(st.none() | _EVENT_TEXT),
                                 address=draw(address)))
        closes.append(draw(st.lists(st.tuples(
            st.sampled_from(sites),
            st.floats(0, 2e4) | st.sampled_from([0.0, 5e-324, 1e-7, 1234567.891])), max_size=3)))
    return events, closes, cells_by_site


@settings(max_examples=200, deadline=None)
@given(drawn=_associations(), stamp=st.booleans())
def test_association_report_matches_stdlib_encoder(drawn, stamp):
    events, closes, cells_by_site = drawn
    written = {}
    with mock.patch.object(cli, "atomic_write_text", lambda path, text: written.update(text=text)):
        _write_json_report(_association_texts(events, iter(closes), cells_by_site), "x", stamp)
    document = {"records": [_association_record(event, close, cells_by_site)
                            for event, close in zip(events, closes)]}
    if stamp:
        document["GENERATED_AT"] = json.loads(written["text"])["GENERATED_AT"]
    assert written["text"] == json.dumps(
        document, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _reference_rounded(value):
    """``round(value, 6)`` as the stdlib encoder writes it under ``allow_nan=False``."""
    value = round(value, 6)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _outcome_of(function, value):
    try:
        return function(value)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=2000, deadline=None)
@given(st.floats())
@example(1e-4)
@example(-1e-4)
@example(1e9)
@example(-1e9)
@example(-0.0)
@example(5e-7)
@example(0.0000995)
@example(999999999.9999995)
@example(0.00009999995)
def test_rounded_matches_repr_of_round(value):
    assert _outcome_of(cli._rounded, value) == _outcome_of(_reference_rounded, value)


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


@pytest.mark.parametrize("threshold", ["0", "1.5", "nan"])
def test_analyze_threshold_outside_the_unit_interval_exits_1(t1_dir, tmp_path, capsys, threshold):
    assert main(["analyze", "--config", _config(t1_dir), "--cell", "CELL_1A",
                 "--threshold", threshold, "--out", str(tmp_path)]) == 1
    assert "outside (0, 1]" in capsys.readouterr().err


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


def test_analyze_names_the_configured_metrics_when_none_match(detection7, tmp_path, capsys):
    bundle, _, _ = _edited_detection7(detection7, tmp_path)
    config = json.loads((bundle / "config.json").read_text())
    config["metrics"] = ["NOPE"]
    (bundle / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert _analyze_cell_1a(bundle) == 1
    assert ("error: no KPI series for cell 'CELL_1A' among the configured metrics ['NOPE']; "
            "it has ['NUM_DROPS', 'NUM_RRC_CONN']") in capsys.readouterr().err


def test_analyze_warns_of_configured_metrics_the_cell_lacks(tmp_path, capsys):
    # One configured metric has no series for the cell: a warning names it
    # and the cell's metrics, and the report is the one scored on the rest.
    bundle = tmp_path / "bundle"
    assert main(["simulate", "--preset", "detection", "--seed", "3", "--out", str(bundle)]) == 0
    config_path = bundle / "config.json"
    assert main(["ingest", "--config", str(config_path)]) == 0
    config = json.loads(config_path.read_text())
    reports = []
    for metrics in (["NUM_DROPS"], ["NUM_DROPS", "NUM_RRC_CONNX"]):
        config_path.write_text(json.dumps(dict(config, metrics=metrics)))
        capsys.readouterr()
        assert main(["analyze", "--config", str(config_path), "--cell", "CELL_1A"]) == 0
        reports.append([(bundle / "out" / name).read_bytes()
                        for name in ("report.json", "summary.csv")])
    warning = ("WARNING eventcell.cli: no KPI series for cell 'CELL_1A' under the configured "
               "metrics ['NUM_RRC_CONNX']; it has ['NUM_DROPS', 'NUM_RRC_CONN']\n")
    assert capsys.readouterr().err == warning
    assert reports[0] == reports[1]


# The scan parses only the analyzed cell's lines, but checks every block as
# UTF-8. Blocks of 4 KiB put the file's last row about 77 blocks after the
# last CELL_1A row.

def test_analyze_rejects_a_bad_byte_blocks_after_the_cell(detection7, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(network, "_BLOCK_BYTES", 4096)
    bundle, kpis, _ = _edited_detection7(detection7, tmp_path)
    data = kpis.read_bytes()
    assert (len(data) - 2) // 4096 - data.rfind(b"\nCELL_1A,") // 4096 > 50
    kpis.write_bytes(data[:-2] + b"\xff\n")  # in the value of another cell's row
    last = data.count(b"\n")
    capsys.readouterr()
    assert _analyze_cell_1a(bundle) == 1
    assert f"error: {kpis} line {last}: not valid UTF-8" in capsys.readouterr().err


def test_analyze_reads_a_character_split_by_a_block_edge(detection7, tmp_path, monkeypatch):
    monkeypatch.setattr(network, "_BLOCK_BYTES", 4096)
    bundle, kpis, _ = _edited_detection7(detection7, tmp_path)
    data = kpis.read_bytes()
    row = "CELL_2B,CAÍDAS,2017-03-05T20:00:00Z,1\n".encode()
    # a comment line that puts the first byte of "Í" last in a block
    pad = (4095 - len(data) - 2 - row.index("Í".encode())) % 4096
    kpis.write_bytes(data + b"#" + b"-" * pad + b"\n" + row)
    assert (len(data) + pad + 2 + row.index("Í".encode()) + 1) % 4096 == 0
    assert _analyze_cell_1a(bundle) == 0
    for name in ("report.json", "summary.csv"):
        assert (bundle / "out" / name).read_bytes() == (detection7 / "out" / name).read_bytes()


@pytest.fixture(scope="module")
def funnel_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("funnel")
    assert main(["simulate", "--preset", "funnel", "--out", str(path)]) == 0
    assert main(["ingest", "--config", str(path / "config.json"), "--out", str(path / "out")]) == 0
    return path


_ANALYZE = ["analyze", "--config", "CONFIG", "--cell", "CELL_1A", "--out", "OUT"]


@pytest.mark.parametrize("argv, code, stream, named", [
    ([], 1, "err", "command"),
    (["bogus"], 1, "err", "bogus"),
    (["--verbose"], 1, "err", "command"),
    (["analyze"], 1, "err", "--config"),
    (["ingest", "--out", "OUT"], 1, "err", "--config"),
    (["analyze", "--config", "CONFIG", "--out", "OUT"], 1, "err", "--cell"),
    (_ANALYZE + ["--stat", "bogus"], 1, "err", "bogus"),
    (_ANALYZE + ["--stat", "MEAN"], 1, "err", "MEAN"),
    (_ANALYZE + ["--threshold", "abc"], 1, "err", "abc"),
    (["simulate", "--preset", "nope", "--out", "OUT"], 1, "err", "nope"),
    (["simulate", "--preset", "detection", "--seed", "x", "--out", "OUT"], 1, "err", "--seed"),
    (["filter", "--config", "CONFIG", "--out", "OUT", "--nope"], 1, "err", "--nope"),
    (["ingest", "--config"], 1, "err", "--config"),
    (["ingest", "--conf", "CONFIG", "--out", "OUT"], 1, "err", "--conf"),
    (["--help"], 0, "out", "usage"),
    (["analyze", "--help"], 0, "out", "--cell"),
    (["--verbose", "filter", "--config", "FUNNEL", "--out", "FUNNEL_OUT"], 0, "out", "kept: 1768"),
], ids=["no-args", "unknown-command", "verbose-alone", "analyze-alone", "no-config", "no-cell",
        "stat-bogus", "stat-upper-case", "threshold-not-a-number", "preset-unknown",
        "seed-not-an-int", "unknown-option", "config-without-value", "abbreviated-option",
        "help", "analyze-help", "verbose-filter"])
def test_usage_exit_codes(t1_dir, funnel_dir, tmp_path, capsys, argv, code, stream, named):
    """A usage error exits 1 with one ``error:`` message naming what was
    wrong, --help prints usage and exits 0, and a valid line runs; none
    raises out of ``main`` or prints a traceback."""
    places = {"CONFIG": _config(t1_dir), "OUT": str(tmp_path),
              "FUNNEL": str(funnel_dir / "config.json"), "FUNNEL_OUT": str(funnel_dir / "out")}
    assert main([places.get(arg, arg) for arg in argv]) == code
    captured = capsys.readouterr()
    assert named.lower() in getattr(captured, stream).lower()
    assert "Traceback" not in captured.err
    if code:
        assert captured.err.startswith("error: ")
    else:
        assert "error:" not in captured.err


@pytest.mark.parametrize("command", ["associate", "analyze"])
def test_events_help_names_the_files_read(command, capsys):
    # _events_input reads filtered.ndjson when it exists, else events.ndjson
    assert main([command, "--help"]) == 0
    assert ("--events EVENTS_PATH Event file (default: <out>/filtered.ndjson, else "
            "<out>/events.ndjson).") in " ".join(capsys.readouterr().out.split())


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


_BOM_FEED = [{"name": "Concert A", "start": "2017-03-03T19:00:00Z", "venue": "Hall X"},
             {"name": "Match B", "start": "2017-03-04T18:00:00Z", "venue": "Hall Y"}]


@pytest.mark.parametrize("form", ["ndjson", "array", "csv", "table"])
def test_a_byte_order_mark_before_a_feed_or_geocoder_table_changes_no_event(tmp_path, form):
    """ingest writes the same events whether the feed (as NDJSON, a JSON
    array or CSV, whose first column is NAME) or the geocoder table starts
    with a UTF-8 byte-order mark or not."""
    if form == "csv":
        feed = "name,start,venue\n" + "".join(f"{r['name']},{r['start']},{r['venue']}\n"
                                              for r in _BOM_FEED)
    elif form == "array":
        feed = json.dumps(_BOM_FEED)
    else:
        feed = "".join(json.dumps(record) + "\n" for record in _BOM_FEED)
    table = "query,lat,lon,normalized_address\nHall X,36.7,-4.4,X\nHall Y,36.71,-4.41,Y\n"
    config = {
        "sources": [{"source_id": "s", "locator": "feed.txt",
                     "format": "csv_records" if form == "csv" else "json_records",
                     "field_map": {"name": "NAME", "start": "START_TIME", "venue": "VENUE"}}],
        "geocoder": "geo.csv",
        "filter": {"geo": {"box": [36.0, 37.0, -5.0, -4.0]},
                   "time": {"start": "2017-03-01T00:00:00Z", "end": "2017-03-10T00:00:00Z"}},
    }
    written = []
    for bom in ("", "\ufeff"):
        run = tmp_path / f"bom{len(bom)}"
        run.mkdir()
        (run / "feed.txt").write_text(("" if form == "table" else bom) + feed, encoding="utf-8")
        (run / "geo.csv").write_text((bom if form == "table" else "") + table, encoding="utf-8")
        (run / "config.json").write_text(json.dumps(config))
        assert main(["ingest", "--config", str(run / "config.json"), "--out", str(run / "out")]) == 0
        written.append((run / "out" / "events.ndjson").read_text(encoding="utf-8"))
    assert written[1] == written[0]
    assert [json.loads(line)["LAT"] for line in written[0].splitlines()] == [36.7, 36.71]


@pytest.fixture(scope="module")
def t1_events(t1_dir, tmp_path_factory):
    """The canonical event file that ingest writes for table1."""
    out = tmp_path_factory.mktemp("t1_events")
    assert main(["ingest", "--config", _config(t1_dir), "--out", str(out)]) == 0
    return out / "events.ndjson"


@pytest.mark.parametrize("edit, message", [
    ({"LAT": "36.7"}, "field LAT must be a number or null, not a string"),
    ({"LAT": True}, "field LAT must be a number or null, not a boolean"),
    ({"ADDRESS": "x"}, "field ADDRESS must be an object or null, not a string"),
    ({"ADDRESS": {"CITY": 5}}, "field ADDRESS must hold strings"),
    ({"MERGE_NOTES": 3}, "field MERGE_NOTES must be an array or null, not a number"),
    ({"MERGE_NOTES": ["a", None]}, "field MERGE_NOTES must hold strings"),
    ({"EVENT_ID": 5}, "field EVENT_ID must be a string, not a number"),
    ({"NAME": None}, "field NAME must be a string, not null"),
    ({"RAW_ID": ...}, "missing field RAW_ID"),
    ([1, 2], "expected an object, not an array"),
    ({"NAME": "bad\ud800name"}, "a text field holds a lone surrogate, which UTF-8 cannot encode"),
    ({"ADDRESS": {"CITY": "\udc00"}},
     "a text field holds a lone surrogate, which UTF-8 cannot encode"),
], ids=["lat-string", "lat-bool", "address-string", "address-part", "notes-number",
        "notes-item", "id-number", "name-null", "raw-id-missing", "array-line", "name-surrogate",
        "address-surrogate"])
@pytest.mark.parametrize("stage", [["filter"], ["associate"], ["analyze", "--cell", "CELL_1A"]],
                         ids=["filter", "associate", "analyze"])
def test_mistyped_canonical_event_exits_1_naming_file_line_and_field(
        t1_dir, t1_events, tmp_path, capsys, edit, message, stage):
    lines = t1_events.read_text(encoding="utf-8").splitlines()
    if isinstance(edit, dict):
        record = json.loads(lines[1])
        record.update(edit)
        lines[1] = json.dumps({k: v for k, v in record.items() if v is not ...})
    else:
        lines[1] = json.dumps(edit)
    events = tmp_path / "events.ndjson"
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([stage[0], "--config", _config(t1_dir), "--events", str(events),
                 "--out", str(tmp_path / "out"), *stage[1:]]) == 1
    assert (f"error: {events} line 2: bad canonical event record ({message})"
            in capsys.readouterr().err)


# --- event feed lines and non-finite numbers -------------------------------------

def _feed_config(tmp_path, feed: str) -> str:
    """A one-source run over the NDJSON ``feed`` text, written as is."""
    (tmp_path / "feed.ndjson").write_bytes(feed.encode("utf-8"))
    config = {
        "sources": [{"source_id": "feed", "locator": "feed.ndjson", "field_map": {
            "n": "NAME", "t": "START_TIME", "la": "LAT", "lo": "LON", "p": "POPULARITY"}}],
        "filter": {"geo": {"box": [36.0, 37.0, -5.0, -4.0]},
                   "time": {"start": "2017-03-01T00:00:00Z", "end": "2017-04-01T00:00:00Z"}},
        "paths": {"output": "out"},
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return str(tmp_path / "config.json")


def _feed_line(name, hour, popularity="12"):
    return json.dumps({"n": name, "t": f"2017-03-10T{hour:02d}:00:00Z", "la": 36.72,
                       "lo": -4.42, "p": popularity}, ensure_ascii=False)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_separators_inside_names_pass_ingest_and_filter(tmp_path, capsys, end):
    # JSON strings may hold U+2028, U+2029 and U+0085 raw, and the event
    # file keeps them raw; only LF, CR LF and CR end a line.
    names = ["Jazz\u2028Night", "Open\u2029Air", "Next\x85Line"]
    config = _feed_config(tmp_path, end.join(_feed_line(n, 10 + i) for i, n in enumerate(names)))
    assert main(["ingest", "--config", config]) == 0
    assert "\u2028" in (tmp_path / "out" / "events.ndjson").read_text(encoding="utf-8")
    assert main(["filter", "--config", config]) == 0
    kept = read_events(tmp_path / "out" / "filtered.ndjson")
    assert sorted(event.name for event in kept) == sorted(names)
    assert "kept: 3" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_ingest_skips_a_record_with_a_non_finite_popularity(tmp_path, capsys, value):
    config = _feed_config(tmp_path, _feed_line("Bad", 10, value) + "\n" + _feed_line("Good", 11))
    assert main(["ingest", "--config", config]) == 0
    assert "parsed: 1" in capsys.readouterr().out
    [event] = read_events(tmp_path / "out" / "events.ndjson")
    assert (event.name, event.popularity) == ("Good", 12.0)


def test_ingest_skips_a_record_holding_a_lone_surrogate(tmp_path, capsys):
    bad = json.dumps({"n": "Bad\ud800", "t": "2017-03-10T10:00:00Z", "la": 36.72, "lo": -4.42})
    config = _feed_config(tmp_path, bad + "\n" + _feed_line("Good", 11))
    assert main(["ingest", "--config", config]) == 0
    captured = capsys.readouterr()
    assert "parsed: 1" in captured.out and "Traceback" not in captured.err
    assert [event.name for event in read_events(tmp_path / "out" / "events.ndjson")] == ["Good"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["POPULARITY", "EXTRA"])
def test_filter_rejects_a_non_finite_token_naming_the_line(tmp_path, capsys, token, field):
    config = _feed_config(tmp_path, _feed_line("A", 10) + "\n" + _feed_line("B", 11))
    assert main(["ingest", "--config", config]) == 0
    events = tmp_path / "out" / "events.ndjson"
    lines = events.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-1] + f', "{field}": {token}}}'
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["filter", "--config", config]) == 1
    assert (f"error: {events} line 2: bad canonical event record ({token} is not a JSON number)"
            in capsys.readouterr().err)
