"""Command-line pipeline: ``ingest``, ``filter``, ``associate``, ``analyze``
and ``simulate`` subcommands with file handoffs between stages.

Reports carry the uppercase field vocabulary (NAME, START_TIME, VENUE,
GEOGRAPHICAL_CLOSE_SITES, CORRELATED_CELLS, ...) and contain no timestamps
unless ``--stamp`` is given, so reruns on the same inputs are byte-identical.

Exit codes: 0 success, 1 configuration or input error, 2 I/O failure.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Optional, Sequence

import click

from . import association, filtering, ingest, network, scenario
from .errors import (
    ConfigError,
    DegenerateGeometry,
    EventcellError,
    SourceUnreachable,
    UnknownCell,
)
from .fsutil import atomic_write_text
from .timeutil import UTC, format_rfc3339, parse_rfc3339

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


@dataclass
class RunConfig:
    sources: list[ingest.SourceConfig]
    geocoder: Optional[ingest.GeocoderClient]
    filter: filtering.FilterConfig
    geo_assoc: association.GeoAssocParams
    eaw: association.EawParams
    metrics: list[str]
    r_threshold: float
    aggregate_stat: str
    normalization: str
    fusion_name_threshold: float
    fusion_time_tolerance: timedelta
    topology_path: Optional[Path]
    kpi_path: Optional[Path]
    output_dir: Optional[Path]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing key {key!r}")
    return mapping[key]


def _parse_geo_scope(raw: dict) -> ingest.GeoScope:
    categorical = box = circle = None
    if raw.get("categorical"):
        cat = raw["categorical"]
        categorical = ingest.CategoricalScope(
            country=cat.get("country"), region=cat.get("region"), city=cat.get("city")
        )
    if raw.get("box"):
        box = ingest.BoundingBox(*[float(v) for v in raw["box"]])
    if raw.get("circle"):
        circle = ingest.CircleArea(*[float(v) for v in raw["circle"]])
    return ingest.GeoScope(categorical=categorical, box=box, circle=circle)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate the run configuration file (JSON).

    Relative paths inside the file resolve against the file's directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    base = path.parent

    sources = []
    for entry in _require(raw, "sources", str(path)):
        locator = entry.get("locator", "")
        if entry.get("kind", "file") == "file" and not Path(locator).is_absolute():
            locator = str(base / locator)
        sources.append(
            ingest.SourceConfig(
                source_id=_require(entry, "source_id", "source"),
                kind=entry.get("kind", "file"),
                locator=locator,
                format=entry.get("format", "json_records"),
                field_map=_require(entry, "field_map", "source"),
                priority=int(entry.get("priority", 0)),
                timezone=entry.get("timezone", "UTC"),
            )
        )

    geocoder: Optional[ingest.GeocoderClient] = None
    geo_raw = raw.get("geocoder")
    if isinstance(geo_raw, str):
        geo_raw = {"kind": "fixture", "table": geo_raw}
    if isinstance(geo_raw, dict):
        if geo_raw.get("kind", "fixture") == "fixture":
            table = Path(geo_raw["table"])
            if not table.is_absolute():
                table = base / table
            geocoder = ingest.FixtureGeocoder.from_csv(table)
        else:
            geocoder = ingest.HttpGeocoder(geo_raw["endpoint"])

    filt_raw = _require(raw, "filter", str(path))
    geo_scope = _parse_geo_scope(_require(filt_raw, "geo", "filter"))
    time_raw = _require(filt_raw, "time", "filter")
    time_scope = ingest.TimeScope(
        start=parse_rfc3339(_require(time_raw, "start", "filter.time")),
        end=parse_rfc3339(_require(time_raw, "end", "filter.time")),
    )
    filter_cfg = filtering.FilterConfig(
        required_fields=frozenset(filt_raw.get("required_fields", ["START_TIME", "LAT", "LON"])),
        blacklist_terms=tuple(filt_raw.get("blacklist_terms", [])),
        blacklist_target_fields=frozenset(filt_raw.get("blacklist_target_fields", ["VENUE", "NAME"])),
        region_whitelist=(
            frozenset(filt_raw["region_whitelist"]) if filt_raw.get("region_whitelist") else None
        ),
        geo=geo_scope,
        time=time_scope,
        soft_mode=bool(filt_raw.get("soft_mode", False)),
    )

    assoc_raw = raw.get("geo_assoc", {})
    geo_assoc = association.GeoAssocParams(
        max_dist_km=float(assoc_raw.get("max_dist_km", 2.0)),
        min_sites=int(assoc_raw.get("min_sites", 1)),
        max_sites=int(assoc_raw.get("max_sites", 7)),
    )

    eaw_raw = raw.get("eaw", {})
    eaw = association.EawParams(
        pre_margin=int(eaw_raw.get("pre_margin", 1)),
        post_margin=int(eaw_raw.get("post_margin", 1)),
        default_duration=timedelta(hours=float(eaw_raw.get("default_duration_hours", 3.0))),
        category_durations={
            name: timedelta(hours=float(hours))
            for name, hours in eaw_raw.get("category_durations_hours", {}).items()
        },
        sigma_scale=float(eaw_raw.get("sigma_scale", 1.0)),
    )

    r_threshold = float(raw.get("r_threshold", 0.7))
    if not 0.0 < r_threshold <= 1.0:
        raise ConfigError(f"r_threshold {r_threshold} outside (0, 1]")
    stat = raw.get("aggregate_stat", "mean")
    if stat not in association.AGGREGATE_STATS:
        raise ConfigError(f"unknown aggregate_stat {stat!r}")
    normalization = raw.get("normalization", "auto")
    if normalization not in ("auto", "none", *network.CYCLE_HOURS):
        raise ConfigError(f"unknown normalization {normalization!r}")

    fusion_raw = raw.get("fusion", {})

    paths_raw = raw.get("paths", {})

    def _resolve(key: str) -> Optional[Path]:
        value = paths_raw.get(key)
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else base / p

    topology_path = _resolve("topology")
    kpi_path = _resolve("kpis")
    for label, p in (("topology", topology_path), ("kpis", kpi_path)):
        if p is not None and not p.exists():
            raise ConfigError(f"configured {label} path does not exist: {p}")

    return RunConfig(
        sources=sources,
        geocoder=geocoder,
        filter=filter_cfg,
        geo_assoc=geo_assoc,
        eaw=eaw,
        metrics=list(raw.get("metrics", [])),
        r_threshold=r_threshold,
        aggregate_stat=stat,
        normalization=normalization,
        fusion_name_threshold=float(fusion_raw.get("name_threshold", 0.85)),
        fusion_time_tolerance=timedelta(minutes=float(fusion_raw.get("time_tolerance_minutes", 30))),
        topology_path=topology_path,
        kpi_path=kpi_path,
        output_dir=_resolve("output"),
    )


# ---------------------------------------------------------------------------
# Report records
# ---------------------------------------------------------------------------

def _event_fields(event: ingest.SocialEvent) -> dict:
    return {
        "NAME": event.name,
        "START_TIME": format_rfc3339(event.start_time),
        "END_TIME": format_rfc3339(event.end_time) if event.end_time else None,
        "VENUE": event.venue,
        "ADDRESS": ingest.address_record(event.address),
        "LAT": event.lat,
        "LON": event.lon,
        "EVENT_ID": event.event_id,
    }


def _association_record(
    event: ingest.SocialEvent,
    close_sites: list,
    cells_by_site: dict[str, list[network.Cell]],
) -> dict:
    record = _event_fields(event)
    site_entries = []
    for site, distance in close_sites:
        entry: dict = {"SITE_ID": site.site_id, "DISTANCE_KM": round(distance, 6)}
        point = (event.lat, event.lon)
        try:
            entry["CELLS"] = [
                {
                    "CELL_ID": cell.cell_id,
                    "BEARING_OFFSET_DEG": round(
                        association.cell_bearing_offset(cell, site, point), 6
                    ),
                }
                for cell in sorted(cells_by_site.get(site.site_id, []), key=lambda c: c.cell_id)
            ]
        except DegenerateGeometry:
            pass  # no defined bearing from the site: no CELLS entry
        site_entries.append(entry)
    record["GEOGRAPHICAL_CLOSE_SITES"] = site_entries
    return record


def _cause_record(rank: int, candidate: association.CauseCandidate, events_by_id: dict) -> dict:
    representative = events_by_id.get(candidate.event_ids[0])
    record = _event_fields(representative) if representative else {}
    record["rank"] = rank
    record["VENUE"] = candidate.venue_label
    record["VENUE_KEY"] = candidate.venue_key
    record["N_EVENTS"] = len(candidate.event_ids)
    record["EVENT_IDS"] = list(candidate.event_ids)
    record["FLAGGED"] = candidate.flagged
    record["N_UNDEFINED"] = candidate.n_undefined
    record["GEOGRAPHICAL_CLOSE_SITES"] = [
        {"SITE_ID": site.site_id, "DISTANCE_KM": round(distance, 6)}
        for site, distance in candidate.close_sites
    ]
    record["CORRELATED_CELLS"] = [
        {
            "CELL_ID": report.cell_id,
            "METRIC": report.metric,
            "R": round(report.score, 6),
            "MEDIAN_ABS_R": round(report.median_abs_r, 6),
            "MEAN_ABS_R": round(report.mean_abs_r, 6),
            "MAX_ABS_R": round(report.max_abs_r, 6),
            "R_VALUES": [round(r, 6) for r in report.r_values],
            "N_EVENTS": report.n_events,
            "N_UNDEFINED": report.n_undefined,
        }
        for report in candidate.reports
    ]
    return record


def _write_json_report(payload, path: Path, stamp: bool) -> None:
    document = {"records": payload}
    if stamp:
        document["GENERATED_AT"] = format_rfc3339(datetime.now(tz=UTC))
    text = json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False)
    atomic_write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def cli(verbose: bool):
    """Social-event to cellular-network association pipeline."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _out_dir(config: Optional[RunConfig], out: Optional[str]) -> Path:
    if out is not None:
        path = Path(out)
    elif config is not None and config.output_dir is not None:
        path = config.output_dir
    else:
        raise ConfigError("no output directory: pass --out or set paths.output")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _events_input(out_dir: Path, explicit: Optional[str]) -> Path:
    """Resolve the canonical event file: --events, else the filter stage's
    output, else the ingest stage's output in the same directory."""
    if explicit is not None:
        return Path(explicit)
    for name in ("filtered.ndjson", "events.ndjson"):
        candidate = out_dir / name
        if candidate.exists():
            return candidate
    raise ConfigError(
        f"no event file found in {out_dir}; run ingest first or pass --events"
    )


@cli.command("ingest")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run configuration file.")
@click.option("--out", type=click.Path(), help="Output directory (default: paths.output).")
def cmd_ingest(config_path: str, out: Optional[str]):
    """Fetch, parse, consolidate and fuse events into the canonical file."""
    config = load_config(config_path)
    out_dir = _out_dir(config, out)

    fetched = 0
    parsed: list[ingest.SocialEvent] = []
    failures = 0
    for source in config.sources:
        try:
            raw_records = ingest.fetch_raw(source, config.filter.geo, config.filter.time)
        except SourceUnreachable as exc:
            failures += 1
            logger.warning("%s", exc)
            click.echo(f"warning: {exc}", err=True)
            continue
        fetched += len(raw_records)
        for record in raw_records:
            try:
                parsed.append(ingest.parse_record(record, source))
            except EventcellError as exc:
                logger.warning("skipping record from %s: %s", source.source_id, exc)
    if failures and failures == len(config.sources):
        raise SourceUnreachable("all", "every configured source failed")

    if config.geocoder is not None:
        consolidated = [ingest.consolidate(e, config.geocoder) for e in parsed]
    else:
        consolidated = parsed

    priorities = {s.source_id: s.priority for s in config.sources}
    fused = ingest.fuse_sources(
        consolidated,
        name_threshold=config.fusion_name_threshold,
        time_tolerance=config.fusion_time_tolerance,
        priorities=priorities,
    )
    events_path = out_dir / "events.ndjson"
    ingest.write_events(fused, events_path)

    venues = len({e.venue for e in fused if e.venue})
    for label, count in (("fetched", fetched), ("parsed", len(parsed)),
                         ("consolidated", len(consolidated)), ("fused", len(fused)),
                         ("venues", venues)):
        click.echo(f"{label}: {count}")
    click.echo(f"wrote {events_path}")


@cli.command("filter")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--events", "events_path", type=click.Path(), help="Canonical event file (default: <out>/events.ndjson).")
@click.option("--out", type=click.Path())
def cmd_filter(config_path: str, events_path: Optional[str], out: Optional[str]):
    """Apply availability, geographic, semantic and temporal filters."""
    config = load_config(config_path)
    out_dir = _out_dir(config, out)
    source = Path(events_path) if events_path else out_dir / "events.ndjson"
    events = ingest.read_events(source)

    kept, traces = filtering.run_filters(events, config.filter)
    filtered_path = out_dir / "filtered.ndjson"
    ingest.write_events(kept, filtered_path)
    drops_path = out_dir / "drops.csv"
    filtering.write_traces(traces, drops_path)

    venues = len({e.venue for e in kept if e.venue})
    click.echo(f"input: {len(events)}")
    click.echo(f"kept: {len(kept)}")
    click.echo(f"dropped: {len(traces)}")
    click.echo(f"venues: {venues}")
    click.echo(f"wrote {filtered_path} and {drops_path}")


@cli.command("associate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--events", "events_path", type=click.Path(), help="Event file (default: <out>/filtered.ndjson).")
@click.option("--out", type=click.Path())
@click.option("--stamp", is_flag=True, help="Embed a generation timestamp in the report.")
def cmd_associate(config_path: str, events_path: Optional[str], out: Optional[str], stamp: bool):
    """Geographic association: close sites and per-cell bearing offsets."""
    config = load_config(config_path)
    out_dir = _out_dir(config, out)
    if config.topology_path is None:
        raise ConfigError("paths.topology is required for associate")
    sites, cells = network.load_topology(config.topology_path)
    cells_by_site: dict[str, list[network.Cell]] = {}
    for cell in cells:
        cells_by_site.setdefault(cell.site_id, []).append(cell)

    source = _events_input(out_dir, events_path)
    events = ingest.read_events(source)

    records = []
    skipped = 0
    for event in sorted(events, key=lambda e: (e.start_time, e.event_id)):
        if not event.has_coordinates():
            skipped += 1
            logger.info("event %s has no coordinates; not associated", event.event_id)
            continue
        close = association.associate_geographic(event, sites, config.geo_assoc)
        records.append(_association_record(event, close, cells_by_site))

    report_path = out_dir / "associations.json"
    _write_json_report(records, report_path, stamp)
    click.echo(f"associated: {len(records)}")
    click.echo(f"skipped (no coordinates): {skipped}")
    click.echo(f"wrote {report_path}")


@cli.command("analyze")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--cell", "cell_id", required=True, help="Degraded cell to explain.")
@click.option("--events", "events_path", type=click.Path(), help="Event file (default: <out>/events.ndjson).")
@click.option("--threshold", type=float, help="Override r_threshold from the config.")
@click.option("--stat", type=click.Choice(association.AGGREGATE_STATS), help="Override aggregate_stat.")
@click.option("--raw", is_flag=True, help="Correlate on raw KPIs instead of normalized residuals.")
@click.option("--out", type=click.Path())
@click.option("--stamp", is_flag=True)
def cmd_analyze(config_path: str, cell_id: str, events_path: Optional[str],
                threshold: Optional[float], stat: Optional[str], raw: bool,
                out: Optional[str], stamp: bool):
    """Rank candidate venues behind a degradation of one cell."""
    config = load_config(config_path)
    out_dir = _out_dir(config, out)
    if config.topology_path is None or config.kpi_path is None:
        raise ConfigError("paths.topology and paths.kpis are required for analyze")
    sites, cells = network.load_topology(config.topology_path)
    cell = next((c for c in cells if c.cell_id == cell_id), None)
    if cell is None:
        raise UnknownCell(f"cell {cell_id!r} not found in topology")

    kpis = network.load_kpis(config.kpi_path)
    if config.metrics:
        kpis = [s for s in kpis if s.metric in config.metrics]
    if not any(s.cell_id == cell_id for s in kpis):
        raise ConfigError(f"no KPI series for cell {cell_id!r}")

    source = _events_input(out_dir, events_path)
    events = ingest.read_events(source)

    r_threshold = threshold if threshold is not None else config.r_threshold
    if not 0.0 < r_threshold <= 1.0:
        raise ConfigError(f"threshold {r_threshold} outside (0, 1]")
    chosen_stat = stat or config.aggregate_stat
    candidates = association.identify_causes(
        cell,
        events,
        sites,
        kpis,
        config.geo_assoc,
        r_threshold=r_threshold,
        eaw_params=config.eaw,
        stat=chosen_stat,
        normalization="none" if raw else config.normalization,
    )

    events_by_id = {e.event_id: e for e in events}
    records = [
        _cause_record(rank, candidate, events_by_id)
        for rank, candidate in enumerate(candidates, start=1)
    ]
    report_path = out_dir / "report.json"
    _write_json_report(records, report_path, stamp)

    summary_buffer = io.StringIO()
    writer = csv.writer(summary_buffer)
    writer.writerow(["rank", "venue", "n_events", "best_metric", "best_abs_r", "flagged"])
    for rank, candidate in enumerate(candidates, start=1):
        writer.writerow([
            rank, candidate.venue_label, len(candidate.event_ids),
            candidate.best_metric, f"{candidate.best_score:.6f}",
            str(candidate.flagged).lower(),
        ])
    summary_path = out_dir / "summary.csv"
    atomic_write_text(summary_path, summary_buffer.getvalue())

    click.echo(json.dumps({
        "cell": cell_id,
        "stat": chosen_stat,
        "threshold": r_threshold,
        "n_candidates": len(candidates),
        "flagged": [c.venue_label for c in candidates if c.flagged],
        "top_venue": candidates[0].venue_label if candidates else None,
        "top_score": round(candidates[0].best_score, 6) if candidates else None,
        "report": str(report_path),
    }, allow_nan=False))


@cli.command("simulate")
@click.option("--spec", "spec_path", type=click.Path(), help="Scenario specification (JSON).")
@click.option("--preset", type=click.Choice(["table1", "funnel", "detection"]),
              help="Built-in fixture instead of a spec file.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the detection preset.")
@click.option("--out", required=True, type=click.Path())
def cmd_simulate(spec_path: Optional[str], preset: Optional[str], seed: int, out: str):
    """Generate a synthetic fixture bundle with ground truth."""
    if (spec_path is None) == (preset is None):
        raise ConfigError("pass exactly one of --spec or --preset")
    if preset == "table1":
        bundle = scenario.table1_fixture()
    elif preset == "funnel":
        bundle = scenario.funnel_fixture()
    elif preset == "detection":
        bundle = scenario.build(scenario.detection_spec(seed))
    else:
        bundle = scenario.build(load_scenario_spec(spec_path))
    written = bundle.write(out)
    for path in written:
        click.echo(f"wrote {path}")


def load_scenario_spec(path: str | Path) -> scenario.ScenarioSpec:
    """Read a ScenarioSpec from its JSON file form."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    try:
        metrics = tuple(
            scenario.MetricSpec(
                name=m["name"],
                daily_profile=tuple(float(v) for v in m["daily_profile"]),
                noise_sigma=float(m.get("noise_sigma", 0.0)),
            )
            for m in _require(raw, "metrics", str(path))
        )
        injected = tuple(
            scenario.InjectedEventSpec(
                venue=e["venue"],
                start=parse_rfc3339(e["start"]),
                duration=timedelta(hours=float(e["duration_hours"])),
                amplitudes=e["amplitudes"],
                lat=e.get("lat"),
                lon=e.get("lon"),
                anchor_site=e.get("anchor_site"),
                anchor_bearing_deg=float(e.get("anchor_bearing_deg", 0.0)),
                anchor_distance_km=float(e.get("anchor_distance_km", 0.5)),
                cells=tuple(e["cells"]) if isinstance(e.get("cells"), list) else "auto",
                category=e.get("category"),
            )
            for e in raw.get("injected_events", [])
        )
        decoys_raw = raw.get("decoy_events", {})
        decoys = scenario.DecoySpec(
            count=int(decoys_raw.get("count", 0)),
            placement=decoys_raw.get("placement", "in_area"),
            events_per_venue=int(decoys_raw.get("events_per_venue", 1)),
            min_km_from_sites=float(decoys_raw.get("min_km_from_sites", 3.0)),
        )
        spec = scenario.ScenarioSpec(
            seed=int(_require(raw, "seed", str(path))),
            n_sites=int(_require(raw, "n_sites", str(path))),
            area=ingest.BoundingBox(*[float(v) for v in _require(raw, "area", str(path))]),
            days=int(_require(raw, "days", str(path))),
            metrics=metrics,
            injected=injected,
            decoys=decoys,
            sectors_per_site=int(raw.get("sectors_per_site", 3)),
            start=parse_rfc3339(raw["start"]) if "start" in raw else datetime(2017, 3, 1, tzinfo=UTC),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad scenario spec ({exc})") from None
    return spec


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI and map exceptions onto the stable exit-code contract."""
    try:
        cli.main(args=list(argv) if argv is not None else None, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_CONFIG
    except click.Abort:
        return EXIT_CONFIG
    except (SourceUnreachable, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_IO
    except EventcellError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_CONFIG
    return EXIT_OK


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
