"""Command-line pipeline: ``ingest``, ``filter``, ``associate``, ``analyze``
and ``simulate`` subcommands with file handoffs between stages.

Reports carry the uppercase field vocabulary (NAME, START_TIME, VENUE,
GEOGRAPHICAL_CLOSE_SITES, CORRELATED_CELLS, ...) and contain no timestamps
unless ``--stamp`` is given, so reruns on the same inputs are byte-identical.

Exit codes: 0 success (``--help`` included), 1 configuration, input or usage
error, 2 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import sys
from dataclasses import replace
from datetime import datetime
from json.encoder import encode_basestring
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from . import filtering, ingest
from .config import AGGREGATE_STATS, RunConfig, load_config, load_scenario_spec
from .errors import (
    ConfigError,
    DegenerateGeometry,
    EventcellError,
    InvariantError,
    SourceUnreachable,
    UnknownCell,
)
from .fsutil import atomic_write_text
from .timeutil import UTC, format_rfc3339

if TYPE_CHECKING:  # associate and analyze import these when they run: they load numpy
    from . import association, network

# Named rather than ``__name__``, which is "__main__" under ``python -m
# eventcell.cli``: its records must reach the handler on the package logger.
logger = logging.getLogger("eventcell.cli")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


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


# Indents of associations.json, as ``json.dumps(indent=2)`` lays the report
# out: record keys, site entries (and ADDRESS parts), their keys, cell
# entries and their keys.
_RECORD_KEY, _SITE, _SITE_KEY, _CELL, _CELL_KEY = (
    "\n" + " " * n for n in (6, 8, 10, 12, 14))
_RECORD_TEXT = """{
      "NAME": %s,
      "START_TIME": %s,
      "END_TIME": %s,
      "VENUE": %s,
      "ADDRESS": %s,
      "LAT": %s,
      "LON": %s,
      "EVENT_ID": %s,
      "GEOGRAPHICAL_CLOSE_SITES": %s
    }"""


def _rounded(value: float) -> str:
    """``round(value, 6)`` as JSON text; like the stdlib encoder under
    ``allow_nan=False``, a non-finite value raises ``ValueError``.

    For 1e-4 <= |value| < 1e9 this is ``'%.6f' % value`` without trailing
    zeros past the first decimal: ``round`` takes the same correctly rounded
    six-decimal text, and below 2**32 an ulp is under 1e-6, so no shorter
    text reads back as the same float and ``repr`` gives that text too.
    """
    if 1e-4 <= abs(value) < 1e9:
        text = ("%.6f" % value).rstrip("0")
        return text + "0" if text[-1] == "." else text
    value = round(value, 6)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _association_texts(
    events: Sequence[ingest.SocialEvent],
    closes: Iterable[list[tuple[network.Site, float]]],
    cells_by_site: dict[str, list[network.Cell]],
) -> Iterator[str]:
    """Yield the text of each event's associations.json record, given its
    close sites, as ``json.dumps(indent=2, ensure_ascii=False)`` would write
    the record's dict at its place in the report; ``cells_by_site`` lists
    each site's cells sorted by cell id.

    A record holds the event's fields, then each close site with its
    distance and, where the bearing from the site is defined, each of its
    cells with its bearing offset. That GEOGRAPHICAL_CLOSE_SITES block
    depends only on the event's (lat, lon) point and its close-site list,
    which ``associate_events`` shares among the events at one point, so it
    is built once per point and list. The text around the numbers is the
    same for every entry of one site or cell, so it is built once per call.
    """
    from . import association

    quoted_time = functools.lru_cache(maxsize=None)(  # events share few distinct times
        lambda time: encode_basestring(format_rfc3339(time)))
    site_texts: dict[str, tuple[str, list[network.Cell], list[str]]] = {}

    def sites_block(point: tuple[float, float], close: list[tuple[network.Site, float]]) -> str:
        entries = []
        for site, distance in close:
            texts = site_texts.get(site.site_id)
            if texts is None:
                cells = cells_by_site.get(site.site_id, [])
                texts = site_texts[site.site_id] = (
                    f'{{{_SITE_KEY}"SITE_ID": {encode_basestring(site.site_id)},'
                    f'{_SITE_KEY}"DISTANCE_KM": ',
                    cells,
                    [f'{{{_CELL_KEY}"CELL_ID": {encode_basestring(cell.cell_id)},'
                     f'{_CELL_KEY}"BEARING_OFFSET_DEG": ' for cell in cells])
            head, cells, cell_heads = texts
            entry = head + _rounded(distance)
            try:
                offsets = association.bearing_offsets(cells, site, point)
            except DegenerateGeometry:  # no defined bearing from the site: no CELLS entry
                entries.append(entry + _SITE + "}")
                continue
            cell_entries = ("," + _CELL).join([
                cell_head + _rounded(offset) + _CELL + "}"
                for cell_head, offset in zip(cell_heads, offsets)])
            cells_text = f"[{_CELL}{cell_entries}{_SITE_KEY}]" if cell_entries else "[]"
            entries.append(f'{entry},{_SITE_KEY}"CELLS": {cells_text}{_SITE}}}')
        return ("[" + _SITE + ("," + _SITE).join(entries) + _RECORD_KEY + "]"
                if entries else "[]")

    # point -> (its close-site list, held so that no other list can take its
    # identity, and the list's block)
    blocks: dict[tuple[float, float], tuple[list, str]] = {}
    for event, close in zip(events, closes):
        point = (event.lat, event.lon)
        cached = blocks.get(point)
        if cached is None or cached[0] is not close:
            cached = blocks[point] = (close, sites_block(point, close))
        address = ingest.address_record(event.address)
        address_text = ("{" + _SITE + ("," + _SITE).join(
            [f'"{key}": {encode_basestring(part)}' for key, part in address.items()])
            + _RECORD_KEY + "}") if address else "null"
        yield _RECORD_TEXT % (  # LAT and LON are an int or a float, which repr writes as JSON
            encode_basestring(event.name), quoted_time(event.start_time),
            quoted_time(event.end_time) if event.end_time else "null",
            encode_basestring(event.venue) if event.venue is not None else "null",
            address_text, repr(event.lat), repr(event.lon),
            encode_basestring(event.event_id), cached[1])


def _cause_record(rank: int, candidate: association.CauseCandidate) -> dict:
    record = _event_fields(candidate.event)
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


def _write_json_report(record_texts: Iterable[str], path: Path, stamp: bool) -> None:
    """Write ``{"records": [...]}``, with GENERATED_AT under ``stamp``, from
    the text of each record at its place in the report. A non-finite float
    met while the texts are made raises ``InvariantError`` naming ``path``,
    and nothing is written.

    The report is the largest object of a run, so the record texts are
    joined once, with the document's head and tail, and only the whole text
    is kept while it is written."""
    try:
        texts = list(record_texts)
    except ValueError as exc:
        raise InvariantError(f"{path}: {exc}") from None
    tail = (f',\n  "GENERATED_AT": {encode_basestring(format_rfc3339(datetime.now(tz=UTC)))}'
            if stamp else "") + "\n}\n"
    if texts:
        texts[0] = '{\n  "records": [\n    ' + texts[0]
        texts[-1] += "\n  ]" + tail
        text = ",\n    ".join(texts)
    else:
        text = '{\n  "records": []' + tail
    del texts
    atomic_write_text(path, text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _command(name: str, *options: tuple[tuple[str, ...], dict]):
    """Decorate a function as subcommand ``name``: a record of the name, the
    options as ``(flags, add_argument keywords)`` pairs and the function as
    ``callback``, which ``main`` calls with the parsed options as keywords.
    The function's docstring is the subcommand's help."""
    return lambda callback: SimpleNamespace(name=name, options=options, callback=callback)


def _option(*flags: str, **keywords) -> tuple[tuple[str, ...], dict]:
    return flags, keywords


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


_CONFIG = _option("--config", dest="config_path", required=True, help="Run configuration file.")
_OUT = _option("--out", help="Output directory (default: paths.output).")
_STAMP = _option("--stamp", action="store_true", help="Embed a generation timestamp in reports.")
# associate's and analyze's, resolved by ``_events_input``
_EVENTS = _option("--events", dest="events_path", help=(
    "Event file (default: <out>/filtered.ndjson, else <out>/events.ndjson)."))


@_command("ingest", _CONFIG, _OUT)
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
        geocoder = ingest.MemoGeocoder(config.geocoder)
        consolidated = [ingest.consolidate(e, geocoder) for e in parsed]
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
        print(f"{label}: {count}")
    print(f"wrote {events_path}")


@_command("filter", _CONFIG, _OUT, _option(
    "--events", dest="events_path", help="Canonical event file (default: <out>/events.ndjson)."))
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
    print(f"input: {len(events)}")
    print(f"kept: {len(kept)}")
    print(f"dropped: {len(traces)}")
    print(f"venues: {venues}")
    print(f"wrote {filtered_path} and {drops_path}")


@_command("associate", _CONFIG, _OUT, _STAMP, _EVENTS)
def cmd_associate(config_path: str, events_path: Optional[str], out: Optional[str], stamp: bool):
    """Geographic association: close sites and per-cell bearing offsets."""
    from . import association, network

    config = load_config(config_path)
    out_dir = _out_dir(config, out)
    if config.topology_path is None:
        raise ConfigError("paths.topology is required for associate")
    sites, cells = network.load_topology(config.topology_path)
    cells_by_site: dict[str, list[network.Cell]] = {}
    for cell in sorted(cells, key=lambda c: c.cell_id):
        cells_by_site.setdefault(cell.site_id, []).append(cell)

    source = _events_input(out_dir, events_path)
    events = ingest.read_events(source)

    located = []
    skipped = 0
    for event in sorted(events, key=lambda e: (e.start_time, e.event_id)):
        if event.has_coordinates():
            located.append(event)
        else:
            skipped += 1
            logger.info("event %s has no coordinates; not associated", event.event_id)
    report_path = out_dir / "associations.json"
    _write_json_report(_association_texts(
        located, association.associate_events(located, sites, config.geo_assoc), cells_by_site),
        report_path, stamp)
    print(f"associated: {len(located)}")
    print(f"locations: {len({(event.lat, event.lon) for event in located})}")
    print(f"skipped (no coordinates): {skipped}")
    print(f"wrote {report_path}")


@_command("analyze", _CONFIG, _OUT, _STAMP,
          _option("--cell", dest="cell_id", required=True, help="Degraded cell to explain."),
          _EVENTS,
          _option("--threshold", type=float, help="Override r_threshold from the config."),
          _option("--stat", choices=AGGREGATE_STATS, help="Override aggregate_stat."),
          _option("--raw", action="store_true",
                  help="Correlate on raw KPIs instead of normalized residuals."))
def cmd_analyze(config_path: str, cell_id: str, events_path: Optional[str],
                threshold: Optional[float], stat: Optional[str], raw: bool,
                out: Optional[str], stamp: bool):
    """Rank candidate venues behind a degradation of one cell."""
    from . import association, network

    config = load_config(config_path)
    overrides = {"r_threshold": threshold, "aggregate_stat": stat,
                 "normalization": "none" if raw else None}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    out_dir = _out_dir(config, out)
    if config.topology_path is None or config.kpi_path is None:
        raise ConfigError("paths.topology and paths.kpis are required for analyze")
    sites, cells = network.load_topology(config.topology_path)
    cell = next((c for c in cells if c.cell_id == cell_id), None)
    if cell is None:
        raise UnknownCell(f"cell {cell_id!r} not found in topology")

    kpis = network.load_kpis(config.kpi_path, cell_id)
    if not kpis:
        raise ConfigError(f"no KPI series for cell {cell_id!r}")
    if config.metrics:
        chosen = [s for s in kpis if s.metric in config.metrics]
        present = sorted({s.metric for s in kpis})
        if not chosen:
            raise ConfigError(f"no KPI series for cell {cell_id!r} among the configured metrics "
                              f"{config.metrics}; it has {present}")
        missing = [metric for metric in config.metrics if metric not in present]
        if missing:
            logger.warning("no KPI series for cell %r under the configured metrics %s; "
                           "it has %s", cell_id, missing, present)
        kpis = chosen

    source = _events_input(out_dir, events_path)
    events = ingest.read_events(source)

    candidates = association.identify_causes(
        cell,
        events,
        sites,
        kpis,
        config.geo_assoc,
        r_threshold=config.r_threshold,
        eaw_params=config.eaw,
        stat=config.aggregate_stat,
        normalization=config.normalization,
    )

    report_path = out_dir / "report.json"
    # JSON escapes a newline inside a string, so each "\n" is a line break to indent.
    _write_json_report(
        (json.dumps(_cause_record(rank, candidate), indent=2,
                    ensure_ascii=False, allow_nan=False).replace("\n", "\n    ")
         for rank, candidate in enumerate(candidates, start=1)), report_path, stamp)

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

    print(json.dumps({
        "cell": cell_id,
        "stat": config.aggregate_stat,
        "threshold": config.r_threshold,
        "n_candidates": len(candidates),
        "flagged": [c.venue_label for c in candidates if c.flagged],
        "top_venue": candidates[0].venue_label if candidates else None,
        "top_score": round(candidates[0].best_score, 6) if candidates else None,
        "report": str(report_path),
    }, allow_nan=False))


@_command("simulate",
          _option("--spec", dest="spec_path", help="Scenario specification (JSON)."),
          _option("--preset", choices=("table1", "funnel", "detection"),
                  help="Built-in fixture instead of a spec file."),
          _option("--seed", type=int, default=0,
                  help="Seed for the detection preset (default: 0)."),
          _option("--out", required=True, help="Output directory."))
def cmd_simulate(spec_path: Optional[str], preset: Optional[str], seed: int, out: str):
    """Generate a synthetic fixture bundle with ground truth."""
    from . import scenario  # only simulate needs it, so other stages start without it

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
        print(f"wrote {path}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``ConfigError``, so it exits 1 like every
    other input error instead of with argparse's 2, the I/O-failure code."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def _parser() -> _Parser:
    """The parser of every subcommand, built on first use and kept for the
    process. Prefixes of long options are refused, and help is ``--help``
    alone."""
    parser = _Parser(prog="eventcell", add_help=False, allow_abbrev=False,
                     description="Social-event to cellular-network association pipeline.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--verbose", action="store_true", help="Enable debug logging.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for command in (cmd_analyze, cmd_associate, cmd_filter, cmd_ingest, cmd_simulate):
        doc = command.callback.__doc__
        sub = commands.add_parser(command.name, add_help=False, allow_abbrev=False,
                                  help=doc, description=doc)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        for flags, keywords in command.options:
            sub.add_argument(*flags, **keywords)
        sub.set_defaults(command=command)
    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is at each record, not as it was when
    the handler was made, so a host that swaps the stream gets the lines.

    A record that propagates to a root handler writing to that stream at
    its level (``logging.basicConfig()`` makes one) is left to it, so the
    line is printed once; records still propagate, so a host's other
    handlers see them all."""

    stream = property(lambda self: sys.stderr, lambda self, value: None)

    def emit(self, record: logging.LogRecord) -> None:
        source = logging.getLogger(record.name)
        while source.propagate and source.parent is not None:
            source = source.parent
        if source is logging.root and any(
                getattr(handler, "stream", None) is sys.stderr and record.levelno >= handler.level
                for handler in source.handlers):
            return
        super().emit(record)


_LOG_HANDLER = _StderrHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging(verbose: bool) -> None:
    """Set the package logger's level for this call and give it the one
    stderr handler. Unlike ``logging.basicConfig``, this holds on every call
    and whatever the host did to the root logger."""
    package = logging.getLogger("eventcell")
    package.setLevel(logging.DEBUG if verbose else logging.WARNING)
    if _LOG_HANDLER not in package.handlers:
        package.addHandler(_LOG_HANDLER)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI and map exceptions onto the stable exit-code contract."""
    try:
        try:
            options = vars(_parser().parse_args(argv))
        except SystemExit:  # --help has printed its text; a usage error raises ConfigError
            return EXIT_OK
        _configure_logging(options.pop("verbose"))
        options.pop("command").callback(**options)
    except (SourceUnreachable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EventcellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
