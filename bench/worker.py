"""One measured run of one workload, in a fresh process started by run.py.

It drives the real CLI in-process through ``eventcell.cli.main`` with one
client in a closed loop: each stage call starts when the previous one has
returned. A round is one pass over the workload's input bundles. Rounds
repeat until the next stage call is predicted (from that stage's last time)
to end past ``--seconds``; the first round always completes. Stage times
count from every call, pipeline times only from complete bundles. Outputs
are checked as they are written; every failed stage call or check counts as
failed.

With ``--trace 1`` the first half of the time runs untraced and the rest
runs with the span wrappers of spans.py installed. The difference of the
two median pipeline times is reported as the tracing overhead.

The result is written as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import io
import itertools
import json
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Optional

import gauge
import inputs
import spans

from eventcell import cli

DETECTION_SCENARIOS = 40
# The CLI stages whose median untraced call time the traced run reports as <stage>_s.
STAGES = ("ingest", "filter", "associate", "analyze", "simulate")
TOP1_BAR = 0.95  # the bar test_detection_power sets for the same preset
DISTANCE_TOLERANCE_KM = 1e-6

# Per-layer metrics of the traced run; a layer that did not run reads 0. See README.md.
LAYER_METRICS = (
    "ingest.fetch_raw.s", "ingest.parse_record.s", "ingest.parse_record.calls",
    "ingest.consolidate.s", "ingest.geocoder.queries", "ingest.geocoder.hits",
    "ingest.write_events.s", "ingest.fuse_sources.s", "ingest.fuse_sources.in",
    "ingest.fuse_sources.out", "ingest.read_events.s",
    "filtering.filter_availability.s", "filtering.filter_geographic.s",
    "filtering.filter_semantic.s", "filtering.filter_temporal.s",
    "filtering.availability.dropped", "filtering.geographic.dropped",
    "filtering.semantic.dropped", "filtering.temporal.dropped",
    "filtering.normalize_text.calls", "filtering.write_traces.s",
    "network.load_topology.s", "network.load_kpis.s", "network.load_kpis.series",
    "network.load_kpis.samples", "network.write_kpis.s", "network.save_topology.s",
    "association.associate_geographic.s", "association.associate_geographic.calls",
    "geo.haversine_km.calls", "geo.initial_bearing_deg.calls",
    "association.identify_causes.s", "association.normalize_periodic.s",
    "association.normalize_periodic.calls", "association.correlate_event.s",
    "association.correlate_event.calls", "association.aggregate_venue.s",
    "scenario.build.s", "cli.load_config.s", "cli.cmd_ingest.s", "cli.cmd_filter.s",
    "cli.cmd_associate.s", "cli.cmd_analyze.s", "cli.cmd_simulate.s",
    "fsutil.atomic_write_text.s", "fsutil.atomic_write_text.bytes",
)


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return {"peak_rss_mb": "MB"}.get(name, "bytes" if name.endswith(".bytes") else "count")


class Session:
    """Stage calls with their wall times, gauge readings and check outcomes.

    Each call belongs to the bundle open when it ran; a bundle is one input
    set taken from disk to written reports.
    """

    def __init__(self):
        self.gauge = gauge.Gauge()
        self.calls: list[tuple[str, int, bool, float, float]] = []  # stage, bundle, traced, start, end
        self.bundle = -1
        self.complete: set[int] = set()  # bundles whose every stage ran
        self.open = False
        self.traced = False
        self.deadline: Optional[float] = None  # set once a phase has finished a round
        self.last: dict[str, float] = {}  # the last wall time of each stage
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def begin_bundle(self) -> None:
        self.end_bundle()
        self.bundle += 1
        self.open = True

    def end_bundle(self) -> None:
        if self.open:
            self.complete.add(self.bundle)
        self.open = False

    def abandon_bundle(self) -> None:
        """Close the open bundle without counting it as complete."""
        self.open = False

    def stage(self, *argv) -> None:
        """Run one CLI stage, unless it is predicted to end past the deadline."""
        argv = [str(a) for a in argv]
        if self.deadline is not None and perf_counter() + self.last.get(argv[0], 0.0) > self.deadline:
            raise OutOfTime
        self.gauge.read_if_due()
        captured = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        end = perf_counter()
        self.calls.append((argv[0], self.bundle, self.traced, start, end))
        self.last[argv[0]] = end - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)} exited {code}")

    def check(self, label: str, test) -> bool:
        """Run ``test()``; a false result or a missing or malformed output fails."""
        self.attempted += 1
        try:
            ok = bool(test())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, label = False, f"{label} ({exc.__class__.__name__}: {exc})"
        if not ok:
            self.failed += 1
            self.failures.append(label)
        return ok

    def timings(self, traced: bool, scaled: bool = True):
        """Per-stage call times and per-bundle times of one phase, in
        reference seconds (see gauge.py) or, with ``scaled=False``, wall seconds."""
        stages: dict[str, list[float]] = defaultdict(list)
        bundles: dict[int, float] = defaultdict(float)
        for stage, bundle, was_traced, start, end in self.calls:
            if was_traced != traced:
                continue
            elapsed = (end - start) * (self.gauge.scale(start, end) if scaled else 1.0)
            stages[stage].append(elapsed)
            bundles[bundle] += elapsed
        return stages, [t for bundle, t in bundles.items() if bundle in self.complete]

    def scale_of_moment(self):
        """A function giving the gauge scale of the call running at a moment."""
        starts = [call[3] for call in self.calls]
        scales = [self.gauge.scale(start, end) for _, _, _, start, end in self.calls]
        return lambda moment: scales[max(bisect.bisect_right(starts, moment) - 1, 0)]


def _report(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["records"]


# ---------------------------------------------------------------------------
# Workloads: each round function runs every bundle once and checks outputs
# ---------------------------------------------------------------------------

def feed_round(session: Session, work: Path, truth: dict) -> None:
    config = work / "config.json"
    session.begin_bundle()
    session.stage("ingest", "--config", config)
    session.stage("filter", "--config", config)
    out = work / "out"

    def fused():
        lines = (out / "events.ndjson").read_text(encoding="utf-8").splitlines()
        return len(lines) == truth["events"]

    def drops():
        with (out / "drops.csv").open(newline="", encoding="utf-8") as handle:
            counted = Counter(row["stage"] for row in csv.DictReader(handle))
        return counted == Counter({k: v for k, v in truth["drops"].items() if v})

    session.check("feed_ingest: fused count differs from the designed events", fused)
    session.check("feed_ingest: drops per stage differ from the designed counts", drops)


def _sites(topology: Path) -> list[dict]:
    with topology.open(newline="", encoding="utf-8") as handle:
        rows = {r["site_id"]: (float(r["lat"]), float(r["lon"])) for r in csv.DictReader(handle)}
    return [{"site_id": k, "lat": lat, "lon": lon} for k, (lat, lon) in sorted(rows.items())]


def _associations_match(work: Path, truth: dict, sites: list[dict], events: dict) -> bool:
    records = {r["EVENT_ID"]: r for r in _report(work / "out" / "associations.json")}
    for event_id in truth["checked_events"]:
        event = events[event_id]
        expected = inputs.close_sites(event["LAT"], event["LON"], sites)
        got = [(s["SITE_ID"], s["DISTANCE_KM"]) for s in
               records[event_id]["GEOGRAPHICAL_CLOSE_SITES"]]
        if [s for s, _ in got] != [s for s, _ in expected]:
            return False
        if any(abs(a - b) > DISTANCE_TOLERANCE_KM for (_, a), (_, b) in zip(got, expected)):
            return False
    return True


def city_round(session: Session, work: Path, truth: dict, sites: list[dict],
               events: dict) -> None:
    config = work / "config.json"
    session.begin_bundle()
    session.stage("associate", "--config", config)
    session.check("city_analyze: close sites or distances differ from the numpy haversine",
                  lambda: _associations_match(work, truth, sites, events))
    for cell in truth["analyzed_cells"]:
        session.stage("analyze", "--config", config, "--cell", cell)
        if cell == truth["causal_cell"]:
            def causal_first():
                top = _report(work / "out" / "report.json")[0]
                return top["VENUE"] == truth["causal_venue"] and top["FLAGGED"] is True
            session.check("city_analyze: injected venue not first and flagged", causal_first)


def _miss_reason(out: Path, truth: dict) -> str:
    """Why the ground-truth venue did not rank first: a filter stage dropped
    the causal event, or it ranked below another venue."""
    try:
        with (out / "drops.csv").open(newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                if row["event_id"] == truth["event_id"]:
                    return f"causal event dropped by the {row['stage']} filter ({row['reason']})"
        records = _report(out / "report.json")
    except (OSError, ValueError, KeyError):
        return "no readable output"
    return f"ranked below {records[0]['VENUE']}" if records else "empty report"


def detection_round(session: Session, work: Path, seed: int, hits: dict,
                    misses: dict) -> None:
    for scenario in range(seed, seed + DETECTION_SCENARIOS):
        bundle = work / f"scenario-{scenario}"
        config = bundle / "config.json"
        session.begin_bundle()
        session.stage("simulate", "--preset", "detection", "--seed", scenario, "--out", bundle)
        try:
            truth = json.loads((bundle / "ground_truth.json").read_text(encoding="utf-8"))
            truth = truth["events"][0]
        except (OSError, ValueError, KeyError, IndexError):
            session.check(f"detection_sweep: scenario {scenario} has no ground truth",
                          lambda: False)
            session.abandon_bundle()
            hits.setdefault(scenario, False)
            continue
        for stage in ("ingest", "filter", "associate"):
            session.stage(stage, "--config", config)
        session.stage("analyze", "--config", config, "--cell", truth["causal_cells"][0])
        if scenario not in hits:
            try:
                hits[scenario] = _report(bundle / "out" / "report.json")[0]["VENUE"] == truth["venue"]
            except (OSError, ValueError, KeyError, IndexError):
                hits[scenario] = False
            if not hits[scenario]:
                misses[scenario] = _miss_reason(bundle / "out", truth)


# ---------------------------------------------------------------------------

class OutOfTime(Exception):
    """The next stage call would end past the run's deadline."""


def run_rounds(session: Session, round_fn, deadline: float) -> list[int]:
    """Run rounds until a stage call would end past ``deadline``; the first
    round always completes. Return the indices of the complete rounds. The
    gauge is read after every round."""
    complete = []
    session.deadline = None
    for index in itertools.count():
        try:
            round_fn(index)
        except OutOfTime:
            session.abandon_bundle()
            return complete
        finally:
            session.gauge.read()
        session.end_bundle()
        complete.append(index)
        session.deadline = deadline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("feed_ingest", "city_analyze", "detection_sweep"))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    work = args.work

    session = Session()
    hits: dict[int, bool] = {}
    misses: dict[int, str] = {}  # scenario -> why its ground-truth venue was not first
    if args.workload == "feed_ingest":
        truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
        round_fn = lambda _: feed_round(session, work, truth)
    elif args.workload == "city_analyze":
        truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
        sites = _sites(work / "topology.csv")
        events = {}
        for line in (work / "out" / "events.ndjson").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["EVENT_ID"] in truth["checked_events"]:
                events[record["EVENT_ID"]] = record
        round_fn = lambda _: city_round(session, work, truth, sites, events)
    else:
        round_fn = lambda _: detection_round(session, work, args.seed, hits, misses)

    metrics: dict[str, float] = {}
    top1_rate = None
    started = perf_counter()
    if not args.trace:
        run_rounds(session, round_fn, started + args.seconds)
        _, bundles = session.timings(traced=False)
        metrics["pipeline_s"] = median(bundles)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "detection_sweep":
            top1_rate = sum(hits.values()) / len(hits)
            missed = "; ".join(f"scenario {k}: {v}" for k, v in sorted(misses.items()))
            session.check(f"detection_sweep: top1_rate {top1_rate:.3f} below {TOP1_BAR} "
                          f"({missed})", lambda: top1_rate >= TOP1_BAR)
    else:
        run_rounds(session, round_fn, started + args.seconds / 2.0)
        tracer = spans.Tracer()
        spans.install(tracer)
        session.traced = True

        def traced_round(index):
            tracer.round = index
            round_fn(index)

        rounds = run_rounds(session, traced_round, started + args.seconds)
        untraced_stages, untraced_bundles = session.timings(traced=False)
        for stage in STAGES:
            calls = untraced_stages.get(stage)
            metrics[f"{stage}_s"] = median(calls) if calls else 0.0
        metrics["trace.overhead_s"] = (median(session.timings(traced=True)[1])
                                       - median(untraced_bundles))
        self_times = tracer.self_times(session.scale_of_moment())
        counts = [tracer.counts[r] for r in rounds]
        session.check("traced rounds counted different work",
                      lambda: all(c == counts[0] for c in counts))
        for name in LAYER_METRICS:
            if name.endswith(".s"):
                values = [self_times[r][name[:-2]] for r in rounds if name[:-2] in self_times[r]]
                metrics[name] = median(values) if values else 0.0
            else:
                metrics[name] = counts[0].get(name, 0)
        if args.spans is not None:
            tracer.write(args.spans)

    wall_stages, wall_bundles = session.timings(traced=bool(args.trace), scaled=False)
    result = {
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures[:20],
        "top1_rate": top1_rate,
        "wall_s": {"pipeline": wall_bundles, **wall_stages},
        "calls": [[stage, bundle, start - started, end - started]
                  for stage, bundle, _, start, end in session.calls],
        "readings": [[end - started, duration] for end, duration in session.gauge.readings()],
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
