"""Span tracing of eventcell's layers from outside the program.

``install`` wraps the public functions of each ``eventcell`` module in
place, at every name through which the pipeline looks them up, so the
program itself is not edited. A span records its name, start, end, parent
span and round id; hot leaf functions (distance, bearing, text
normalization, geocoder lookups) only count calls, since a span per call
would cost more than the call. Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or None, round id)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.round][name] += n

    def spanned(self, name: str, fn, measure=None):
        """Wrap ``fn`` in a span counted as ``<name>.calls``; ``measure(args,
        kwargs, result)`` yields further (counter name, amount) pairs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.round)
            tracer.count(f"{name}.calls")
            if measure is not None:
                for key, value in measure(args, kwargs, result):
                    tracer.count(key, value)
            return result

        return wrapper

    def counted(self, name: str, fn, measure=None):
        """Wrap ``fn`` so it only counts, like ``spanned`` without the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(f"{name}.calls")
            if measure is not None:
                for key, value in measure(args, kwargs, result):
                    tracer.count(key, value)
            return result

        return wrapper

    def self_times(self, scale) -> dict[int, dict[str, float]]:
        """Per round, each span name's summed self time: its duration minus
        the durations of its direct children, times ``scale(start)``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, round_id) in enumerate(self.spans):
            totals[round_id][name] += ((end - start) - child_time[index]) * scale(start)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, round_id) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "run": round_id}) + "\n")


def _fused(args, kwargs, result):
    events = args[0] if args else kwargs["events"]
    return (("ingest.fuse_sources.in", len(events)), ("ingest.fuse_sources.out", len(result)))


def _kpi_sizes(args, kwargs, result):
    return (("network.load_kpis.series", len(result)),
            ("network.load_kpis.samples", sum(len(s.values) for s in result)))


def _written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return (("fsutil.atomic_write_text.bytes", len(text.encode("utf-8"))),)


def _geocoded(args, kwargs, result):
    return (("ingest.geocoder.queries", 1), ("ingest.geocoder.hits", int(result is not None)))


def _dropped_by(stage: str):
    return lambda args, kwargs, result: ((f"filtering.{stage}.dropped", len(result[1])),)


def install(tracer: Tracer) -> None:
    """Patch every traced name of the ``eventcell`` package (import it first)."""
    from eventcell import association, cli, filtering, ingest, network, scenario

    def patch(name, fn_owner, attr, owners, wrap, measure=None):
        wrapped = wrap(name, getattr(fn_owner, attr), measure)
        for owner in owners:
            setattr(owner, attr, wrapped)

    span, count = tracer.spanned, tracer.counted

    patch("cli.load_config", cli, "load_config", [cli], span)
    for stage in ("ingest", "filter", "associate", "analyze", "simulate"):
        command = getattr(cli, f"cmd_{stage}")
        command.callback = span(f"cli.cmd_{stage}", command.callback)

    for attr in ("fetch_raw", "parse_record", "consolidate", "write_events", "read_events"):
        patch(f"ingest.{attr}", ingest, attr, [ingest], span)
    patch("ingest.fuse_sources", ingest, "fuse_sources", [ingest], span, _fused)
    patch("ingest.geocoder", ingest.FixtureGeocoder, "resolve", [ingest.FixtureGeocoder],
          count, _geocoded)

    patch("filtering.run_filters", filtering, "run_filters", [filtering], span)
    for stage in ("availability", "geographic", "semantic", "temporal"):
        attr = f"filter_{stage}"
        patch(f"filtering.{attr}", filtering, attr, [filtering], span, _dropped_by(stage))
    patch("filtering.write_traces", filtering, "write_traces", [filtering], span)
    patch("filtering.normalize_text", filtering, "normalize_text", [filtering], count)

    patch("network.load_topology", network, "load_topology", [network], span)
    patch("network.load_kpis", network, "load_kpis", [network], span, _kpi_sizes)
    patch("network.write_kpis", network, "write_kpis", [network, scenario], span)
    patch("network.save_topology", network, "save_topology", [network, scenario], span)

    for attr in ("associate_geographic", "identify_causes", "correlate_event",
                 "aggregate_venue", "normalize_periodic"):
        patch(f"association.{attr}", association, attr, [association], span)
    patch("geo.haversine_km", association, "haversine_km",
          [association, filtering, scenario], count)
    patch("geo.initial_bearing_deg", association, "initial_bearing_deg", [association], count)

    patch("scenario.build", scenario, "build", [scenario], span)
    patch("fsutil.atomic_write_text", cli, "atomic_write_text",
          [cli, ingest, network, filtering, scenario], span, _written)
