"""Host-speed gauge: times a fixed pure-Python kernel between measured calls.

The benchmark runs on a shared host whose effective CPU speed switches
between regimes about 1.5x to 1.9x apart, for seconds to minutes at a time,
in wall and CPU time alike (measured on a 2-vCPU KVM guest, Xeon at 2.1 GHz,
Python 3.11). A run that lands in a slow regime reads that much slower for
reasons unrelated to the program. The gauge times the same small kernel
(CSV parsing, timestamp parsing, dict and list work, an edit distance, JSON
encoding: the kinds of work the pipeline does) between measured calls, and
each call's wall time is scaled by ``REFERENCE_S`` over the kernel's time
around it. The result is in seconds at the reference speed: on the
reference host in its fast regime it equals the wall time.
"""
from __future__ import annotations

import bisect
import csv
import json
import statistics
from datetime import datetime
from time import perf_counter

from inputs import edit_distance

# The kernel's time on the reference host named above, in its fast regime.
REFERENCE_S = 0.0065
# Readings are taken in threes, before a call once this long has passed
# since the last ones, and after every round.
READING_GAP_S = 0.5
READINGS_PER_POINT = 3
# A call is scaled by the median of the readings up to this long before its
# start or after its end: regime changes over seconds are followed, while
# single readings, which scatter by tens of percent, are outvoted.
WINDOW_S = 5.0

_ROWS = [f"S{k % 200:03d}{'ABC'[k % 3]},NUM_DROPS,2017-03-{1 + k % 28:02d}T{k % 24:02d}:00:00Z,"
         f"{k * 0.37:.3f}" for k in range(6000)]
_NAMES = [("moonlight jazz festival", "velvet tango soiree"),
          ("harbor opera gala", "harbour opera galas")]


def _kernel() -> int:
    series: dict[tuple[str, str], list[float]] = {}
    for cell, metric, stamp, value in csv.reader(_ROWS):
        datetime.fromisoformat(stamp[:-1])
        series.setdefault((cell, metric), []).append(float(value))
    distance = sum(edit_distance(a, b) for a, b in _NAMES)
    text = json.dumps([{"CELL_ID": key[0], "N": len(v)} for key, v in series.items()])
    return distance + len(text)


class Gauge:
    """Readings of the kernel's duration, each stamped with when it ended."""

    def __init__(self):
        self._ends: list[float] = []
        self.durations: list[float] = []

    def read(self) -> None:
        for _ in range(READINGS_PER_POINT):
            start = perf_counter()
            _kernel()
            end = perf_counter()
            self._ends.append(end)
            self.durations.append(end - start)

    def readings(self) -> list[tuple[float, float]]:
        """Every reading as (end time, duration)."""
        return list(zip(self._ends, self.durations))

    def read_if_due(self) -> None:
        if not self._ends or perf_counter() - self._ends[-1] >= READING_GAP_S:
            self.read()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reading near the interval [start, end]."""
        low = bisect.bisect_left(self._ends, start - WINDOW_S)
        high = bisect.bisect_right(self._ends, end + WINDOW_S)
        if low == high:  # no reading in the window: take the nearest ones
            low, high = max(low - READINGS_PER_POINT, 0), low + READINGS_PER_POINT
        return REFERENCE_S / statistics.median(self.durations[low:high])
