"""Acceptance suite: one test per gate criterion, each at its stated
tolerance, printing one PASS line on success (run with -s to see them all).
"""
import json
import math
import random
import string
import time
from datetime import timedelta

import numpy as np

from eventcell.association import Eaw, build_eaw, identify_causes, pearson, social_indicator
from eventcell.cli import main
from eventcell.geo import EARTH_RADIUS_KM, angle_offset_deg, haversine_km
from eventcell.ingest import fuse_sources, normalize_text
from eventcell.network import normalize_periodic
from eventcell.scenario import build, detection_spec

from conftest import T0, hourly_series, make_event, similarity


def _ok(name, detail=""):
    print(f"PASS {name}: {detail}")


# 1 ---------------------------------------------------------------------------

def test_table1_reproduction(tmp_path, capsys):
    """analyze --cell CELL_1A on the curated bundle: VENUE_L ranked first and
    the only flagged venue; aggregate |r| = 0.83/0.73/0.84 within +-0.05;
    under 5 seconds."""
    started = time.monotonic()
    bundle_dir = tmp_path / "bundle"
    out_dir = tmp_path / "out"
    assert main(["simulate", "--preset", "table1", "--out", str(bundle_dir)]) == 0
    config = str(bundle_dir / "config.json")
    assert main(["ingest", "--config", config, "--out", str(out_dir)]) == 0
    assert main(["analyze", "--config", config, "--cell", "CELL_1A",
                 "--threshold", "0.7", "--out", str(out_dir)]) == 0
    elapsed = time.monotonic() - started

    report = json.loads((out_dir / "report.json").read_text())
    records = report["records"]
    assert records[0]["VENUE"] == "VENUE_L"
    assert [r["VENUE"] for r in records if r["FLAGGED"]] == ["VENUE_L"]
    top = {c["METRIC"]: c["R"] for c in records[0]["CORRELATED_CELLS"]}
    expected = {"NUM_RRC_CONN": 0.83, "NUM_DROPS": 0.73, "DL_USER_THR": 0.84}
    for metric, value in expected.items():
        assert abs(top[metric] - value) <= 0.05, (metric, top[metric])
    assert elapsed < 5.0
    capsys.readouterr()
    _ok("table1 reproduction",
        f"rank1=VENUE_L, |r|={top['NUM_RRC_CONN']:.2f}/{top['NUM_DROPS']:.2f}/"
        f"{top['DL_USER_THR']:.2f}, {elapsed:.2f}s")


# 2 ---------------------------------------------------------------------------

def test_funnel_counts(tmp_path, capsys):
    """Ingest fixture yields exactly 2200 events / 600 venues; the filter
    stage keeps exactly 1768 events / 507 venues."""
    bundle_dir = tmp_path / "bundle"
    out_dir = tmp_path / "out"
    assert main(["simulate", "--preset", "funnel", "--out", str(bundle_dir)]) == 0
    config = str(bundle_dir / "config.json")
    assert main(["ingest", "--config", config, "--out", str(out_dir)]) == 0
    ingest_out = capsys.readouterr().out
    assert "fetched: 2200" in ingest_out
    assert "fused: 2200" in ingest_out
    assert "venues: 600" in ingest_out
    assert main(["filter", "--config", config, "--out", str(out_dir)]) == 0
    filter_out = capsys.readouterr().out
    assert "kept: 1768" in filter_out
    assert "venues: 507" in filter_out
    assert "dropped: 432" in filter_out
    kept_lines = (out_dir / "filtered.ndjson").read_text().strip().splitlines()
    assert len(kept_lines) == 1768
    _ok("funnel counts", "2200/600 fetched, 1768/507 kept")


# 3 ---------------------------------------------------------------------------

def test_geodesy_suite():
    """Haversine matches analytic arcs on 10 hand-derivable pairs within
    0.1%; bearing-offset wraparound is exact."""
    quarter = EARTH_RADIUS_KM * math.pi / 2.0
    pairs = [
        ((0.0, 0.0), (0.0, 90.0), quarter),
        ((0.0, 0.0), (90.0, 0.0), quarter),
        ((0.0, 0.0), (-90.0, 0.0), quarter),
        ((0.0, 0.0), (0.0, 180.0), 2 * quarter),
        ((20.0, 30.0), (-20.0, -150.0), 2 * quarter),
        ((10.0, 25.0), (30.0, 25.0), EARTH_RADIUS_KM * math.radians(20.0)),
        ((-45.0, -120.0), (45.0, -120.0), EARTH_RADIUS_KM * math.radians(90.0)),
        ((0.0, -10.0), (0.0, 35.0), EARTH_RADIUS_KM * math.radians(45.0)),
        ((36.7201, -4.4203), (36.7251, -4.4203), EARTH_RADIUS_KM * math.radians(0.005)),
        ((60.0, 100.0), (60.5, 100.0), EARTH_RADIUS_KM * math.radians(0.5)),
    ]
    assert len(pairs) == 10
    for a, b, expected in pairs:
        got = haversine_km(a, b)
        assert abs(got - expected) <= 0.001 * expected + 1e-12, (a, b)
    assert angle_offset_deg(350.0, 10.0) == 20.0
    assert angle_offset_deg(10.0, 350.0) == 20.0
    assert angle_offset_deg(180.0, 0.0) == 180.0
    _ok("geodesy suite", "10 analytic pairs within 0.1%, wraparound exact")


# 4 ---------------------------------------------------------------------------

def test_correlation_oracle():
    """pearson matches the textbook-formula oracle on 1000 random pairs
    (length 3..50) within 1e-10; degenerate inputs are flagged undefined."""

    def oracle(x, y):
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
        vx = sum((a - mx) ** 2 for a in x)
        vy = sum((b - my) ** 2 for b in y)
        return cov / math.sqrt(vx * vy)

    rng = np.random.default_rng(20170301)
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        x = rng.normal(0, rng.uniform(0.5, 20), size=n)
        y = rng.normal(0, rng.uniform(0.5, 20), size=n)
        got = pearson(x, y)
        want = oracle(list(x), list(y))
        assert got is not None and abs(got - want) <= 1e-10

    assert pearson([3.0, 3.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]) is None
    assert pearson([1.0, 2.0], [3.0, 4.0]) is None
    assert pearson([1.0, np.nan, 2.0, np.nan], [1.0, 2.0, 3.0, 4.0]) is None
    _ok("correlation oracle", "1000 pairs within 1e-10, undefined cases flagged")


# 5 ---------------------------------------------------------------------------

def test_indicator_self_correlation():
    """pearson(s, s) = 1 within 1e-12 for every EAW length 3..100; the
    profile is symmetric and decays monotonically from the midpoint."""
    for length in range(3, 101):
        samples = social_indicator(Eaw(0, length - 1))
        r = pearson(samples, samples)
        assert r is not None and abs(r - 1.0) <= 1e-12
        np.testing.assert_allclose(samples, samples[::-1], atol=1e-12)
        rising = samples[: (length + 1) // 2]
        assert np.all(np.diff(rising) > 0)
        assert np.all(samples > 0) and np.all(samples <= 1.0)
    _ok("indicator self-correlation", "lengths 3..100 at 1e-12")


# 6 ---------------------------------------------------------------------------

def test_detection_power():
    """100 seeded scenarios (1 causal venue, 12 decoys, moderate noise):
    causal venue top-1 in >= 95 and flagged above 0.7 in >= 90; < 60 s."""
    started = time.monotonic()
    top1 = 0
    strong = 0
    for seed in range(100):
        bundle = build(detection_spec(seed))
        truth = bundle.ground_truth["events"][0]
        causal_key = normalize_text(truth["venue"])
        cell = next(c for c in bundle.cells if c.cell_id == truth["causal_cells"][0])
        candidates = identify_causes(cell, bundle.events, bundle.sites, bundle.series)
        if candidates and candidates[0].venue_key == causal_key:
            top1 += 1
        causal = next((c for c in candidates if c.venue_key == causal_key), None)
        if causal is not None and causal.best_score > 0.7:
            strong += 1
    elapsed = time.monotonic() - started
    assert top1 >= 95, f"top-1 in only {top1}/100 scenarios"
    assert strong >= 90, f"|r| > 0.7 in only {strong}/100 scenarios"
    assert elapsed < 60.0
    _ok("detection power", f"top1={top1}/100, strong={strong}/100, {elapsed:.1f}s")


# 7 ---------------------------------------------------------------------------

def _random_event_pool(rng):
    words = ["rock", "jazz", "opera", "derby", "fair", "parade", "market",
             "forum", "rally", "picnic", "regatta", "festival"]
    events = []
    n_base = rng.randint(3, 12)
    for i in range(n_base):
        name = f"{rng.choice(words).title()} {rng.choice(words)} {i}"
        start = T0 + timedelta(minutes=rng.randint(0, 7 * 24 * 60))
        event = make_event(raw_id=f"b{i}", source_id=f"s{rng.randint(0, 2)}",
                           name=name, start=start,
                           popularity=rng.choice([None, float(rng.randint(1, 999))]))
        events.append(event)
        for j in range(rng.randint(0, 3)):  # inject perturbed duplicates
            perturbed = name.upper() if rng.random() < 0.5 else name + "!"
            if len(normalize_text(name)) >= 10 and rng.random() < 0.5:
                chars = list(perturbed)
                chars[rng.randrange(len(chars))] = rng.choice(string.ascii_lowercase)
                perturbed = "".join(chars)
            if similarity(perturbed, name) < 0.85:
                perturbed = name  # keep the pair inside the merge criterion
            jitter = timedelta(minutes=rng.randint(-30, 30))
            events.append(make_event(raw_id=f"d{i}-{j}", source_id=f"s{rng.randint(0, 2)}",
                                     name=perturbed, start=start + jitter,
                                     popularity=rng.choice([None, float(rng.randint(1, 999))])))
    return events


def test_fusion_properties():
    """500 randomized duplicate-injected pools: fusion is idempotent and
    permutation-invariant, never grows the list, with zero violations."""
    rng = random.Random(987)
    priorities = {"s0": 0, "s1": 1, "s2": 2}
    violations = 0
    for _ in range(500):
        events = _random_event_pool(rng)
        fused = fuse_sources(events, priorities=priorities)
        if fuse_sources(fused, priorities=priorities) != fused:
            violations += 1
            continue
        shuffled = list(events)
        rng.shuffle(shuffled)
        if fuse_sources(shuffled, priorities=priorities) != fused:
            violations += 1
            continue
        if len(fused) > len(events):
            violations += 1
    assert violations == 0
    _ok("fusion properties", "500 cases, zero violations")


# 8 ---------------------------------------------------------------------------

def test_normalization():
    """Pure-periodic signals leave residuals <= 1e-9; an injected spike is
    recovered at the generator amplitude within noise bounds."""
    daily = np.array([50 + 20 * math.sin(2 * math.pi * h / 24) for h in range(24)])
    pure = hourly_series(np.tile(daily, 14))
    for hint in ("hour_of_day", "hour_of_week"):
        residual = normalize_periodic(pure, hint).values
        assert np.nanmax(np.abs(residual)) <= 1e-9

    # zero-noise scenario: residual equals the injected Gaussian exactly
    bundle = build(detection_spec(31, noise_scale=0.0))
    truth = bundle.ground_truth["events"][0]
    cell_id = truth["causal_cells"][0]
    drops = next(s for s in bundle.series if s.cell_id == cell_id and s.metric == "NUM_DROPS")
    residual = normalize_periodic(drops, "hour_of_day").values
    event = next(e for e in bundle.events if e.event_id == truth["event_id"])
    eaw = build_eaw(event, drops)
    mu = (eaw.n_start + eaw.n_end) / 2.0
    sigma = len(eaw) / 6.0
    expected = 8.0 * np.exp(-((np.arange(len(drops.values)) - mu) ** 2) / (2 * sigma * sigma))
    np.testing.assert_allclose(residual, expected, atol=1e-9)

    # moderate noise: the recovered peak stays within 5 sigma of the formula peak
    noisy_bundle = build(detection_spec(31))
    noisy = next(
        s for s in noisy_bundle.series if s.cell_id == cell_id and s.metric == "NUM_DROPS"
    )
    noisy_residual = normalize_periodic(noisy, "hour_of_day").values
    peak = np.nanmax(noisy_residual)
    assert abs(peak - expected.max()) <= 5 * 0.8
    _ok("normalization", "periodic residual <= 1e-9, spike amplitude recovered")
