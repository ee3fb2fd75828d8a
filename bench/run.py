"""eventcell benchmark: one run of one workload.

    python3 bench/run.py --workload feed_ingest --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; ``src/`` is used as is, nothing
is installed. It generates the workload's inputs from ``--seed`` under
``.bench_work/``, measures set-up time over several fresh interpreters,
then starts one fresh worker process (worker.py) that runs the workload for
``--seconds`` and checks every output. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it records the machine. Each result is also
appended to ``.bench_out/results.jsonl``; traced runs write their spans to
``.bench_out/spans-<workload>-<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import gauge
import inputs

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("feed_ingest", "city_analyze", "detection_sweep")
SETUP_STARTS = 5
TIME_LIMIT_S = 170.0  # the whole run, generation and set-up included
SETUP_PROBE = "import sys; from eventcell.cli import load_config; load_config(sys.argv[1])"
SHARED_NOTE = ("The host may be shared with other tenants; caches and CPUs cannot be "
               "pinned. On a shared 2-vCPU KVM guest (Xeon, 2.1 GHz) raw wall-time medians "
               "of one workload spread by 15-45% between runs, so compare medians over "
               "many runs, not single numbers.")


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _cli(args: list[str], env: dict, timeout: float) -> None:
    """Run the eventcell CLI in its own interpreter (used to prepare inputs)."""
    code = "import sys; from eventcell.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=timeout)


def setup_seconds(config: Path, env: dict) -> tuple[float, list[float]]:
    """Median time of fresh interpreters that import eventcell.cli and load
    the workload's config, which every CLI call pays before working: in
    reference seconds (see gauge.py), with the wall times of every start."""
    speed = gauge.Gauge()
    scaled, wall = [], []
    for _ in range(SETUP_STARTS):
        speed.read()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=30)
        end = perf_counter()
        wall.append(end - start)
        scaled.append((start, end))
    speed.read()
    return statistics.median((e - s) * speed.scale(s, e) for s, e in scaled), wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = perf_counter()
    if not (ROOT / "src" / "eventcell" / "cli.py").is_file():
        print(f"error: no eventcell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _environment()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.workload == "detection_sweep":
            _cli(["simulate", "--preset", "detection", "--seed", str(args.seed),
                  "--out", str(work / "setup")], env, timeout=60)
            config = work / "setup" / "config.json"
        else:
            inputs.GENERATORS[args.workload](args.seed, work)
            config = work / "config.json"
        setup_s, setup_wall = setup_seconds(config, env)

        result_path = work / "result.json"
        command = [sys.executable, str(Path(__file__).with_name("worker.py")),
                   "--workload", args.workload, "--work", str(work), "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--result", str(result_path)]
        if args.trace:
            command += ["--spans", str(out / f"spans-{args.workload}-{args.seed}.jsonl")]
        worker = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                                timeout=max(TIME_LIMIT_S - (perf_counter() - began), 1.0))
        if worker.returncode != 0:
            print(f"error: worker exited {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "platform": platform.platform()}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    with (out / "results.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "wall_s": {"setup": setup_wall, **result["wall_s"]},
                                 "calls": result["calls"], "readings": result["readings"],
                                 "machine": machine,
                                 "failures": result["failures"], "top1_rate": result["top1_rate"],
                                 **line}) + "\n")
    wall = {name: statistics.median(values)
            for name, values in {"setup": setup_wall, **result["wall_s"]}.items() if values}
    info = {"machine": machine, "bundles": len(result["wall_s"]["pipeline"]),
            "wall_median_s": wall, "note": SHARED_NOTE}
    if result["top1_rate"] is not None:
        info["top1_rate"] = result["top1_rate"]
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
