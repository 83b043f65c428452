"""Benchmark of the schoenberg library: four workloads, each in fresh workers.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload this starts ``SETUP_SAMPLES`` fresh worker processes one
after another. Each worker imports the package from ``src/`` (nothing is
installed), makes its seeded inputs and runs one checked warm-up task; the
median of their set-up times is ``setup_s``. The last worker then runs the
timed closed loop. OpenBLAS and OpenMP are pinned to one thread in every
process started. With ``--trace 1`` a single worker runs with the
program's public functions wrapped, and the per-layer metrics are reported
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--workload
all`` there is one such line per workload. The exit code is 0 when every
output checked correct, 1 when one did not, 2 when a run could not finish.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("real-sweep", "walk-ladder", "disk-spd", "cli-chain")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
#: fresh workers per timed run; set-up is the median over all of them
SETUP_SAMPLES = 3
#: a worker that runs longer than this is stopped and the run fails
WORKER_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_cpu_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RunFailed(Exception):
    pass


def _worker(workload, seed, seconds, trace, role):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--role", role]
    env = dict(os.environ, **PINNED)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunFailed(f"{workload} worker timed out") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns the result object printed for it."""
    if trace:
        main = _worker(workload, seed, seconds, 1, "main")
        metrics = {name: {"value": main["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
        print(f"[{workload}] traced tasks_per_s {main['traced_tasks_per_s']:.4f} 1/s; "
              f"absent: {main['absent'] or 'none'}; spans in {main['trace_file']}",
              file=sys.stderr)
        correct = main["correct"]
    else:
        probes = [_worker(workload, seed, seconds, 0, "probe")
                  for _ in range(SETUP_SAMPLES - 1)]
        main = _worker(workload, seed, seconds, 0, "main")
        walls, cpus = main["task_wall_s"], main["task_cpu_s"]
        values = {
            "tasks_per_s": len(walls) / sum(walls),
            "task_p50_ms": statistics.median(walls) * 1e3,
            "task_cpu_p50_ms": statistics.median(cpus) * 1e3,
            "setup_s": statistics.median([w["setup_s"] for w in probes + [main]]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        correct = main["correct"] and all(p["correct"] for p in probes)
    result = {"correct": correct, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  task_wall_s=main["task_wall_s"], task_cpu_s=main["task_cpu_s"],
                  worst_errors=main["worst_errors"])
    with open(RESULTS / f"result-{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schoenberg" / "__init__.py").is_file():
        print(f"error: no schoenberg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            for metric, m in result["metrics"].items():
                print(f"{name:12s} {metric:36s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:12s} attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}")
            results.append(result)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
