"""One fresh worker process of the benchmark: set-up, warm-up, timed loop.

``run.py`` starts this with the workload, the seed and the monotonic time
just before it started the process, so ``setup_s`` covers the interpreter
start, the imports, the input generation and one untimed warm-up task. A
``probe`` worker stops there; the ``main`` worker then runs tasks in a
closed loop until ``--seconds`` have passed, checks every output, and
prints one JSON line for ``run.py``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads; run.py sets them too

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: inputs are made for this many tasks in set-up and reused in turn
INPUT_POOL = 64
#: the warm-up task's input index, outside the pool
WARMUP_INDEX = 1 << 20
#: a traced run reports the mean over its first this many tasks, and runs
#: on past --seconds until it has them, so that for one seed its counts
#: repeat exactly however fast the machine is
TRACE_TASKS = 8


_REPORTED = set()


def _cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _run_task(workload, inp, checker, tracer, label, timed):
    """One task; returns (wall s, cpu s, attempted, failed)."""
    root = tracer.begin_task(label) if tracer else None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    ops = workload.run(inp)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if tracer:
        tracer.end_task(root, timed)
    workload.check(inp, workload.plain(ops.out), checker)
    for op, why in ops.failed.items():
        if (op, why) not in _REPORTED:  # once per process: it recurs every task
            _REPORTED.add((op, why))
            print(f"[{workload.name}] {op} failed: {why}", file=sys.stderr)
    return wall, cpu, len(ops.out), len(ops.failed)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "main"), default="main")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")  # under-resolution notes are not failures here
    workloads.RESULTS.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](tracer)
    checker = oracles.Checker()
    try:
        pool = [workload.make_input(np.random.default_rng([args.seed, i]), i)
                for i in range(INPUT_POOL)]
        warm = workload.make_input(np.random.default_rng([args.seed, WARMUP_INDEX]),
                                   WARMUP_INDEX)
        _run_task(workload, warm, checker, tracer, "bench.warmup", timed=False)
        gc.collect()
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "correct": checker.ok}
        if args.role == "main":
            walls, cpus, attempted, failed = [], [], 0, 0
            start = time.perf_counter()
            while (not walls or time.perf_counter() - start < args.seconds
                   or (tracer and len(walls) < TRACE_TASKS)):
                inp = pool[len(walls) % INPUT_POOL]
                wall, cpu, n_ops, n_failed = _run_task(
                    workload, inp, checker, tracer, "bench.task",
                    timed=len(walls) < TRACE_TASKS)
                walls.append(wall)
                cpus.append(cpu)
                attempted += n_ops
                failed += n_failed
            usage = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli-chain"
                else resource.RUSAGE_SELF)
            result.update({
                "correct": checker.ok,
                "task_wall_s": walls,
                "task_cpu_s": cpus,
                "attempted": attempted,
                "failed": failed,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "worst_errors": checker.worst,
            })
            if tracer:
                result["layers"] = tracer.per_task()
                result["absent"] = tracer.absent
                result["traced_tasks_per_s"] = len(walls) / sum(walls)
                trace_path = workloads.RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
                tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                         "tasks": len(walls)})
                result["trace_file"] = str(trace_path)
        for failure in checker.failures[:20]:
            print(f"[{args.workload}] check failed: {failure}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
