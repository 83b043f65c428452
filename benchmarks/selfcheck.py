"""Tests of the benchmark's own checks.

    python3 benchmarks/selfcheck.py

1. For one task of every workload (and both input kinds of real-sweep),
   the untouched outputs must pass their checks, and every output moved by
   1e-6 in one coefficient (or, for an SPD verdict, changed in one field)
   must fail them.
2. ``run.py --workload all`` with a very short run length must finish
   every workload and print four correct results.
3. ``run.py`` in a directory holding only ``BENCHMARK.json`` and the
   benchmark must exit non-zero without printing a result.

Exits 0 when all of this holds.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

STEP = 1e-6


def perturbations(value):
    """Variants of a plain output, each wrong in one place."""
    if isinstance(value, np.ndarray):
        out = value.copy()
        out.flat[out.size // 2] += STEP
        return [out]
    if isinstance(value, list):  # implications
        return [value[:-1] if value else [("invented", "complex", 2, True, True)]]
    if "coeffs" in value:
        out = copy.deepcopy(value)
        out["coeffs"][out["coeffs"].size // 2] += STEP
        return [out]
    if "entries" in value:
        out = copy.deepcopy(value)
        key = max(out["entries"], key=lambda k: abs(out["entries"][k]))
        out["entries"][key] += STEP
        return [out]
    if "values" in value:
        out = copy.deepcopy(value)
        out["values"][out["values"].size // 2] += STEP
        return [out]
    if "diffs" in value:
        out = copy.deepcopy(value)
        out["diffs"] = out["diffs"] + [max(out["diffs"]) + 1]
        return [out]
    if "hits" in value:
        out = copy.deepcopy(value)
        k = max(out["hits"])
        out["hits"][k] = out["hits"][k][:-1] + (not out["hits"][k][-1],)
        return [out]
    # spd-check output: one variant per part
    variants = []
    for part in ("pattern", "verdicts", "implications"):
        for wrong in perturbations(value[part]):
            variants.append(dict(value, **{part: wrong}))
    return variants


def check_perturbations():
    failures = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        try:
            indices = (0, 1) if name == "real-sweep" else (0,)
            for index in indices:
                inp = workload.make_input(np.random.default_rng([1, index]), index)
                out = workload.plain(workload.run(inp).out)
                checker = oracles.Checker()
                workload.check(inp, out, checker)
                if not checker.ok:
                    failures.append(f"{name}: untouched outputs fail: {checker.failures[:3]}")
                tried = caught = 0
                for label, value in out.items():
                    if value is None:
                        continue
                    for wrong in perturbations(value):
                        checker = oracles.Checker()
                        workload.check(inp, dict(out, **{label: wrong}), checker)
                        tried += 1
                        caught += not checker.ok
                        if checker.ok:
                            failures.append(f"{name}: perturbed '{label}' passes its check")
                print(f"{name} input {index}: {caught} of {tried} perturbed outputs caught")
        finally:
            workload.close()
    return failures


def check_short_run():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--seconds", "0.01", "--seed", "3"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
    if proc.returncode != 0 or len(lines) != 4 or not all(x["correct"] for x in lines):
        return [f"short run: exit {proc.returncode}, {len(lines)} results"]
    print("short run: all four workloads finished and checked correct")
    return []


def check_without_program():
    workloads.RESULTS.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workloads.RESULTS))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                               "--workload", "real-sweep", "--seconds", "1"],
                              cwd=bare, stdout=subprocess.PIPE, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the program: exit {proc.returncode}, printed {proc.stdout!r}"]
    print(f"without the program: exit {proc.returncode}, nothing printed")
    return []


def main():
    failures = check_perturbations() + check_short_run() + check_without_program()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck passed" if not failures else f"selfcheck: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
