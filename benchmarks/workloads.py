"""The four workloads: seeded inputs, one task's program calls, its checks.

A task is one round of a closed loop with one caller: the next task starts
when the last one ends. Within a workload every task makes the same calls
at the same sizes on different seeded inputs, so tasks cost the same and
every count the trace records is the same in every task.

Each workload has ``make_input(rng, index)`` (set-up, untimed), ``run(inp)``
(the timed program calls, returning an ``Ops``), ``plain(outputs)`` (the
outputs as dicts of numpy arrays, untimed) and ``check(inp, plain,
checker)`` (against ``oracles``, untimed).
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracles as orc
import schoenberg as sb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


class Ops:
    """Runs a task's program calls in order, recording each result or failure.

    A call that raises is counted as failed and its result is None, so the
    calls that depend on it fail in turn: every task attempts every call.
    """

    def __init__(self):
        self.out = {}
        self.failed = {}

    def __call__(self, label, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:  # counted per operation; the run goes on
            self.failed[label] = f"{type(exc).__name__}: {exc}"
            result = None
        self.out[label] = result
        return result


def _seeded_weights(rng, size):
    w = rng.uniform(0.0, 1.0, size)
    return w / w.sum()


def plain(value):
    """A program output as plain data the oracles can read (and perturb)."""
    if value is None:
        return None
    if isinstance(value, sb.RealSchoenbergSequence):
        return {"d": value.d, "coeffs": np.array(value.coeffs)}
    if isinstance(value, sb.ComplexSchoenbergSequence):
        return {"q": value.q, "max_degree": value.max_degree, "entries": dict(value.entries)}
    if isinstance(value, sb.SupportPattern):
        return {"diffs": sorted(value.diffs), "truncation": value.truncation}
    if isinstance(value, sb.SpdReport):
        return {"hits": dict(value.hits), "violations": [tuple(v) for v in value.violations],
                "summary": value.summary}
    if isinstance(value, tuple):
        return [(i.rule, i.conclusion.space, i.conclusion.dim, i.conclusion.member,
                 i.conclusion.strict) for i in value]
    return np.array(value)


class Workload:
    """Defaults shared by the in-process workloads.

    With a tracer, ``wrap`` puts a span around each callable the workload
    hands to the program.
    """

    def __init__(self, tracer=None):
        self.wrap = tracer.callable if tracer else (lambda fn: fn)

    def plain(self, out):
        return {label: plain(value) for label, value in out.items()}

    def close(self):
        pass


class RealSweep(Workload):
    """compute_real_coeffs then reconstruct at d in {1, 2, 3, 5}, N in {64, 512}.

    Rule construction is almost all the work (leggauss(1056) alone takes
    0.15 s) and the rule sizes repeat from task to task, so a rule cache or
    a faster rule builder shows here. Even tasks take a Poisson kernel,
    odd tasks a Gegenbauer mixture built from a seeded sequence.
    """

    name = "real-sweep"
    dims = (1, 2, 3, 5)
    sizes = (64, 512)
    mix_degree = 16
    theta = np.linspace(0.0, math.pi, 2000)

    def make_input(self, rng, index):
        if index % 2 == 0:
            r = float(rng.uniform(0.2, 0.6))
            psi = orc.poisson(r)
            return {"kind": "poisson", "r": r, "fns": {d: psi for d in self.dims}}
        b = _seeded_weights(rng, self.mix_degree + 1)
        return {"kind": "mixture", "b": b,
                "fns": {d: orc.real_mixture(b, d) for d in self.dims}}

    def run(self, inp):
        ops = Ops()
        for d in self.dims:
            fn = self.wrap(inp["fns"][d])
            for n in self.sizes:
                seq = ops(f"coeffs d={d} N={n}", sb.compute_real_coeffs, fn, d, n)
                ops(f"reconstruct d={d} N={n}", sb.reconstruct, seq, self.theta)
        return ops

    def check(self, inp, out, checker):
        for d in self.dims:
            fn = inp["fns"][d]
            for n in self.sizes:
                label = f"coeffs d={d} N={n}"
                seq = out[label]
                if seq is not None:
                    if inp["kind"] == "mixture":
                        orc.check_real_mixture(checker, label, seq, inp["b"])
                    elif d in (1, 3):
                        orc.check_real_closed_form(checker, label, seq, inp["r"])
                    else:
                        orc.check_real_series(checker, label, seq, fn)
                label = f"reconstruct d={d} N={n}"
                if out[label] is not None:
                    orc.check_reconstruct(checker, label, self.theta, out[label], fn)


class WalkLadder(Workload):
    """Walks 1->3->5->7 and 2->4->6->8 at N = 1199 and back, then 8->3.

    walk_down is O(N^2) Python and does almost all the work; almost no
    quadrature runs (one 432-node rule for cross_project), so a quadrature
    change must not move this workload.
    """

    name = "walk-ladder"
    truncation = 1199
    pad = 6  # three forward walks eat two entries each
    steps = 3
    project_truncation = 200
    project_from, project_to = 8, 3

    def make_input(self, rng, index):
        inp = {}
        for start_d in (1, 2):
            coeffs = np.concatenate([
                _seeded_weights(rng, self.truncation + 1 - self.pad), np.zeros(self.pad)])
            inp[start_d] = (coeffs, sb.RealSchoenbergSequence(start_d, coeffs))
        coeffs = _seeded_weights(rng, self.project_truncation + 1)
        inp["project"] = (coeffs, sb.RealSchoenbergSequence(self.project_from, coeffs))
        return inp

    def run(self, inp):
        ops = Ops()
        for start_d in (1, 2):
            seq = inp[start_d][1]
            for step in range(1, self.steps + 1):
                seq = ops(f"walk_up d={start_d} step={step}", sb.walk_up, seq)
            for step in range(self.steps, 0, -1):
                seq = ops(f"walk_down d={start_d} step={step}", sb.walk_down, seq)
        ops(f"cross_project {self.project_from}->{self.project_to}", sb.cross_project,
            inp["project"][1], self.project_to)
        return ops

    def check(self, inp, out, checker):
        for start_d in (1, 2):
            coeffs = inp[start_d][0]
            fn = orc.real_mixture(coeffs, start_d)
            below = {0: {"d": start_d, "coeffs": coeffs}}
            for step in range(1, self.steps + 1):
                label = f"walk_up d={start_d} step={step}"
                below[step] = out[label]
                if out[label] is not None:
                    orc.check_real_series(checker, label, out[label], fn)
            for step in range(self.steps, 0, -1):
                label = f"walk_down d={start_d} step={step}"
                if out[label] is not None and below[step - 1] is not None:
                    orc.check_real_roundtrip(checker, label, out[label], below[step - 1])
        label = f"cross_project {self.project_from}->{self.project_to}"
        if out[label] is not None:
            fn = orc.real_mixture(inp["project"][0], self.project_from)
            orc.check_real_series(checker, label, out[label], fn)


def _squared_modulus(z):
    return np.abs(z) ** 2


class DiskSpd(Workload):
    """Disk coefficients at q = 5 and 3 (M = 32), walks, SPD verdicts, reconstruction.

    The O(M^5) disk_poly_eval loop does almost all the work. Each task also
    computes |z|^2 at q = 100, which fails today: the disk rule's radial
    weight (1 - s)^98 underflows to 0 and the rule is refused.
    """

    name = "disk-spd"
    q_high, q_low = 5, 3
    max_degree = 32
    mix_degree = 8
    mix_terms = 5
    failing_q = 100
    failing_degree = 6
    recon_z = (
        np.linspace(0.0, 1.0, 20)[:, None]
        * np.exp(2j * math.pi * np.arange(40) / 40)[None, :]
    ).ravel()

    def make_input(self, rng, index):
        pairs = [(m, n) for m in range(self.mix_degree + 1)
                 for n in range(self.mix_degree + 1 - m)]
        chosen = rng.choice(len(pairs), size=self.mix_terms, replace=False)
        weights = rng.uniform(0.1, 1.0, self.mix_terms)
        entries = {pairs[i]: float(w) for i, w in zip(chosen, weights / weights.sum())}
        return {"entries": entries, "fn": orc.disk_mixture(entries, self.q_high)}

    def run(self, inp):
        ops = Ops()
        fn = self.wrap(inp["fn"])
        ops(f"coeffs q={self.q_high}", sb.compute_complex_coeffs, fn, self.q_high, self.max_degree)
        low = ops(f"coeffs q={self.q_low}", sb.compute_complex_coeffs, fn, self.q_low,
                  self.max_degree)
        up = ops("walk_up_complex 3->4", sb.walk_up_complex, low)
        ops("walk_down_complex 4->3", sb.walk_down_complex, up)
        ops("walk_down_complex 3->2", sb.walk_down_complex, low)
        pattern = ops("support_pattern", sb.support_pattern, low)
        report = ops("check_progressions", sb.check_progressions, pattern)
        ops("transfer_class", sb.transfer_class, low, report, self.q_low - 1)
        ops("reconstruct_complex", sb.reconstruct_complex, low, self.recon_z)
        ops(f"|z|^2 q={self.failing_q}", sb.compute_complex_coeffs,
            self.wrap(_squared_modulus), self.failing_q, self.failing_degree)
        return ops

    def check(self, inp, out, checker):
        fn = inp["fn"]
        diffs = sorted({m - n for (m, n) in inp["entries"]})
        label = f"coeffs q={self.q_high}"
        if out[label] is not None:
            orc.check_disk_entries(checker, label, out[label], inp["entries"],
                                   orc.TOL_DISK_MIXTURE)
        low = out[f"coeffs q={self.q_low}"]
        for label in (f"coeffs q={self.q_low}", "walk_up_complex 3->4",
                      "walk_down_complex 3->2"):
            if out[label] is not None:
                orc.check_disk_series(checker, label, out[label], fn)
        label = "walk_down_complex 4->3"
        if out[label] is not None and low is not None:
            orc.check_disk_roundtrip(checker, label, out[label], low)
        if out["support_pattern"] is not None:
            orc.check_pattern(checker, "support_pattern", out["support_pattern"], diffs)
        if out["check_progressions"] is not None:
            orc.check_verdicts(checker, "check_progressions", out["check_progressions"],
                               diffs, self.max_degree)
        if out["transfer_class"] is not None:
            violated = bool(orc.residue_scan(diffs, self.max_degree)["violations"])
            orc.check_transfer(checker, "transfer_class", out["transfer_class"], violated,
                               self.q_low - 1)
        if out["reconstruct_complex"] is not None:
            checker.close("reconstruct_complex", out["reconstruct_complex"],
                          fn(self.recon_z), orc.TOL_DISK_RECONSTRUCT)
        label = f"|z|^2 q={self.failing_q}"
        if out[label] is not None:
            orc.check_squared_modulus(checker, label, out[label])


def _real_json(data):
    return {"d": data["d"], "coeffs": np.array(data["coeffs"], dtype=float)}


def _complex_json(data):
    return {"q": data["q"], "max_degree": data["max_degree"],
            "entries": {(m, n): v for m, n, v in data["entries"]}}


def _spd_json(data):
    verdicts = data["verdicts"]
    return {
        "pattern": {"diffs": data["pattern"]["diffs"],
                    "truncation": data["pattern"]["truncation"]},
        "verdicts": {"hits": {int(k): tuple(v) for k, v in verdicts["hits"].items()},
                     "violations": [tuple(v) for v in verdicts["violations"]],
                     "summary": verdicts["summary"]},
        "implications": data["implications"],
    }


def _reconstruct_json(data):
    return {"theta": np.array(data["theta"]), "values": np.array(data["values"])}


class CliChain(Workload):
    """Nine ``python -m schoenberg.cli`` processes exchanging JSON files.

    The one-shot user: every process starts with empty caches, so a rule
    cache gains nothing here, work moved to import time costs this
    workload, and JSON I/O is measured only here. The disk half starts
    from a seeded monomial z^m conj(z)^n, whose expansion the benchmark
    can evaluate itself; the CLI's disk-mixture family draws its sequence
    inside the program, out of the oracles' reach.
    """

    name = "cli-chain"
    d = 3
    truncation = 400
    q = 3
    max_degree = 24
    grid = 361

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=RESULTS))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = self._process
        if tracer is not None:
            self.process = tracer.wrap("bench.cli_process", self._process)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def make_input(self, rng, index):
        r = float(rng.uniform(0.2, 0.6))
        total = int(rng.integers(1, 7))
        m = int(rng.integers(0, total + 1))
        return {"r": r, "m": m, "n": total - m}

    def chain(self, inp):
        """(label, argv, output file) for each process, in order."""
        return [
            ("coeffs", ["coeffs", "--family", "poisson", "--r", repr(inp["r"]),
                        "--d", str(self.d), "--N", str(self.truncation)], "a.json"),
            ("walk-up", ["walk-up", "--in", "a.json"], "b.json"),
            ("walk-down", ["walk-down", "--in", "b.json"], "c.json"),
            ("project", ["project", "--in", "c.json", "--d-prime", "2"], "d.json"),
            ("reconstruct", ["reconstruct", "--in", "d.json", "--grid", str(self.grid)],
             "e.json"),
            ("ccoeffs", ["ccoeffs", "--family", "disk-monomial", "--m", str(inp["m"]),
                         "--n", str(inp["n"]), "--q", str(self.q), "--M",
                         str(self.max_degree)], "f.json"),
            ("cwalk-up", ["cwalk-up", "--in", "f.json"], "g.json"),
            ("cwalk-down", ["cwalk-down", "--in", "g.json"], "h.json"),
            ("spd-check", ["spd-check", "--in", "h.json"], "i.json"),
        ]

    def _process(self, argv, out_name):
        out = self.workdir / out_name
        out.unlink(missing_ok=True)
        argv = argv + ["--out", out_name]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "schoenberg.cli"] + argv
        else:
            trace_file = self.workdir / "trace.json"
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_trace.py"),
                   repr(time.monotonic()), str(trace_file)] + argv
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if self.tracer is not None and trace_file.exists():
            with open(trace_file, encoding="utf-8") as fh:
                dump = json.load(fh)
            self.tracer.absorb(dump, self.tracer.stack[-1])
            self.tracer.counts["cli.processes"] += 1
            self.tracer.counts["cli.startup_ms"] += dump["startup_ms"]
            if out.exists():
                self.tracer.counts["sequences.json_bytes"] += out.stat().st_size
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return out

    def run(self, inp):
        ops = Ops()
        for label, argv, out_name in self.chain(inp):
            ops(label, self.process, argv, out_name)
        return ops

    def plain(self, out):
        readers = {"reconstruct": _reconstruct_json, "spd-check": _spd_json}
        result = {}
        for label, path in out.items():
            if path is None:
                result[label] = None
                continue
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            reader = readers.get(label, _real_json if data.get("space") == "real"
                                 else _complex_json)
            result[label] = reader(data)
        return result

    def check(self, inp, out, checker):
        psi = orc.poisson(inp["r"])
        m, n = inp["m"], inp["n"]

        def monomial(z):
            return z**m * np.conj(z) ** n

        if out["coeffs"] is not None:
            orc.check_real_closed_form(checker, "coeffs", out["coeffs"], inp["r"])
        for label in ("walk-up", "project"):
            if out[label] is not None:
                orc.check_real_series(checker, label, out[label], psi)
        if out["walk-down"] is not None and out["coeffs"] is not None:
            # the Poisson sequence goes on past its truncation, so the
            # entries walk-up dropped are not padding: compare what came back
            back, start = out["walk-down"], out["coeffs"]
            checker.equal("walk-down.dimension", back["d"], start["d"])
            checker.close("walk-down", back["coeffs"],
                          start["coeffs"][: back["coeffs"].size], orc.TOL_WALK_ROUNDTRIP)
        if out["reconstruct"] is not None:
            theta = out["reconstruct"]["theta"]
            checker.close("reconstruct.theta", theta,
                          np.linspace(0.0, math.pi, self.grid), 0.0)
            orc.check_reconstruct(checker, "reconstruct", theta,
                                  out["reconstruct"]["values"], psi)
        for label in ("ccoeffs", "cwalk-up"):
            if out[label] is not None:
                orc.check_disk_series(checker, label, out[label], monomial)
        if out["cwalk-down"] is not None and out["ccoeffs"] is not None:
            orc.check_disk_roundtrip(checker, "cwalk-down", out["cwalk-down"], out["ccoeffs"])
        spd = out["spd-check"]
        if spd is not None:
            diffs = [m - n]
            orc.check_pattern(checker, "spd-check.pattern", spd["pattern"], diffs)
            # cwalk-up drops the top two total degrees
            orc.check_verdicts(checker, "spd-check.verdicts", spd["verdicts"], diffs,
                               self.max_degree - 2)
            checker.equal("spd-check.implications", spd["implications"], [])


WORKLOADS = {w.name: w for w in (RealSweep, WalkLadder, DiskSpd, CliChain)}
