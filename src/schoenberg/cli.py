"""Command-line front end.

Subcommands::

    coeffs       compute a real-sphere coefficient sequence of a built-in family
    ccoeffs      compute a complex-sphere (disk) coefficient sequence
    reconstruct  evaluate a sequence's expansion on a grid
    walk-up      transport a real sequence d -> d + 2
    walk-down    transport a real sequence d + 2 -> d
    project      project a real sequence to any lower dimension
    cwalk-up     transport a complex sequence q -> q + 1
    cwalk-down   transport a complex sequence q + 1 -> q
    spd-check    progression diagnostics for strict positive definiteness
    selftest     run the built-in invariant suite

Every command that reads a sequence takes it from ``--in`` and every
command that writes one takes ``--out`` (stdout when absent or ``-``); both
options are declared once, on two parent parsers.

Exit codes: 0 success, 1 malformed input JSON (the message names the
offending field), an unreadable or unwritable path (an ``--out`` that is a
directory or lies in a missing one is refused before the command runs), or
a usage error such as an invalid option value, 2 numerical-validity failure
(mass or negativity contradictions, or an under-resolved quadrature).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .complex_coeffs import compute_complex_coeffs, reconstruct_complex
from .functions import make_disk, make_isotropic
from .quadrature import QuadratureResolutionWarning
from .real_coeffs import compute_real_coeffs, reconstruct
from .sequences import (
    ComplexSchoenbergSequence,
    RealSchoenbergSequence,
    SequenceFormatError,
    SequenceValidityError,
    load_sequence,
)
from .spd import (
    DEFAULT_THRESHOLD,
    check_progressions,
    report_with_notes,
    support_pattern,
    transfer_class,
)
from .walk_complex import walk_down_complex, walk_up_complex
from .walk_real import cross_project, walk_down, walk_up

__all__ = ["main"]

EXIT_OK = 0
EXIT_FORMAT = 1
EXIT_VALIDITY = 2


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _check_out(path: str | None) -> None:
    """Refuse an ``--out`` naming a directory or inside a missing one, before any work."""
    if path is None or path == "-":
        return
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"--out {path}: no such directory")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _flag_under_resolved(transform, *args):
    """``transform(*args)`` and the exit status: 2, noted, if it warned of under-resolution."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureResolutionWarning)
        seq = transform(*args)
    if any(issubclass(w.category, QuadratureResolutionWarning) for w in caught):
        _note("warning: quadrature looks under-resolved")
        return seq, EXIT_VALIDITY
    return seq, EXIT_OK


def _cmd_coeffs(args) -> int:
    params = {
        "r": args.r,
        "d": args.d,
        "truncation": args.N,
        "seed": args.seed,
    }
    psi = make_isotropic(args.family, **params)
    seq, status = _flag_under_resolved(compute_real_coeffs, psi, args.d, args.N, args.nodes)
    _write_json(seq.to_dict(), args.out)
    return status


def _cmd_ccoeffs(args) -> int:
    params = {"m": args.m, "n": args.n, "q": args.q, "max_degree": args.M, "seed": args.seed}
    phi = make_disk(args.family, **params)
    seq, status = _flag_under_resolved(compute_complex_coeffs, phi, args.q, args.M, args.nodes)
    if seq.max_imag > 1e-10:
        _note(f"note: dropped imaginary parts up to {seq.max_imag:.3e}")
    _write_json(seq.to_dict(), args.out)
    return status


def _cmd_reconstruct(args) -> int:
    seq = load_sequence(getattr(args, "in"))
    if isinstance(seq, RealSchoenbergSequence):
        theta = np.linspace(0.0, np.pi, args.grid)
        values = reconstruct(seq, theta)
        payload = {
            "space": "real",
            "theta": [float(t) for t in theta],
            "values": [float(v) for v in values],
        }
    else:
        radii = np.linspace(0.0, 1.0, args.grid)
        angles = np.linspace(0.0, 2.0 * np.pi, 2 * args.grid, endpoint=False)
        z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        values = reconstruct_complex(seq, z)
        payload = {
            "space": "complex",
            "points": [[float(p.real), float(p.imag)] for p in z],
            "values": [[float(v.real), float(v.imag)] for v in values],
        }
    _write_json(payload, args.out)
    return EXIT_OK


# command -> (expected input class, transform of (sequence, args))
_WALKS = {
    "walk-up": (RealSchoenbergSequence, lambda seq, args: walk_up(seq)),
    "walk-down": (RealSchoenbergSequence, lambda seq, args: walk_down(seq, n_out=args.N_out)),
    "project": (RealSchoenbergSequence, lambda seq, args: cross_project(seq, args.d_prime)),
    "cwalk-up": (ComplexSchoenbergSequence, lambda seq, args: walk_up_complex(seq)),
    "cwalk-down": (ComplexSchoenbergSequence, lambda seq, args: walk_down_complex(seq)),
}


def _cmd_walk(args) -> int:
    kind, transform = _WALKS[args.command]
    seq = load_sequence(getattr(args, "in"))
    if not isinstance(seq, kind):
        space = "real" if kind is RealSchoenbergSequence else "complex"
        raise SequenceFormatError("space", f"{args.command} expects a {space} sequence")
    result = transform(seq, args)
    if not result.valid_mass:
        _note("note: output fails the mass/negativity checks; flagged valid_mass=false")
    if result.tail_bound > 0.0:
        _note(
            "note: input support reaches the truncation boundary "
            f"(largest boundary entry {result.tail_bound:.3e}); the inverse "
            "walk takes entries beyond it as 0, which drops terms if the "
            "sequence continues"
        )
    _write_json(result.to_dict(), args.out)
    return EXIT_OK


def _cmd_spd_check(args) -> int:
    seq = load_sequence(getattr(args, "in"))
    if not isinstance(seq, ComplexSchoenbergSequence):
        raise SequenceFormatError("space", "spd-check expects a complex sequence")
    if not seq.valid_mass:
        raise SequenceValidityError("spd-check requires a mass-valid sequence")
    pattern = support_pattern(seq, args.threshold)
    report = check_progressions(pattern, args.K)
    implications = ()
    if args.q_prime is not None:
        implications = transfer_class(seq, report, args.q_prime)
        report = report_with_notes(report, implications)
    payload = {
        "pattern": pattern.to_dict(),
        "verdicts": report.to_dict(),
        "implications": [impl.to_dict() for impl in implications],
    }
    _write_json(payload, args.out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    # imported here: the check registry costs every other command import time
    from .selftest import SEED, run_selftest

    results = run_selftest(SEED if args.seed is None else args.seed)
    failures = 0
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDITY


def _int_at_least(lo: int):
    """argparse type for an integer >= lo; argparse names the option on failure."""

    def parse(text: str) -> int:
        try:
            if int(text) >= lo:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")

    return parse


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, as an invalid option value does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FORMAT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schoenberg",
        description="Coefficient sequences of positive definite functions on spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--in", required=True)
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", default=None)

    p = sub.add_parser("coeffs", parents=[writes],
                       help="real-sphere coefficients of a built-in family")
    p.add_argument("--family", required=True,
                   choices=["constant", "cosine", "poisson", "gegenbauer-mixture"])
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--N", type=_int_at_least(0), required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--nodes", type=_int_at_least(1), default=None)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("ccoeffs", parents=[writes], help="disk coefficients of a built-in family")
    p.add_argument("--family", required=True,
                   choices=["constant", "disk-monomial", "disk-mixture"])
    p.add_argument("--q", type=_int_at_least(2), required=True)
    p.add_argument("--M", type=_int_at_least(0), required=True)
    p.add_argument("--m", type=_int_at_least(0), default=None)
    p.add_argument("--n", type=_int_at_least(0), default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--nodes", type=_int_at_least(1), default=None)
    p.set_defaults(func=_cmd_ccoeffs)

    p = sub.add_parser("reconstruct", parents=[reads, writes],
                       help="evaluate a sequence's expansion on a grid")
    p.add_argument("--grid", type=_int_at_least(1), default=181)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("walk-up", parents=[reads, writes], help="real sequence d -> d + 2")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("walk-down", parents=[reads, writes], help="real sequence d + 2 -> d")
    p.add_argument("--N-out", dest="N_out", type=_int_at_least(0), default=None)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("project", parents=[reads, writes],
                       help="real sequence d -> d' for any d' < d")
    p.add_argument("--d-prime", dest="d_prime", type=_int_at_least(1), required=True)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("cwalk-up", parents=[reads, writes], help="complex sequence q -> q + 1")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("cwalk-down", parents=[reads, writes], help="complex sequence q + 1 -> q")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("spd-check", parents=[reads, writes],
                       help="strict positive definiteness diagnostics")
    p.add_argument("--K", type=_int_at_least(1), default=None)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--q-prime", dest="q_prime", type=_int_at_least(2), default=None)
    p.set_defaults(func=_cmd_spd_check)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--seed", type=_int_at_least(0))
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except SequenceValidityError as exc:
        _note(f"error: {exc}")
        return EXIT_VALIDITY
    except (ValueError, OSError) as exc:  # SequenceFormatError is a ValueError
        _note(f"error: {exc}")
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
