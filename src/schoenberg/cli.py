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

Exit codes: 0 success, 1 malformed input JSON (the message names the
offending field), 2 numerical-validity failure (mass or negativity
contradictions, or an under-resolved quadrature).
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .complex_coeffs import compute_complex_coeffs, reconstruct_complex
from .functions import make_disk, make_isotropic
from .quadrature import QuadratureResolutionWarning, interval_rule
from .disk_polys import disk_quadrature
from .real_coeffs import compute_real_coeffs, reconstruct
from .selftest import SEED, run_selftest
from .sequences import (
    ComplexSchoenbergSequence,
    RealSchoenbergSequence,
    SequenceFormatError,
    SequenceValidityError,
    load_sequence,
)
from .spd import check_progressions, report_with_notes, support_pattern, transfer_class
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


def _load(path: str):
    if path is None:
        raise SequenceFormatError("--in", "an input file is required")
    return load_sequence(path)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_coeffs(args) -> int:
    params = {
        "r": args.r,
        "d": args.d,
        "truncation": args.N,
        "seed": args.seed,
    }
    psi = make_isotropic(args.family, **params)
    rule = interval_rule(args.d, args.nodes) if args.nodes else None
    status = EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureResolutionWarning)
        seq = compute_real_coeffs(psi, args.d, args.N, rule)
        if any(issubclass(w.category, QuadratureResolutionWarning) for w in caught):
            _note("warning: quadrature looks under-resolved")
            status = EXIT_VALIDITY
    _write_json(seq.to_dict(), args.out)
    return status


def _cmd_ccoeffs(args) -> int:
    params = {"m": args.m, "n": args.n, "q": args.q, "max_degree": args.M, "seed": args.seed}
    phi = make_disk(args.family, **params)
    rule = None
    if args.nodes:
        rule = disk_quadrature(args.q, args.nodes, 4 * args.M + 8)
    status = EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureResolutionWarning)
        seq = compute_complex_coeffs(phi, args.q, args.M, rule)
        if any(issubclass(w.category, QuadratureResolutionWarning) for w in caught):
            _note("warning: quadrature looks under-resolved")
            status = EXIT_VALIDITY
    if seq.max_imag > 1e-10:
        _note(f"note: dropped imaginary parts up to {seq.max_imag:.3e}")
    _write_json(seq.to_dict(), args.out)
    return status


def _cmd_reconstruct(args) -> int:
    seq = _load(getattr(args, "in"))
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


def _walk_command(args, transform) -> int:
    seq = _load(getattr(args, "in"))
    result = transform(seq)
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


def _cmd_walk_up(args) -> int:
    def transform(seq):
        if not isinstance(seq, RealSchoenbergSequence):
            raise SequenceFormatError("space", "walk-up expects a real sequence")
        return walk_up(seq)

    return _walk_command(args, transform)


def _cmd_walk_down(args) -> int:
    def transform(seq):
        if not isinstance(seq, RealSchoenbergSequence):
            raise SequenceFormatError("space", "walk-down expects a real sequence")
        return walk_down(seq, n_out=args.N_out, tail_tol=args.tail_tol)

    return _walk_command(args, transform)


def _cmd_project(args) -> int:
    def transform(seq):
        if not isinstance(seq, RealSchoenbergSequence):
            raise SequenceFormatError("space", "project expects a real sequence")
        rule = interval_rule(args.d_prime, args.nodes) if args.nodes else None
        return cross_project(seq, args.d_prime, rule)

    return _walk_command(args, transform)


def _cmd_cwalk_up(args) -> int:
    def transform(seq):
        if not isinstance(seq, ComplexSchoenbergSequence):
            raise SequenceFormatError("space", "cwalk-up expects a complex sequence")
        return walk_up_complex(seq)

    return _walk_command(args, transform)


def _cmd_cwalk_down(args) -> int:
    def transform(seq):
        if not isinstance(seq, ComplexSchoenbergSequence):
            raise SequenceFormatError("space", "cwalk-down expects a complex sequence")
        return walk_down_complex(seq, tail_tol=args.tail_tol)

    return _walk_command(args, transform)


def _cmd_spd_check(args) -> int:
    seq = _load(getattr(args, "in"))
    if not isinstance(seq, ComplexSchoenbergSequence):
        raise SequenceFormatError("space", "spd-check expects a complex sequence")
    try:
        pattern = support_pattern(seq, args.threshold)
    except ValueError as exc:
        raise SequenceValidityError(str(exc)) from exc
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
    results = run_selftest(args.seed)
    failures = 0
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDITY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schoenberg",
        description="Coefficient sequences of positive definite functions on spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="real-sphere coefficients of a built-in family")
    p.add_argument("--family", required=True,
                   choices=["constant", "cosine", "poisson", "gegenbauer-mixture"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("ccoeffs", help="disk coefficients of a built-in family")
    p.add_argument("--family", required=True,
                   choices=["constant", "disk-monomial", "disk-mixture"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ccoeffs)

    p = sub.add_parser("reconstruct", help="evaluate a sequence's expansion on a grid")
    p.add_argument("--in", required=True)
    p.add_argument("--grid", type=int, default=181)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("walk-up", help="real sequence d -> d + 2")
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_walk_up)

    p = sub.add_parser("walk-down", help="real sequence d + 2 -> d")
    p.add_argument("--in", required=True)
    p.add_argument("--N-out", dest="N_out", type=int, default=None)
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_walk_down)

    p = sub.add_parser("project", help="real sequence d -> d' for any d' < d")
    p.add_argument("--in", required=True)
    p.add_argument("--d-prime", dest="d_prime", type=int, required=True)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("cwalk-up", help="complex sequence q -> q + 1")
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cwalk_up)

    p = sub.add_parser("cwalk-down", help="complex sequence q + 1 -> q")
    p.add_argument("--in", required=True)
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cwalk_down)

    p = sub.add_parser("spd-check", help="strict positive definiteness diagnostics")
    p.add_argument("--in", required=True)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--threshold", type=float, default=1e-12)
    p.add_argument("--q-prime", dest="q_prime", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spd_check)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--seed", type=int, default=SEED)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SequenceFormatError as exc:
        _note(f"error: {exc}")
        return EXIT_FORMAT
    except FileNotFoundError as exc:
        _note(f"error: {exc}")
        return EXIT_FORMAT
    except SequenceValidityError as exc:
        _note(f"error: {exc}")
        return EXIT_VALIDITY
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
