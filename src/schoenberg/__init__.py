"""Schoenberg coefficient sequences on real and complex spheres.

Compute the coefficient sequences of (strictly) positive definite isotropic
functions, transport them between sphere dimensions with forward and
inverse dimension walks, and run truncated strict positive definiteness
diagnostics. See the README for the CLI and the JSON wire formats.
"""
from .complex_coeffs import compute_complex_coeffs, reconstruct_complex
from .disk_polys import disk_poly_eval, h_norm
from .functions import (
    DiskFunction,
    IsotropicFunction,
    constant_isotropic,
    cosine_isotropic,
    disk_constant,
    disk_from_sequence,
    disk_mixture,
    disk_monomial,
    gegenbauer_mixture,
    isotropic_from_sequence,
    make_disk,
    make_isotropic,
    poisson_circle_coeffs,
    poisson_isotropic,
    random_complex_sequence,
    random_real_sequence,
)
from .quadrature import QuadratureResolutionWarning, default_node_count, gauss_jacobi
from .real_coeffs import compute_real_coeffs, harmonic_dimension, reconstruct
from .sequences import (
    ComplexSchoenbergSequence,
    RealSchoenbergSequence,
    SequenceFormatError,
    SequenceValidityError,
    load_sequence,
    loads_sequence,
)
from .spd import (
    ClassEvidence,
    ClassImplication,
    SpdReport,
    SupportPattern,
    check_progressions,
    support_pattern,
    transfer_class,
)
from .walk_complex import walk_down_complex, walk_up_complex
from .walk_real import cross_project, walk_down, walk_up

__version__ = "0.1.0"


def __getattr__(name):
    # the check registry loads on first use, not with the package
    if name == "run_selftest":
        from .selftest import run_selftest

        return run_selftest
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClassEvidence",
    "ClassImplication",
    "ComplexSchoenbergSequence",
    "DiskFunction",
    "IsotropicFunction",
    "QuadratureResolutionWarning",
    "RealSchoenbergSequence",
    "SequenceFormatError",
    "SequenceValidityError",
    "SpdReport",
    "SupportPattern",
    "check_progressions",
    "compute_complex_coeffs",
    "compute_real_coeffs",
    "constant_isotropic",
    "cosine_isotropic",
    "cross_project",
    "default_node_count",
    "disk_constant",
    "disk_from_sequence",
    "disk_mixture",
    "disk_monomial",
    "disk_poly_eval",
    "gauss_jacobi",
    "gegenbauer_mixture",
    "h_norm",
    "harmonic_dimension",
    "isotropic_from_sequence",
    "load_sequence",
    "loads_sequence",
    "make_disk",
    "make_isotropic",
    "poisson_circle_coeffs",
    "poisson_isotropic",
    "random_complex_sequence",
    "random_real_sequence",
    "reconstruct",
    "reconstruct_complex",
    "run_selftest",
    "support_pattern",
    "transfer_class",
    "walk_down",
    "walk_down_complex",
    "walk_up",
    "walk_up_complex",
]
