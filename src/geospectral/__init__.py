"""Real, coordinate-free spectral decomposition of real diagonalizable
matrices, including matrices with complex-conjugate eigenvalue pairs."""

from .densecore import frobenius_norm
from .eigensolve import EigenSystem, canonicalize_phase, eigensystem
from .geoalg import wedge
from .realdecomp import (
    ComplexPlaneTerm,
    RealTerm,
    SpectralDecomposition,
    apply,
    decompose,
    nu,
    plane_term_left_form,
    plane_term_right_form,
    real_canonical_form,
    reconstruct,
    transpose_term,
)
from .verify import (
    PlantedSpectrum,
    VerificationReport,
    brute_force_reconstruct,
    gen_test_matrix,
    run_identity_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexPlaneTerm",
    "EigenSystem",
    "PlantedSpectrum",
    "RealTerm",
    "SpectralDecomposition",
    "VerificationReport",
    "apply",
    "brute_force_reconstruct",
    "canonicalize_phase",
    "decompose",
    "eigensystem",
    "frobenius_norm",
    "gen_test_matrix",
    "nu",
    "plane_term_left_form",
    "plane_term_right_form",
    "real_canonical_form",
    "reconstruct",
    "run_identity_suite",
    "transpose_term",
    "wedge",
]
