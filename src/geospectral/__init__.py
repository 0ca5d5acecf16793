"""Real, coordinate-free spectral decomposition of real diagonalizable
matrices, including matrices with complex-conjugate eigenvalue pairs."""

from .densecore import dot, frobenius_norm, solve_linear
from .eigensolve import (
    ComplexPairEigenvalue,
    ComplexVectorSplit,
    EigenSystem,
    RealEigenvalue,
    canonicalize_phase,
    eigensystem,
    extract_eigenvalues,
    hessenberg_reduce,
    real_schur,
)
from .geoalg import (
    Bivector,
    bivector_square,
    orthonormalize_pair,
    wedge,
)
from .realdecomp import (
    ComplexPlaneTerm,
    RealTerm,
    SpectralDecomposition,
    apply,
    biorthogonality_residual,
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
    ToleranceProfile,
    VerificationReport,
    brute_force_reconstruct,
    gen_test_matrix,
    run_identity_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Bivector",
    "ComplexPairEigenvalue",
    "ComplexPlaneTerm",
    "ComplexVectorSplit",
    "EigenSystem",
    "PlantedSpectrum",
    "RealEigenvalue",
    "RealTerm",
    "SpectralDecomposition",
    "ToleranceProfile",
    "VerificationReport",
    "apply",
    "biorthogonality_residual",
    "bivector_square",
    "brute_force_reconstruct",
    "canonicalize_phase",
    "decompose",
    "dot",
    "eigensystem",
    "extract_eigenvalues",
    "frobenius_norm",
    "gen_test_matrix",
    "hessenberg_reduce",
    "nu",
    "orthonormalize_pair",
    "plane_term_left_form",
    "plane_term_right_form",
    "real_canonical_form",
    "real_schur",
    "reconstruct",
    "run_identity_suite",
    "solve_linear",
    "transpose_term",
    "wedge",
]
