"""Real, coordinate-free spectral decomposition of real diagonalizable
matrices, including matrices with complex-conjugate eigenvalue pairs."""

from .geoalg import wedge
from .realdecomp import (
    ComplexPlaneTerm,
    RealTerm,
    SpectralDecomposition,
    apply,
    decompose,
    real_canonical_form,
    reconstruct,
)
from .verify import PlantedSpectrum, gen_test_matrix, run_identity_suite

__version__ = "0.1.0"

__all__ = [
    "ComplexPlaneTerm",
    "PlantedSpectrum",
    "RealTerm",
    "SpectralDecomposition",
    "apply",
    "decompose",
    "gen_test_matrix",
    "real_canonical_form",
    "reconstruct",
    "run_identity_suite",
    "wedge",
]
