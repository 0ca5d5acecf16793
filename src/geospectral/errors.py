"""Exception hierarchy for geospectral."""


class GeoSpectralError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GeoSpectralError):
    """Operands have incompatible dimensions."""


class ConvergenceError(GeoSpectralError):
    """QR iteration did not converge within the sweep budget."""

    def __init__(self, subdiagonal_index, sweeps):
        self.subdiagonal_index = subdiagonal_index
        self.sweeps = sweeps
        super().__init__(
            f"QR iteration stuck at subdiagonal index {subdiagonal_index} "
            f"after {sweeps} sweeps"
        )


class AccuracyError(GeoSpectralError):
    """A reconstruction residual is not finite (overflow or NaN)."""

    def __init__(self, residual, tolerance):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"reconstruction residual {residual:.3e} is not within tolerance {tolerance:.3e}"
        )


class NotDiagonalizableError(GeoSpectralError):
    """The eigenvector basis is numerically singular, or the terms do not
    reconstruct the matrix within tolerance (defective matrix)."""

    def __init__(self, detail=""):
        msg = "matrix is not diagonalizable within tolerance"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class DegeneratePairError(GeoSpectralError):
    """A left/right eigenvector pairing is numerically invalid."""


class GenerationError(GeoSpectralError):
    """Test-matrix generation could not satisfy the condition cap."""


class OracleInconsistencyError(GeoSpectralError):
    """The complex-arithmetic oracle produced a non-negligible imaginary part."""


class ParseError(GeoSpectralError):
    """A matrix file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
