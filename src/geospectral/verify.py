"""Independent oracles and the identity-check harness.

This is the only module that touches complex arithmetic: the production
decomposition is real throughout, and the complex eigendecomposition here
exists purely to cross-check it.  Random draws use numpy's PCG64 generator
with explicit seeds so reports reproduce bit-for-bit across platforms.
"""

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import realdecomp as rd
from .densecore import dot, frobenius_norm
from .errors import GenerationError, GeoSpectralError, OracleInconsistencyError
from .geoalg import bivector_square, orthonormalize_pair, wedge

_RESAMPLE_CAP = 100
_ABS_FLOOR = 1e-14


@dataclass(frozen=True)
class PlantedSpectrum:
    """Ground-truth spectrum for generated test matrices."""

    real_eigs: tuple
    complex_pairs: tuple  # (sigma, omega > 0) pairs
    basis_seed: int
    condition_cap: float = 1e4

    def __post_init__(self):
        object.__setattr__(self, "real_eigs", tuple(float(a) for a in self.real_eigs))
        pairs = tuple((float(s), float(w)) for s, w in self.complex_pairs)
        if any(w <= 0.0 for _, w in pairs):
            raise ValueError("complex pairs must have omega > 0")
        object.__setattr__(self, "complex_pairs", pairs)

    @property
    def dim(self):
        return len(self.real_eigs) + 2 * len(self.complex_pairs)

    def as_complex(self):
        out = [complex(a) for a in self.real_eigs]
        for s, w in self.complex_pairs:
            out.extend([complex(s, w), complex(s, -w)])
        return np.array(out)

    def min_separation(self):
        lam = self.as_complex()
        if lam.size < 2:
            return np.inf
        d = np.abs(lam[:, None] - lam[None, :])
        return float(np.min(d[~np.eye(lam.size, dtype=bool)]))


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    overall: bool
    elapsed_seconds: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class ToleranceProfile:
    """Per-check relative tolerances (absolute floor 1e-14 throughout)."""

    reconstruction: float = 1e-9
    form_equality: float = 1e-10
    eigen_action: float = 1e-9
    annihilation: float = 1e-9
    biorthogonality: float = 1e-10
    phase_invariance: float = 1e-10
    conjugate_symmetry: float = 1e-12
    transposition: float = 1e-12
    blade_orthogonality: float = 1e-12
    bivector_square: float = 1e-13
    oracle_agreement: float = 1e-9
    phase_samples: int = 100
    blade_samples: int = 1000

    def scaled(self, factor):
        """Uniformly loosened/tightened copy (used by the CLI --tol-scale flag);
        sample counts are kept."""
        return replace(
            self,
            **{f.name: getattr(self, f.name) * factor for f in fields(self) if f.type is float},
        )


def _canonical_blocks(spec):
    n = spec.dim
    l = np.zeros((n, n))
    i = 0
    for a in spec.real_eigs:
        l[i, i] = a
        i += 1
    for s, w in spec.complex_pairs:
        l[i:i + 2, i:i + 2] = [[s, w], [-w, s]]
        i += 2
    return l


def gen_test_matrix(spec, orthogonal_basis=False):
    """M = B_real L_real B_real^{-1} for a seeded random basis.

    The basis is resampled (up to 100 times) until its condition number
    fits under the cap; with orthogonal_basis=True the basis is the Q
    factor of a seeded Gaussian draw, producing a normal matrix.
    """
    n = spec.dim
    rng = np.random.default_rng(np.random.PCG64(spec.basis_seed))
    l = _canonical_blocks(spec)
    for _ in range(_RESAMPLE_CAP):
        b = rng.standard_normal((n, n))
        if orthogonal_basis:
            b, r = np.linalg.qr(b)
            b = b * np.sign(np.diag(r))
            return b @ l @ b.T
        if np.linalg.cond(b) <= spec.condition_cap:
            # M B = B L  =>  M^T solved column-wise against B^T
            return np.linalg.solve(b.T, (b @ l).T).T
    raise GenerationError(
        f"no basis with condition <= {spec.condition_cap:g} in {_RESAMPLE_CAP} draws"
    )


def brute_force_reconstruct(m):
    """Complex-arithmetic oracle for the rank-one eigenvalue sum.

    Evaluates sum_i lambda_i b_i d_i^dag / (d_i^dag b_i) with numpy's
    complex eigendecomposition and returns the real part; the imaginary
    part must be negligible for a real input.
    """
    m = np.asarray(m, dtype=float)
    lam, b = np.linalg.eig(m)
    d_dag = np.linalg.inv(b)  # rows are d_i^dag with d_i^dag b_j = delta_ij
    total = (b * lam) @ d_dag
    imag = frobenius_norm(np.imag(total))
    norm_m = frobenius_norm(m)
    if imag > 1e-10 * max(norm_m, _ABS_FLOOR):
        raise OracleInconsistencyError(
            f"imaginary residue {imag:.3e} vs matrix norm {norm_m:.3e}"
        )
    return np.real(total)


def _rel(residual, scale):
    return residual / max(scale, _ABS_FLOOR)


def _rotate_term(t, theta):
    c, s = np.cos(theta), np.sin(theta)
    b = c * t.b - s * t.p
    p = s * t.b + c * t.p
    d = c * t.d - s * t.q
    q = s * t.d + c * t.q
    return rd.ComplexPlaneTerm(t.sigma, t.omega, b, p, d, q, rd.nu(b, d, q))


def _decomposition_checks(m, dec, tol):
    norm_m = frobenius_norm(m)
    checks = []

    checks.append(("counting", 0.0 if len(dec.real_terms) + 2 * len(dec.plane_terms) == dec.dim else 1.0, 0.0))

    recon = rd.reconstruct(dec)
    checks.append(("reconstruction", _rel(frobenius_norm(recon - m), norm_m), tol.reconstruction))

    oracle = brute_force_reconstruct(m)
    checks.append(("oracle_agreement", _rel(frobenius_norm(oracle - recon), norm_m), tol.oracle_agreement))

    rng = np.random.default_rng(np.random.PCG64(0xC0FFEE))
    form = eigact = annih = bio = phase = conj = transp = 0.0
    for t in dec.plane_terms:
        left = rd.plane_term_left_form(t)
        right = rd.plane_term_right_form(t)
        norm_t = frobenius_norm(left)
        form = max(form, _rel(frobenius_norm(left - right), norm_t))

        scale_r = norm_t * (np.linalg.norm(t.b) + np.linalg.norm(t.p))
        eigact = max(
            eigact,
            _rel(np.linalg.norm(left @ t.b - (t.sigma * t.b - t.omega * t.p)), scale_r),
            _rel(np.linalg.norm(left @ t.p - (t.omega * t.b + t.sigma * t.p)), scale_r),
        )
        scale_l = norm_t * (np.linalg.norm(t.d) + np.linalg.norm(t.q))
        eigact = max(
            eigact,
            _rel(np.linalg.norm(left.T @ t.d - (t.sigma * t.d + t.omega * t.q)), scale_l),
            _rel(np.linalg.norm(left.T @ t.q - (t.sigma * t.q - t.omega * t.d)), scale_l),
        )

        for other in dec.real_terms:
            annih = max(annih, _rel(np.linalg.norm(left @ other.a), norm_t * np.linalg.norm(other.a)))
        for other in dec.plane_terms:
            if other is t:
                continue
            annih = max(
                annih,
                _rel(np.linalg.norm(left @ other.b), norm_t * np.linalg.norm(other.b)),
                _rel(np.linalg.norm(left @ other.p), norm_t * np.linalg.norm(other.p)),
            )

        r1, r2 = rd.biorthogonality_residual(t.b, t.p, t.d, t.q)
        scale_b = np.linalg.norm(t.d) * np.linalg.norm(t.b) + np.linalg.norm(t.q) * np.linalg.norm(t.p)
        bio = max(bio, _rel(abs(r1), scale_b), _rel(abs(r2), scale_b))
        for other in dec.plane_terms:
            if other is t:
                continue
            # cross-pair products: d_i^dag b_j = 0 splits entrywise
            cr = dot(t.d, other.b) + dot(t.q, other.p)
            ci = dot(t.d, other.p) - dot(t.q, other.b)
            bio = max(bio, _rel(abs(cr), scale_b), _rel(abs(ci), scale_b))
        for other in dec.real_terms:
            bio = max(
                bio,
                _rel(abs(dot(t.d, other.a)), scale_b),
                _rel(abs(dot(t.q, other.a)), scale_b),
            )

        for theta in rng.uniform(0.0, 2.0 * np.pi, tol.phase_samples):
            rotated = rd.plane_term_left_form(_rotate_term(t, theta))
            phase = max(phase, _rel(frobenius_norm(rotated - left), norm_t))

        conj_mat = rd._plane_left(t.sigma, -t.omega, t.b, -t.p, t.d, -t.q, t.nu)
        conj = max(conj, _rel(frobenius_norm(conj_mat - left), norm_t))

        transp_mat = rd.plane_term_left_form(rd.transpose_term(t))
        transp = max(transp, _rel(frobenius_norm(transp_mat - left.T), norm_t))

    if dec.plane_terms:
        checks.append(("form_equality", form, tol.form_equality))
        checks.append(("eigen_action", eigact, tol.eigen_action))
        checks.append(("annihilation", annih, tol.annihilation))
        checks.append(("biorthogonality", bio, tol.biorthogonality))
        checks.append(("phase_invariance", phase, tol.phase_invariance))
        checks.append(("conjugate_symmetry", conj, tol.conjugate_symmetry))
        checks.append(("transposition", transp, tol.transposition))
    return checks


def _blade_checks(tol):
    rng = np.random.default_rng(np.random.PCG64(0xB1ADE))
    worst = 0.0
    for _ in range(tol.blade_samples):
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        x = rng.standard_normal(5)
        w = wedge(u, v)
        scale = np.dot(x, x) * frobenius_norm(w.rep)
        worst = max(worst, _rel(abs(dot(x, w.rep @ x)), scale))
    checks = [("blade_orthogonality", worst, tol.blade_orthogonality)]

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        e1, e2 = orthonormalize_pair(rng.standard_normal(n), rng.standard_normal(n))
        sq = bivector_square(wedge(e1, e2))
        projector = np.outer(e1, e1) + np.outer(e2, e2)
        worst = max(worst, frobenius_norm(sq + projector))
    checks.append(("bivector_square", worst, tol.bivector_square))
    return checks


def run_identity_suite(m, tol_profile=None):
    """Decompose m and evaluate every identity against its tolerance.

    Decomposition failures are recorded as a failed check rather than
    raised.
    """
    tol = tol_profile or ToleranceProfile()
    start = time.perf_counter()
    checks = []
    try:
        dec = rd.decompose(np.asarray(m, dtype=float))
    except GeoSpectralError as exc:
        checks.append(Check("diagonalizable", np.inf, 0.0, False, str(exc)))
        dec = None
    if dec is not None:
        checks.append(Check("diagonalizable", 0.0, 0.0, True))
        for name, residual, tolerance in _decomposition_checks(m, dec, tol):
            checks.append(Check(name, residual, tolerance, residual <= tolerance))
    for name, residual, tolerance in _blade_checks(tol):
        checks.append(Check(name, residual, tolerance, residual <= tolerance))
    elapsed = time.perf_counter() - start
    return VerificationReport(tuple(checks), all(c.passed for c in checks), elapsed)
