"""Independent oracles and the identity-check harness.

The production decomposition is real in its basis and every output
(complex values exist only inside eigensolve, for its eigenvalue array and
back-substitution).  The complex eigendecomposition here, LAPACK dgeev
through numpy, is a different algorithm and exists purely to cross-check
it.  The identity checks evaluate each plane term's factors U C V^T against
its explicit wedge form, at O(n^2) per term, each against a fixed relative
tolerance that one scale multiplies.  Random draws use numpy's
PCG64 generator with explicit seeds so reports reproduce bit-for-bit
across platforms.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import realdecomp as rd
from .densecore import as_array, frobenius_norm, pow2_scale
from .errors import GenerationError, GeoSpectralError, OracleInconsistencyError

_RESAMPLE_CAP = 100
_ABS_FLOOR = 1e-14
_PHASE_SAMPLES = 100
# relative tolerance of every check but reconstruction, whose tolerance is
# decompose's (absolute floor 1e-14 throughout)
_TOLERANCES = {
    "oracle_agreement": 1e-9,
    "form_equality": 1e-10,
    "eigen_action": 1e-9,
    "annihilation": 1e-9,
    "biorthogonality": 1e-10,
    "phase_invariance": 1e-10,
    "transposition": 1e-12,
}


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
    """One identity check; it passes when residual <= tolerance (a NaN
    residual fails)."""

    name: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self):
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    elapsed_seconds: float = field(compare=False, default=0.0)

    @property
    def overall(self):
        return all(c.passed for c in self.checks)


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
    m = as_array(m, 2)
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
    return residual / np.maximum(scale, _ABS_FLOOR)


def _phase_distance(t, u, c, v, left, thetas):
    """||rotated term - left||_F for each phase in thetas, in O(n^2) in all.
    Rotating both splits maps U, V to U R, V R and the Gram U^T V to
    R^T (U^T V) R; R commutes with J and with omega I - sigma J, so the
    rotated term is (nu / nu_theta) A with A = U C V^T.  With
    f = nu / nu_theta - 1 and E = A - left, its squared distance is
    f^2 ||A||^2 + 2 f <A, E> + ||E||^2."""
    g = u.T @ v
    # nu_theta is the squared norm of the rotated Gram's first row, and
    # R^T's first row is (cos, -sin)
    row = np.outer(np.cos(thetas), g[0]) - np.outer(np.sin(thetas), g[1])
    f = t.nu / np.sum(row**2, axis=1) - 1.0
    a = u @ c @ v.T
    e = a - left
    square = f**2 * frobenius_norm(a) ** 2 + 2.0 * f * np.sum(a * e) + frobenius_norm(e) ** 2
    return np.sqrt(np.maximum(square, 0.0))


def _decomposition_checks(m, dec):
    norm_m = frobenius_norm(m)
    recon = rd.reconstruct(dec)
    checks = [("reconstruction", _rel(frobenius_norm(recon - m), norm_m))]

    oracle = brute_force_reconstruct(m)
    checks.append(("oracle_agreement", _rel(frobenius_norm(oracle - recon), norm_m)))

    # every check evaluates the term's factors U C V^T, at O(n^2) per term; the
    # explicit wedge form is built once per term, as the reference they must match
    basis, _ = rd.real_canonical_form(dec)
    first = len(dec.real_terms)
    rng = np.random.default_rng(np.random.PCG64(0xC0FFEE))
    form = eigact = annih = bio = phase = transp = 0.0
    for i, t in enumerate(dec.plane_terms):
        left = rd.plane_term_left_form(t)
        right = rd.plane_term_right_form(t)
        norm_t = frobenius_norm(left)
        form = max(form, _rel(frobenius_norm(left - right), norm_t))

        u, c, v = rd.term_factors(t)
        block = np.array([[t.sigma, t.omega], [-t.omega, t.sigma]])
        # M_t [b p] = [b p] block and M_t^T [d q] = [d q] block^T
        act_r = u @ (c @ (v.T @ u)) - u @ block
        act_l = v @ (c.T @ (u.T @ v)) - v @ block.T
        scale_r = norm_t * (np.linalg.norm(t.b) + np.linalg.norm(t.p))
        scale_l = norm_t * (np.linalg.norm(t.d) + np.linalg.norm(t.q))
        eigact = max(
            eigact,
            _rel(np.linalg.norm(act_r, axis=0).max(), scale_r),
            _rel(np.linalg.norm(act_l, axis=0).max(), scale_l),
        )

        # all other right eigenvectors (columns of B_real) in one product
        others = np.delete(basis, [first + 2 * i, first + 2 * i + 1], axis=1)
        killed = np.linalg.norm(u @ (c @ (v.T @ others)), axis=0)
        annih = max(annih, _rel(killed, norm_t * np.linalg.norm(others, axis=0)).max(initial=0.0))

        r1, r2 = rd.biorthogonality_residual(t.b, t.p, t.d, t.q)
        # d_i^dag b_j = 0 = d_i^dag conj(b_j) for every other eigenvector:
        # each entry of [d q]^T against the other columns of B_real vanishes
        cross = np.abs(v.T @ others).max(initial=0.0)
        scale_b = np.linalg.norm(t.d) * np.linalg.norm(t.b) + np.linalg.norm(t.q) * np.linalg.norm(t.p)
        bio = max(bio, _rel(max(abs(r1), abs(r2), cross), scale_b))

        thetas = rng.uniform(0.0, 2.0 * np.pi, _PHASE_SAMPLES)
        phase = max(phase, _rel(_phase_distance(t, u, c, v, left, thetas), norm_t).max())

        ut, ct, vt = rd.term_factors(rd.transpose_term(t))
        transp = max(transp, _rel(frobenius_norm(ut @ ct @ vt.T - left.T), norm_t))

    if dec.plane_terms:
        checks.append(("form_equality", form))
        checks.append(("eigen_action", eigact))
        checks.append(("annihilation", annih))
        checks.append(("biorthogonality", bio))
        checks.append(("phase_invariance", phase))
        checks.append(("transposition", transp))
    return checks


def run_identity_suite(m, tol=rd.DEFAULT_TOL, scale=1.0):
    """Decompose m and evaluate every identity against its tolerance.

    The decomposition runs at tol * scale, which is also the reconstruction
    check's tolerance, so the diagonalizable gate and that check agree; its
    failures are recorded as a failed check rather than raised.  Every
    other check's tolerance is fixed, times scale.  Every check is relative
    and decompose is exactly equivariant under powers of two, so m is first
    divided by the power of two pow2_scale(m), which keeps every norm
    finite at any scale.  An m that as_array refuses raises ShapeError.
    """
    tolerances = dict(_TOLERANCES, reconstruction=tol)
    start = time.perf_counter()
    checks = []
    m = as_array(m, 2)
    m = m / pow2_scale(m)
    try:
        dec = rd.decompose(m, tol * scale)
    except GeoSpectralError as exc:
        checks.append(Check("diagonalizable", np.inf, 0.0, str(exc)))
    else:
        checks.append(Check("diagonalizable", 0.0, 0.0))
        for name, residual in _decomposition_checks(m, dec):
            checks.append(Check(name, residual, tolerances[name] * scale))
    return VerificationReport(tuple(checks), time.perf_counter() - start)
