"""Independent oracles and the identity-check harness.

The complex eigendecomposition here, LAPACK dgeev through numpy, is a
different algorithm from eigensolve's and exists purely to cross-check it.
The identity checks evaluate the plane terms' factors U C V^T, each
against a fixed relative tolerance that one scale multiplies.  Every check
runs once over all k pairs, on the decomposition's rows, Grams and nu and
its one term_stacks: B_real, each pair's U, V and U C are (k, n, 2) views
of rows, and the transposed terms' Grams, nu and cores follow from the
pairs' own.
A check of a vector's image takes it over that vector's norm (each norm
safe from overflow and underflow), then relative to the term's, so
scaling one term's vectors leaves the residual as is.  The
comparisons with the explicit wedge forms take each form as rank-two
factors, the paper's brackets applied by associativity, so each difference
of two forms is a product F G^T of (n, 4) factors whose norm is that of
R_F R_G^T, from two batched QR factorizations: no n x n array is formed
per pair.  geoalg's n x n forms are the tests' reference.  Test matrices
are drawn from numpy's PCG64 generator with explicit seeds, so they
reproduce bit-for-bit across platforms; the checks draw nothing.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import realdecomp as rd
from .densecore import as_array, frobenius_norm, pow2_scale, row_norms
from .errors import GenerationError, GeoSpectralError, OracleInconsistencyError

_RESAMPLE_CAP = 100
_ABS_FLOOR = 1e-14
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


def gen_test_matrix(spec, orthogonal_basis=False):
    """M = B_real L_real B_real^{-1} for a seeded random basis.

    The basis is resampled (up to 100 times) until its condition number
    fits under the cap; with orthogonal_basis=True the basis is the Q
    factor of a seeded Gaussian draw, producing a normal matrix.  An empty
    spectrum gives the 0 x 0 matrix on either path.
    """
    n = spec.dim
    rng = np.random.default_rng(np.random.PCG64(spec.basis_seed))
    l = rd.real_block_form(spec.real_eigs, *np.reshape(spec.complex_pairs, (-1, 2)).T)
    if n == 0:  # np.linalg.cond is not defined on an empty basis
        return l
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


def _phase_distance(nu, g, norm_a, inner, norm_e):
    """The largest ||rotated term - left||_F over all phases, for each
    pair, from its nu, its Gram g = U^T V and three numbers of its
    comparison with the left form.  Rotating both splits maps U, V to
    U R, V R and the Gram to R^T G R; R commutes with J and with
    omega I - sigma J, so the rotated term is (nu / nu_theta) A with
    A = U C V^T, where nu_theta = |(cos, -sin) G|^2 spans the eigenvalues
    of G G^T.  With f = nu / nu_theta - 1 and E = A - left, the squared
    distance f^2 ||A||^2 + 2 f <A, E> + ||E||^2 is convex in f, so its
    largest value is at one of those two ends; a singular G reads inf."""
    # G G^T's diagonal and off-diagonal entry; its smaller eigenvalue is
    # det(G)^2 over its larger
    rows, cross = np.sum(g * g, axis=2), np.sum(g[:, 0] * g[:, 1], axis=1)
    top = (rows[:, 0] + rows[:, 1] + np.hypot(rows[:, 0] - rows[:, 1], 2.0 * cross)) / 2.0
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = nu[:, None] / np.stack((top, det * det / top), axis=1) - 1.0
        square = f * (f * norm_a[:, None] ** 2 + 2.0 * inner[:, None]) + norm_e[:, None] ** 2
    return np.sqrt(np.maximum(square, 0.0)).max(axis=1)


def _bracket(sigma, omega, e, f, z):
    """Each pair's bracket omega (e e^T + f f^T) - sigma (e^f) applied to the
    columns of z by associativity, as omega (e (e.z) + f (f.z))
    - sigma (e (f.z) - f (e.z)), so that it is never formed: e and f are
    (k, n, 1) stacks, z is (k, n, m) and sigma and omega are (k, 1, 1)."""
    ez, fz = np.sum(e * z, axis=1, keepdims=True), np.sum(f * z, axis=1, keepdims=True)
    return omega * (e * ez + f * fz) - sigma * (e * fz - f * ez)


def _r_factors(*pairs):
    """The R factor of [X Y] for each pair (X, Y) of (k, n, 2) stacks, from
    one batched QR of their (len(pairs), k, n, 4) stack."""
    k, n = pairs[0][0].shape[:2]
    stack = np.empty((len(pairs), k, n, 4))
    for s, (x, y) in zip(stack, pairs):
        s[..., :2], s[..., 2:] = x, y
    return np.linalg.qr(stack, mode="r")


def _form_comparisons(sigma, omega, nu, u, v, w, wt, vt):
    """The k pairs' comparisons with their explicit wedge forms, on rank-two
    factors.  By associativity the left form (1/nu) (b^p) X is
    b x^T - p y^T, with X the bracket of d, q, x = X^T p / nu and
    y = X^T b / nu, and the right form (1/nu) X' (d^q) is x' q^T - y' d^T,
    with X' the bracket of b, p, x' = X' d / nu and y' = X' q / nu.  So
    each difference below is one product F G^T of (n, 4) factors, whose
    Frobenius norm is ||R_F R_G^T||_F, as is that of the product of any of
    their column blocks: Householder QR is backward stable, so this is as
    accurate as the n x n difference, which is never formed.  With
    W = U C, A = W V^T and E = A - left, returns the k x 5 norms of left,
    left - right, A, E and W_t V_t^T - left^T (the transposed term's
    factors, from wt and vt), and <A, E>."""
    sigma, omega, nu = sigma[:, None, None], omega[:, None, None], nu[:, None, None]
    # left = P_l Q_l^T with P_l = [b -p] and Q_l = [x y] (X^T is the bracket
    # of q, d, as q^d = -(d^q)), and right = P_r Q_r^T with P_r = [x' -y']
    # and Q_r = [q d]
    sign = np.array([1.0, -1.0])
    p_l, q_l = u * sign, _bracket(sigma, omega, v[..., 1:], v[..., :1], u[..., ::-1]) / nu
    p_r, q_r = _bracket(sigma, omega, u[..., :1], u[..., 1:], v) * (sign / nu), v[..., ::-1]
    # E = [W -P_l] [V Q_l]^T, left - right = [P_l -P_r] [Q_l Q_r]^T and
    # W_t V_t^T - left^T = [W_t Q_l] [V_t -P_l]^T
    rf = _r_factors((w, -p_l), (p_l, -p_r), (wt, q_l))
    rg = np.swapaxes(_r_factors((v, q_l), (q_l, q_r), (vt, -p_l)), 2, 3)
    e, diff, transposed = rf @ rg
    # A and -left are the products of E's first and of its last two factor
    # columns, in the same orthonormal coordinates as E
    a, left = rf[0, ..., :2] @ rg[0, :, :2], rf[0, ..., 2:] @ rg[0, :, 2:]
    norms = np.linalg.norm(np.stack((left, diff, a, e, transposed), axis=1), axis=(2, 3))
    return norms, np.sum(a * e, axis=(1, 2))


def _column_norms(x):
    """The norms of the columns of the (k, n, m) stack x, as (k, m), safe
    from overflow and underflow."""
    return np.reshape(row_norms(np.swapaxes(x, 1, 2).reshape(-1, x.shape[1])), (len(x), -1))


def _decomposition_checks(m, dec):
    norm_m = frobenius_norm(m)
    w, cores = rd.term_stacks(dec)
    recon = (w.T @ dec.left) * dec.s  # reconstruct(dec)
    checks = [("reconstruction", _rel(frobenius_norm(recon - m), norm_m))]

    oracle = brute_force_reconstruct(m)
    checks.append(("oracle_agreement", _rel(frobenius_norm(oracle - recon), norm_m)))

    k, n, first = len(dec.sigma), dec.dim, len(dec.alpha)
    if not k:
        return checks
    # each pair's U, V and U C as (k, n, 2) views of the last 2k rows; the
    # cores and U C times s, a power of two
    u, v, w = (np.swapaxes(x[-2 * k:].reshape(k, 2, n), 1, 2) for x in (dec.right, dec.left, w * dec.s))
    g, c, nu = dec.gram, cores * dec.s, dec.nu
    # geoalg.transpose_term's (b, p, d, q) -> (d, -q, b, -p) has U_t = V F
    # and V_t = U F, F = diag(1, -1): its Gram is F G^T F, its nu that
    # Gram's first row's squared norm and its U_t C_t is (V F) C_t
    flip = np.array([1.0, -1.0])
    g_t = np.swapaxes(g, 1, 2) * np.outer(flip, flip)
    c_t = rd.plane_core(dec.sigma[:, None, None], dec.omega[:, None, None], g_t,
                        np.sum(g_t[:, :1] ** 2, axis=2, keepdims=True))
    norms, inner = _form_comparisons(dec.sigma, dec.omega, nu, u, v, w, (v * flip) @ c_t, u * flip)
    norm_t, form, norm_a, norm_e, transp = norms.T

    # every other check runs on all k pairs at once, from the factors; every
    # norm of a vector is safe from overflow and underflow
    norm_u, norm_v = (_column_norms(x) for x in (u, v))
    block = np.stack((dec.sigma, dec.omega, -dec.omega, dec.sigma), axis=1).reshape(k, 2, 2)
    # M_t [b p] = [b p] block and M_t^T [d q] = [d q] block^T, each miss over
    # ||b|| + ||p|| (||d|| + ||q||), then relative to ||left||
    act_r = u @ (c @ np.swapaxes(g, 1, 2)) - u @ block
    act_l = v @ (np.swapaxes(c, 1, 2) @ g) - v @ np.swapaxes(block, 1, 2)
    eigact = _rel(np.maximum(_column_norms(act_r).max(axis=1) / norm_u.sum(axis=1),
                             _column_norms(act_l).max(axis=1) / norm_v.sum(axis=1)),
                  norm_t)

    # [d q]^T against every column of B_real but the pair's own two
    basis = dec.right.T
    vb = np.swapaxes(v, 1, 2) @ basis
    others = np.ones((k, n), dtype=bool)
    mine = first + 2 * np.arange(k)
    others[np.arange(k), mine] = others[np.arange(k), mine + 1] = False
    # the term U C V^T maps column x to U y, y = C V^T x, and with U = QR
    # ||U y|| = ||R y||, a safe hypot: no n x n term is formed
    ry = np.linalg.qr(u, mode="r") @ (c @ vb)
    killed = np.hypot(ry[:, 0], ry[:, 1])
    norm_x = np.array(row_norms(dec.right))
    annih = _rel(killed / norm_x, norm_t[:, None])

    # d_i^dag b_j = 0 = d_i^dag conj(b_j) for every other eigenvector, each
    # d_i.x_j and q_i.x_j over its own two norms (so scaling one term leaves
    # it as it is), and the pair's own d.b - q.p and q.b + d.p vanish
    scale = norm_v[:, :, None] * norm_x
    cosines = np.divide(np.abs(vb), scale, out=np.zeros_like(vb), where=scale > 0.0)
    cross = np.where(others, cosines.max(axis=1), 0.0).max(axis=1, initial=0.0)
    own = np.maximum(np.abs(g[:, 0, 0] - g[:, 1, 1]), np.abs(g[:, 0, 1] + g[:, 1, 0]))
    bio = np.maximum(_rel(own, np.sum(norm_u * norm_v, axis=1)), cross)

    phase = _rel(_phase_distance(nu, g, norm_a, inner, norm_e), norm_t)

    checks.append(("form_equality", _rel(form, norm_t).max()))
    checks.append(("eigen_action", eigact.max()))
    checks.append(("annihilation", annih[others].max(initial=0.0)))
    checks.append(("biorthogonality", bio.max()))
    checks.append(("phase_invariance", phase.max()))
    checks.append(("transposition", _rel(transp, norm_t).max()))
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
