"""Output checks that share no code with the stages they check.

Each check raises CheckFailed with a reason, or returns a dict of
accuracy figures.  Tolerances are the acceptance suite's pinned values:
1e-9 relative reconstruction, 1e-8 * ||M||_F eigenvalue agreement.
"""

import numpy as np

RECONSTRUCTION_TOL = 1e-9
EIGENVALUE_TOL = 1e-8
APPLY_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output is wrong."""


def term_sum(dec):
    """Sum of the decomposition's terms, in factored form.

    A plane term (1/nu)(b^p)[omega(dd^T + qq^T) - sigma(d^q)] equals
    U J (U^T V)(omega I - sigma J) V^T / nu with U = [b p], V = [d q] and
    J = [[0, 1], [-1, 0]], so all terms together are one product
    U_all C V_all^T with a block-diagonal core C.
    """
    cols_u, cols_v, blocks = [], [], []
    for t in dec.real_terms:
        cols_u.append(t.a[:, None])
        cols_v.append(t.c[:, None])
        blocks.append(np.array([[t.alpha / float(t.c @ t.a)]]))
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for t in dec.plane_terms:
        u = np.column_stack([t.b, t.p])
        v = np.column_stack([t.d, t.q])
        blocks.append(j @ (u.T @ v) @ (t.omega * np.eye(2) - t.sigma * j) / t.nu)
        cols_u.append(u)
        cols_v.append(v)
    if not blocks:
        return np.zeros((dec.dim, dec.dim))
    core = np.zeros((sum(b.shape[0] for b in blocks),) * 2)
    i = 0
    for b in blocks:
        k = b.shape[0]
        core[i:i + k, i:i + k] = b
        i += k
    return np.hstack(cols_u) @ core @ np.hstack(cols_v).T


def check_decomposition(m, dec, spec):
    """Reconstruction within 1e-9 relative and eigenvalues equal to the
    planted spectrum within 1e-8 * ||M||_F."""
    norm_m = float(np.linalg.norm(m))
    residual = float(np.linalg.norm(term_sum(dec) - m)) / norm_m
    if not residual <= RECONSTRUCTION_TOL:
        raise CheckFailed(f"reconstruction residual {residual:.3e} > {RECONSTRUCTION_TOL:g}")
    if len(dec.real_terms) != len(spec.real_eigs) or len(dec.plane_terms) != len(spec.complex_pairs):
        raise CheckFailed(
            f"found {len(dec.real_terms)} real / {len(dec.plane_terms)} pairs, planted "
            f"{len(spec.real_eigs)} / {len(spec.complex_pairs)}"
        )
    found = np.array(
        [complex(t.alpha) for t in dec.real_terms]
        + [complex(t.sigma, s * t.omega) for t in dec.plane_terms for s in (1, -1)]
    )
    planted = spec.as_complex()
    gap = np.abs(planted[:, None] - found[None, :])
    eig_err = max(float(gap.min(axis=1).max()), float(gap.min(axis=0).max())) if gap.size else 0.0
    eig_err /= norm_m
    if not eig_err <= EIGENVALUE_TOL:
        raise CheckFailed(f"eigenvalue error {eig_err:.3e} * ||M|| > {EIGENVALUE_TOL:g}")
    return {"rel_residual": residual, "eig_err": eig_err, "eigenvalues": m.shape[0]}


def check_report(report):
    """The identity suite's own verdict, with its reconstruction residual."""
    if not report.overall:
        failed = [c.name for c in report.checks if not c.passed]
        raise CheckFailed(f"identity checks failed: {', '.join(failed)}")
    residuals = {c.name: c.residual for c in report.checks}
    return {"rel_residual": residuals["reconstruction"]}


def check_apply(m, x, y):
    """||y - M x|| <= 1e-9 ||M||_F ||x||."""
    scale = float(np.linalg.norm(m)) * float(np.linalg.norm(x))
    residual = float(np.linalg.norm(y - m @ x)) / scale
    if not residual <= APPLY_TOL:
        raise CheckFailed(f"apply residual {residual:.3e} > {APPLY_TOL:g}")
    return {"rel_residual": residual}
