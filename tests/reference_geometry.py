"""Reference implementation of the pointwise graph geometry: the scalar
``build_svd_frame`` and ``point_geometry`` as they were before the batched
field geometry replaced them, kept verbatim as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from graphflow.frames import DifferentialSample
from graphflow.immersion import GraphMapField


@dataclass
class SVDFrame:
    """Adapted frames and derived scalars at one point."""

    lam: float
    mu: float
    alpha: np.ndarray        # (m, m): rows are the g_M-orthonormal alpha_i
    beta: np.ndarray         # (2, 2): rows are the g_N-orthonormal beta_a
    e: np.ndarray            # (m, m): rows orthonormal w.r.t. induced g
    xi: np.ndarray           # (m + 2,): product-chart components
    eta: np.ndarray          # (m + 2,)
    s_diag: np.ndarray       # (m,)
    sperp_diag: np.ndarray   # (2,)
    t11: float
    t22: float
    p: float


def _whitened(sample: DifferentialSample) -> np.ndarray:
    """R_N df L_M^{-T} where L L^T = g_M and R^T R = g_N (2 x m)."""
    lm = np.linalg.cholesky(sample.g_m)
    rn = scipy.linalg.cholesky(sample.g_n, lower=False)
    dfn = rn @ sample.df.T            # (2, m) in whitened target coordinates
    return scipy.linalg.solve_triangular(lm, dfn.T, lower=True).T


def _sign_fix(vecs: np.ndarray) -> np.ndarray:
    """Flip rows so the first component of largest magnitude is positive."""
    out = vecs.copy()
    for i, v in enumerate(out):
        idx = np.argmax(np.abs(v) > 1e-13) if np.any(np.abs(v) > 1e-13) else 0
        if v[idx] < 0:
            out[i] = -v
    return out


def build_svd_frame(sample: DifferentialSample) -> SVDFrame:
    """Construct the full adapted frame at a point.

    Deterministic: numpy's SVD ordering plus a sign fix making the first
    nonzero component of each whitened right-singular vector positive.  The
    beta vectors are re-derived from df alpha_i where the singular value is
    nonzero so that df(alpha_1) = lam beta_1 holds exactly.
    """
    m = sample.df.shape[0]
    lm = np.linalg.cholesky(sample.g_m)
    rn = scipy.linalg.cholesky(sample.g_n, lower=False)
    d = _whitened(sample)                       # (2, m)
    u, sv, vt = np.linalg.svd(d, full_matrices=True)
    lam = float(sv[0]) if len(sv) > 0 else 0.0
    mu = float(sv[1]) if len(sv) > 1 else 0.0

    v = _sign_fix(vt)                           # (m, m) rows
    alpha = scipy.linalg.solve_triangular(lm, v.T, lower=True, trans="T").T

    beta = np.empty((2, 2))
    for a, s in enumerate((lam, mu)):
        if s > 1e-13:
            beta[a] = (sample.df.T @ alpha[a]) / s
        else:
            # rank-deficient direction: whitened chart axis, sign-fixed
            ua = _sign_fix(u.T)[a]
            beta[a] = np.linalg.solve(rn, ua)
    # re-orthonormalize beta against g_N (exact for clean input, guards roundoff)
    b0 = beta[0] / np.sqrt(beta[0] @ sample.g_n @ beta[0])
    b1 = beta[1] - (b0 @ sample.g_n @ beta[1]) * b0
    b1 = b1 / np.sqrt(b1 @ sample.g_n @ b1)
    beta = np.vstack([b0, b1])

    e = alpha.copy()
    e[0] = alpha[0] / np.sqrt(1.0 + lam * lam)
    if m > 1:
        e[1] = alpha[1] / np.sqrt(1.0 + mu * mu)

    xi = np.concatenate([-lam * alpha[0], beta[0]]) / np.sqrt(1.0 + lam * lam)
    if m > 1:
        eta = np.concatenate([-mu * alpha[1], beta[1]]) / np.sqrt(1.0 + mu * mu)
    else:  # pragma: no cover - dim M > 1 everywhere in this package
        eta = np.concatenate([np.zeros(m), beta[1]])

    s_diag = np.ones(m)
    s_diag[0] = (1.0 - lam * lam) / (1.0 + lam * lam)
    if m > 1:
        s_diag[1] = (1.0 - mu * mu) / (1.0 + mu * mu)
    sperp_diag = np.array([-s_diag[0], -s_diag[1] if m > 1 else -1.0])
    t11 = -2.0 * lam / (1.0 + lam * lam)
    t22 = -2.0 * mu / (1.0 + mu * mu)
    p = float(s_diag[0] + (s_diag[1] if m > 1 else 1.0))

    return SVDFrame(
        lam=lam, mu=mu, alpha=alpha, beta=beta, e=e, xi=xi, eta=eta,
        s_diag=s_diag, sperp_diag=sperp_diag, t11=t11, t22=t22, p=p,
    )


@dataclass
class PointGeometry:
    """Induced metric, second fundamental form, and frame at one node."""

    g: np.ndarray
    g_inv: np.ndarray
    a_xi: np.ndarray      # (m, m) second fundamental form w.r.t. xi, e-basis
    a_eta: np.ndarray
    h_xi: float
    h_eta: float
    a_sq: float           # |A|^2
    h_sq: float           # |H|^2
    frame: SVDFrame
    tangency_residual: float
    a_vectors: np.ndarray  # (m, m, m+2) A(e_i, e_j) in product-chart components


def _node_slices(node):
    return tuple(int(i) for i in node)


def point_geometry(field: GraphMapField, node) -> PointGeometry:
    """Full second-order geometry of the graph at a grid node."""
    idx = _node_slices(node)
    m = field.M.dim
    x = field.coords()[idx]
    fx = field.f[idx]
    df = field.df_field()[idx]
    d2f = field.d2f_field()[idx]
    g_m = field.g_m_field()[idx]
    g_n = field.g_n_field()[idx]
    gam_m = field.gamma_m_field()[idx]
    gam_n = field.gamma_n_field()[idx]
    gam_g = field.gamma_induced_field()[idx]
    g = field.induced_g_field()[idx]
    g_inv = field.induced_g_inv_field()[idx]

    frame = build_svd_frame(DifferentialSample(df=df, g_m=g_m, g_n=g_n))

    # A(d_i, d_j) in product-chart components (M part, N part)
    a_m = gam_m - gam_g                                        # (k, i, j)
    a_n = (
        d2f
        + np.einsum("abc,ib,jc->ija", gam_n, df, df)
        - np.einsum("kij,ka->ija", gam_g, df)
    )                                                          # (i, j, alpha)
    a_coord = np.concatenate([a_m.transpose(1, 2, 0), a_n], axis=-1)  # (i, j, m+2)

    e = frame.e                                                # rows e_i, chart comps
    a_e = np.einsum("ia,jb,abc->ijc", e, e, a_coord)           # e-basis

    gp = np.zeros((m + 2, m + 2))
    gp[:m, :m] = g_m
    gp[m:, m:] = g_n
    a_xi = a_e @ gp @ frame.xi
    a_eta = a_e @ gp @ frame.eta

    h_xi = float(np.trace(a_xi))
    h_eta = float(np.trace(a_eta))
    a_sq = float(np.sum(a_xi**2) + np.sum(a_eta**2))
    h_sq = h_xi**2 + h_eta**2

    dfe = np.concatenate([e, (df.T @ e.T).T], axis=-1)         # rows dF(e_i)
    tang = np.einsum("ijc,cd,kd->ijk", a_e, gp, dfe)
    tangency = float(np.abs(tang).max())

    return PointGeometry(
        g=g, g_inv=g_inv, a_xi=a_xi, a_eta=a_eta, h_xi=h_xi, h_eta=h_eta,
        a_sq=a_sq, h_sq=h_sq, frame=frame, tangency_residual=tangency,
        a_vectors=a_e,
    )
