"""Singular value decomposition of the differential and adapted frames.

For a map into a surface there are at most two nonzero singular values
lambda >= mu.  The adapted bases follow the graph construction:
e_1 = alpha_1 / sqrt(1 + lambda^2), xi = (-lambda alpha_1 + beta_1) /
sqrt(1 + lambda^2), and analogously with mu for the second direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DifferentialSample:
    """df together with the metrics at a batch of points (batch shape ``...``).

    A single point is a batch of shape ().
    """

    df: np.ndarray    # (..., m, 2): df^alpha_i = d_i f^alpha, rows indexed by M axes
    g_m: np.ndarray   # (..., m, m)
    g_n: np.ndarray   # (..., 2, 2)


@dataclass
class SVDFrame:
    """Adapted frames and derived scalars over a batch of points (dim M >= 2)."""

    lam: np.ndarray          # (...)
    mu: np.ndarray           # (...)
    alpha: np.ndarray        # (..., m, m): rows are the g_M-orthonormal alpha_i
    beta: np.ndarray         # (..., 2, 2): rows are the g_N-orthonormal beta_a
    e: np.ndarray            # (..., m, m): rows orthonormal w.r.t. induced g
    xi: np.ndarray           # (..., m + 2): product-chart components
    eta: np.ndarray          # (..., m + 2)
    s_diag: np.ndarray       # (..., m)
    sperp_diag: np.ndarray   # (..., 2)
    t11: np.ndarray          # (...)
    t22: np.ndarray          # (...)
    p: np.ndarray            # (...)


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _whiten(sample: DifferentialSample):
    """(L_M, R_N, R_N df^T L_M^{-T}) where L L^T = g_M and R^T R = g_N; d is (..., 2, m)."""
    lm = np.linalg.cholesky(sample.g_m)
    rn = _t(np.linalg.cholesky(sample.g_n))
    return lm, rn, _t(np.linalg.solve(lm, sample.df @ _t(rn)))


def quad_form(u: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T a v over the batch axes: u, v (..., k), a (..., k, k)."""
    return (u[..., None, :] @ a @ v[..., :, None])[..., 0, 0]


def _first_nonzero_positive(rows: np.ndarray) -> np.ndarray:
    """Flip rows so that their first component above 1e-13 in magnitude is positive."""
    idx = np.argmax(np.abs(rows) > 1e-13, axis=-1)[..., None]
    lead = np.take_along_axis(rows, idx, axis=-1)
    return np.where(lead < 0, -rows, rows)


def singular_values(sample: DifferentialSample) -> tuple[np.ndarray, np.ndarray]:
    """The two possibly nonzero singular values of df, largest first."""
    sv = np.linalg.svd(_whiten(sample)[2], compute_uv=False)
    return sv[..., 0], sv[..., 1]


def build_svd_frame(sample: DifferentialSample) -> SVDFrame:
    """Construct the full adapted frame at every point of a batch.

    Deterministic: numpy's SVD ordering plus a sign fix making the first
    nonzero component of each whitened right-singular vector positive.  The
    beta vectors are re-derived from df alpha_i where the singular value is
    nonzero so that df(alpha_1) = lam beta_1 holds exactly; where it vanishes
    they are the sign-fixed whitened left-singular vectors.
    """
    lm, rn, d = _whiten(sample)
    u, sv, vt = np.linalg.svd(d, full_matrices=True)
    lam, mu = sv[..., 0], sv[..., 1]
    alpha = _t(np.linalg.solve(_t(lm), _t(_first_nonzero_positive(vt))))

    nonzero = sv[..., None] > 1e-13
    mapped = (alpha[..., :2, :] @ sample.df) / np.where(nonzero, sv[..., None], 1.0)
    chart_axis = _t(np.linalg.solve(rn, _t(_first_nonzero_positive(_t(u)))))
    beta = np.where(nonzero, mapped, chart_axis)
    # re-orthonormalize beta against g_N (exact for clean input, guards roundoff)
    g_n = sample.g_n
    b0 = beta[..., 0, :] / np.sqrt(quad_form(beta[..., 0, :], g_n, beta[..., 0, :]))[..., None]
    b1 = beta[..., 1, :] - quad_form(b0, g_n, beta[..., 1, :])[..., None] * b0
    b1 = b1 / np.sqrt(quad_form(b1, g_n, b1))[..., None]
    beta = np.stack([b0, b1], axis=-2)

    root = np.sqrt(1.0 + sv * sv)[..., None]                   # (..., 2, 1)
    e = alpha.copy()
    e[..., :2, :] /= root
    normals = np.concatenate([-sv[..., None] * alpha[..., :2, :], beta], axis=-1) / root

    s_diag = np.ones(alpha.shape[:-1])
    s_diag[..., :2] = (1.0 - sv * sv) / (1.0 + sv * sv)
    t = -2.0 * sv / (1.0 + sv * sv)
    return SVDFrame(
        lam=lam, mu=mu, alpha=alpha, beta=beta, e=e, xi=normals[..., 0, :],
        eta=normals[..., 1, :], s_diag=s_diag, sperp_diag=-s_diag[..., :2],
        t11=t[..., 0], t22=t[..., 1], p=s_diag[..., 0] + s_diag[..., 1],
    )


def area_decreasing_status(lam: float, mu: float) -> tuple[float, bool, float]:
    """(p, strictly area decreasing?, 2-dilation) from the singular values."""
    if mu > lam or mu < 0:
        raise ValueError("expects lam >= mu >= 0")
    p = 2.0 * (1.0 - lam * lam * mu * mu) / ((1.0 + lam * lam) * (1.0 + mu * mu))
    return p, lam * mu < 1.0, lam * mu


def singular_values_batch(g_m: np.ndarray, g_n: np.ndarray, df: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized singular values over a batch of points.

    g_m: (..., m, m), g_n: (..., 2, 2), df: (..., m, 2).
    """
    pullback = df @ g_n @ _t(df)
    lm = np.linalg.cholesky(g_m)
    inv_lm = np.linalg.inv(lm)
    c = inv_lm @ pullback @ np.swapaxes(inv_lm, -1, -2)
    ev = np.linalg.eigvalsh(c)
    ev = np.clip(ev, 0.0, None)
    lam = np.sqrt(ev[..., -1])
    mu = np.sqrt(ev[..., -2])
    return lam, mu


def p_batch(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - lam**2 * mu**2) / ((1.0 + lam**2) * (1.0 + mu**2))
