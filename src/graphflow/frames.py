"""Singular value decomposition of the differential and adapted frames.

For a map into a surface there are at most two nonzero singular values
lambda >= mu.  The adapted bases follow the graph construction:
e_1 = alpha_1 / sqrt(1 + lambda^2), xi = (-lambda alpha_1 + beta_1) /
sqrt(1 + lambda^2), and analogously with mu for the second direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError


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
    t11: np.ndarray          # (...)
    t22: np.ndarray          # (...)
    p: np.ndarray            # (...)


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _cholesky2(g: np.ndarray):
    """(l00, l10, s) of 2 x 2 matrices g = (a, b; c, d) (..., 2, 2) as ``potrf``
    forms them from the lower triangle: l00 = sqrt(a), l10 = c / l00 and the Schur
    complement s = d - l10^2 = l11^2; None where some a <= 0 or s <= 0.  NaN passes,
    as in ``potrf``."""
    a = g[..., 0, 0]
    if (a <= 0).any():
        return None
    l00 = np.sqrt(a)
    l10 = g[..., 1, 0] / l00
    s = g[..., 1, 1] - l10 * l10
    if (s <= 0).any():
        return None
    return l00, l10, s


def _cholesky(g: np.ndarray) -> np.ndarray:
    """The lower Cholesky factors of the metrics g (..., k, k); 2 x 2 ones in closed
    form (``_cholesky2``)."""
    if g.shape[-1] != 2:
        try:
            return np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:  # e.g. a chart metric at its polar seam
            raise DegenerateMetricError(f"metric not positive definite: {exc}") from exc
    parts = _cholesky2(g)
    if parts is None:
        raise DegenerateMetricError("metric not positive definite: a <= 0 or ad - bc <= 0")
    out = np.zeros(g.shape)
    out[..., 0, 0], out[..., 1, 0], s = parts
    out[..., 1, 1] = np.sqrt(s)
    return out


def pd_inverse(g: np.ndarray) -> np.ndarray | None:
    """g^{-1} of the matrices g (..., k, k) when every one is finite and has a
    Cholesky factor, else None (the caller words its own error); ``cholesky``
    returns NaN on NaN input, hence the finiteness test.

    A 2 x 2 g = (a, b; c, d) needs a > 0 and s = d - (c / sqrt(a))^2 > 0, the test
    that ``_cholesky2`` and ``potrf`` make, and inverts in closed form through a
    and s, so that a diagonal g inverts to exactly 1/a and 1/d.  Larger ones are
    factorised by ``cholesky`` and inverted by ``inv``.
    """
    if not np.isfinite(g).all():
        return None
    if g.shape[-1] != 2:
        try:
            _cholesky(g)
        except DegenerateMetricError:
            return None
        return np.linalg.inv(g)
    parts = _cholesky2(g)
    if parts is None:
        return None
    a, inv_s = g[..., 0, 0], 1.0 / parts[2]
    up, low = g[..., 0, 1] / a, g[..., 1, 0] / a
    out = np.empty(g.shape)
    out[..., 0, 0] = 1.0 / a + up * low * inv_s
    out[..., 0, 1] = -up * inv_s
    out[..., 1, 0] = -low * inv_s
    out[..., 1, 1] = inv_s
    return out


def pd_eigh(g: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(eigenvalues ascending, eigenvectors) of the symmetric matrices g (..., k, k)
    when every one is finite and positive definite, else None (the caller words its
    own error).  ``eigh`` raises on some NaN input and passes other NaN on quietly,
    hence the finiteness test."""
    if not np.isfinite(g).all():
        return None
    ev, vecs = np.linalg.eigh(g)
    return (ev, vecs) if ev[..., 0].min() > 0 else None


def _det2(a: np.ndarray) -> np.ndarray:
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _tri_solve(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """x with t x = b for triangular t (..., k, k) and b (..., k, n) on the same batch
    axes; 2 x 2 ones by substitution in closed form, larger ones by ``solve``."""
    if t.shape[-1] != 2:
        return np.linalg.solve(t, b)
    x = np.empty(b.shape)
    i, j = (0, 1) if lower else (1, 0)  # solve row i first, then row j
    x[..., i, :] = b[..., i, :] / t[..., i, i, None]
    x[..., j, :] = (b[..., j, :] - t[..., j, i, None] * x[..., i, :]) / t[..., j, j, None]
    return x


def _svd(d: np.ndarray):
    """(u, sv, vt) with d = u diag(sv) vt, sv descending, for d (..., 2, m).

    A 2 x 2 d is split into a rotation part E I + H J and a reflection part
    F K + G L, with J the quarter turn, K = diag(1, -1) and L the swap of the two
    axes.  With Q = |(E, H)| and R = |(F, G)|, d = Rot(phi) diag(Q + R, Q - R)
    Rot(theta), where phi + theta and phi - theta are the polar angles of (E, H)
    and (F, G) (Blinn, "Consider the lowly 2x2 matrix", 1996).  Where Q or R
    vanishes (a conformal, anticonformal or zero d) ``arctan2`` picks the basis;
    a zero d gives u = vt = I, as ``svd`` does.  Wider d go to ``svd``.
    """
    if d.shape[-1] != 2:
        return np.linalg.svd(d, full_matrices=True)
    a, b, c, e = d[..., 0, 0], d[..., 0, 1], d[..., 1, 0], d[..., 1, 1]
    # + 0.0 turns a signed zero into +0, so that arctan2(0, -0) does not read pi
    big_e, big_f = (a + e) / 2 + 0.0, (a - e) / 2 + 0.0
    big_g, big_h = (b + c) / 2 + 0.0, (c - b) / 2 + 0.0
    q, r = np.hypot(big_e, big_h), np.hypot(big_f, big_g)
    rot_sum, rot_diff = np.arctan2(big_h, big_e), np.arctan2(big_g, big_f)
    phi, theta = (rot_sum + rot_diff) / 2, (rot_sum - rot_diff) / 2
    sign = np.where(q < r, -1.0, 1.0)                  # q - r < 0 flips u's second column
    cp, sp, ct, st = np.cos(phi), np.sin(phi), np.cos(theta), np.sin(theta)
    u = np.stack([np.stack([cp, -sign * sp], axis=-1),
                  np.stack([sp, sign * cp], axis=-1)], axis=-2)
    vt = np.stack([np.stack([ct, -st], axis=-1), np.stack([st, ct], axis=-1)], axis=-2)
    return u, np.stack([q + r, np.abs(q - r)], axis=-1), vt


def _whiten(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray):
    """(L_M, R_N, R_N df^T L_M^{-T}) where L L^T = g_M and R^T R = g_N; d is (..., 2, m)."""
    lm = _cholesky(g_m)
    rn = _t(_cholesky(g_n))
    return lm, rn, _t(_tri_solve(lm, df @ _t(rn), lower=True))


def quad_form(u: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T a v over the batch axes: u, v (..., k), a (..., k, k)."""
    return (u[..., None, :] @ a @ v[..., :, None])[..., 0, 0]


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a v over the batch axes: a (..., k, k), v (..., k).  Row by row with
    ``vecdot``: on a few hundred 2 x 2 matrices it costs under half a stacked matmul."""
    return np.vecdot(a, v[..., None, :])


def _first_nonzero_positive(rows: np.ndarray) -> np.ndarray:
    """Flip rows so that their first component above 1e-13 in magnitude is positive."""
    idx = np.argmax(np.abs(rows) > 1e-13, axis=-1)[..., None]
    lead = np.take_along_axis(rows, idx, axis=-1)
    return np.where(lead < 0, -rows, rows)


def build_svd_frame(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> SVDFrame:
    """Construct the full adapted frame at every point of a batch.

    df: (..., m, 2), df^alpha_i = d_i f^alpha with rows indexed by M axes;
    g_m: (..., m, m); g_n: (..., 2, 2).  A single point is a batch of shape ().

    Deterministic: descending singular values (``_svd``: closed form when
    m = 2, numpy's SVD otherwise) plus a sign fix making the first nonzero
    component of each whitened right-singular vector positive.  The
    beta vectors are re-derived from df alpha_i where the singular value is
    nonzero so that df(alpha_1) = lam beta_1 holds exactly; where it vanishes
    they are the sign-fixed whitened left-singular vectors.
    """
    lm, rn, d = _whiten(df, g_m, g_n)
    u, sv, vt = _svd(d)
    lam, mu = sv[..., 0], sv[..., 1]
    alpha = _t(_tri_solve(_t(lm), _t(_first_nonzero_positive(vt)), lower=False))

    nonzero = sv[..., None] > 1e-13
    mapped = (alpha[..., :2, :] @ df) / np.where(nonzero, sv[..., None], 1.0)
    if nonzero.all():
        beta = mapped
    else:
        chart_axis = _t(_tri_solve(rn, _t(_first_nonzero_positive(_t(u))), lower=False))
        beta = np.where(nonzero, mapped, chart_axis)
    # re-orthonormalize beta against g_N (exact for clean input, guards roundoff)
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
        eta=normals[..., 1, :], s_diag=s_diag, t11=t[..., 0], t22=t[..., 1],
        p=s_diag[..., 0] + s_diag[..., 1],
    )


def generalized_eigvalsh(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric a with respect to the positive definite g,
    ascending: those of L^{-1} a L^{-T}, where L L^T = g.

    a, g: (..., k, k) -> (..., k); a single matrix is a batch of shape ().
    """
    inv_l = np.linalg.inv(_cholesky(g))
    return np.linalg.eigvalsh(inv_l @ a @ _t(inv_l))


def singular_value_invariants(g_m_inv: np.ndarray, g_n: np.ndarray, df: np.ndarray):
    """(lambda, mu, tr K, det K) over a batch of points, where the 2x2 matrix
    K = df^T g_M^{-1} df g_N has the eigenvalues lambda^2 >= mu^2.

    g_m_inv: (..., m, m), g_n: (..., 2, 2), df: (..., m, 2).  The discriminant
    is ((a - d)/2)^2 + bc, not (tr/2)^2 - det: the latter cancels to roundoff
    where lambda = mu, and its square root turns that into an error of
    sqrt(eps) in lambda.  mu^2 = tr/2 - root cancels where mu << lambda, with
    an error of about eps lambda^2 / mu in mu; for m = 2 mu is
    sqrt(det K) / lambda = |det df| sqrt(det g_M^{-1} det g_N) / lambda instead.
    """
    k = _t(df) @ g_m_inv @ df @ g_n
    a, b, c, d = k[..., 0, 0], k[..., 0, 1], k[..., 1, 0], k[..., 1, 1]
    tr = a + d
    root = np.sqrt(np.maximum(((a - d) / 2) ** 2 + b * c, 0.0))
    lam = np.sqrt(tr / 2 + root)
    if df.shape[-2] == 2:  # lambda = 0 only where df = 0, and then mu = 0
        mu = np.abs(_det2(df)) * np.sqrt(_det2(g_m_inv) * _det2(g_n)) / np.where(lam > 0, lam, 1.0)
    else:
        mu = np.sqrt(np.maximum(tr / 2 - root, 0.0))
    return lam, mu, tr, a * d - b * c


def p_batch(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - lam**2 * mu**2) / ((1.0 + lam**2) * (1.0 + mu**2))
