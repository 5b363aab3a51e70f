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
    """g^{-1} of ``_inverse_and_det``, or None (the caller words its own error)."""
    inv_det = _inverse_and_det(g)
    return None if inv_det is None else inv_det[0]


def _inverse_and_det(g: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(g^{-1}, det g) of the matrices g (..., k, k) by one factorisation, or None unless all are
    finite and pass ``potrf``'s pivot test: in closed form for 2 x 2 (a > 0, s = d - c^2/a > 0)
    and 3 x 3 (g = L diag(d) L^T, d > 0; exactly 1/g_ii if diagonal), else ``cholesky``, inv."""
    if not np.isfinite(g).all():
        return None
    if g.shape[-1] == 2:
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
        return out, a * parts[2]
    if g.shape[-1] != 3:
        try:
            diag = np.diagonal(_cholesky(g), axis1=-2, axis2=-1)
        except DegenerateMetricError:
            return None
        return np.linalg.inv(g), np.prod(diag, axis=-1) ** 2
    d1, g10, g20 = g[..., 0, 0], g[..., 1, 0], g[..., 2, 0]
    if not d1.min() > 0:
        return None
    l10, l20 = g10 / d1, g20 / d1
    d2 = g[..., 1, 1] - l10 * g10
    if not d2.min() > 0:
        return None
    s21 = g[..., 2, 1] - l20 * g10
    m21 = s21 / -d2                             # -l21; L^{-1} = (1, 0, 0; -l10, 1, 0; m20, m21, 1)
    d3 = g[..., 2, 2] - l20 * g20 + m21 * s21   # each pivot is at most g_ii: NaN or -inf fail
    if not d3.min() > 0:
        return None
    i1, i2, m20 = 1.0 / d2, 1.0 / d3, -(l10 * m21 + l20)
    out = np.empty(g.shape)
    out[..., 2, 2] = i2
    out[..., 2, 1] = out[..., 1, 2] = u12 = m21 * i2
    out[..., 2, 0] = out[..., 0, 2] = u02 = m20 * i2
    out[..., 1, 1] = i1 + m21 * u12
    out[..., 1, 0] = out[..., 0, 1] = m20 * u12 - l10 * i1
    out[..., 0, 0] = 1.0 / d1 + l10 * l10 * i1 + m20 * u02
    return out, d1 * d2 * d3


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


def _sign_fixed(x0, x1):
    """Rows (x0, x1) flipped so that their first component above 1e-13 in magnitude
    is positive (``_first_nonzero_positive`` on component arrays)."""
    sign = np.where(np.where(np.abs(x0) > 1e-13, x0, x1) < 0, -1.0, 1.0)
    return sign * x0, sign * x1


def _quad_form2(u0, u1, g, v0, v1):
    """u^T g v for 2-vectors given by their components and g (..., 2, 2), row by row
    as ``quad_form`` sums."""
    return ((u0 * g[..., 0, 0] + u1 * g[..., 1, 0]) * v0
            + (u0 * g[..., 0, 1] + u1 * g[..., 1, 1]) * v1)


def _frame2(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> SVDFrame:
    """``build_svd_frame`` for m = 2 on per-node component arrays, each step in the
    order of the stacked construction: the Cholesky factors and the whitened df; the
    SVD in closed form and its sign fix; alpha, beta and beta's re-orthonormalisation;
    e, xi, eta, S, T and p.  A stacked matmul sums its two products with one rounding
    fewer (a fused multiply-add), so a component whose two products are both nonzero
    can differ from the stacked one in its last bit; on a diagonal df and diagonal
    metrics, as in an equivariant lift, at most the entries of size ~1e-15 do.

    The whitened d = (a, b; c, e) is split into a rotation part E I + H J and a
    reflection part F K + G L, with J the quarter turn, K = diag(1, -1) and L the
    swap of the two axes.  With Q = |(E, H)| and R = |(F, G)|, d = Rot(phi)
    diag(Q + R, Q - R) Rot(theta), where phi + theta and phi - theta are the polar
    angles of (E, H) and (F, G) (Blinn, "Consider the lowly 2x2 matrix", 1996).
    Where Q or R vanishes (a conformal, anticonformal or zero d) ``arctan2`` picks
    the basis; a zero d gives u = vt = I, as ``svd`` does.
    """
    chol_m, chol_n = _cholesky2(g_m), _cholesky2(g_n)
    if chol_m is None or chol_n is None:
        raise DegenerateMetricError("metric not positive definite: a <= 0 or ad - bc <= 0")
    l00, l10, l11 = chol_m[0], chol_m[1], np.sqrt(chol_m[2])   # L_M L_M^T = g_M
    n00, n10, n11 = chol_n[0], chol_n[1], np.sqrt(chol_n[2])   # R_N = (n00, n10; 0, n11)
    f00, f01, f10, f11 = df[..., 0, 0], df[..., 0, 1], df[..., 1, 0], df[..., 1, 1]
    # d = R_N df^T L_M^{-T}: the rows of df R_N^T, solved forward through L_M
    a = (f00 * n00 + f01 * n10) / l00
    c = f01 * n11 / l00
    b = (f10 * n00 + f11 * n10 - l10 * a) / l11
    e = (f11 * n11 - l10 * c) / l11

    # + 0.0 turns a signed zero into +0, so that arctan2(0, -0) does not read pi
    big_e, big_f = (a + e) / 2 + 0.0, (a - e) / 2 + 0.0
    big_g, big_h = (b + c) / 2 + 0.0, (c - b) / 2 + 0.0
    q, r = np.hypot(big_e, big_h), np.hypot(big_f, big_g)
    rot_sum, rot_diff = np.arctan2(big_h, big_e), np.arctan2(big_g, big_f)
    phi, theta = (rot_sum + rot_diff) / 2, (rot_sum - rot_diff) / 2
    ct, st = np.cos(theta), np.sin(theta)
    lam, mu = q + r, np.abs(q - r)

    # alpha_k = L_M^{-T} v_k for the sign-fixed rows v_k of vt = (ct, -st; st, ct)
    batch = df.shape[:-2]
    alpha, beta = np.empty(batch + (2, 2)), np.empty(batch + (2, 2))
    for k, (v0, v1) in enumerate((_sign_fixed(ct, -st), _sign_fixed(st, ct))):
        alpha[..., k, 1] = a1 = v1 / l11
        alpha[..., k, 0] = (v0 - l10 * a1) / l00
    # beta_k = df^T alpha_k / sv_k where sv_k > 1e-13, else R_N^{-1} u_k for the
    # sign-fixed columns u_k of u = Rot(phi) diag(1, -1 where Q < R)
    degenerate = not (mu > 1e-13).all()        # lam >= mu, and both are NaN together
    rows = []
    for k, sv in enumerate((lam, mu)):
        nonzero = sv > 1e-13
        div = np.where(nonzero, sv, 1.0) if degenerate else sv
        a0, a1 = alpha[..., k, 0], alpha[..., k, 1]
        b0, b1 = (a0 * f00 + a1 * f10) / div, (a0 * f01 + a1 * f11) / div
        if degenerate and not nonzero.all():
            cp, sp = np.cos(phi), np.sin(phi)
            sign = np.where(q < r, -1.0, 1.0)
            w0, w1 = _sign_fixed(cp, sp) if k == 0 else _sign_fixed(-sign * sp, sign * cp)
            axis1 = w1 / n11
            b0, b1 = np.where(nonzero, b0, (w0 - n10 * axis1) / n00), np.where(nonzero, b1, axis1)
        rows.append((b0, b1))
    # re-orthonormalize beta against g_N (exact for clean input, guards roundoff)
    (b00, b01), (b10, b11) = rows
    norm = np.sqrt(_quad_form2(b00, b01, g_n, b00, b01))
    beta[..., 0, 0] = b00 = b00 / norm
    beta[..., 0, 1] = b01 = b01 / norm
    proj = _quad_form2(b00, b01, g_n, b10, b11)
    b10, b11 = b10 - proj * b00, b11 - proj * b01
    norm = np.sqrt(_quad_form2(b10, b11, g_n, b10, b11))
    beta[..., 1, 0], beta[..., 1, 1] = b10 / norm, b11 / norm

    sv = np.stack([lam, mu], axis=-1)
    den = 1.0 + sv * sv
    root = np.sqrt(den)[..., None]                             # (..., 2, 1)
    normals = np.concatenate([-sv[..., None] * alpha, beta], axis=-1) / root
    s_diag = (1.0 - sv * sv) / den
    t = -2.0 * sv / den
    return SVDFrame(
        lam=lam, mu=mu, alpha=alpha, beta=beta, e=alpha / root, xi=normals[..., 0, :],
        eta=normals[..., 1, :], s_diag=s_diag, t11=t[..., 0], t22=t[..., 1],
        p=s_diag[..., 0] + s_diag[..., 1],
    )


def build_svd_frame(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> SVDFrame:
    """Construct the full adapted frame at every point of a batch.

    df: (..., m, 2), df^alpha_i = d_i f^alpha with rows indexed by M axes;
    g_m: (..., m, m); g_n: (..., 2, 2).  A single point is a batch of shape ().

    Deterministic: descending singular values (closed form on component arrays
    when m = 2, ``_frame2``; numpy's SVD otherwise) plus a sign fix making the
    first nonzero component of each whitened right-singular vector positive.  The
    beta vectors are re-derived from df alpha_i where the singular value is
    nonzero so that df(alpha_1) = lam beta_1 holds exactly; where it vanishes
    they are the sign-fixed whitened left-singular vectors.
    """
    if df.shape[-2] == 2:
        return _frame2(df, g_m, g_n)
    lm, rn, d = _whiten(df, g_m, g_n)
    u, sv, vt = np.linalg.svd(d, full_matrices=True)
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
