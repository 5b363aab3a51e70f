"""Singular value decomposition of the differential and adapted frames.

For a map into a surface there are at most two nonzero singular values
lambda >= mu.  The adapted bases follow the graph construction:
e_1 = alpha_1 / sqrt(1 + lambda^2), xi = (-lambda alpha_1 + beta_1) /
sqrt(1 + lambda^2), and analogously with mu for the second direction.
"""

from __future__ import annotations

import functools
import math
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


def _cholesky2(g: np.ndarray):
    """(l00, l10, s) of 2 x 2 matrices g = (a, b; c, d) (..., 2, 2) as ``potrf`` forms
    them from the lower triangle: l00 = sqrt(a), l10 = c / l00 and the Schur complement
    s = d - l10^2 = l11^2; None where some a <= 0 or s <= 0 (NaN passes, as in ``potrf``)."""
    a = g[..., 0, 0]
    if a.min() <= 0:
        return None
    l00 = np.sqrt(a)
    l10 = g[..., 1, 0] / l00
    s = g[..., 1, 1] - l10 * l10
    if s.min() <= 0:
        return None
    return l00, l10, s


def _cholesky(g: np.ndarray) -> np.ndarray:
    """The lower Cholesky factors of the metrics g (..., k, k), by ``cholesky``."""
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:  # e.g. a chart metric at its polar seam
        raise DegenerateMetricError(f"metric not positive definite: {exc}") from exc


@functools.cache
def sym_index(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, full, w) of the S = k(k + 1)/2 rows of a symmetric k x k tensor: row s is entry
    (i_s, j_s), the diagonal first, then the pairs i < j in ``triu_indices`` order; full[i, j] =
    full[j, i] is the row of entry (i, j), and w_s (1 on the diagonal, else 2) its weight."""
    a, b = np.triu_indices(k, 1)
    i, j = np.concatenate([np.arange(k), a]), np.concatenate([np.arange(k), b])
    full = np.empty((k, k), dtype=int)
    full[i, j] = full[j, i] = np.arange(len(i))
    return i, j, full, np.where(i == j, 1.0, 2.0)[:, None]


def components(a: np.ndarray, k: int = 2) -> np.ndarray:
    """The k trailing (component) axes of a first, C-ordered: (..., c) -> (c, ...); with
    k = a.ndim - j, the j leading axes last."""
    c = a.shape[a.ndim - k:]
    return np.ascontiguousarray(a.reshape(-1, math.prod(c)).T).reshape(c + a.shape[:a.ndim - k])


def sym_rows(g: np.ndarray) -> np.ndarray:
    """The ``sym_index`` rows (S, ...) of the matrices g (..., k, k), from their lower triangle."""
    i, j = sym_index(g.shape[-1])[:2]
    return components(g)[j, i]


def _sym_matrices(g: np.ndarray) -> np.ndarray:
    """The C-ordered matrices (..., k, k) of the ``sym_index`` rows g (S, ...)."""
    full = sym_index((math.isqrt(8 * len(g) + 1) - 1) // 2)[2]
    return components(g[full], g.ndim - 1)


def pd_inverse(g: np.ndarray) -> np.ndarray | None:
    """g^{-1} of the matrices g (..., k, k) by ``sym_inverse_and_det`` on ``sym_rows``, C-ordered,
    or None (the caller words its own error)."""
    inv_det = sym_inverse_and_det(sym_rows(g))
    return None if inv_det is None else _sym_matrices(inv_det[0])


def sym_inverse_and_det(g: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(g^{-1}, det g) of symmetric k x k matrices given by their ``sym_index`` rows g (S, ...),
    g^{-1} in rows too, by one factorisation, or None unless all are finite and pass ``potrf``'s
    pivot test: in closed form for 2 x 2 (a > 0, s = d - c^2/a > 0) and 3 x 3 (g = L diag(d) L^T,
    d > 0; exactly 1/g_ii if diagonal), else ``cholesky``, inv."""
    if not np.isfinite(g).all():
        return None
    if len(g) == 3:
        a, d, c = g
        if not a.min() > 0:
            return None
        l10 = c / np.sqrt(a)
        s = d - l10 * l10
        if not s.min() > 0:
            return None
        low, inv_s = c / a, 1.0 / s
        return np.array([1.0 / a + low * low * inv_s, inv_s, -low * inv_s]), a * s
    if len(g) != 6:
        try:
            diag = np.diagonal(_cholesky(_sym_matrices(g)), axis1=-2, axis2=-1)
        except DegenerateMetricError:
            return None
        return sym_rows(np.linalg.inv(_sym_matrices(g))), np.prod(diag, axis=-1) ** 2
    d1, g11, g22, g10, g20, g21 = g
    if not d1.min() > 0:
        return None
    l10, l20 = g10 / d1, g20 / d1
    d2 = g11 - l10 * g10
    if not d2.min() > 0:
        return None
    s21 = g21 - l20 * g10
    m21 = s21 / -d2                             # -l21; L^{-1} = (1, 0, 0; -l10, 1, 0; m20, m21, 1)
    d3 = g22 - l20 * g20 + m21 * s21            # each pivot is at most g_ii: NaN or -inf fail
    if not d3.min() > 0:
        return None
    i1, i2, m20 = 1.0 / d2, 1.0 / d3, -(l10 * m21 + l20)
    u12, u02 = m21 * i2, m20 * i2
    return (np.array([1.0 / d1 + l10 * l10 * i1 + m20 * u02, i1 + m21 * u12, i2,
                      m20 * u12 - l10 * i1, u02, u12]), d1 * d2 * d3)


def max_eigenvalue(g: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of symmetric k x k matrices given by their ``sym_index`` rows g
    (S, ...), exactly max g_ii where g is diagonal: for 2 x 2 max(a, d) + c^2 / (r + |a - d|/2),
    r = |((a - d)/2, c)|, a sum of positive terms; for 3 x 3 the trigonometric form (Smith
    1961), q + 2 p cos(arccos(r)/3), q = tr/3 and r = det((g - q I)/p)/2; else ``eigvalsh``."""
    if len(g) == 3:
        a, d, c = g
        half = np.abs(a - d) / 2
        r = np.hypot(half, c)
        return np.maximum(a, d) + c * c / (r + half + (r == 0))
    if len(g) != 6:
        return np.linalg.eigvalsh(_sym_matrices(g))[..., -1]
    off = np.add.reduce(g[3:] * g[3:])
    if not off.any():
        return np.maximum.reduce(g[:3])
    q = np.add.reduce(g[:3]) / 3
    b = g[:3] - q
    (b0, b1, b2), (c01, c02, c12) = b, g[3:]
    p = np.sqrt((np.add.reduce(b * b) + 2 * off) / 6)
    det = b0 * (b1 * b2 - c12 * c12) - c01 * (c01 * b2 - c12 * c02) + c02 * (c01 * c12 - b1 * c02)
    r = det / (2 * p * p * p + (off == 0))  # where off = 0 (c I: p = 0) max g_ii is taken
    lam = q + 2 * p * np.cos(np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3)
    return np.where(off > 0, lam, np.maximum.reduce(g[:3]))


def quad_form(u: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T a v over the batch axes: u, v (..., k), a (..., k, k)."""
    return (u[..., None, :] @ a @ v[..., :, None])[..., 0, 0]


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a v over the batch axes: a (..., k, k), v (..., k).  Row by row with
    ``vecdot``: on a few hundred 2 x 2 matrices it costs under half a stacked matmul."""
    return np.vecdot(a, v[..., None, :])


def _sign(*comps):
    """-1 where the first of a vector's components comps above 1e-13 in magnitude is
    negative, else 1."""
    lead = comps[-1]
    for c in comps[-2::-1]:
        lead = np.where(np.abs(c) > 1e-13, c, lead)
    return np.where(lead < 0, -1.0, 1.0)


def _blinn(a, b, c, e):
    """(q, r, phi, cos theta, sin theta) with d = Rot(phi) diag(q + r, q - r) Rot(theta)
    for the 2 x 2 matrices d = (a, b; c, e) given by their components: d = E I + H J +
    F K + G L, with J the quarter turn, K = diag(1, -1) and L the axis swap, q = |(E, H)|,
    r = |(F, G)|, and phi +- theta the polar angles of (E, H) and (F, G) (Blinn,
    "Consider the lowly 2x2 matrix", 1996).  Where q or r vanishes (a conformal,
    anticonformal or zero d) ``arctan2`` picks the basis; a zero d gives u = vt = I, as
    ``svd`` does."""
    # (E, F) and (H, G), each pair in one array; + 0.0 turns a signed zero into +0, so
    # that arctan2(0, -0) does not read pi
    ef, hg = np.array([a + e, a - e]) / 2 + 0.0, np.array([c - b, b + c]) / 2 + 0.0
    (q, r), (rot_sum, rot_diff) = np.hypot(ef, hg), np.arctan2(hg, ef)
    theta = (rot_sum - rot_diff) / 2
    return q, r, (rot_sum + rot_diff) / 2, np.cos(theta), np.sin(theta)


def _frame(blinn, alpha, mapped, chol_n, g_n: np.ndarray) -> SVDFrame:
    """The frame from Blinn's SVD of the whitened df, the sign-fixed rows alpha
    (..., m, m) and mapped[k, a] = (df^T alpha_k)_a (2, 2, ...)."""
    q, r, phi = blinn[:3]
    lam, mu = q + r, np.abs(q - r)
    sv = np.array([lam, mu])
    # beta_k = df^T alpha_k / sv_k where sv_k > 1e-13, else R_N^{-1} u_k for the
    # sign-fixed columns u_k of u = Rot(phi) diag(1, -1 where q < r)
    if mu.min() > 1e-13:                       # lam >= mu, and both are NaN together
        rows = mapped / sv[:, None]
    else:
        (n00, n10, n11), nonzero = chol_n, sv > 1e-13
        cp, sp, sign = np.cos(phi), np.sin(phi), np.where(q < r, -1.0, 1.0)
        u0, u1 = np.array([cp, -sign * sp]), np.array([sp, sign * cp])
        flip = _sign(u0, u1)
        axis1 = flip * u1 / n11
        chart_axis = np.array([(flip * u0 - n10 * axis1) / n00, axis1]).swapaxes(0, 1)
        rows = np.where(nonzero[:, None], mapped / np.where(nonzero, sv, 1.0)[:, None], chart_axis)
    # re-orthonormalize beta against g_N (exact for clean input, guards roundoff)
    g0, g1 = np.array([g_n[..., 0, 0], g_n[..., 0, 1]]), np.array([g_n[..., 1, 0], g_n[..., 1, 1]])

    def quad(u, v):  # u^T g_N v, summed as quad_form does
        gu = u[0] * g0 + u[1] * g1
        return gu[0] * v[0] + gu[1] * v[1]
    b0 = rows[0] / np.sqrt(quad(rows[0], rows[0]))
    b1 = rows[1] - quad(b0, rows[1]) * b0
    b1 = b1 / np.sqrt(quad(b1, b1))
    beta = np.empty(lam.shape + (2, 2))
    (beta[..., 0, 0], beta[..., 0, 1]), (beta[..., 1, 0], beta[..., 1, 1]) = b0, b1

    m, sv = alpha.shape[-1], np.empty(lam.shape + (2,))
    sv[..., 0], sv[..., 1] = lam, mu
    den = 1.0 + sv * sv
    root = np.sqrt(den)[..., None]                             # (..., 2, 1)
    normals = np.empty(lam.shape + (2, m + 2))                 # (-sv alpha_k, beta_k) / root
    np.multiply(-sv[..., None], alpha[..., :2, :], out=normals[..., :m])
    normals[..., m:] = beta
    normals /= root
    e, s_diag = alpha.copy(), np.ones(alpha.shape[:-1])
    e[..., :2, :] /= root
    s_diag[..., :2] = (1.0 - sv * sv) / den
    t = -2.0 * sv / den
    return SVDFrame(
        lam=lam, mu=mu, alpha=alpha, beta=beta, e=e, xi=normals[..., 0, :],
        eta=normals[..., 1, :], s_diag=s_diag, t11=t[..., 0], t22=t[..., 1],
        p=s_diag[..., 0] + s_diag[..., 1],
    )


def _frame2(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> SVDFrame:
    """``build_svd_frame`` for m = 2 in the order of the stacked construction, whose
    matmuls sum two products with one rounding (a fused multiply-add): where both are
    nonzero a component can differ in its last bit; on a diagonal df and diagonal
    metrics, as in an equivariant lift, only entries of size ~1e-15 do."""
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
    blinn = _blinn(a, b, c, e)
    ct, st = blinn[3:]
    # alpha_k = L_M^{-T} v_k for the sign-fixed rows v_k of vt = (ct, -st; st, ct)
    alpha = np.empty(df.shape[:-2] + (2, 2))
    v0, v1 = np.array([ct, st]), np.array([-st, ct])
    flip = _sign(v0, v1)
    alpha[..., 0, 1], alpha[..., 1, 1] = a1 = flip * v1 / l11
    alpha[..., 0, 0], alpha[..., 1, 0] = a0 = (flip * v0 - l10 * a1) / l00
    mapped = np.array([a0 * f00 + a1 * f10, a0 * f01 + a1 * f11]).swapaxes(0, 1)
    return _frame(blinn, alpha, mapped, (n00, n10, n11), g_n)


def _reflector(x: np.ndarray):
    """(beta, v, tau): I - tau v v^T maps the vectors x (k, n) to beta e_0, as in LAPACK's
    ``larfg`` (beta = -sign(x_0) |x|, v_0 = 1), but also where x_1.. = 0; I where x = 0."""
    norm = np.sqrt(np.add.reduce(x * x))
    beta = np.copysign(norm, -x[0])
    den = x[0] - beta                  # x_0 + sign(x_0) |x|: 0 only where x is, and beta too
    zero = den == 0
    v = x / (den + zero)
    v[0] = 1.0
    return beta, v, -den / (beta + zero)


def build_svd_frame(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> SVDFrame:
    """Construct the full adapted frame at every point of a batch.

    df: (..., m, 2), df^alpha_i = d_i f^alpha with rows indexed by M axes;
    g_m: (..., m, m); g_n: (..., 2, 2).  A single point is a batch of shape ().

    On per-node component arrays, with no LAPACK call (m = 2: ``_frame2``); for m > 2 an
    array (k, ..., n) holds one component per row over the n nodes of the batch.  df is
    whitened to d = R_N df^T L_M^{-T} by the Cholesky factors L_M L_M^T = g_M and R_N^T R_N
    = g_N.  For m > 2, two Householder reflections give d = (B 0) Q with B 2 x 2 lower
    triangular, B_00, B_11 >= 0, and Q orthogonal (d_0 H_0 = (B_00, 0, ...), d_1 H_0 H_1 =
    (B_10, B_11, 0, ...), Q = H_1 H_0 up to the signs of rows 0 and 1); for m = 2, B = d
    and Q = I.  B = u diag(lam, mu) wt in Blinn's closed form gives descending singular
    values, and the rows v_k of diag(wt, I) Q, each sign-fixed so that its first component
    above 1e-13 in magnitude is positive, give alpha_k = L_M^{-T} v_k.  beta_k = df^T
    alpha_k / sv_k where sv_k > 1e-13, so that df(alpha_1) = lam beta_1 holds exactly, else
    the sign-fixed whitened left-singular vector; then it is re-orthonormalised by g_N.
    """
    m, batch = df.shape[-2], df.shape[:-2]
    if m == 2:
        return _frame2(df, g_m, g_n)
    f = np.ascontiguousarray(df.reshape(-1, m, 2).transpose(1, 2, 0))     # f[i, a] = d_i f^a
    g_n = g_n.reshape(-1, 2, 2)
    chol_n = _cholesky2(g_n)
    if chol_n is None:
        raise DegenerateMetricError("metric not positive definite: a <= 0 or ad - bc <= 0")
    n00, n10, n11 = chol_n[0], chol_n[1], np.sqrt(chol_n[2])
    # L_M column by column, with the rows of R_N df^T below it as two more rows of the
    # matrix factorised: they end as the rows d_0, d_1 of d, solved forward through L_M
    low = np.empty((m + 2, m, f.shape[-1]))
    low[:m] = g_m.reshape(-1, m, m).transpose(1, 2, 0)
    low[m], low[m + 1] = f[:, 0] * n00 + f[:, 1] * n10, f[:, 1] * n11
    for j in range(m):
        s = low[j, j] - np.add.reduce(low[j, :j] * low[j, :j]) if j else low[0, 0]
        if s.min() <= 0:                                      # NaN passes, as in potrf
            raise DegenerateMetricError("metric not positive definite: a Cholesky pivot <= 0")
        low[j, j] = np.sqrt(s)
        dot = np.add.reduce(low[j + 1:, :j] * low[j, :j], axis=1) if j else 0.0
        low[j + 1:, j] = (low[j + 1:, j] - dot) / low[j, j]

    b00, v0, tau0 = _reflector(low[m])
    d1 = low[m + 1] - (tau0 * np.add.reduce(v0 * low[m + 1])) * v0
    b11, v1, tau1 = _reflector(d1[1:])
    vt = np.eye(m)[..., None] - (tau0 * v0)[:, None] * v0     # the rows of H_0, then of Q
    vt[1:] -= (tau1 * v1)[:, None] * np.add.reduce(v1[:, None] * vt[1:])
    flip0, flip1 = np.copysign(1.0, b00), np.copysign(1.0, b11)  # B_00, B_11 >= 0: an
    vt[0] *= flip0                                            # axis-aligned d keeps its axes
    vt[1] *= flip1
    blinn = _blinn(flip0 * b00, 0.0, flip0 * d1[0], flip1 * b11)
    ct, st = blinn[3:]
    vt[0], vt[1] = ct * vt[0] - st * vt[1], st * vt[0] + ct * vt[1]
    vt *= _sign(*vt.transpose(1, 0, 2))[:, None]
    comps = vt.transpose(1, 0, 2)                             # alpha_k^i in place of v_k^i
    for i in range(m - 1, -1, -1):
        if i < m - 1:
            comps[i] -= np.add.reduce(low[i + 1:m, i, None] * comps[i + 1:])
        comps[i] /= low[i, i]
    mapped = np.add.reduce(vt[:2, :, None] * f, axis=1)
    fr = _frame(blinn, np.ascontiguousarray(vt.transpose(2, 0, 1)), mapped, (n00, n10, n11), g_n)
    if len(batch) == 1:
        return fr
    return SVDFrame(**{k: v.reshape(batch + v.shape[1:]) for k, v in vars(fr).items()})


def generalized_eigvalsh(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric a with respect to the positive definite g,
    ascending: those of L^{-1} a L^{-T}, where L L^T = g.

    a, g: (..., k, k) -> (..., k); a single matrix is a batch of shape ().
    """
    inv_l = np.linalg.inv(_cholesky(g))
    return np.linalg.eigvalsh(inv_l @ a @ np.swapaxes(inv_l, -1, -2))


def singular_value_invariants(g_m_inv: np.ndarray, g_n: np.ndarray, df: np.ndarray):
    """(lambda, mu, tr K, det K) over a batch of points, where the 2x2 matrix K = df^T g_M^{-1}
    df g_N has the eigenvalues lambda^2 >= mu^2, from g_m_inv (..., m, m), g_n (..., 2, 2) and
    df (..., m, 2) by ``invariant_rows``."""
    ndim = max(g_m_inv.ndim, g_n.ndim, df.ndim)  # batch axes that broadcast, as for matmul
    return invariant_rows(*(components(a.reshape((1,) * (ndim - a.ndim) + a.shape))
                            for a in (g_m_inv, g_n, np.swapaxes(df, -1, -2))))


def invariant_rows(g_m_inv: np.ndarray, g_n: np.ndarray, d: np.ndarray):
    """``singular_value_invariants`` on components first: g_m_inv (m, m, ...), g_n (2, 2, ...)
    and d (2, m, ...), d[a, i] = d_i f^a, each product summed in order over its index.  For
    K = (a, b; c, e) the discriminant is ((a - e)/2)^2 + bc, not (tr/2)^2 - det, which cancels
    to roundoff where lambda = mu, and its square root turns that into an error of sqrt(eps).
    mu^2 = tr/2 - root cancels where mu << lambda, with an error of about eps lambda^2 / mu
    in mu; for m = 2 mu is sqrt(det K) / lambda = |det df| sqrt(det g_M^{-1} det g_N) /
    lambda instead."""
    q = np.add.reduce(d[:, :, None] * g_m_inv, axis=1)        # (df^T g_M^{-1})[a, j]
    w = np.add.reduce(q[:, None] * d, axis=2)
    (a, b), (c, e) = np.add.reduce(w[:, :, None] * g_n, axis=1)
    tr = a + e
    root = np.sqrt(np.maximum(((a - e) / 2) ** 2 + b * c, 0.0))
    lam = np.sqrt(tr / 2 + root)
    if d.shape[1] == 2:  # lambda = 0 only where df = 0, and then mu = 0
        det = [x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0] for x in (np.swapaxes(d, 0, 1), g_m_inv, g_n)]
        mu = np.abs(det[0]) * np.sqrt(det[1] * det[2]) / np.where(lam > 0, lam, 1.0)
    else:
        mu = np.sqrt(np.maximum(tr / 2 - root, 0.0))
    return lam, mu, tr, a * e - b * c


def p_batch(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - lam**2 * mu**2) / ((1.0 + lam**2) * (1.0 + mu**2))
