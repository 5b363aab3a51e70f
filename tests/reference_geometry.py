"""Reference implementation of the pointwise graph geometry: the scalar
``build_svd_frame`` and ``point_geometry`` as they were before the batched
field geometry replaced them (which builds the vectors A(e_i, e_j), the
batched one only their normal components), the batched m = 2 frame on stacked
(..., 2, 2) arrays as it was before the frame moved to component arrays, the
induced Christoffel tensor and what read it (the tangential field X, the
batched second fundamental form and the monitors' lhs, as they were before A
and the monitors read M's connection alone), the grid field's induced metric
decomposed by ``eigh`` for its inverse, sqrt(det g) and the step's lambda_min, as it was before
the closed-form L D L^T replaced it, the singular values as the SVD of the whitened
differential, the per-offset stencils of ``GraphMapField`` as they were before
the ghost-padded grid replaced them, the polar fold of a field's target values
and the periodic wrap of the chart as they were before ``ChartManifold.wrap``
took both, the full-width lift of an equivariant profile as ``EquivariantFlow``
lifted it before its lifts became one column, and the per-point curvature layer (chart
derivatives, curvature tensors by a complex step of the Christoffel symbols,
sectional and bi-Ricci curvature, Gram-Schmidt of frames and the monitors'
curvature inputs), kept verbatim as test oracles.  The package computes no
curvature tensor: this layer is the oracle of its closed forms (the blocks of
a product chart, the curvature report and the warped surfaces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from graphflow.errors import ConfigurationError, DegenerateMetricError, DomainError, SolverAbort
from graphflow import frames
from graphflow.flow import PHI_WIDTH, h2_field
from graphflow.frames import _cholesky, _cholesky2, quad_form, sym_index
from graphflow.geometry import ChartManifold, WarpedSurface
from graphflow.immersion import CORRUPTED_METRIC, GraphMapField, field_cached, row_cached
from graphflow.verify import _time_derivative

_COMPLEX_STEP = 1e-30


class FrameError(ValueError):
    """Vectors handed to a frame-based oracle do not span a plane or are not
    orthonormal."""


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
    t11: float
    t22: float
    p: float


def _whitened(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> np.ndarray:
    """R_N df L_M^{-T} where L L^T = g_M and R^T R = g_N (2 x m)."""
    lm = np.linalg.cholesky(g_m)
    rn = scipy.linalg.cholesky(g_n, lower=False)
    dfn = rn @ df.T            # (2, m) in whitened target coordinates
    return scipy.linalg.solve_triangular(lm, dfn.T, lower=True).T


def _sign_fix(vecs: np.ndarray) -> np.ndarray:
    """Flip rows so the first component of largest magnitude is positive."""
    out = vecs.copy()
    for i, v in enumerate(out):
        idx = np.argmax(np.abs(v) > 1e-13) if np.any(np.abs(v) > 1e-13) else 0
        if v[idx] < 0:
            out[i] = -v
    return out


def build_svd_frame(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> SVDFrame:
    """Construct the full adapted frame at a point.

    Deterministic: numpy's SVD ordering plus a sign fix making the first
    nonzero component of each whitened right-singular vector positive.  The
    beta vectors are re-derived from df alpha_i where the singular value is
    nonzero so that df(alpha_1) = lam beta_1 holds exactly.
    """
    m = df.shape[0]
    lm = np.linalg.cholesky(g_m)
    rn = scipy.linalg.cholesky(g_n, lower=False)
    d = _whitened(df, g_m, g_n)                 # (2, m)
    u, sv, vt = np.linalg.svd(d, full_matrices=True)
    lam = float(sv[0]) if len(sv) > 0 else 0.0
    mu = float(sv[1]) if len(sv) > 1 else 0.0

    v = _sign_fix(vt)                           # (m, m) rows
    alpha = scipy.linalg.solve_triangular(lm, v.T, lower=True, trans="T").T

    beta = np.empty((2, 2))
    for a, s in enumerate((lam, mu)):
        if s > 1e-13:
            beta[a] = (df.T @ alpha[a]) / s
        else:
            # rank-deficient direction: whitened chart axis, sign-fixed
            ua = _sign_fix(u.T)[a]
            beta[a] = np.linalg.solve(rn, ua)
    # re-orthonormalize beta against g_N (exact for clean input, guards roundoff)
    b0 = beta[0] / np.sqrt(beta[0] @ g_n @ beta[0])
    b1 = beta[1] - (b0 @ g_n @ beta[1]) * b0
    b1 = b1 / np.sqrt(b1 @ g_n @ b1)
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
    t11 = -2.0 * lam / (1.0 + lam * lam)
    t22 = -2.0 * mu / (1.0 + mu * mu)
    p = float(s_diag[0] + (s_diag[1] if m > 1 else 1.0))

    return SVDFrame(
        lam=lam, mu=mu, alpha=alpha, beta=beta, e=e, xi=xi, eta=eta,
        s_diag=s_diag, t11=t11, t22=t22, p=p,
    )


def singular_values_batch(g_m: np.ndarray, g_n: np.ndarray, df: np.ndarray):
    """lambda >= mu over a batch: the singular values of the whitened df
    L_M^{-1} df L_N, where L_M L_M^T = g_M and L_N L_N^T = g_N.  The square roots
    of the eigenvalues of the m x m pull-back would lose about eps lambda^2 / mu
    in mu, as tr/2 - root does in ``frames.singular_value_invariants``."""
    d = np.linalg.solve(np.linalg.cholesky(g_m), df @ np.linalg.cholesky(g_n))
    sv = np.linalg.svd(d, compute_uv=False)
    return sv[..., 0], sv[..., 1]


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _blinn_svd(d: np.ndarray):
    """(u, sv, vt) with d = u diag(sv) vt, sv descending, for 2 x 2 d (..., 2, 2).

    d is split into a rotation part E I + H J and a reflection part F K + G L,
    with J the quarter turn, K = diag(1, -1) and L the swap of the two axes.  With
    Q = |(E, H)| and R = |(F, G)|, d = Rot(phi) diag(Q + R, Q - R) Rot(theta),
    where phi + theta and phi - theta are the polar angles of (E, H) and (F, G)
    (Blinn, "Consider the lowly 2x2 matrix", 1996).
    """
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


def _first_nonzero_positive(rows: np.ndarray) -> np.ndarray:
    """Flip rows so that their first component above 1e-13 in magnitude is positive."""
    idx = np.argmax(np.abs(rows) > 1e-13, axis=-1)[..., None]
    lead = np.take_along_axis(rows, idx, axis=-1)
    return np.where(lead < 0, -rows, rows)


def _stacked_cholesky(g: np.ndarray) -> np.ndarray:
    """The lower Cholesky factors of the metrics g (..., k, k); 2 x 2 ones in the closed
    form of ``frames._cholesky2``, larger ones by ``cholesky``."""
    if g.shape[-1] != 2:
        return _cholesky(g)
    out = np.zeros(g.shape)
    out[..., 0, 0], out[..., 1, 0], s = _cholesky2(g)
    out[..., 1, 1] = np.sqrt(s)
    return out


def stacked_svd_frame(df: np.ndarray, g_m: np.ndarray, g_n: np.ndarray) -> frames.SVDFrame:
    """The batched adapted frame on stacked arrays: whitened df, its SVD, stacked
    matmuls and quadratic forms.  For m = 2 the SVD is Blinn's closed form; the stacked
    matmuls sum two products with one rounding (a fused multiply-add), so the
    component form agrees with it bit for bit only where one of the two products
    vanishes.  For m > 2 the whitening and the SVD are LAPACK's (``cholesky``, ``solve``
    and a full ``svd``), whose completion of the right-singular vectors to a basis is
    its own where m > 3."""
    lm = _stacked_cholesky(g_m)
    rn = _t(_stacked_cholesky(g_n))
    d = _t(_tri_solve(lm, df @ _t(rn), lower=True))
    u, sv, vt = _blinn_svd(d) if d.shape[-1] == 2 else np.linalg.svd(d, full_matrices=True)
    lam, mu = sv[..., 0], sv[..., 1]
    alpha = _t(_tri_solve(_t(lm), _t(_first_nonzero_positive(vt)), lower=False))

    nonzero = sv[..., None] > 1e-13
    mapped = (alpha[..., :2, :] @ df) / np.where(nonzero, sv[..., None], 1.0)
    if nonzero.all():
        beta = mapped
    else:
        chart_axis = _t(_tri_solve(rn, _t(_first_nonzero_positive(_t(u))), lower=False))
        beta = np.where(nonzero, mapped, chart_axis)
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
    tt = -2.0 * sv / (1.0 + sv * sv)
    return frames.SVDFrame(
        lam=lam, mu=mu, alpha=alpha, beta=beta, e=e, xi=normals[..., 0, :],
        eta=normals[..., 1, :], s_diag=s_diag, t11=tt[..., 0], t22=tt[..., 1],
        p=s_diag[..., 0] + s_diag[..., 1],
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


def gamma_induced(field: GraphMapField) -> np.ndarray:
    """Christoffels of the induced metric, (grid, k, i, j), from the first differences
    of its field: the m^3 tensor that ``GraphMapField.gamma_induced_field`` formed before
    the second fundamental form and the monitors read M's connection alone."""
    m = field.M.dim
    dg = field.induced_dg_field()
    comb = (
        dg.transpose(*range(m), m, m + 1, m + 2)
        + dg.transpose(*range(m), m + 1, m, m + 2)
        - dg.transpose(*range(m), m + 1, m + 2, m)
    )
    return 0.5 * np.einsum("...kl,...ijl->...kij", field.induced_g_inv_field(), comb)


def _a_vectors(field: GraphMapField, idx, e: np.ndarray) -> np.ndarray:
    """A(e_i, e_j) at a node in product-chart components (M part, N part),
    (m, m, m+2), for the rows e_i of ``e``."""
    df = field.df_field()[idx]
    gam_n = field.gamma_n_field()[idx]
    gam_g = gamma_induced(field)[idx]
    a_m = field.gamma_m_field()[idx] - gam_g                  # (k, i, j)
    a_n = (
        field.d2f_field()[idx]
        + np.einsum("abc,ib,jc->ija", gam_n, df, df)
        - np.einsum("kij,ka->ija", gam_g, df)
    )                                                          # (i, j, alpha)
    a_coord = np.concatenate([a_m.transpose(1, 2, 0), a_n], axis=-1)  # (i, j, m+2)
    return np.einsum("ia,jb,abc->ijc", e, e, a_coord)


def _product_metric(field: GraphMapField, idx) -> np.ndarray:
    m = field.M.dim
    gp = np.zeros((m + 2, m + 2))
    gp[:m, :m] = field.g_m_field()[idx]
    gp[m:, m:] = field.g_n_field()[idx]
    return gp


def point_geometry(field: GraphMapField, node) -> PointGeometry:
    """Full second-order geometry of the graph at a grid node."""
    idx = _node_slices(node)
    df = field.df_field()[idx]
    g = field.induced_g_field()[idx]
    g_inv = field.induced_g_inv_field()[idx]

    frame = build_svd_frame(df, field.g_m_field()[idx], field.g_n_field()[idx])
    e = frame.e                                                # rows e_i, chart comps
    a_e = _a_vectors(field, idx, e)                            # e-basis

    gp = _product_metric(field, idx)
    a_xi = a_e @ gp @ frame.xi
    a_eta = a_e @ gp @ frame.eta

    h_xi = float(np.trace(a_xi))
    h_eta = float(np.trace(a_eta))
    a_sq = float(np.sum(a_xi**2) + np.sum(a_eta**2))
    h_sq = h_xi**2 + h_eta**2

    return PointGeometry(
        g=g, g_inv=g_inv, a_xi=a_xi, a_eta=a_eta, h_xi=h_xi, h_eta=h_eta,
        a_sq=a_sq, h_sq=h_sq, frame=frame, tangency_residual=_tangency(a_e, e, df, gp),
        a_vectors=a_e,
    )


def _tangency(a_e: np.ndarray, e: np.ndarray, df: np.ndarray, gp: np.ndarray) -> float:
    """max |<A(e_i, e_j), dF(e_k)>| over i, j, k, in the product metric ``gp``."""
    dfe = np.concatenate([e, (df.T @ e.T).T], axis=-1)         # rows dF(e_i)
    tang = np.einsum("ijc,cd,kd->ijk", a_e, gp, dfe)
    return float(np.abs(tang).max())


def tangency_residual(field: GraphMapField, e: np.ndarray, node) -> float:
    """The tangency audit of a frame ``e`` at a node (rows e_i, such as
    ``immersion.field_geometry``'s), A(e_i, e_j) built here: A is normal, so only the
    discretization error remains."""
    idx = _node_slices(node)
    return _tangency(_a_vectors(field, idx, e), e, field.df_field()[idx],
                     _product_metric(field, idx))


def tangential_vector_field(field: GraphMapField) -> np.ndarray:
    """``flow.tangential_vector_field`` as it was before it contracted the first
    differences of the induced metric directly: X^k = g^{ij}(Gamma_g - Gamma_M)^k_ij
    over the full induced Christoffel tensor."""
    ginv = field.induced_g_inv_field()
    diff = gamma_induced(field) - field.gamma_m_field()
    return np.einsum("...ij,...kij->...k", ginv, diff)


def _covariant_d2f(field: GraphMapField, gamma: np.ndarray) -> np.ndarray:
    """``GraphMapField.covariant_d2f`` as it was when it took the connection of M's side
    as an argument: d2_ij f^a - gamma^k_ij d_k f^a + Gamma_N^a_bc d_i f^b d_j f^c."""
    df = field.df_field()
    m = field.M.dim
    batch = df.shape[:-2]
    gam_n_df = (field.gamma_n_field().reshape(batch + (4, 2))
                @ np.ascontiguousarray(_t(df))).reshape(batch + (2, 2, m))
    gam_n_dfdf = df[..., None, :, :] @ gam_n_df
    flat = field.d2f_field().reshape(batch + (m * m, 2)) \
        - _t(gamma.reshape(batch + (m, m * m))) @ df
    return gam_n_dfdf + _t(flat).reshape(gam_n_dfdf.shape)


def christoffel_field_geometry(field: GraphMapField) -> dict:
    """a_xi, a_eta, h_xi and h_eta of ``immersion.field_geometry`` as it computed them over
    the induced Christoffels: A(d_i, d_j) = (Gamma_M - Gamma_g, Hess_g f) in product-chart
    components, contracted with xi and eta lowered by the product metric, then in the
    e-basis."""
    m = field.M.dim
    df, g_m, g_n = field.df_field(), field.g_m_field(), field.g_n_field()
    gam_g = gamma_induced(field)
    frame = frames.build_svd_frame(df, g_m, g_n)
    a_coord = np.concatenate([field.gamma_m_field() - gam_g, _covariant_d2f(field, gam_g)],
                             axis=-3).reshape(df.shape[:-2] + (m + 2, m * m))
    normals = np.stack([frame.xi, frame.eta], axis=-2)[..., None, :]
    lowered = np.concatenate([np.vecdot(g_m[..., None, :, :], normals[..., :m]),
                              np.vecdot(g_n[..., None, :, :], normals[..., m:])], axis=-1)
    a_nu = (lowered @ a_coord).reshape(df.shape[:-2] + (2, m, m))
    a_nu = frame.e[..., None, :, :] @ a_nu @ _t(frame.e)[..., None, :, :]
    h = np.trace(a_nu, axis1=-2, axis2=-1)
    return {"a_xi": a_nu[..., 0, :, :], "a_eta": a_nu[..., 1, :, :],
            "h_xi": h[..., 0], "h_eta": h[..., 1]}


def christoffel_checkpoint_lhs(triple) -> np.ndarray:
    """The (3, grid) lhs of ``verify._checkpoint`` as it was computed over the induced
    Christoffels: (d/dt - X . grad - Laplace-Beltrami) of p, |H|^2 and Theta = |H|^2 / p,
    with the Laplace-Beltrami operator g^{ij}(d2_ij u - Gamma_g^k_ij d_k u) and X the
    g-trace of Gamma_g - Gamma_M (``tangential_vector_field`` above)."""
    _, dtp, dtn, f_prev, f_now, f_next = triple
    prev, now, nxt = (np.stack([p, h2, h2 / p])
                      for p, h2 in ((f.p_field(), h2_field(f)) for f in (f_prev, f_now, f_next)))
    u = np.stack(list(now), axis=-1)
    rows, full = u.reshape(-1, u.shape[-1]).T, sym_index(f_now.M.dim)[2]
    du, d2 = f_now._differences(f_now._gather(rows), rows)
    d2, du = (np.ascontiguousarray(d).reshape(rows.shape[:1] + f_now.shape + d.shape[2:])
              for d in (d2.take(full, axis=1).transpose(0, 3, 1, 2), du.transpose(0, 2, 1)))
    hess = d2 - np.einsum("...kij,...k->...ij", gamma_induced(f_now), du)
    lap = np.einsum("...ij,...ij->...", f_now.induced_g_inv_field(), hess)
    adv = np.einsum("...k,...k->...", tangential_vector_field(f_now), du)
    return _time_derivative(prev, now, nxt, dtp, dtn) - adv - lap


def full_width_lift(eq, h: np.ndarray, field_type=GraphMapField) -> GraphMapField:
    """The lift f(theta, phi) = (h(theta), phi) of a profile of the ``EquivariantFlow``
    ``eq`` on all PHI_WIDTH azimuthal nodes, a field of ``field_type`` evaluated on its
    own (J, PHI_WIDTH) grid: the oracle of the column lifts of ``expand_fields``."""
    f = np.empty((eq.J, PHI_WIDTH, 2))
    f[..., 0] = np.asarray(h)[:, None]
    f[..., 1] = np.arange(PHI_WIDTH) * 2 * np.pi / PHI_WIDTH
    return field_type(eq.M, eq.N, (eq.J, PHI_WIDTH), f)


class EighMetricField(GraphMapField):
    """``GraphMapField`` with the induced metric decomposed once by ``eigh``: its
    eigenvalues, checked finite and positive, give the inverse V diag(1/lambda) V^T
    and det g = prod lambda (as the rows that the flow and ``volume_density`` read)
    and ``eigh_cfl_dt``'s lambda_min; M's inverse metric by ``inv``."""

    @field_cached
    def induced_g_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        g = self.induced_g_field()
        if not np.isfinite(g).all():
            raise SolverAbort(CORRUPTED_METRIC)
        ev, vecs = np.linalg.eigh(g)
        if not ev[..., 0].min() > 0:
            raise SolverAbort(CORRUPTED_METRIC)
        return ev, vecs

    @row_cached
    def _induced_g_inverse(self) -> tuple[np.ndarray, np.ndarray]:
        ev, vecs = self.induced_g_eigh()
        i, j, _, _ = sym_index(self.M.dim)
        inv = (vecs @ np.divide(_t(vecs), ev[..., :, None], order="C"))[..., i, j]
        return np.moveaxis(inv, -1, 0).reshape(len(i), -1), np.prod(ev, axis=-1).reshape(-1)

    @field_cached
    def g_m_inv_field(self) -> np.ndarray:
        return np.linalg.inv(self.g_m_field())


def eigh_cfl_dt(field: EighMetricField, params) -> float:
    """``flow.cfl_dt`` with lambda_min from ``EighMetricField.induced_g_eigh``."""
    lam = 1.0 / float(field.induced_g_eigh()[0].min())
    return params.cfl * float(field.h.min()) ** 2 / (2 * field.M.dim * lam)


def wrap_target(n_manifold: ChartManifold, f: np.ndarray) -> np.ndarray:
    """``GraphMapField._wrap_target``: target values folded across the polar seams
    of N, then wrapped on its periodic axes."""
    f = f.copy()
    # fold values that crossed a polar seam back into range, shifting the
    # azimuthal partner by the seam shift
    for b, ax in enumerate(n_manifold.axes):
        if ax.reflect and ax.partner_axis is not None:
            for pivot in (ax.lo, ax.hi):
                over = (f[..., b] - pivot) * (1 if pivot == ax.lo else -1) < 0
                if np.any(over):
                    f[..., b] = np.where(over, 2 * pivot - f[..., b], f[..., b])
                    f[..., ax.partner_axis] = np.where(
                        over, f[..., ax.partner_axis] + ax.partner_shift, f[..., ax.partner_axis]
                    )
    for b, ax in enumerate(n_manifold.axes):
        if ax.periodic:
            f[..., b] = ax.lo + (f[..., b] - ax.lo) % ax.length
    return f


def periodic_wrap(chart: ChartManifold, x) -> np.ndarray:
    """``ChartManifold.wrap`` before it folded polar crossings: periodic
    coordinates wrapped into range, the others validated."""
    x = np.array(x, dtype=float)
    for a, ax in enumerate(chart.axes):
        if ax.periodic:
            x[..., a] = ax.lo + (x[..., a] - ax.lo) % ax.length
            continue
        inside = (ax.lo - 1e-12 <= x[..., a]) & (x[..., a] <= ax.hi + 1e-12)
        if not np.all(inside):
            raise DomainError(f"coordinate outside axis {a} range [{ax.lo}, {ax.hi}]")
    return x


class LoopStencilField(GraphMapField):
    """``GraphMapField`` with the stencils it had before the ghost-padded grid:
    ``shift``, ``neighbor_f`` and one neighbour array per offset and axis,
    kept verbatim as a test oracle for the padded slices; and ``unwrap_target``
    as it was before it ran its mirror test only on far partner values, which
    tests every value at both pivots.
    """

    def shift(self, arr: np.ndarray, axis: int, step: int) -> np.ndarray:
        """Neighbor values along a grid axis; same shape as ``arr``.

        ``arr`` must carry the grid shape in its leading axes.  Reflect axes
        mirror across the seam and roll the partner axis by its shift.
        """
        ax = self.M.axes[axis]
        if ax.periodic:
            return np.roll(arr, -step, axis=axis)
        out = np.roll(arr, -step, axis=axis)
        n = self.shape[axis]
        partner = ax.partner_axis
        idx_roll = 0
        if partner is not None:
            hp = self.h[partner]
            idx_roll = int(round(ax.partner_shift / hp))
            if abs(idx_roll * hp - ax.partner_shift) > 1e-9:
                raise ConfigurationError(
                    "partner axis resolution must divide the seam shift"
                )
        sl = [slice(None)] * arr.ndim
        if step > 0:
            sl[axis] = n - 1
            ghost = np.take(arr, n - 1, axis=axis)
        else:
            sl[axis] = 0
            ghost = np.take(arr, 0, axis=axis)
        if partner is not None and idx_roll:
            # the partner axis index shrinks by one after np.take if it was
            # behind ``axis``; adjust
            roll_axis = partner if partner < axis else partner - 1
            ghost = np.roll(ghost, -idx_roll, axis=roll_axis)
        out[tuple(sl)] = ghost
        return out

    def unwrap_target(self, vals: np.ndarray) -> np.ndarray:
        out = vals.copy()
        # polar seams of N: a ghost value may sit on the other chart sheet;
        # pick the representation (mirror + partner shift) closest to the
        # center value so stencil differences see a continuous chart function
        for b, ax in enumerate(self.N.axes):
            if ax.reflect and ax.partner_axis is not None:
                q = ax.partner_axis
                lq = self.N.axes[q].length

                def perdist(d):
                    return np.abs((d + lq / 2) % lq - lq / 2)

                for pivot in (ax.lo, ax.hi):
                    alt_b = 2 * pivot - out[..., b]
                    alt_q = out[..., q] + ax.partner_shift
                    d_cur = np.abs(out[..., b] - self.f[..., b]) + perdist(out[..., q] - self.f[..., q])
                    d_alt = np.abs(alt_b - self.f[..., b]) + perdist(alt_q - self.f[..., q])
                    take = d_alt < d_cur
                    out[..., b] = np.where(take, alt_b, out[..., b])
                    out[..., q] = np.where(take, alt_q, out[..., q])
        for b, ax in enumerate(self.N.axes):
            if ax.periodic:
                d = out[..., b] - self.f[..., b]
                out[..., b] = self.f[..., b] + (d + ax.length / 2) % ax.length - ax.length / 2
        return out

    def neighbor_f(self, shifts) -> np.ndarray:
        """f at a neighbor offset, unwrapped against the center values.

        ``shifts`` is a list of (axis, step) applied in order.
        """
        vals = self.f
        for axis, step in shifts:
            vals = self.shift(vals, axis, step)
        return self.unwrap_target(vals)

    def df_field(self) -> np.ndarray:
        """(grid, m, 2) central-difference differential of f."""
        if "df" not in self._cache:
            m = self.M.dim
            out = np.empty(self.shape + (m, self.N.dim))
            for a in range(m):
                plus = self.neighbor_f([(a, +1)])
                minus = self.neighbor_f([(a, -1)])
                out[..., a, :] = (plus - minus) / (2 * self.h[a])
            self._cache["df"] = out
        return self._cache["df"]

    def d2f_field(self) -> np.ndarray:
        """(grid, m, m, 2) second chart derivatives (9-point mixed stencil)."""
        if "d2f" not in self._cache:
            m = self.M.dim
            out = np.empty(self.shape + (m, m, self.N.dim))
            for a in range(m):
                plus = self.neighbor_f([(a, +1)])
                minus = self.neighbor_f([(a, -1)])
                out[..., a, a, :] = (plus - 2 * self.f + minus) / self.h[a] ** 2
                for b in range(a + 1, m):
                    pp = self.neighbor_f([(a, +1), (b, +1)])
                    pm = self.neighbor_f([(a, +1), (b, -1)])
                    mp = self.neighbor_f([(a, -1), (b, +1)])
                    mm = self.neighbor_f([(a, -1), (b, -1)])
                    mixed = (pp - pm - mp + mm) / (4 * self.h[a] * self.h[b])
                    out[..., a, b, :] = mixed
                    out[..., b, a, :] = mixed
            self._cache["d2f"] = out
        return self._cache["d2f"]

    @row_cached
    def _f_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """The loop stencils' df and d2f as the rows that the induced fields read."""
        i, j, _, _ = sym_index(self.M.dim)
        return (np.moveaxis(self.df_field(), (-1, -2), (0, 1)).reshape(2, self.M.dim, -1),
                np.moveaxis(self.d2f_field()[..., i, j, :], (-1, -2), (0, 1)).reshape(
                    2, len(i), -1))

    def gamma_induced_field(self) -> np.ndarray:
        """Christoffels of the induced metric, finite-differenced from its field."""
        if "gamma_g" not in self._cache:
            g = self.induced_g_field()
            m = self.M.dim
            dg = np.empty(self.shape + (m, m, m))
            for a in range(m):
                dg[..., a, :, :] = (self.shift(g, a, +1) - self.shift(g, a, -1)) / (2 * self.h[a])
            ginv = self.induced_g_inv_field()
            comb = (
                dg.transpose(*range(m), m, m + 1, m + 2)
                + dg.transpose(*range(m), m + 1, m, m + 2)
                - dg.transpose(*range(m), m + 1, m + 2, m)
            )
            self._cache["gamma_g"] = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, comb)
        return self._cache["gamma_g"]

    def grad_field(self, u: np.ndarray) -> np.ndarray:
        """Coordinate gradient d_a u of a node scalar field, (grid, m)."""
        m = self.M.dim
        out = np.empty(self.shape + (m,))
        for a in range(m):
            out[..., a] = (self.shift(u, a, +1) - self.shift(u, a, -1)) / (2 * self.h[a])
        return out

    def hessian_trace(self, u: np.ndarray) -> np.ndarray:
        """g-trace of a scalar's Hessian in M's connection: g^{ij}(d2_ij u - Gamma_M^k_ij d_k u)."""
        m = self.M.dim
        d2 = np.empty(self.shape + (m, m))
        for a in range(m):
            d2[..., a, a] = (self.shift(u, a, +1) - 2 * u + self.shift(u, a, -1)) / self.h[a] ** 2
            for b in range(a + 1, m):
                pp = self.shift(self.shift(u, a, +1), b, +1)
                pm = self.shift(self.shift(u, a, +1), b, -1)
                mp = self.shift(self.shift(u, a, -1), b, +1)
                mm = self.shift(self.shift(u, a, -1), b, -1)
                d2[..., a, b] = d2[..., b, a] = (pp - pm - mp + mm) / (4 * self.h[a] * self.h[b])
        du = self.grad_field(u)
        ginv = self.induced_g_inv_field()
        hess = d2 - np.einsum("...kij,...k->...ij", self.gamma_m_field(), du)
        return np.einsum("...ij,...ij->...", ginv, hess)


# ---------------------------------------------------------------------------
# The per-point curvature layer


class LoopCurvatureChart(ChartManifold):
    """``ChartManifold`` with the per-point chart derivatives it had before the
    batched curvature tensors: ``inverse_metric_at``, ``_dmetric``,
    ``_dchristoffels`` and the list comprehension of ``christoffels_many``."""

    @classmethod
    def of(cls, manifold: ChartManifold) -> "LoopCurvatureChart":
        return cls(manifold.name, manifold.axes, manifold._metric_at, manifold._christoffels_at,
                   manifold.constant_curvature)

    def inverse_metric_at(self, x) -> np.ndarray:
        g = self.metric_many(x)
        try:
            w = np.linalg.eigvalsh(g)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise DegenerateMetricError(str(exc)) from exc
        if w.min() <= 0:
            raise DegenerateMetricError(
                f"{self.name}: metric not positive definite at {x} (eigs {w})"
            )
        return np.linalg.inv(g)

    def _dmetric(self, x) -> np.ndarray:
        """d_a g_ij, shape (m, m, m), first index is the derivative axis."""
        x = self.wrap(x)
        m = self.dim
        out = np.empty((m, m, m))
        for a in range(m):
            xc = x.astype(complex)
            xc[a] += 1j * _COMPLEX_STEP
            out[a] = np.imag(np.asarray(self._metric_at(xc))) / _COMPLEX_STEP
        return out

    def christoffels_many(self, pts) -> np.ndarray:
        """Gamma^k_{ij} at a batch of points, (..., m) -> (..., m, m, m), first index upper."""
        x = self.wrap(pts)
        if self._christoffels_at is not None:
            return np.asarray(self._christoffels_at(x))
        flat = [self._christoffels_from_metric(y) for y in x.reshape(-1, self.dim)]
        return np.reshape(flat, x.shape + (self.dim, self.dim))

    def _christoffels_from_metric(self, x) -> np.ndarray:
        ginv = self.inverse_metric_at(x)
        dg = self._dmetric(x)  # axes (derivative, i, j)
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        comb = dg.transpose(0, 1, 2) + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
        return 0.5 * np.einsum("kl,ijl->kij", ginv, comb)

    def _dchristoffels(self, x) -> np.ndarray:
        """d_a Gamma^k_{ij}, shape (m, m, m, m), first index derivative axis."""
        x = self.wrap(x)
        m = self.dim
        if self._christoffels_at is None:  # a complex step cannot differentiate a complex step
            raise ConfigurationError(f"{self.name}: curvature needs analytic Christoffel symbols")
        out = np.empty((m, m, m, m))
        for a in range(m):
            xc = x.astype(complex)
            xc[a] += 1j * _COMPLEX_STEP
            out[a] = np.imag(np.asarray(self._christoffels_at(xc))) / _COMPLEX_STEP
        return out


@dataclass
class CurvatureTensors:
    """Chart-component curvature data at a single point."""

    g: np.ndarray           # g_{ij}
    gamma: np.ndarray       # Gamma^k_{ij}
    riemann: np.ndarray     # R_{ijkl} = <R(d_i, d_j) d_k, d_l>
    ricci: np.ndarray
    scalar: float


def curvature_package(manifold: LoopCurvatureChart, x) -> CurvatureTensors:
    """All curvature tensors of the chart metric at ``x``."""
    x = manifold.wrap(x)
    g = manifold.metric_many(x)
    ginv = manifold.inverse_metric_at(x)
    gamma = manifold.christoffels_many(x)
    dgamma = manifold._dchristoffels(x)
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #           + Gamma^l_{ip} Gamma^p_{jk} - Gamma^l_{jp} Gamma^p_{ik}
    r_up = (
        np.einsum("iljk->lkij", dgamma)
        - np.einsum("jlik->lkij", dgamma)
        + np.einsum("lip,pjk->lkij", gamma, gamma)
        - np.einsum("ljp,pik->lkij", gamma, gamma)
    )
    riemann = np.einsum("lm,mkij->ijkl", g, r_up)
    ricci = np.einsum("il,ijkl->jk", ginv, riemann)
    scalar = float(np.einsum("jk,jk->", ginv, ricci))
    return CurvatureTensors(g=g, gamma=gamma, riemann=riemann, ricci=ricci, scalar=scalar)


def sectional(manifold: LoopCurvatureChart, x, v, w,
              tensors: Optional[CurvatureTensors] = None) -> float:
    """Sectional curvature of the plane spanned by v and w."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    ct = tensors if tensors is not None else curvature_package(manifold, x)
    g = ct.g
    gram = (v @ g @ v) * (w @ g @ w) - (v @ g @ w) ** 2
    if gram < 1e-14 * max(1.0, float(v @ g @ v) * float(w @ g @ w)):
        raise FrameError("vectors do not span a plane")
    num = float(np.einsum("ijkl,i,j,k,l->", ct.riemann, v, w, w, v))
    return num / gram


def bi_ricci(manifold: LoopCurvatureChart, x, v, w,
             tensors: Optional[CurvatureTensors] = None) -> float:
    """BRic(v, w) = Ric(v, v) + Ric(w, w) - sigma(v ^ w) for orthonormal v, w."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    ct = tensors if tensors is not None else curvature_package(manifold, x)
    g = ct.g
    if (
        abs(v @ g @ v - 1.0) > 1e-8
        or abs(w @ g @ w - 1.0) > 1e-8
        or abs(v @ g @ w) > 1e-8
    ):
        raise FrameError("bi_ricci requires g-orthonormal vectors")
    ric_v = float(v @ ct.ricci @ v)
    ric_w = float(w @ ct.ricci @ w)
    return ric_v + ric_w - sectional(manifold, x, v, w, tensors=ct)


def gauss_curvature_at(n_manifold: LoopCurvatureChart, y):
    """Gauss curvature of a 2-dimensional manifold at chart points (..., 2).

    A float where the surface declares a constant curvature; otherwise an
    array over the points.
    """
    if n_manifold.dim != 2:
        raise ConfigurationError("gauss_curvature_at expects a surface")
    if n_manifold.constant_curvature is not None:
        return float(n_manifold.constant_curvature)
    y = np.asarray(y, dtype=float)
    if isinstance(n_manifold, WarpedSurface):
        return n_manifold.gauss_curvature(y[..., 1])
    flat = [sectional(n_manifold, x, [1.0, 0.0], [0.0, 1.0]) for x in y.reshape(-1, 2)]
    return np.reshape(flat, y.shape[:-1])


def _orthonormalize(g: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the rows of ``vecs`` with respect to metric ``g``."""
    out = []
    for v in vecs:
        for u in out:
            v = v - (u @ g @ v) * u
        norm = math.sqrt(max(v @ g @ v, 0.0))
        if norm < 1e-12:
            raise FrameError("degenerate frame sample")
        out.append(v / norm)
    return np.asarray(out)


def curvature_inputs(field: GraphMapField, mask: np.ndarray, alpha: np.ndarray):
    """``verify._curvature_inputs``: Ric_M(alpha1, alpha1), Ric_M(alpha2, alpha2),
    sigma_M(alpha1 ^ alpha2), sigma_N and Ric_M at the nodes of ``mask``, one
    curvature package per node; M is read through its per-point chart."""
    m_manifold = LoopCurvatureChart.of(field.M)
    if m_manifold.constant_curvature is not None:
        k = float(m_manifold.constant_curvature)
        r = (m_manifold.dim - 1) * k
        ric11 = ric22 = r
        sig_m = k
        ricci = r * field.g_m_field()[mask]
    else:
        coords = field.coords()[mask]
        tensors = [curvature_package(m_manifold, x) for x in coords]
        ricci = np.reshape([ct.ricci for ct in tensors], (len(tensors),) + alpha.shape[-2:])
        sig_m = np.array([sectional(m_manifold, x, a[0], a[1], ct)
                          for x, a, ct in zip(coords, alpha, tensors)])
        ric11 = quad_form(alpha[:, 0], ricci, alpha[:, 0])
        ric22 = quad_form(alpha[:, 1], ricci, alpha[:, 1])
    return ric11, ric22, sig_m, gauss_curvature_at(field.N, field.f[mask]), ricci
