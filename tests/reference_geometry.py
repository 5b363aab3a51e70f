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
took both, the points-last metric and Christoffel callables of every chart as
they were before one ``rows_at`` call gave both on coordinate rows, the
full-width lift of an equivariant profile as ``EquivariantFlow`` lifted it
before its lifts became one column, and the per-point curvature layer (chart
derivatives, curvature tensors by a complex step of the Christoffel symbols,
sectional and bi-Ricci curvature, Gram-Schmidt of frames and the monitors'
curvature inputs), kept verbatim as test oracles.  The package computes no
curvature tensor: this layer is the oracle of its closed forms (the blocks of
a product chart, the curvature report and the warped surfaces).  The oracles
and the tests read a field's rows as grid arrays through the functions below
named after the grid getters that ``GraphMapField`` had before its monitors
read the rows themselves (``df_field``, ..., ``covariant_d2f``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from graphflow.errors import ConfigurationError, DegenerateMetricError, DomainError, SolverAbort
from graphflow import frames
from graphflow.flow import PHI_WIDTH, _tangent_rows, h2_field, nonparametric_rhs
from graphflow.frames import _cholesky, _cholesky2, components, sym_index
from graphflow.geometry import ChartManifold, WarpedSurface
from graphflow.immersion import (CORRUPTED_METRIC, FieldRows, GraphMapField, MRows,
                                 _stencil_offsets, field_cached, grid_cached, row_cached)
from graphflow.verify import _time_derivative

_COMPLEX_STEP = 1e-30


def quad_form(u: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T a v over the batch axes: u, v (..., k), a (..., k, k), by plain ``einsum``."""
    return np.einsum("...i,...ij,...j->...", u, a, v)


# The grid arrays of a field's rows, as ``GraphMapField``'s grid getters returned them
# before the monitors read the rows themselves: the oracles below read a field through them.


def _sym_grid(field: GraphMapField, rows: np.ndarray) -> np.ndarray:
    """The rows (..., S, n) of symmetric tensors as (grid, ..., m, m) matrices."""
    return field._grid_array(rows[..., sym_index(field.M.dim)[2], :])


def df_field(field: GraphMapField) -> np.ndarray:
    """(grid, m, 2) central-difference differential of f."""
    return field._grid_array(np.swapaxes(field._f_derivatives()[0], 0, 1))


def d2f_field(field: GraphMapField) -> np.ndarray:
    """(grid, m, m, 2) second chart derivatives (9-point mixed stencil)."""
    return np.moveaxis(_sym_grid(field, field._f_derivatives()[1]), -3, -1)


def g_n_field(field: GraphMapField) -> np.ndarray:
    """g_N at f, (grid, 2, 2)."""
    return field._grid_array(field._pointwise().g_n)


def gamma_n_field(field: GraphMapField) -> np.ndarray:
    """Gamma_N at f, (grid, 2, 2, 2), the first index upper."""
    return field._grid_array(field._pointwise().gamma_n)


def gamma_m_field(field: GraphMapField) -> np.ndarray:
    """Gamma_M at the nodes, (grid, m, m, m), the first index upper."""
    return _sym_grid(field, field._m_rows().gamma)


def induced_g_field(field: GraphMapField) -> np.ndarray:
    """g_M + df g_N df^T per node, (grid, m, m)."""
    return _sym_grid(field, field._pointwise().g)


def induced_g_inv_field(field: GraphMapField) -> np.ndarray:
    """The inverse induced metric, (grid, m, m)."""
    return _sym_grid(field, field._pointwise().g_inv)


def induced_dg_field(field: GraphMapField) -> np.ndarray:
    """Central first differences d_a g_ij of the induced metric, (grid, a, i, j)."""
    return _sym_grid(field, np.swapaxes(field._dg_rows(), 0, 1))


def covariant_d2f(field: GraphMapField) -> np.ndarray:
    """The Hessian of f in M's connection, nabla^2 f, as (grid, a, i, j)."""
    return _sym_grid(field, field._pointwise().hessian)


def tangent_field(field: GraphMapField) -> np.ndarray:
    """The tangential field X of the nonparametric gauge, (grid, m)."""
    return field._grid_array(_tangent_rows(field)[0])


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
    def quad(u, a, v):  # u^T a v by stacked matmuls
        return (u[..., None, :] @ a @ v[..., :, None])[..., 0, 0]
    b0 = beta[..., 0, :] / np.sqrt(quad(beta[..., 0, :], g_n, beta[..., 0, :]))[..., None]
    b1 = beta[..., 1, :] - quad(b0, g_n, beta[..., 1, :])[..., None] * b0
    b1 = b1 / np.sqrt(quad(b1, g_n, b1))[..., None]
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
    dg = induced_dg_field(field)
    comb = (
        dg.transpose(*range(m), m, m + 1, m + 2)
        + dg.transpose(*range(m), m + 1, m, m + 2)
        - dg.transpose(*range(m), m + 1, m + 2, m)
    )
    return 0.5 * np.einsum("...kl,...ijl->...kij", induced_g_inv_field(field), comb)


def _a_vectors(field: GraphMapField, idx, e: np.ndarray) -> np.ndarray:
    """A(e_i, e_j) at a node in product-chart components (M part, N part),
    (m, m, m+2), for the rows e_i of ``e``."""
    df = df_field(field)[idx]
    gam_n = gamma_n_field(field)[idx]
    gam_g = gamma_induced(field)[idx]
    a_m = gamma_m_field(field)[idx] - gam_g                  # (k, i, j)
    a_n = (
        d2f_field(field)[idx]
        + np.einsum("abc,ib,jc->ija", gam_n, df, df)
        - np.einsum("kij,ka->ija", gam_g, df)
    )                                                          # (i, j, alpha)
    a_coord = np.concatenate([a_m.transpose(1, 2, 0), a_n], axis=-1)  # (i, j, m+2)
    return np.einsum("ia,jb,abc->ijc", e, e, a_coord)


def _product_metric(field: GraphMapField, idx) -> np.ndarray:
    m = field.M.dim
    gp = np.zeros((m + 2, m + 2))
    gp[:m, :m] = field.g_m_field()[idx]
    gp[m:, m:] = g_n_field(field)[idx]
    return gp


def point_geometry(field: GraphMapField, node) -> PointGeometry:
    """Full second-order geometry of the graph at a grid node."""
    idx = _node_slices(node)
    df = df_field(field)[idx]
    g = induced_g_field(field)[idx]
    g_inv = induced_g_inv_field(field)[idx]

    frame = build_svd_frame(df, field.g_m_field()[idx], g_n_field(field)[idx])
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
    return _tangency(_a_vectors(field, idx, e), e, df_field(field)[idx],
                     _product_metric(field, idx))


def tangential_vector_field(field: GraphMapField) -> np.ndarray:
    """The tangential field X (``flow._tangent_rows``) as it was before it contracted the
    first differences of the induced metric directly: X^k = g^{ij}(Gamma_g - Gamma_M)^k_ij
    over the full induced Christoffel tensor."""
    ginv = induced_g_inv_field(field)
    diff = gamma_induced(field) - gamma_m_field(field)
    return np.einsum("...ij,...kij->...k", ginv, diff)


def _covariant_d2f(field: GraphMapField, gamma: np.ndarray) -> np.ndarray:
    """``GraphMapField.covariant_d2f`` as it was when it took the connection of M's side
    as an argument: d2_ij f^a - gamma^k_ij d_k f^a + Gamma_N^a_bc d_i f^b d_j f^c."""
    df = df_field(field)
    m = field.M.dim
    batch = df.shape[:-2]
    gam_n_df = (gamma_n_field(field).reshape(batch + (4, 2))
                @ np.ascontiguousarray(_t(df))).reshape(batch + (2, 2, m))
    gam_n_dfdf = df[..., None, :, :] @ gam_n_df
    flat = d2f_field(field).reshape(batch + (m * m, 2)) \
        - _t(gamma.reshape(batch + (m, m * m))) @ df
    return gam_n_dfdf + _t(flat).reshape(gam_n_dfdf.shape)


def christoffel_field_geometry(field: GraphMapField) -> dict:
    """a_xi, a_eta, h_xi and h_eta of ``immersion.field_geometry`` as it computed them over
    the induced Christoffels: A(d_i, d_j) = (Gamma_M - Gamma_g, Hess_g f) in product-chart
    components, contracted with xi and eta lowered by the product metric, then in the
    e-basis."""
    m = field.M.dim
    df, g_m, g_n = df_field(field), field.g_m_field(), g_n_field(field)
    gam_g = gamma_induced(field)
    frame = frames.build_svd_frame(df, g_m, g_n)
    a_coord = np.concatenate([gamma_m_field(field) - gam_g, _covariant_d2f(field, gam_g)],
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
    lap = np.einsum("...ij,...ij->...", induced_g_inv_field(f_now), hess)
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


class RowGetterField(GraphMapField):
    """``GraphMapField`` with the row getters it had before one pointwise pass formed g_N,
    Gamma_N, the induced metric, its inverse and det, nabla^2 f and V: each a cached getter
    of its own, with N's chart read through ``g_n_field`` and ``gamma_n_field``, V as
    ``flow.nonparametric_rhs`` formed it, and p from ``frames.invariant_rows``, kept verbatim
    as the oracle of that pass; ``_pointwise`` gathers their values.  The grid's stencil
    index and coordinates are built as they were before the set-up formed them per axis."""

    @row_cached
    def _pointwise(self) -> FieldRows:
        return FieldRows(self._g_n_rows(), self._gamma_n_rows(), self._induced_g_rows(),
                         *self._induced_g_inverse(), self._hessian_rows(), self._v_rows())

    @grid_cached
    def coords(self) -> np.ndarray:
        grids = np.meshgrid(*[self.axis_coords(a) for a in range(self.M.dim)], indexing="ij")
        return np.stack(grids, axis=-1)

    @grid_cached
    def _stencil_index(self) -> np.ndarray:
        """Node index of each stencil neighbour, (offsets, grid): slices of the
        ghost-padded node index."""
        padded = np.arange(int(np.prod(self.shape))).reshape(self.shape)
        for a, ax in enumerate(self.M.axes):
            ghosts = [np.take(padded, [i], axis=a) for i in ((-1, 0) if ax.periodic else (0, -1))]
            if self._seam_roll[a]:
                ghosts = [np.roll(g, -self._seam_roll[a], axis=ax.partner_axis) for g in ghosts]
            padded = np.concatenate([ghosts[0], padded, ghosts[1]], axis=a)
        return np.stack([padded[tuple(slice(1 + d, 1 + d + n) for d, n in zip(off, self.shape))]
                         for off in _stencil_offsets(self.M.dim)])

    @field_cached
    def g_n_field(self) -> np.ndarray:
        return self.N.metric_many(self.f)

    @field_cached
    def gamma_n_field(self) -> np.ndarray:
        return self.N.christoffels_many(self.f)

    @row_cached
    def _g_n_rows(self) -> np.ndarray:
        return components(self.g_n_field().reshape(-1, 2, 2))

    @row_cached
    def _gamma_n_rows(self) -> np.ndarray:
        return components(self.gamma_n_field().reshape(-1, 2, 2, 2), 3)

    @row_cached
    def _induced_g_rows(self) -> np.ndarray:
        """The S rows of g_M + df g_N df^T, each entry summed as its lower triangle (j, i):
        P = d_j f g_N, then P . d_i f, then g_M + that.  A corrupted state reads NaN here
        without a warning (an inf of g_N meets a zero of df); its readers refuse it."""
        d, (i, j, _, _), g_n = self._f_derivatives()[0], sym_index(self.M.dim), self._g_n_rows()
        dj = d.take(j, axis=1)
        with np.errstate(invalid="ignore"):
            p = dj[0] * g_n[0, :, None] + dj[1] * g_n[1, :, None]
            return self._m_rows().g_low + np.add.reduce(p * d.take(i, axis=1), axis=0)

    @row_cached
    def _induced_g_inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """(g^{-1} rows, det g) per node by one factorisation, checked finite and positive
        definite (``frames.sym_inverse_and_det``)."""
        inv_det = frames.sym_inverse_and_det(self._induced_g_rows())
        if inv_det is None:
            raise SolverAbort(CORRUPTED_METRIC)
        return inv_det

    @row_cached
    def _hessian_rows(self) -> np.ndarray:
        """The rows (2, S, n) of ``covariant_d2f``, summed in this order: T^a_bj =
        Gamma_N^a_bc d_j f^c, then d_i f^b T^a_bj, plus d2_ij f^a - Gamma_M^k_ij d_k f^a."""
        (d, d2), (i, j, _, _) = self._f_derivatives(), sym_index(self.M.dim)
        t = np.add.reduce(self._gamma_n_rows()[:, :, :, None] * d.take(j, axis=1), axis=2)
        gam_m = np.add.reduce(self._m_rows().gamma * d[:, :, None], axis=1)
        return np.add.reduce(d.take(i, axis=1) * t, axis=1) + (d2 - gam_m)

    @row_cached
    def _v_rows(self) -> np.ndarray:
        """``flow.nonparametric_rhs``'s rows: the Hessian's rows contracted with g^{-1}'s, an
        off-diagonal row twice."""
        w = sym_index(self.M.dim)[3]
        return np.add.reduce(self._hessian_rows() * (w * self._induced_g_inverse()[0]), axis=1)

    @field_cached
    def p_field(self) -> np.ndarray:
        """p = 2(1 - lambda^2 mu^2)/((1 + lambda^2)(1 + mu^2)) per node, from tr K and det K."""
        _, _, tr, det = frames.invariant_rows(self._m_rows().g_inv, self._g_n_rows(),
                                              self._f_derivatives()[0])
        return (2.0 * (1.0 - det) / (1.0 + tr + det)).reshape(self.shape)


def row_getter_tangential_vector_field(field: GraphMapField) -> np.ndarray:
    """The tangential field X (``flow._tangent_rows``) as a grid array of its own (X^k =
    g^{kl}(g^{ij} d_i g_jl - 1/2 g^{ij} d_l g_ij) - g^{ij} Gamma_M^k_ij), before X and |H|^2
    became one pass on rows."""
    m = field.M.dim
    _, _, full, w = sym_index(m)
    ginv, dg = field._pointwise().g_inv, field._dg_rows()             # (S, n), (S, l, n)
    g_full, w_ginv = ginv.take(full, axis=0), w * ginv
    div = np.add.reduce(g_full[:, :, None] * dg.take(full, axis=0).transpose(2, 0, 1, 3),
                        axis=(0, 1))
    trace = np.add.reduce(w_ginv[:, None] * dg, axis=0)
    gam_m = np.add.reduce(w_ginv * field._m_rows().gamma, axis=1)
    x = np.add.reduce(g_full * (div - 0.5 * trace), axis=1) - gam_m
    return x.T.reshape(field.shape + (m,))


def row_getter_h2_field(field: GraphMapField) -> np.ndarray:
    """``flow.h2_field`` reading V and X as grid arrays and back."""
    def rows(a):
        return a.reshape(-1, a.shape[-1]).T

    def quad(u, a):  # u^T a u, (u^T a) first
        return np.add.reduce(np.add.reduce(u[:, None] * a, axis=0) * u, axis=0)
    x, d = rows(row_getter_tangential_vector_field(field)), field._f_derivatives()[0]
    tn = rows(nonparametric_rhs(field)) - np.add.reduce(x * d, axis=1)
    return (quad(x, field._m_rows().g) + quad(tn, field._pointwise().g_n)).reshape(field.shape)


def row_getter_cfl_dt(field: GraphMapField, params) -> float:
    """``flow.cfl_dt`` as it read the inverse's rows."""
    lam = float(frames.max_eigenvalue(field._pointwise().g_inv).max())
    return params.cfl * float(field.h.min())**2 / (2 * field.M.dim * lam)


class EighMetricField(RowGetterField):
    """``GraphMapField`` with the induced metric decomposed once by ``eigh``: its
    eigenvalues, checked finite and positive, give the inverse V diag(1/lambda) V^T
    and det g = prod lambda (as the rows that the flow and ``volume_density`` read)
    and ``eigh_cfl_dt``'s lambda_min; M's inverse metric by ``inv``, as its rows."""

    @field_cached
    def induced_g_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        g = _sym_grid(self, self._induced_g_rows())
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

    @grid_cached
    def _m_rows(self) -> MRows:
        rows = GraphMapField._m_rows.__wrapped__(self)
        return rows._replace(g_inv=components(np.linalg.inv(components(rows.g, 1))))


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
            g = induced_g_field(self)
            m = self.M.dim
            dg = np.empty(self.shape + (m, m, m))
            for a in range(m):
                dg[..., a, :, :] = (self.shift(g, a, +1) - self.shift(g, a, -1)) / (2 * self.h[a])
            ginv = induced_g_inv_field(self)
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
        """g-trace of a scalar's Hessian in M's connection: g^{ij}(d2_ij u - Gamma_M^k_ij d_k u),
        each sum over k and over the ``sym_index`` entries (an off-diagonal one twice) taken in
        order, as ``GraphMapField._laplace_and_gradient`` takes it on rows."""
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
        ginv, gam, (i, j, _, w) = induced_g_inv_field(self), gamma_m_field(self), sym_index(m)
        hess = d2 - np.add.reduce([gam[..., k, :, :] * du[..., k, None, None] for k in range(m)])
        return np.add.reduce([hess[..., a, b] * (ws * ginv[..., a, b])
                              for a, b, ws in zip(i, j, w[:, 0])])


# ---------------------------------------------------------------------------
# The points-last chart callables: a chart's metric (..., m) -> (..., m, m) and its
# Christoffel symbols (..., m) -> (..., m, m, m), first index upper, as two callables,
# as every chart took them before one ``rows_at`` call gave both on coordinate rows


def _lead_last(a: np.ndarray, k: int) -> np.ndarray:
    """a with its k leading axes moved last, in order (``np.moveaxis`` at a fraction of its
    cost per call, which the per-point oracles pay at every point)."""
    return a.transpose(tuple(range(k, a.ndim)) + tuple(range(k)))


def _trail_first(a: np.ndarray, k: int) -> np.ndarray:
    """a with its k trailing axes moved first, in order."""
    return a.transpose(tuple(range(a.ndim - k, a.ndim)) + tuple(range(a.ndim - k)))


def rows_of(metric_at, christoffels_at):
    """The ``rows_at`` of points-last callables (Gamma None where christoffels_at is)."""
    def rows_at(x):
        y = _lead_last(x, 1)
        g = _trail_first(np.asarray(metric_at(y)), 2)
        return g, None if christoffels_at is None else _trail_first(
            np.asarray(christoffels_at(y)), 3)
    return rows_at


def points_last(rows_at):
    """(metric_at, christoffels_at), points last, of a ``rows_at`` callable."""
    def metric_at(x):
        return _lead_last(rows_at(_trail_first(x, 1))[0], 2)

    def christoffels_at(x):
        return _lead_last(rows_at(_trail_first(x, 1))[1], 3)
    return metric_at, christoffels_at


def flat_torus_callables(m: int, scale: float = 1.0):
    eye = scale * scale * np.eye(m)
    return (lambda x: np.ones(x.shape[:-1] + (1, 1), dtype=x.dtype) * eye,
            lambda x: np.zeros(x.shape + (m, m), dtype=x.dtype))


def round_sphere_callables(m: int, curvature: float = 1.0):
    scale = 1.0 / curvature

    def diagonal(x):
        # diag(g)_i = prod_{j<i} sin^2 theta_j, before the overall scale
        s2 = np.sin(x[..., : m - 1]) ** 2
        return np.cumprod(np.concatenate([np.ones_like(x[..., :1]), s2], axis=-1), axis=-1)

    def metric(x):
        return (diagonal(x) * scale)[..., None, :] * np.eye(m)

    def christoffels(x):
        diag = diagonal(x)
        cot = np.cos(x[..., : m - 1]) / np.sin(x[..., : m - 1])
        gam = np.zeros(x.shape + (m, m), dtype=x.dtype)
        for i in range(m - 1):
            for j in range(i + 1, m):
                # Gamma^i_{jj} = -(1/2) g^{ii} d_i g_jj, Gamma^j_{ij} = cot theta_i
                gam[..., i, j, j] = -(diag[..., j] / diag[..., i]) * cot[..., i]
                gam[..., j, i, j] = gam[..., j, j, i] = cot[..., i]
        return gam

    return metric, christoffels


def warped_callables(warp):
    def metric(x):
        wz = warp.w(x[..., 1])
        g = np.zeros(x.shape + (2,), dtype=x.dtype)
        g[..., 0, 0] = wz * wz
        g[..., 1, 1] = 1.0
        return g

    def christoffels(x):
        wz = warp.w(x[..., 1])
        dwz = warp.dw(x[..., 1])
        gam = np.zeros(x.shape + (2, 2), dtype=x.dtype)
        gam[..., 0, 0, 1] = gam[..., 0, 1, 0] = dwz / wz
        gam[..., 1, 0, 0] = -wz * dwz
        return gam

    return metric, christoffels


def product_callables(*factors):
    """Block-diagonal callables of the factors' (metric, christoffels, dim), joined in order."""
    parts, start = [], 0
    for metric, christoffels, dim in factors:
        parts.append((slice(start, start + dim), metric, christoffels))
        start += dim

    def metric(x):
        g = np.zeros(x.shape + x.shape[-1:], dtype=x.dtype)
        for s, block, _ in parts:
            g[..., s, s] = block(x[..., s])
        return g

    def christoffels(x):
        gam = np.zeros(x.shape + x.shape[-1:] * 2, dtype=x.dtype)
        for s, _, block in parts:
            gam[..., s, s, s] = block(x[..., s])
        return gam

    return metric, christoffels


def s1xs2_callables():
    return product_callables((*flat_torus_callables(1), 1), (*round_sphere_callables(2), 2))


def s3_hopf_callables():
    def metric(x):
        g = np.zeros(x.shape + (3,), dtype=x.dtype)
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.cos(x[..., 0]) ** 2
        g[..., 2, 2] = np.sin(x[..., 0]) ** 2
        return g

    def christoffels(x):
        gam = np.zeros(x.shape + (3, 3), dtype=x.dtype)
        s, c = np.sin(x[..., 0]), np.cos(x[..., 0])
        gam[..., 0, 1, 1] = s * c
        gam[..., 0, 2, 2] = -s * c
        gam[..., 1, 0, 1] = gam[..., 1, 1, 0] = -s / c
        gam[..., 2, 0, 2] = gam[..., 2, 2, 0] = c / s
        return gam

    return metric, christoffels


def warped_t3_callables(a: float = 0.6):
    """T^3 with the metric dx^2 + e^{a sin x} (dy^2 + dz^2)."""
    def metric(x):
        g = np.zeros(x.shape + (3,), dtype=x.dtype)
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = g[..., 2, 2] = np.exp(a * np.sin(x[..., 0]))
        return g

    def christoffels(x):
        # with u = a sin x: Gamma^x_yy = Gamma^x_zz = -u' e^u / 2, Gamma^y_xy = Gamma^z_xz = u' / 2
        du = a * np.cos(x[..., 0])
        gam = np.zeros(x.shape + (3, 3), dtype=x.dtype)
        gam[..., 0, 1, 1] = gam[..., 0, 2, 2] = -0.5 * du * np.exp(a * np.sin(x[..., 0]))
        gam[..., 1, 0, 1] = gam[..., 1, 1, 0] = gam[..., 2, 0, 2] = gam[..., 2, 2, 0] = 0.5 * du
        return gam

    return metric, christoffels


def sheared_s1xs2_callables(c: float = 0.7):
    """S^1 x S^2 in the chart (s, theta + c s, phi): the product metric and Christoffel
    symbols transformed as tensors by the constant Jacobian of the shear."""
    base_metric, base_christoffels = s1xs2_callables()
    jac = np.array([[1.0, 0.0, 0.0], [-c, 1.0, 0.0], [0.0, 0.0, 1.0]])  # d(base)/d(sheared)
    jinv = np.linalg.inv(jac)

    def to_base(x):
        y = x.copy()
        y[..., 1] = x[..., 1] - c * x[..., 0]
        return y

    def metric(x):
        return jac.T @ base_metric(to_base(x)) @ jac

    def christoffels(x):
        return np.einsum("ka,...abc,bi,cj->...kij", jinv, base_christoffels(to_base(x)),
                         jac, jac)

    return metric, christoffels


# ---------------------------------------------------------------------------
# The per-point curvature layer


class LoopCurvatureChart(ChartManifold):
    """``ChartManifold`` with the per-point chart derivatives it had before the
    batched curvature tensors: ``inverse_metric_at``, ``_dmetric``,
    ``_dchristoffels`` and the list comprehension of ``christoffels_many``, on the
    points-last callables (``christoffels_at`` None: from the metric's derivatives)."""

    def __init__(self, name, axes, metric_at, christoffels_at, constant_curvature=None):
        super().__init__(name, axes, rows_of(metric_at, christoffels_at), constant_curvature)
        self._metric_at, self._christoffels_at = metric_at, christoffels_at

    @classmethod
    def of(cls, manifold: ChartManifold) -> "LoopCurvatureChart":
        return cls(manifold.name, manifold.axes, *points_last(manifold._rows_at),
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
