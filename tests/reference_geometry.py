"""Reference implementation of the pointwise graph geometry: the scalar
``build_svd_frame`` and ``point_geometry`` as they were before the batched
field geometry replaced them, the singular values as the SVD of the whitened
differential, the per-offset stencils of ``GraphMapField`` as they were before
the ghost-padded grid replaced them, the polar fold of a field's target values
and the periodic wrap of the chart as they were before ``ChartManifold.wrap``
took both, and the per-point curvature layer (chart
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

from graphflow.errors import ConfigurationError, DegenerateMetricError, DomainError
from graphflow.frames import quad_form
from graphflow.geometry import ChartManifold, WarpedSurface
from graphflow.immersion import GraphMapField

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

    frame = build_svd_frame(df, g_m, g_n)

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


def tangency_residual(field: GraphMapField, geo, node) -> float:
    """The tangency audit of ``immersion.field_geometry``'s record ``geo`` at a
    node: A is normal, so only the discretization error remains."""
    idx = _node_slices(node)
    m = field.M.dim
    gp = np.zeros((m + 2, m + 2))
    gp[:m, :m] = field.g_m_field()[idx]
    gp[m:, m:] = field.g_n_field()[idx]
    return _tangency(geo.a_vectors[idx], geo.frame.e[idx], field.df_field()[idx], gp)


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

    def laplace_beltrami(self, u: np.ndarray) -> np.ndarray:
        """Laplacian of a scalar w.r.t. the induced metric: g^{ij}(d2_ij u - Gamma^k_ij d_k u)."""
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
        gam = self.gamma_induced_field()
        hess = d2 - np.einsum("...kij,...k->...ij", gam, du)
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
