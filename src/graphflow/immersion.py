"""Discrete geometry of graph maps: induced metric, second fundamental form,
mean curvature, and the derived scalar quantities.

A map field lives on a structured grid over the chart of M.  Periodic axes
wrap; polar (reflect) axes use offset nodes and mirror ghosts that roll the
azimuthal partner axis by half a turn.  Chart components of derived fields are
polluted in a narrow band next to reflect seams (the azimuthal target
coordinate is singular there); consumers skip a node margin, see
``interior_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverAbort
from .frames import DifferentialSample, SVDFrame, build_svd_frame, p_batch, singular_values_batch
from .geometry import ChartManifold


class GraphMapField:
    """Discrete map f: M -> N sampled on a structured chart grid of M."""

    def __init__(self, m_manifold: ChartManifold, n_manifold: ChartManifold, shape, f_values):
        self.M = m_manifold
        self.N = n_manifold
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) != m_manifold.dim:
            raise ConfigurationError("grid shape must match dim M")
        for ax in m_manifold.axes:
            if not (ax.periodic or ax.reflect):
                raise ConfigurationError("grid axes must be periodic or reflect (compact charts)")
        self.h = np.array([ax.length / n for ax, n in zip(m_manifold.axes, self.shape)])
        f = np.asarray(f_values, dtype=float)
        if f.shape != self.shape + (n_manifold.dim,):
            raise ConfigurationError(f"f-values shape {f.shape} incompatible with grid {self.shape}")
        self.f = self._wrap_target(f)
        self._cache: dict = {}

    # -- grid bookkeeping ----------------------------------------------------

    def axis_coords(self, a: int) -> np.ndarray:
        ax = self.M.axes[a]
        off = 0.5 if ax.reflect else 0.0
        return ax.lo + (np.arange(self.shape[a]) + off) * self.h[a]

    def coords(self) -> np.ndarray:
        grids = np.meshgrid(*[self.axis_coords(a) for a in range(self.M.dim)], indexing="ij")
        return np.stack(grids, axis=-1)

    def _wrap_target(self, f: np.ndarray) -> np.ndarray:
        f = f.copy()
        # fold values that crossed a polar seam back into range, shifting the
        # azimuthal partner by the seam shift
        for b, ax in enumerate(self.N.axes):
            if ax.reflect and ax.partner_axis is not None:
                for pivot in (ax.lo, ax.hi):
                    over = (f[..., b] - pivot) * (1 if pivot == ax.lo else -1) < 0
                    if np.any(over):
                        f[..., b] = np.where(over, 2 * pivot - f[..., b], f[..., b])
                        f[..., ax.partner_axis] = np.where(
                            over, f[..., ax.partner_axis] + ax.partner_shift, f[..., ax.partner_axis]
                        )
        for b, ax in enumerate(self.N.axes):
            if ax.periodic:
                f[..., b] = ax.lo + (f[..., b] - ax.lo) % ax.length
        return f

    def with_values(self, f_values) -> "GraphMapField":
        return GraphMapField(self.M, self.N, self.shape, f_values)

    # -- shifted fields with ghost rules -------------------------------------

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

    def neighbor_f(self, shifts) -> np.ndarray:
        """f at a neighbor offset, unwrapped against the center values.

        ``shifts`` is a list of (axis, step) applied in order.
        """
        vals = self.f
        for axis, step in shifts:
            vals = self.shift(vals, axis, step)
        return self.unwrap_target(vals)

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

    # -- differential fields --------------------------------------------------

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

    # -- metric fields --------------------------------------------------------

    def g_m_field(self) -> np.ndarray:
        if "g_m" not in self._cache:
            self._cache["g_m"] = self.M.metric_many(self.coords())
        return self._cache["g_m"]

    def gamma_m_field(self) -> np.ndarray:
        if "gamma_m" not in self._cache:
            self._cache["gamma_m"] = self.M.christoffels_many(self.coords())
        return self._cache["gamma_m"]

    def g_n_field(self) -> np.ndarray:
        if "g_n" not in self._cache:
            self._cache["g_n"] = self.N.metric_many(self.f)
        return self._cache["g_n"]

    def gamma_n_field(self) -> np.ndarray:
        if "gamma_n" not in self._cache:
            self._cache["gamma_n"] = self.N.christoffels_many(self.f)
        return self._cache["gamma_n"]

    def induced_g_field(self) -> np.ndarray:
        if "g" not in self._cache:
            df = self.df_field()
            g = self.g_m_field() + np.einsum("...ia,...ab,...jb->...ij", df, self.g_n_field(), df)
            self._cache["g"] = g
        return self._cache["g"]

    def induced_g_inv_field(self) -> np.ndarray:
        if "ginv" not in self._cache:
            g = self.induced_g_field()
            ev = np.linalg.eigvalsh(g)
            if ev.min() <= 0 or not np.all(np.isfinite(ev)):
                raise SolverAbort("induced metric not positive definite (corrupted state)")
            self._cache["ginv"] = np.linalg.inv(g)
        return self._cache["ginv"]

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

    # -- scalar helpers --------------------------------------------------------

    def singular_value_fields(self) -> tuple[np.ndarray, np.ndarray]:
        if "sv" not in self._cache:
            self._cache["sv"] = singular_values_batch(self.g_m_field(), self.g_n_field(), self.df_field())
        return self._cache["sv"]

    def p_field(self) -> np.ndarray:
        lam, mu = self.singular_value_fields()
        return p_batch(lam, mu)

    def min_p(self) -> float:
        return float(self.p_field().min())

    def volume(self) -> float:
        det = np.linalg.det(self.induced_g_field())
        return float(np.sum(np.sqrt(det)) * np.prod(self.h))

    def interior_mask(self, margin: int = 4) -> np.ndarray:
        """True away from reflect seams (periodic axes are seam-free)."""
        mask = np.ones(self.shape, dtype=bool)
        for a, ax in enumerate(self.M.axes):
            if ax.reflect:
                idx = np.arange(self.shape[a])
                keep = (idx >= margin) & (idx < self.shape[a] - margin)
                sl = [None] * self.M.dim
                sl[a] = slice(None)
                mask &= keep[tuple(sl)]
        return mask

    # -- scalar calculus on the graph -----------------------------------------

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

    def grad_norm_sq(self, u: np.ndarray) -> np.ndarray:
        du = self.grad_field(u)
        return np.einsum("...ij,...i,...j->...", self.induced_g_inv_field(), du, du)


# ---------------------------------------------------------------------------
# Pointwise geometry


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


# ---------------------------------------------------------------------------
# Derived curvature quantities


def quantity_Q(pg: PointGeometry, ric_a1: float, ric_a2: float, sigma_m12: float, sigma_n: float) -> float:
    """First-order curvature source in the evolution of p."""
    fr = pg.frame
    p = fr.p
    if p <= 0:
        raise ValueError("quantity_Q requires p > 0")
    lam2, mu2 = fr.lam**2, fr.mu**2
    den = (1 + lam2) * (1 + mu2)
    bric = ric_a1 + ric_a2 - sigma_m12
    return (
        2 * lam2 * mu2 * (2 + p) / den * (bric - sigma_n)
        + 2 * lam2 * p / den * ric_a1
        + 2 * mu2 * p / den * ric_a2
    )


def quantity_R_vw(pg: PointGeometry, ricci: np.ndarray, sigma_m12: float, sigma_n: float):
    """Curvature term in the evolution of |H|^2 and the vectors v, w."""
    fr = pg.frame
    lam, mu = fr.lam, fr.mu
    den = (1 + lam**2) * (1 + mu**2)
    v = (lam * pg.h_xi / np.sqrt(1 + lam**2)) * fr.alpha[0] + (mu * pg.h_eta / np.sqrt(1 + mu**2)) * fr.alpha[1]
    w = (-lam * pg.h_eta / np.sqrt(1 + lam**2)) * fr.alpha[0] + (mu * pg.h_xi / np.sqrt(1 + mu**2)) * fr.alpha[1]
    ric_a1 = float(fr.alpha[0] @ ricci @ fr.alpha[0])
    ric_a2 = float(fr.alpha[1] @ ricci @ fr.alpha[1])
    bric = ric_a1 + ric_a2 - sigma_m12
    w_sq = (lam**2 * pg.h_eta**2 + mu**2 * pg.h_xi**2 + lam**2 * mu**2 * pg.h_sq) / den
    r = (
        2 * lam**2 * mu**2 * pg.h_sq / den * (bric - sigma_n)
        + 2 * float(v @ ricci @ v)
        - 2 * lam**2 * mu**2 * pg.h_sq / den * (ric_a1 + ric_a2)
        + 2 * sigma_n * w_sq
    )
    return r, v, w


def w_norm_sq(pg: PointGeometry) -> float:
    fr = pg.frame
    lam, mu = fr.lam, fr.mu
    return (lam**2 * pg.h_eta**2 + mu**2 * pg.h_xi**2 + lam**2 * mu**2 * pg.h_sq) / (
        (1 + lam**2) * (1 + mu**2)
    )


def theta_of(pg: PointGeometry) -> float:
    return pg.h_sq / pg.frame.p


def p_gradient_check(field: GraphMapField, node) -> np.ndarray:
    """|discrete grad_{e_k} p - (2 A^xi_{1k} T11 + 2 A^eta_{2k} T22)| per k."""
    idx = _node_slices(node)
    pg = point_geometry(field, node)
    dp = field.grad_field(field.p_field())[idx]
    fr = pg.frame
    lhs = fr.e @ dp
    rhs = 2 * pg.a_xi[0] * fr.t11 + 2 * pg.a_eta[1] * fr.t22
    return np.abs(lhs - rhs)
