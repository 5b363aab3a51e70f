"""Discrete geometry of graph maps: induced metric, second fundamental form,
mean curvature, and the derived scalar quantities.

A map field lives on a structured grid over the chart of M.  Stencils read
their neighbours through a ghost-padded copy of the grid's node index, built
once per grid: one ghost layer per M axis, added in axis order.  A periodic
axis wraps; a polar (reflect) axis uses offset nodes, and its ghost layer
mirrors the edge layer and rolls the azimuthal partner axis by the seam shift.
The partner must be a later axis, so the roll never moves ghosts already
added.  Each neighbour offset is a slice of the padded index, and a grid array
is gathered at all offsets in one indexing step.  Chart components of
derived fields are polluted in a narrow band next to reflect seams (the
azimuthal target coordinate is singular there); consumers skip a node margin,
see ``interior_mask``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, SolverAbort
from .frames import (SVDFrame, build_svd_frame, pd_inverse, quad_form,
                     singular_value_invariants)
from .geometry import ChartManifold

SEAM_MARGIN = 4  # nodes next to a reflect seam that ``interior_mask`` leaves out
CORRUPTED_METRIC = "induced metric not positive definite (corrupted state)"


def _swap(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def field_cached(fn):
    """Compute ``fn(field)`` once per field; it is kept with the field's derived values."""
    @functools.wraps(fn)
    def once(field):
        if fn.__name__ not in field._cache:
            field._cache[fn.__name__] = fn(field)
        return field._cache[fn.__name__]
    return once


@functools.cache
def _axis_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a < b of M axes, as index arrays (a, b)."""
    return np.triu_indices(m, 1)


def _stencil_offsets(m: int) -> np.ndarray:
    """Grid steps per M axis: +e_a, then -e_a, then ++, +-, -+, -- of each pair a < b."""
    eye = np.eye(m, dtype=int)
    corners = [s * eye[a] + t * eye[b] for a, b in zip(*_axis_pairs(m))
               for s in (1, -1) for t in (1, -1)]
    return np.array([*eye, *-eye, *corners])


class GraphMapField:
    """Discrete map f: M -> N sampled on a structured chart grid of M."""

    # M-side fields, equal for every field on the same grid
    GRID_FIELDS = ("coords", "_stencil_index", "g_m_field", "g_m_inv_field", "gamma_m_field")

    def __init__(self, m_manifold: ChartManifold, n_manifold: ChartManifold, shape, f_values):
        self.M = m_manifold
        self.N = n_manifold
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) != m_manifold.dim:
            raise ConfigurationError(
                f"grid shape {self.shape} must match dim M = {m_manifold.dim}")
        for a, (ax, n) in enumerate(zip(m_manifold.axes, self.shape)):
            if not (ax.periodic or ax.reflect):
                raise ConfigurationError(f"grid axis {a} of {m_manifold.name} must be "
                                         "periodic or reflect (compact charts)")
            if ax.periodic and n < 3:  # both centred-difference neighbours would be one node
                raise ConfigurationError(
                    f"periodic grid axis {a} has {n} nodes; it needs at least 3")
        self.h = np.array([ax.length / n for ax, n in zip(m_manifold.axes, self.shape)])
        # ghost roll of the partner axis at each reflect seam, in partner nodes
        self._seam_roll = [0] * m_manifold.dim
        for a, ax in enumerate(m_manifold.axes):
            if ax.reflect and ax.partner_axis is not None:
                if ax.partner_axis <= a:
                    raise ConfigurationError(
                        f"reflect axis {a}: partner axis {ax.partner_axis} must be a later axis")
                hp = self.h[ax.partner_axis]
                self._seam_roll[a] = int(round(ax.partner_shift / hp))
                if abs(self._seam_roll[a] * hp - ax.partner_shift) > 1e-9:
                    raise ConfigurationError("partner axis resolution must divide the seam shift")
        self._set_values(f_values)

    def _set_values(self, f_values) -> None:
        f = np.asarray(f_values, dtype=float)
        if f.shape != self.shape + (self.N.dim,):
            raise ConfigurationError(f"f-values shape {f.shape} incompatible with grid {self.shape}")
        self.f = self.N.wrap(f)  # in N's chart range, as g_N and Gamma_N read it
        self._cache: dict = {}

    # -- grid bookkeeping ----------------------------------------------------

    def axis_coords(self, a: int) -> np.ndarray:
        ax = self.M.axes[a]
        off = 0.5 if ax.reflect else 0.0
        return ax.lo + (np.arange(self.shape[a]) + off) * self.h[a]

    @field_cached
    def coords(self) -> np.ndarray:
        grids = np.meshgrid(*[self.axis_coords(a) for a in range(self.M.dim)], indexing="ij")
        return np.stack(grids, axis=-1)

    def with_values(self, f_values) -> "GraphMapField":
        """A field on the same grid, sharing this field's checked grid and M-side fields."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new._set_values(f_values)
        new._cache.update({k: getattr(self, k)() for k in self.GRID_FIELDS})
        return new

    # -- stencils on the ghost-padded grid ------------------------------------

    @field_cached
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

    def _neighbours(self, arr: np.ndarray, mixed: bool = True) -> np.ndarray:
        """``arr`` at the stencil offsets (mixed: all of them, else +-e_a only),
        shape (offsets,) + arr.shape; ``arr`` carries the grid shape in its
        leading axes."""
        m = self.M.dim
        idx = self._stencil_index() if mixed else self._stencil_index()[:2 * m]
        return np.take(arr.reshape((-1,) + arr.shape[m:]), idx, axis=0)

    def _first(self, nb: np.ndarray) -> np.ndarray:
        """Central first differences d_a from stacked neighbours, (grid, m, ...)."""
        m = self.M.dim
        h = self.h.reshape((m,) + (1,) * (nb.ndim - 1))
        axes = (*range(1, m + 1), 0, *range(m + 1, nb.ndim))  # the offset axis after the grid
        return np.ascontiguousarray(((nb[:m] - nb[m:2 * m]) / (2 * h)).transpose(axes))

    def _second(self, nb: np.ndarray, centre: np.ndarray) -> np.ndarray:
        """Second differences d2_ab (9-point mixed stencil) from stacked neighbours,
        (grid, m, m, ...)."""
        m = self.M.dim
        ones = (1,) * (nb.ndim - 1)
        out = np.empty(self.shape + (m, m) + centre.shape[m:])
        view = out.transpose(m, m + 1, *range(m), *range(m + 2, out.ndim))  # (a, b, grid, ...)
        diag = np.arange(m)
        view[diag, diag] = (nb[:m] - 2 * centre + nb[m:2 * m]) / self.h.reshape((m,) + ones) ** 2
        a, b = _axis_pairs(m)
        pp, pm, mp, mm = (nb[2 * m + k::4] for k in range(4))
        mixed = (pp - pm - mp + mm) / (4 * self.h[a] * self.h[b]).reshape((len(a),) + ones)
        view[a, b] = mixed
        view[b, a] = mixed
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

                # the mirror can only be closer where the partner coordinate is
                # more than half the seam shift s from the centre's: for o and c
                # on one side of a pivot p, |2p - o - c| >= |o - c|, and
                # perdist(x + s) >= perdist(s) - perdist(x)
                centre = np.broadcast_to(self.f, out.shape)
                far = perdist(out[..., q] - centre[..., q]) > perdist(ax.partner_shift) / 2
                if not far.any():
                    continue
                o, c = out[far], centre[far]
                for pivot in (ax.lo, ax.hi):
                    alt_b = 2 * pivot - o[:, b]
                    alt_q = o[:, q] + ax.partner_shift
                    d_cur = np.abs(o[:, b] - c[:, b]) + perdist(o[:, q] - c[:, q])
                    d_alt = np.abs(alt_b - c[:, b]) + perdist(alt_q - c[:, q])
                    take = d_alt < d_cur
                    o[take, b] = alt_b[take]
                    o[take, q] = alt_q[take]
                out[far] = o
        for b, ax in enumerate(self.N.axes):
            if ax.periodic:  # y % length is y itself for y in [0, length)
                y = out[..., b] - self.f[..., b] + ax.length / 2
                np.remainder(y, ax.length, out=y, where=(y < 0) | (y >= ax.length))
                out[..., b] = self.f[..., b] + y - ax.length / 2
        return out

    # -- differential fields --------------------------------------------------

    @field_cached
    def _f_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        nb = self.unwrap_target(self._neighbours(self.f))
        return self._first(nb), self._second(nb, self.f)

    def df_field(self) -> np.ndarray:
        """(grid, m, 2) central-difference differential of f."""
        return self._f_derivatives()[0]

    def d2f_field(self) -> np.ndarray:
        """(grid, m, m, 2) second chart derivatives (9-point mixed stencil)."""
        return self._f_derivatives()[1]

    # -- metric fields --------------------------------------------------------

    @field_cached
    def g_m_field(self) -> np.ndarray:
        return self.M.metric_many(self.coords())

    @field_cached
    def g_m_inv_field(self) -> np.ndarray:
        return self.M.inverse_metric(self.coords(), self.g_m_field())

    @field_cached
    def gamma_m_field(self) -> np.ndarray:
        return self.M.christoffels_many(self.coords())

    @field_cached
    def g_n_field(self) -> np.ndarray:
        return self.N._metric(self.f)

    @field_cached
    def gamma_n_field(self) -> np.ndarray:
        return np.asarray(self.N._christoffels_at(self.f))

    @field_cached
    def induced_g_field(self) -> np.ndarray:
        """g_M + df g_N df^T per node.  A corrupted state reads NaN here without a
        warning (an inf of g_N meets a zero of df); its readers refuse it."""
        df = self.df_field()
        with np.errstate(invalid="ignore"):
            return self.g_m_field() + df @ self.g_n_field() @ _swap(df)

    @field_cached
    def induced_g_eigvals(self) -> np.ndarray:
        """Eigenvalues of the induced metric per node, ascending; all must be positive."""
        ev = np.linalg.eigvalsh(self.induced_g_field())
        if ev.min() <= 0 or not np.all(np.isfinite(ev)):
            raise SolverAbort(CORRUPTED_METRIC)
        return ev

    @field_cached
    def induced_g_inv_field(self) -> np.ndarray:
        """The inverse induced metric, checked finite and positive definite (no
        eigensolve); see ``frames.pd_inverse``."""
        ginv = pd_inverse(self.induced_g_field())
        if ginv is None:
            raise SolverAbort(CORRUPTED_METRIC)
        return ginv

    def volume_density(self) -> np.ndarray:
        """sqrt(det g) per node, from the eigenvalues of the induced metric."""
        return np.sqrt(np.prod(self.induced_g_eigvals(), axis=-1))

    @field_cached
    def gamma_induced_field(self) -> np.ndarray:
        """Christoffels of the induced metric, finite-differenced from its field."""
        m = self.M.dim
        dg = self._first(self._neighbours(self.induced_g_field(), mixed=False))
        ginv = self.induced_g_inv_field()
        comb = (
            dg.transpose(*range(m), m, m + 1, m + 2)
            + dg.transpose(*range(m), m + 1, m, m + 2)
            - dg.transpose(*range(m), m + 1, m + 2, m)
        )
        return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, comb)

    def covariant_d2f(self, gamma: np.ndarray) -> np.ndarray:
        """d2_ij f^a - gamma^k_ij d_k f^a + Gamma_N^a_bc d_i f^b d_j f^c, as (grid, a, i, j).

        With gamma = Gamma_M its g-trace is the velocity V; with the induced
        Christoffels it is the N part of the second fundamental form.
        """
        df = self.df_field()
        m = self.M.dim
        batch = df.shape[:-2]
        gam_n = self.gamma_n_field()
        gam_n_df = (gam_n.reshape(batch + (4, 2)) @ _swap(df)).reshape(batch + (2, 2, m))
        gam_n_dfdf = df[..., None, :, :] @ gam_n_df                # (..., a, i, j)
        flat = self.d2f_field().reshape(batch + (m * m, 2)) \
            - _swap(gamma.reshape(batch + (m, m * m))) @ df
        return gam_n_dfdf + _swap(flat).reshape(gam_n_dfdf.shape)

    # -- scalar helpers --------------------------------------------------------

    @field_cached
    def _singular_value_invariants(self) -> tuple[np.ndarray, ...]:
        """(lambda, mu, tr K, det K) per node; see ``frames.singular_value_invariants``."""
        return singular_value_invariants(self.g_m_inv_field(), self.g_n_field(), self.df_field())

    def singular_value_fields(self) -> tuple[np.ndarray, np.ndarray]:
        return self._singular_value_invariants()[:2]

    @field_cached
    def p_field(self) -> np.ndarray:
        """p = 2(1 - lambda^2 mu^2)/((1 + lambda^2)(1 + mu^2)) per node, from tr K and det K."""
        _, _, tr, det = self._singular_value_invariants()
        return 2.0 * (1.0 - det) / (1.0 + tr + det)

    def min_p(self) -> float:
        return float(self.p_field().min())

    def volume(self) -> float:
        return float(np.sum(self.volume_density()) * np.prod(self.h))

    def interior_mask(self) -> np.ndarray:
        """True more than SEAM_MARGIN nodes away from reflect seams (periodic axes
        are seam-free).  A grid with no such node is refused, since a check over
        no node would read as a pass."""
        mask = np.ones(self.shape, dtype=bool)
        for a, ax in enumerate(self.M.axes):
            if ax.reflect:
                idx = np.arange(self.shape[a])
                keep = (idx >= SEAM_MARGIN) & (idx < self.shape[a] - SEAM_MARGIN)
                sl = [None] * self.M.dim
                sl[a] = slice(None)
                mask &= keep[tuple(sl)]
        if not mask.any():
            raise ConfigurationError(
                f"grid shape {self.shape} has no interior node: the monitors leave out "
                f"{SEAM_MARGIN} nodes at each reflect seam, so a reflect axis needs at least "
                f"{2 * SEAM_MARGIN + 1} nodes")
        return mask

    # -- scalar calculus on the graph -----------------------------------------

    def grad_field(self, u: np.ndarray) -> np.ndarray:
        """Coordinate gradient d_a u of a node scalar field, (grid, m)."""
        return self._first(self._neighbours(u, mixed=False))

    def laplace_beltrami(self, u: np.ndarray) -> np.ndarray:
        """Laplacian of a scalar w.r.t. the induced metric: g^{ij}(d2_ij u - Gamma^k_ij d_k u)."""
        nb = self._neighbours(u)
        d2, du = self._second(nb, u), self._first(nb)
        ginv = self.induced_g_inv_field()
        gam = self.gamma_induced_field()
        hess = d2 - np.einsum("...kij,...k->...ij", gam, du)
        return np.einsum("...ij,...ij->...", ginv, hess)

    def grad_norm_sq(self, u: np.ndarray) -> np.ndarray:
        du = self.grad_field(u)
        return quad_form(du, self.induced_g_inv_field(), du)

# ---------------------------------------------------------------------------
# Graph geometry of a whole field


@dataclass
class PointGeometry:
    """Second fundamental form, mean curvature and frame over a batch of nodes.

    ``field_geometry`` fills it with arrays over the grid (leading axes the
    grid shape); indexing it with a node gives the geometry at that node.
    """

    a_xi: np.ndarray      # (..., m, m) second fundamental form w.r.t. xi, e-basis
    a_eta: np.ndarray
    h_xi: np.ndarray      # (...)
    h_eta: np.ndarray
    a_sq: np.ndarray      # |A|^2
    h_sq: np.ndarray      # |H|^2
    frame: SVDFrame
    a_vectors: np.ndarray  # (..., m, m, m+2) A(e_i, e_j) in product-chart components

    def __getitem__(self, idx) -> "PointGeometry":
        """The same record restricted to ``idx`` of the batch axes (a node or a mask)."""
        def take(rec, skip=()):
            return {f.name: getattr(rec, f.name)[idx] for f in fields(rec) if f.name not in skip}
        return PointGeometry(**take(self, ("frame",)), frame=SVDFrame(**take(self.frame)))


@field_cached
def field_geometry(field: GraphMapField) -> PointGeometry:
    """Second-order geometry of the graph at every node, computed once per field."""
    m = field.M.dim
    df = field.df_field()                                      # (..., k, a)
    g_m = field.g_m_field()
    g_n = field.g_n_field()
    gam_g = field.gamma_induced_field()                        # (..., k, i, j)
    frame = build_svd_frame(df, g_m, g_n)
    e = frame.e                                                # rows e_i, chart comps

    # A(d_a, d_b) in product-chart components c (M part, N part), then in the e-basis
    a_coord = np.moveaxis(np.concatenate(
        [field.gamma_m_field() - gam_g, field.covariant_d2f(gam_g)], axis=-3), -3, -1)
    a_b = (e @ a_coord.reshape(df.shape[:-2] + (m, -1))).reshape(a_coord.shape)  # (.., i, b, c)
    a_vectors = e[..., None, :, :] @ a_b                       # (..., i, j, c)

    # lower the component index with the product metric: (g_M + g_N) blocks
    def lowered(v):
        return np.concatenate([(g_m @ v[..., :m, None])[..., 0],
                               (g_n @ v[..., m:, None])[..., 0]], axis=-1)

    a_xi = (a_vectors @ lowered(frame.xi)[..., None, :, None])[..., 0]
    a_eta = (a_vectors @ lowered(frame.eta)[..., None, :, None])[..., 0]
    h_xi = np.trace(a_xi, axis1=-2, axis2=-1)
    h_eta = np.trace(a_eta, axis1=-2, axis2=-1)
    a_sq = np.sum(a_xi**2, axis=(-2, -1)) + np.sum(a_eta**2, axis=(-2, -1))
    return PointGeometry(
        a_xi=a_xi, a_eta=a_eta, h_xi=h_xi, h_eta=h_eta, a_sq=a_sq, h_sq=h_xi**2 + h_eta**2,
        frame=frame, a_vectors=a_vectors,
    )


# ---------------------------------------------------------------------------
# Derived curvature quantities (elementwise over a batch or at one node)


def quantity_Q(frame: SVDFrame, ric_a1, ric_a2, sigma_m12, sigma_n):
    """First-order curvature source in the evolution of p."""
    p = frame.p
    if np.any(p <= 0):
        raise ValueError("quantity_Q requires p > 0")
    lam2, mu2 = frame.lam**2, frame.mu**2
    den = (1 + lam2) * (1 + mu2)
    bric = ric_a1 + ric_a2 - sigma_m12
    return (
        2 * lam2 * mu2 * (2 + p) / den * (bric - sigma_n)
        + 2 * lam2 * p / den * ric_a1
        + 2 * mu2 * p / den * ric_a2
    )


def quantity_R_vw(frame: SVDFrame, h_xi, h_eta, ricci: np.ndarray, sigma_m12, sigma_n):
    """Curvature term in the evolution of |H|^2 and the vectors v, w."""
    lam, mu = frame.lam, frame.mu
    h_sq = h_xi**2 + h_eta**2
    den = (1 + lam**2) * (1 + mu**2)
    a1, a2 = frame.alpha[..., 0, :], frame.alpha[..., 1, :]
    r1, r2 = np.sqrt(1 + lam**2), np.sqrt(1 + mu**2)
    v = (lam * h_xi / r1)[..., None] * a1 + (mu * h_eta / r2)[..., None] * a2
    w = (-lam * h_eta / r1)[..., None] * a1 + (mu * h_xi / r2)[..., None] * a2
    ric_a1 = quad_form(a1, ricci, a1)
    ric_a2 = quad_form(a2, ricci, a2)
    bric = ric_a1 + ric_a2 - sigma_m12
    r = (
        2 * lam**2 * mu**2 * h_sq / den * (bric - sigma_n)
        + 2 * quad_form(v, ricci, v)
        - 2 * lam**2 * mu**2 * h_sq / den * (ric_a1 + ric_a2)
        + 2 * sigma_n * w_norm_sq(frame, h_xi, h_eta)
    )
    return r, v, w


def w_norm_sq(frame: SVDFrame, h_xi, h_eta):
    lam, mu = frame.lam, frame.mu
    return (lam**2 * h_eta**2 + mu**2 * h_xi**2 + lam**2 * mu**2 * (h_xi**2 + h_eta**2)) / (
        (1 + lam**2) * (1 + mu**2)
    )
