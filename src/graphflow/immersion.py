"""Discrete geometry of graph maps: induced metric, second fundamental form,
mean curvature, and the derived scalar quantities.

A map field lives on a structured grid over the chart of M.  Stencils read
their neighbours through the node index of each stencil offset, built once per
grid, one M axis at a time.  A periodic axis wraps; a polar (reflect) axis
uses offset nodes, and a step past its end reads the edge node and rolls the
azimuthal partner axis by the seam shift.  The partner must be a later axis,
so its roll is known when its index is formed.  A grid array is gathered at
all offsets in one indexing step.  Chart components of
derived fields are polluted in a narrow band next to reflect seams (the
azimuthal target coordinate is singular there); consumers skip a node margin,
see ``interior_mask``.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, SolverAbort
from .frames import (SVDFrame, build_svd_frame, components, invariant_rows, k_rows, sym_index,
                     sym_inverse_and_det)
from .geometry import ChartManifold

SEAM_MARGIN = 4  # nodes next to a reflect seam that ``interior_mask`` leaves out
CORRUPTED_METRIC = "induced metric not positive definite (corrupted state)"
# cache key of a field whose derived values are a batch's column: a tsui lift, built with no
# (J, 8) grid and exact phi derivatives (``flow.EquivariantFlow.expand_fields``)
COLUMN_SOURCE = "column source"


def field_cached(fn, rows: bool = False, grid: bool = False):
    """Compute ``fn(field)`` once per field; it is kept with the field's derived values.
    A field whose cache holds a ``COLUMN_SOURCE`` reader takes every such value from it
    instead: ``reader(once)`` gives this field's column of the value computed on a batch.
    A value of ``rows`` (``row_cached``) holds one row per component over the flat nodes; one
    of ``grid`` (``grid_cached``) is kept in ``_grid``, which the fields on a grid share."""
    name = fn.__name__

    @functools.wraps(fn)
    def once(field):
        cache = field._grid if grid else field._cache
        if name not in cache:
            reader = cache.get(COLUMN_SOURCE)
            cache[name] = fn(field) if reader is None else reader(once)
        return cache[name]
    once.rows = rows
    return once


row_cached = functools.partial(field_cached, rows=True)
grid_cached = functools.partial(field_cached, grid=True)


def _stencil_offsets(m: int) -> np.ndarray:
    """Grid steps per M axis: +e_a, then -e_a, then ++, +-, -+, -- (each over the pairs a < b,
    the off-diagonal rows of ``sym_index``)."""
    eye, (i, j, _, _) = np.eye(m, dtype=int), sym_index(m)
    s, t = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)]).T[:, :, None, None]  # ++, +-, -+, --
    return np.concatenate([eye, -eye, (s * eye[i[m:]] + t * eye[j[m:]]).reshape(-1, m)])


# ``GraphMapField._pointwise``'s rows over the n flat nodes: g_N (2, 2, n), Gamma_N (2, 2, 2, n)
# (first index upper), the induced metric g and its inverse (S rows each, ``frames.sym_index``),
# det g (n), the Hessian of f, nabla^2 f (2, S, n), and the velocity V (2, n)
FieldRows = collections.namedtuple("FieldRows", "g_n gamma_n g g_inv det hessian v")
# ``GraphMapField._m_rows``, a grid's M side over its n flat nodes: g_M (m, m, n), its lower
# triangle's S rows, g_M^{-1} (m, m, n) and Gamma_M^k's S rows (m, S, n)
MRows = collections.namedtuple("MRows", "g g_low g_inv gamma")


class GraphMapField:
    """Discrete map f: M -> N sampled on a structured chart grid of M."""

    # nodes of the full grid that each node stands for: PHI_WIDTH on the column of an
    # equivariant lift (``flow.EquivariantFlow.expand_fields``)
    copies = 1

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
        self._grid: dict = {}  # the M-side values, equal for every field on the grid
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

    @grid_cached
    def coords(self) -> np.ndarray:
        out, m = np.empty(self.shape + (self.M.dim,)), self.M.dim
        for a in range(m):
            out[..., a] = self.axis_coords(a).reshape([-1 if b == a else 1 for b in range(m)])
        return out

    def with_values(self, f_values) -> "GraphMapField":
        """A field on the same grid, sharing this field's checked grid and, by reference, its
        M-side values.  A lift's column is refused: its stencil reads no azimuthal neighbour."""
        if self.copies != 1:
            raise ValueError("a lift's column is no grid for new values: lift the profile")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new._set_values(f_values)
        return new

    # -- stencils on the grid's node index ------------------------------------

    @grid_cached
    def _stencil_index(self) -> np.ndarray:
        """Node index of each stencil neighbour, (offsets, grid), formed per axis: a step past a
        periodic end wraps, one past a reflect end reads the edge node and turns its partner."""
        m, offsets = self.M.dim, _stencil_offsets(self.M.dim)
        index, roll = 0, [0] * m  # roll[q]: the partner axis q's turn at each reflect ghost
        for a, (ax, n) in enumerate(zip(self.M.axes, self.shape)):
            pos = (offsets[:, a].reshape((-1,) + (1,) * m)
                   + np.arange(n).reshape([-1 if b == a else 1 for b in range(m)]))
            node = pos % n if ax.periodic else np.minimum(np.maximum(pos, 0), n - 1)
            if self._seam_roll[a]:  # the partner is a later axis
                q = ax.partner_axis
                roll[q] = roll[q] + self._seam_roll[a] * ((pos < 0) | (pos >= n))
            index = index * n + (node + roll[a]) % n
        return index

    def _gather(self, rows: np.ndarray, offsets: int | None = None) -> np.ndarray:
        """The rows (c, n) at the stencil offsets (the first ``offsets`` of them), (c, k, n)."""
        idx = self._stencil_index()[:offsets]
        return rows.take(idx.reshape(len(idx), -1), axis=1)

    def _differences(self, nb: np.ndarray, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central first differences (c, m, n) and second differences (c, S, n), the 9-point
        mixed stencil off the diagonal, of the rows centre (c, n) from ``_gather``'s nb."""
        m, (i, j, _, _), h = self.M.dim, sym_index(self.M.dim), self.h[:, None]
        d2 = np.empty((len(nb), len(i), nb.shape[-1]))
        np.divide(nb[:, :m] - 2 * centre[:, None] + nb[:, m:2 * m], h ** 2, out=d2[:, :m])
        pp, pm, mp, mm = nb[:, 2 * m:].reshape(len(nb), 4, len(i) - m, -1).transpose(1, 0, 2, 3)
        np.divide(pp - pm - mp + mm, (4 * self.h[i[m:]] * self.h[j[m:]])[:, None], out=d2[:, m:])
        return (nb[:, :m] - nb[:, m:2 * m]) / (2 * h), d2

    def unwrap_target(self, out: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The rows out (2, ..., nodes) of f's values at neighbours of the nodes, unwrapped in
        place against the rows c (2, nodes) of the nodes' own values."""
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
                    alt_b = 2 * pivot - out[b]
                    alt_q = out[q] + ax.partner_shift
                    d_cur = np.abs(out[b] - c[b]) + perdist(out[q] - c[q])
                    d_alt = np.abs(alt_b - c[b]) + perdist(alt_q - c[q])
                    take = d_alt < d_cur
                    np.copyto(out[b], alt_b, where=take)
                    np.copyto(out[q], alt_q, where=take)
        for b, ax in enumerate(self.N.axes):
            if ax.periodic:  # y % length is y itself for y in [0, length)
                y = out[b] - c[b] + ax.length / 2
                np.remainder(y, ax.length, out=y, where=(y < 0) | (y >= ax.length))
                out[b] = c[b] + y - ax.length / 2
        return out

    # -- differential fields --------------------------------------------------
    # A field's own values are rows over its flat nodes, one per tensor component
    # (``row_cached``); a symmetric m x m tensor has the S rows of ``frames.sym_index``.
    # The step and the monitors contract them by elementwise products and ``np.add.reduce``.

    @row_cached
    def _f_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """f's central differences as rows (``_differences``): d (2, m, n), d[a, i] = d_i f^a,
        and d2 (2, S, n).  f's neighbours are gathered and unwrapped as rows."""
        centre = self.f.reshape(-1, 2).T
        return self._differences(self.unwrap_target(self._gather(centre), centre), centre)

    def _grid_array(self, rows: np.ndarray) -> np.ndarray:
        """Rows (..., n) as a C-ordered grid array (grid, ...)."""
        return components(rows, 1).reshape(self.shape + rows.shape[:-1])

    # -- metric fields --------------------------------------------------------

    @grid_cached
    def _m_rows(self) -> MRows:
        """The grid's M side (``MRows``) from one ``M.rows`` call at the nodes; g_M^{-1} by
        ``frames.sym_inverse_and_det`` on g_M's lower triangle."""
        (i, j, full, _), x = sym_index(self.M.dim), self.coords().reshape(-1, self.M.dim).T
        g, gam = self.M.rows(x)
        if (inv_det := sym_inverse_and_det(low := g[j, i])) is None:
            self.M.inverse_metric(x.T, components(g, 1))  # raises, naming a node where g fails
        return MRows(g, low, inv_det[0][full], gam[:, i, j])

    @grid_cached
    def g_m_field(self) -> np.ndarray:
        """g_M as a grid array (grid, m, m), for the frame and the monitors' curvature."""
        return self._grid_array(self._m_rows().g)

    @row_cached
    def _pointwise(self) -> FieldRows:
        """The field's pointwise pass (``FieldRows``) from f's rows and differences: g_N and
        Gamma_N from one call of N's chart at f, which ``_set_values`` put in range (``N._rows``,
        ``N.rows`` with no second wrap), g_M and Gamma_M from the grid's ``_m_rows``, then each
        entry summed in this order.  g_s = g_M,ji + P . d_i f, P = d_j f^0 g_N,0 + d_j f^1 g_N,1
        (the lower triangle (j, i)); its inverse and det by one factorisation, checked finite
        and positive definite (``frames.sym_inverse_and_det``); T^a_bj = Gamma_N^a_bc d_j f^c,
        then nabla^2 f = d_i f^b T^a_bj + (d2_ij f^a - Gamma_M^k_ij d_k f^a); V = g^{ij}
        nabla^2_ij f, an off-diagonal row twice.  A corrupted state reads NaN in g without a
        warning (an inf of g_N meets a zero of df), and is refused."""
        (d, d2), (i, j, _, w) = self._f_derivatives(), sym_index(self.M.dim)
        m_rows, (g_n, gam_n) = self._m_rows(), self.N._rows(self.f.reshape(-1, 2).T)
        di, dj = d.take(i, axis=1), d.take(j, axis=1)
        with np.errstate(invalid="ignore"):
            p = dj[0] * g_n[0, :, None] + dj[1] * g_n[1, :, None]
            g = m_rows.g_low + np.add.reduce(p * di, axis=0)
        if (inv_det := sym_inverse_and_det(g)) is None:
            raise SolverAbort(CORRUPTED_METRIC)
        t = np.add.reduce(gam_n[:, :, :, None] * dj, axis=2)
        gam_m = np.add.reduce(m_rows.gamma * d[:, :, None], axis=1)
        hess = np.add.reduce(di * t, axis=1) + (d2 - gam_m)
        v = np.add.reduce(hess * (w * inv_det[0]), axis=1)
        return FieldRows(g_n, gam_n, g, *inv_det, hess, v)

    def volume_density(self) -> np.ndarray:
        """sqrt(det g) per node, from the factorisation behind the inverse."""
        return np.sqrt(self._pointwise().det).reshape(self.shape)

    @row_cached
    def _dg_rows(self) -> np.ndarray:
        """Central first differences d_l g_s of the induced metric's rows, (S, m, n)."""
        m = self.M.dim
        nb = self._gather(self._pointwise().g, 2 * m)
        return (nb[:, :m] - nb[:, m:]) / (2 * self.h[:, None])

    # -- scalar helpers --------------------------------------------------------

    def singular_value_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda, mu) per node; see ``frames.singular_value_invariants``."""
        rows = invariant_rows(self._m_rows().g_inv, self._pointwise().g_n, self._f_derivatives()[0])
        return rows[0].reshape(self.shape), rows[1].reshape(self.shape)

    @field_cached
    def p_field(self) -> np.ndarray:
        """p = 2(1 - lambda^2 mu^2)/((1 + lambda^2)(1 + mu^2)) per node, from tr K and det K
        alone (``frames.k_rows``)."""
        (a, b), (c, e) = k_rows(self._m_rows().g_inv, self._pointwise().g_n,
                                self._f_derivatives()[0])
        det = a * e - b * c
        return (2.0 * (1.0 - det) / (1.0 + (a + e) + det)).reshape(self.shape)

    def min_p(self) -> float:
        return float(self.p_field().min())

    def volume(self) -> float:
        return float(np.sum(self.volume_density()) * np.prod(self.h) * self.copies)

    @grid_cached
    def _interior(self) -> np.ndarray:
        """The nodes more than SEAM_MARGIN nodes away from reflect seams, read-only."""
        mask = np.ones(self.shape, dtype=bool)
        for a, (ax, n) in enumerate(zip(self.M.axes, self.shape)):
            if ax.reflect:
                idx = np.arange(n).reshape([-1 if b == a else 1 for b in range(self.M.dim)])
                mask &= (idx >= SEAM_MARGIN) & (idx < n - SEAM_MARGIN)
        mask.flags.writeable = False
        return mask

    def interior_mask(self) -> np.ndarray:
        """True more than SEAM_MARGIN nodes away from reflect seams (periodic axes
        are seam-free); a grid field, shared by every field on the grid.  A grid
        with no such node is refused, since a check over no node would read as a
        pass."""
        mask = self._interior()
        if not mask.any():
            raise ConfigurationError(
                f"grid shape {self.shape} has no interior node: the monitors leave out "
                f"{SEAM_MARGIN} nodes at each reflect seam, so a reflect axis needs at least "
                f"{2 * SEAM_MARGIN + 1} nodes")
        return mask

    # -- scalar calculus on the graph -----------------------------------------

    def _laplace_and_gradient(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g^{ij}(d2_ij u - Gamma_M^k_ij d_k u), d_a u) of the c scalar fields u (grid, c) from
        one gather of their neighbours, as (c, grid) and rows (c, m, n), on the rows of Gamma_M
        and of the inverse induced metric, an off-diagonal row twice.  The first is
        Laplace-Beltrami plus X . grad u, as g^{ij} Gamma_g^k_ij = X^k + g^{ij} Gamma_M^k_ij."""
        rows, w = u.reshape(-1, u.shape[-1]).T, sym_index(self.M.dim)[3]
        du, d2 = self._differences(self._gather(rows), rows)
        hess = d2 - np.add.reduce(self._m_rows().gamma * du[:, :, None], axis=1)
        lap = np.add.reduce(hess * (w * self._pointwise().g_inv), axis=1)
        return lap.reshape(rows.shape[:1] + self.shape), du

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

    def __getitem__(self, idx) -> "PointGeometry":
        """The same record restricted to ``idx`` of the batch axes (a node or a mask)."""
        def take(rec, skip=()):
            return {f.name: getattr(rec, f.name)[idx] for f in fields(rec) if f.name not in skip}
        return PointGeometry(**take(self, ("frame",)), frame=SVDFrame(**take(self.frame)))


@field_cached
def field_geometry(field: GraphMapField) -> PointGeometry:
    """Second-order geometry of the graph at every node, computed once per field on its rows
    (``GraphMapField._pointwise``), each contraction an elementwise product summed in order by
    ``np.add.reduce``.  The frame takes f's derivative rows and g_N's as views of the grid."""
    m, shape, rows = field.M.dim, field.shape, field._pointwise()
    frame = build_svd_frame(field._f_derivatives()[0].T.reshape(shape + (m, 2)), field.g_m_field(),
                            np.moveaxis(rows.g_n, -1, 0).reshape(shape + (2, 2)))
    e = components(frame.e).reshape(m, m, -1)                  # e[k, i]: rows e_k, chart comps
    normals = components(np.stack([frame.xi[..., m:], frame.eta[..., m:]], axis=-2))

    # xi and eta are orthogonal to dF, so <A(d_i, d_j), nu> = g_N(nabla^2_ij f, nu^N): the
    # Hessian of f contracted with the N blocks of the normals lowered by g_N, then in
    # the e-basis (e A e^T, e A first); the vectors A(e_i, e_j) are never formed
    lowered = np.add.reduce(rows.g_n * normals.reshape(2, 1, 2, -1), axis=2)   # (nu, b, n)
    hess = rows.hessian.take(sym_index(m)[2], axis=1)          # (b, i, j, n)
    a_nu = np.add.reduce(lowered[:, :, None, None] * hess, axis=1)
    a_nu = np.add.reduce(e[:, :, None] * a_nu[:, None], axis=2)
    a_nu = np.add.reduce(a_nu[:, :, None] * e, axis=3)         # (nu, k, l, n)
    h_xi, h_eta = np.trace(a_nu, axis1=1, axis2=2)
    sq = np.add.reduce((a_nu * a_nu).reshape(2, m * m, -1), axis=1)
    a_nu = field._grid_array(a_nu)
    return PointGeometry(
        a_xi=a_nu[..., 0, :, :], a_eta=a_nu[..., 1, :, :], h_xi=h_xi.reshape(shape),
        h_eta=h_eta.reshape(shape), a_sq=(sq[0] + sq[1]).reshape(shape),
        h_sq=(h_xi**2 + h_eta**2).reshape(shape), frame=frame,
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


def quantity_R_vw(frame: SVDFrame, h_xi, h_eta, ricci: np.ndarray, ric_a1, ric_a2, sigma_m12,
                  sigma_n):
    """Curvature term in the evolution of |H|^2 and the vectors v, w, from Ric_M (..., m, m)
    and its values Ric(alpha_1, alpha_1) and Ric(alpha_2, alpha_2)."""
    lam, mu = frame.lam, frame.mu
    h_sq = h_xi**2 + h_eta**2
    den = (1 + lam**2) * (1 + mu**2)
    a1, a2 = frame.alpha[..., 0, :], frame.alpha[..., 1, :]
    r1, r2 = np.sqrt(1 + lam**2), np.sqrt(1 + mu**2)
    v = (lam * h_xi / r1)[..., None] * a1 + (mu * h_eta / r2)[..., None] * a2
    w = (-lam * h_eta / r1)[..., None] * a1 + (mu * h_xi / r2)[..., None] * a2
    ric_v = np.add.reduce(np.add.reduce(v[..., None] * ricci, axis=-2) * v, axis=-1)  # (v Ric) v
    bric = ric_a1 + ric_a2 - sigma_m12
    r = (
        2 * lam**2 * mu**2 * h_sq / den * (bric - sigma_n)
        + 2 * ric_v
        - 2 * lam**2 * mu**2 * h_sq / den * (ric_a1 + ric_a2)
        + 2 * sigma_n * w_norm_sq(frame, h_xi, h_eta)
    )
    return r, v, w


def w_norm_sq(frame: SVDFrame, h_xi, h_eta):
    lam, mu = frame.lam, frame.mu
    return (lam**2 * h_eta**2 + mu**2 * h_xi**2 + lam**2 * mu**2 * (h_xi**2 + h_eta**2)) / (
        (1 + lam**2) * (1 + mu**2)
    )
