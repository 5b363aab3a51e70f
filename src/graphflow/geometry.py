"""Chart-based Riemannian manifolds and their closed-form curvature.

A manifold is described by a single product-of-intervals chart together with
callables returning the metric and its analytic Christoffel symbols in chart
components, and the curvature it knows in closed form: a constant curvature,
or for a Riemannian product (``product``) the constant curvature of each
factor.  Nothing here differentiates a chart field; the tests keep a numeric
curvature tensor as the oracle of the closed forms.

Sign convention, used everywhere in the package: the sectional curvature of a
plane is sigma(v ^ w) = R(v, w, w, v) / |v ^ w|^2, so the round unit sphere has
sigma = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateMetricError, DomainError, SolverAbort
from .frames import matvec, pd_inverse

WARP_SAMPLES = 2001  # heights of the sup of a warped surface's Gauss curvature
WARP_Z_MAX = 6.0  # a warped surface's chart is z in [-WARP_Z_MAX, WARP_Z_MAX]
NEWTON_STEPS = 20  # bound on the Newton steps of the exp_neg circle trajectory (6 suffice)


@dataclass(frozen=True)
class Axis:
    """One chart coordinate axis.

    A periodic axis wraps modulo its length.  A reflect axis models a polar
    seam of a sphere-like chart: crossing an endpoint mirrors the coordinate
    and rolls the partner (azimuthal) axis by ``partner_shift``.
    """

    lo: float
    hi: float
    periodic: bool = False
    reflect: bool = False
    partner_axis: Optional[int] = None
    partner_shift: float = 0.0

    @property
    def length(self) -> float:
        return self.hi - self.lo


class ChartManifold:
    """Riemannian manifold given by a global coordinate chart.

    ``metric_at`` and ``christoffels_at`` map chart points (..., m) to the
    metric (..., m, m) and its analytic Christoffel symbols (..., m, m, m),
    first index upper.  A chart states the curvature it knows in closed form:
    ``constant_curvature`` k, or ``blocks``, the (axes, k) of each factor of a
    Riemannian product whose factors have constant curvature k (``product``
    builds them; k alone is the one block of all axes).  ``ricci_extremes``
    (min Ric, min BRic, scal) follows from them.
    """

    def __init__(
        self,
        name: str,
        axes: Sequence[Axis],
        metric_at: Callable[[np.ndarray], np.ndarray],
        christoffels_at: Callable[[np.ndarray], np.ndarray],
        constant_curvature: Optional[float] = None,
        blocks: Optional[tuple[tuple[slice, float], ...]] = None,
    ):
        self.name = name
        self.axes = tuple(axes)
        self.dim = m = len(self.axes)
        self._metric_at = metric_at
        self._christoffels_at = christoffels_at
        self.constant_curvature = k = constant_curvature
        self.blocks = blocks if k is None else ((slice(0, m), k),)
        self.ricci_extremes = None
        # rows (low, high, signed) per axis: the closed range of coordinates that ``wrap`` leaves
        # as they are, and whether one with its sign bit set may pass (it turns -0 into +0)
        self._wrap_plan = np.array([
            (ax.lo, np.nextafter(ax.hi, -np.inf), 0) if ax.periodic
            else (ax.lo, ax.hi, 1) if ax.reflect and ax.partner_axis is not None  # polar seam
            else (ax.lo - 1e-12, ax.hi + 1e-12, 1) for ax in self.axes]).T
        if self.blocks is not None and (k is not None or m <= 3):
            dims = [(s.stop - s.start, kb) for s, kb in self.blocks]
            scal = sum(b * (b - 1) * kb for b, kb in dims)
            # min BRic: scal/2 in every frame where m <= 3, else (2m - 3)k of a constant k
            min_bric = scal / 2 if m <= 3 else (2 * m - 3) * k
            self.ricci_extremes = (min((b - 1) * kb for b, kb in dims), min_bric, scal)

    # -- chart bookkeeping -------------------------------------------------

    def wrap(self, x) -> np.ndarray:
        """Points (..., m) put in chart range.  A coordinate past either end of a reflect
        axis is mirrored back and its partner axis turned by the seam shift; then
        periodic coordinates wrap, and any other coordinate out of range raises."""
        x = np.array(x, dtype=float)
        low, high, signed = self._wrap_plan
        if np.logical_and.reduce((x >= low) & (x <= high) & (np.signbit(x) <= signed), axis=None):
            return x  # each coordinate in range (NaN is in none): nothing to fold, wrap or refuse
        for a, ax in enumerate(self.axes):
            if ax.reflect and ax.partner_axis is not None:
                q = ax.partner_axis
                for pivot, side in ((ax.lo, 1), (ax.hi, -1)):
                    over = (x[..., a] - pivot) * side < 0
                    if np.any(over):
                        x[..., a] = np.where(over, 2 * pivot - x[..., a], x[..., a])
                        x[..., q] = np.where(over, x[..., q] + ax.partner_shift, x[..., q])
        for a, ax in enumerate(self.axes):
            if ax.periodic:
                # with lo = 0, as on every periodic axis here, the remainder gives back
                # each value in (lo, hi): only the others take it (-0 turns into +0)
                y = x[..., a]
                out = (y <= ax.lo) | (y >= ax.hi)
                if out.any():
                    y[out] = ax.lo + (y[out] - ax.lo) % ax.length
                continue
            inside = (ax.lo - 1e-12 <= x[..., a]) & (x[..., a] <= ax.hi + 1e-12)
            if not np.all(inside):
                raise DomainError(
                    f"{self.name}: coordinate {float(x[..., a][~inside].flat[0])} outside "
                    f"axis {a} range [{ax.lo}, {ax.hi}]"
                )
        return x

    # -- metric ------------------------------------------------------------

    def metric_many(self, pts) -> np.ndarray:
        """Metric at a batch of points, shape (..., m) -> (..., m, m); one point
        is a batch of shape ().  ``_metric`` takes points already ``wrap``-ped."""
        return self._metric(self.wrap(pts))

    def _metric(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self._metric_at(x))
        gt = np.swapaxes(g, -1, -2)  # g exactly, else np.allclose(g, gt, atol=1e-12), no set-up
        if not ((d := g - gt) == 0).all() and not (np.abs(d) <= 1e-12 + 1e-5 * np.abs(gt)).all():
            raise DegenerateMetricError(f"{self.name}: metric not symmetric")
        return g

    def inverse_metric(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g^{-1} of the metrics g (..., m, m) at the chart points x (..., m)."""
        ginv = pd_inverse(g)
        if ginv is None:
            w = np.linalg.eigvalsh(g)  # only to word the error
            bad = ~(w.min(axis=-1, initial=np.inf) > 0)  # NaN counts as bad
            if not bad.any():  # the factorisation fails where eigvalsh reads a roundoff-positive
                bad = w.min(axis=-1) == w.min()
            raise DegenerateMetricError(
                f"{self.name}: metric not positive definite at {x[bad][0]} (eigs {w[bad][0]})"
            )
        return ginv

    def christoffels_many(self, pts) -> np.ndarray:
        """Gamma^k_{ij} at a batch of points, (..., m) -> (..., m, m, m), first index
        upper; one point is a batch of shape ()."""
        return np.asarray(self._christoffels_at(self.wrap(pts)))

    # -- closed-form curvature -----------------------------------------------

    def curvature(self, g: np.ndarray, v: np.ndarray, w: np.ndarray):
        """Ric (..., m, m) and the sectional curvature of the planes v ^ w, v and w
        (..., m), at chart points whose metrics are g (..., m, m).  A block of b
        axes and curvature k adds (b - 1) k times its metric to Ric, and k times
        the squared area of the plane's projection to it to sigma.

        The blocks partition the axes and g is block diagonal along them, so
        g(v, v), g(w, w) and g(v, w) are sums over the blocks: each block forms
        g v and g w once and takes the three inner products elementwise."""
        if self.blocks is None:
            raise ConfigurationError(f"{self.name}: no closed-form curvature "
                                     "(M must have a constant curvature or be a product of such)")
        ric, area, vv, ww, vw = np.zeros_like(g), 0.0, 0.0, 0.0, 0.0
        for s, k in self.blocks:
            gs, vs, ws = g[..., s, s], v[..., s], w[..., s]
            ric[..., s, s] = (s.stop - s.start - 1) * k * gs
            gv, gw = matvec(gs, vs), matvec(gs, ws)
            vv_s, ww_s, vw_s = np.vecdot(vs, gv), np.vecdot(ws, gw), np.vecdot(vs, gw)
            area = area + k * (vv_s * ww_s - vw_s ** 2)
            vv, ww, vw = vv + vv_s, ww + ww_s, vw + vw_s
        return ric, area / (vv * ww - vw ** 2)

    def gauss_curvature_at(self, y):
        """Gauss curvature of a surface at chart points (..., 2): the declared
        constant curvature, a float."""
        if self.dim != 2:
            raise ConfigurationError("gauss_curvature_at expects a surface")
        return float(self.sup_gauss_curvature())

    def sup_gauss_curvature(self) -> float:
        """sup sigma_N in closed form: the declared constant curvature."""
        if self.constant_curvature is None:
            raise ConfigurationError(f"{self.name}: no closed-form sup sigma_N "
                                     "(N must have a constant curvature or be a warped surface)")
        return self.constant_curvature


# ---------------------------------------------------------------------------
# Warped product surfaces


class Warp:
    """Warp function w with its first two derivatives, elementwise over numpy arrays.

    ``trajectory(z0, t)``, where declared, is the height z(t) of the symmetric circle
    that starts at z0: the closed-form solution of dz/dt = -w w' / (1 + w^2), which
    ``flow.reduce_circle_drift`` samples."""

    def __init__(self, name: str, w: Callable, dw: Callable, d2w: Callable,
                 trajectory: Optional[Callable[[float, np.ndarray], np.ndarray]] = None):
        self.name = name
        self.w, self.dw, self.d2w = w, dw, d2w
        self.trajectory = trajectory


def _cosh_trajectory(z0: float, t: np.ndarray) -> np.ndarray:
    """tanh z sinh z = tanh z0 sinh z0 e^{-t}.  With s^2 the right side, sinh(z/2) =
    (s/2) sqrt(1 + s^2 / (sqrt(s^4 + 4) + 2)): no cancellation at the waist, and
    e^{-t/2} stays a normal float up to t = 1,416."""
    a = abs(z0)
    s = np.sqrt(np.tanh(a)) * np.sqrt(np.sinh(a)) * np.exp(-0.5 * t)
    s2 = s * s
    return np.sign(z0) * 2 * np.arcsinh(0.5 * s * np.sqrt(1 + s2 / (np.sqrt(s2 * s2 + 4) + 2)))


def _exp_neg_trajectory(z0: float, t: np.ndarray) -> np.ndarray:
    """z + e^{2z}/2 = z0 + e^{2 z0}/2 + t, by Newton steps on u + e^u = 2R for u = 2z.
    The start ln 2R (2R where 2R <= 1) lies right of the root of a convex increasing
    function, so the iterates fall monotonically, and quadratically: a step below
    1e-9 (1 + |u|) leaves an error below its square."""
    r2 = 2 * (z0 + 0.5 * np.exp(2 * z0) + t)
    u = np.where(r2 > 1, np.log(np.maximum(r2, 1.0)), r2)
    for _ in range(NEWTON_STEPS):
        eu = np.exp(u)
        du = (u + eu - r2) / (1 + eu)
        u -= du
        if np.all(np.abs(du) <= 1e-9 * (1 + np.abs(u))):
            return 0.5 * u
    raise SolverAbort(f"exp_neg trajectory from z0 = {z0!r}: no convergence "
                      f"in {NEWTON_STEPS} Newton steps")


# name -> (w, w', w'', circle trajectory)
_BUILTIN_WARPS = {
    "cosh": (np.cosh, np.sinh, np.cosh, _cosh_trajectory),
    "exp_neg": (lambda z: np.exp(-z), lambda z: -np.exp(-z), lambda z: np.exp(-z),
                _exp_neg_trajectory),
}


def builtin_warp(name: str) -> Warp:
    if name not in _BUILTIN_WARPS:
        raise ConfigurationError(f"unknown warp {name!r}")
    return Warp(name, *_BUILTIN_WARPS[name])


class WarpedSurface(ChartManifold):
    """Rotationally symmetric surface: coordinates (s, z), metric w(z)^2 ds^2 + dz^2,
    with s in [0, 2 pi) and z in [-6, 6]."""

    def __init__(self, warp: Warp):
        self.warp = warp
        axes = [Axis(0.0, 2 * math.pi, periodic=True), Axis(-WARP_Z_MAX, WARP_Z_MAX)]

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

        super().__init__(
            name=f"warped_cylinder[{warp.name}]",
            axes=axes,
            metric_at=metric,
            christoffels_at=christoffels,
        )
        zs = np.linspace(axes[1].lo, axes[1].hi, 201)
        with np.errstate(all="raise"):
            ws = np.asarray(warp.w(zs), dtype=float)
        if ws.min() <= 0:
            raise ConfigurationError("warp must stay positive on the z-range")

    def gauss_curvature(self, z):
        """-w''(z)/w(z), elementwise over an array of heights."""
        return -self.warp.d2w(z) / self.warp.w(z)

    def gauss_curvature_at(self, y):
        """-w''(z)/w(z) at chart points (s, z) (..., 2), an array over the points."""
        return self.gauss_curvature(np.asarray(y, dtype=float)[..., 1])

    def sup_gauss_curvature(self) -> float:
        lo, hi = self.axes[1].lo, self.axes[1].hi
        return float(np.max(self.gauss_curvature(np.linspace(lo, hi, WARP_SAMPLES))))


# ---------------------------------------------------------------------------
# Builtin manifolds


def flat_torus(m: int, scale: float = 1.0) -> ChartManifold:
    """Flat m-torus of period 2 pi; ``scale`` multiplies the metric by scale^2 (homothety)."""
    axes = [Axis(0.0, 2 * math.pi, periodic=True) for _ in range(m)]
    eye = scale * scale * np.eye(m)
    return ChartManifold(
        name=f"flat_torus_{m}",
        axes=axes,
        metric_at=lambda x: np.ones(x.shape[:-1] + (1, 1), dtype=x.dtype) * eye,
        christoffels_at=lambda x: np.zeros(x.shape + (m, m), dtype=x.dtype),
        constant_curvature=0.0,
    )


def round_sphere(m: int, curvature: float = 1.0) -> ChartManifold:
    """Round m-sphere of constant curvature ``curvature`` in hyperspherical chart.

    Coordinates (theta_1, ..., theta_{m-1}, phi) with theta_i in (0, pi) and
    phi periodic.  The chart metric is the unit-sphere one divided by the
    curvature.  Only theta_{m-1} is a reflect axis: past its pole the point is
    theta_{m-1} mirrored with phi turned by pi.  Past the pole of an outer
    theta_i every later theta is mirrored too, which an axis seam cannot say,
    so the outer theta_i are plain bounded axes and a grid refuses them.
    """
    if m < 2:
        raise ConfigurationError("round_sphere needs m >= 2")
    scale = 1.0 / curvature

    axes = [Axis(0.0, math.pi) for _ in range(m - 2)]
    axes.append(Axis(0.0, math.pi, reflect=True, partner_axis=m - 1, partner_shift=math.pi))
    axes.append(Axis(0.0, 2 * math.pi, periodic=True))

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

    return ChartManifold(
        name=f"round_sphere_{m}" + ("" if curvature == 1.0 else f"[k={curvature}]"),
        axes=axes,
        metric_at=metric,
        christoffels_at=christoffels,
        constant_curvature=curvature,
    )


def product(*charts: ChartManifold) -> ChartManifold:
    """Riemannian product of charts, their coordinates joined in order.

    The metric and Christoffel symbols are block diagonal, one block per factor,
    from the factors' own callables.  Where every factor declares its blocks
    (a constant curvature), so does the product; it is flat when every factor is.
    """
    axes, parts, blocks = [], [], []
    for chart in charts:
        start = len(axes)
        axes += [ax if ax.partner_axis is None
                 else replace(ax, partner_axis=ax.partner_axis + start) for ax in chart.axes]
        parts.append((slice(start, len(axes)), chart))
        blocks += [(slice(start + s.start, start + s.stop), k) for s, k in chart.blocks or ()]

    def metric(x):
        g = np.zeros(x.shape + x.shape[-1:], dtype=x.dtype)
        for s, chart in parts:
            g[..., s, s] = chart._metric_at(x[..., s])
        return g

    def christoffels(x):
        gam = np.zeros(x.shape + x.shape[-1:] * 2, dtype=x.dtype)
        for s, chart in parts:
            gam[..., s, s, s] = chart._christoffels_at(x[..., s])
        return gam

    declared = all(chart.blocks is not None for chart in charts)
    return ChartManifold(
        name="_x_".join(chart.name for chart in charts),
        axes=axes,
        metric_at=metric,
        christoffels_at=christoffels,
        constant_curvature=0.0 if all(chart.constant_curvature == 0 for chart in charts) else None,
        blocks=tuple(blocks) if declared else None,
    )


def product_s1_s2() -> ChartManifold:
    """S^1 x S^2 with the standard product metric, coordinates (s, theta, phi)."""
    return product(flat_torus(1), round_sphere(2))


def s3_hopf_chart() -> ChartManifold:
    """Unit 3-sphere in Hopf-torus coordinates (eta, xi1, xi2)."""
    axes = [
        Axis(0.0, math.pi / 2),
        Axis(0.0, 2 * math.pi, periodic=True),
        Axis(0.0, 2 * math.pi, periodic=True),
    ]

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

    return ChartManifold(
        name="s3_hopf",
        axes=axes,
        metric_at=metric,
        christoffels_at=christoffels,
        constant_curvature=1.0,
    )


def hopf_map(x) -> np.ndarray:
    """The Hopf fibration S^3 -> S^2 in the charts used by this package."""
    eta, xi1, xi2 = x
    theta = 2.0 * eta
    phi = (xi2 - xi1) % (2 * math.pi)
    return np.array([theta, phi])


# ---------------------------------------------------------------------------
# Curvature condition reports


@dataclass
class CurvatureReport:
    """Closed-form curvature conditions of a pair (M, N).

    ``exact``, ``point_count`` and ``frame_count`` never vary: every report is
    closed-form and samples nothing.  ``trace_ineq_2b`` and ``trace_ineq_3``
    follow from ``cond_a`` for every chart the package declares, so they cannot
    read false.  All five stay, with the echoed ``seed``, to keep the shape of
    the ``curvature_conditions`` artifact section that the goldens and the
    benchmark reference pin."""

    min_ric: float
    min_bric: float
    sup_sigma_n: float
    cond_a: bool
    cond_b: bool
    cond_c: bool
    trace_ineq_2b: bool
    trace_ineq_3: bool
    seed: int
    exact: bool = True
    point_count: int = 0
    frame_count: int = 0


def curvature_conditions_report(m_manifold: ChartManifold, n_manifold: ChartManifold,
                                seed: int = 0) -> CurvatureReport:
    """Conditions (A) BRic_M >= sup sigma_N, (B) Ric_M >= 0 and (C) Ric_M >= sup sigma_N,
    with the trace consequences (2b) and (3) of (A), all in closed form.

    M supplies its ``ricci_extremes`` and N its ``sup_gauss_curvature``; a chart
    that declares neither raises ``ConfigurationError``.  A product of dimension
    4 or more has no declared min BRic (it depends on the frame there).  Nothing is drawn:
    ``seed`` is only echoed into the report.
    """
    m = m_manifold.dim
    sup_sn = n_manifold.sup_gauss_curvature()
    if m_manifold.ricci_extremes is None:
        raise ConfigurationError(f"{m_manifold.name}: no closed-form curvature conditions "
                                 "(M must have a constant curvature or be a product of "
                                 "dimension at most 3 of such)")
    min_ric, min_bric, scal = m_manifold.ricci_extremes

    cond_a = min_bric >= sup_sn - 1e-12
    ineq_2b = ineq_3 = True
    if cond_a:
        ineq_2b = (m - 3) * min_ric + scal >= (m - 1) * sup_sn - 1e-10
        ineq_3 = scal >= m * (m - 1) / (2 * m - 3) * sup_sn - 1e-10
    return CurvatureReport(
        min_ric=float(min_ric),
        min_bric=float(min_bric),
        sup_sigma_n=float(sup_sn),
        cond_a=bool(cond_a),
        cond_b=bool(min_ric >= -1e-12),
        cond_c=bool(min_ric >= sup_sn - 1e-12),
        trace_ineq_2b=bool(ineq_2b),
        trace_ineq_3=bool(ineq_3),
        seed=seed,
    )
