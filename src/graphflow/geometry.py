"""Chart-based Riemannian manifolds and curvature machinery.

A manifold is described by a single product-of-intervals chart together with a
callable returning the metric in chart components.  Curvature is obtained from
the metric by complex-step differentiation (machine precision): the
Christoffel callable, or the metric callable of a chart without one, must
accept complex chart points.

Sign convention, used everywhere in the package: the sectional curvature of a
plane is sigma(v ^ w) = R(v, w, w, v) / |v ^ w|^2, so the round unit sphere has
sigma = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateMetricError,
    DegeneratePlaneError,
    DomainError,
    FrameError,
)

_COMPLEX_STEP = 1e-30


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

    ``metric_at`` maps chart points (..., m), real or complex, to symmetric
    positive-definite matrices (..., m, m) of the same dtype.
    ``christoffels_at`` may be supplied analytically, with the same batch and
    dtype convention; otherwise Christoffel symbols are obtained point by
    point by complex-step differentiation of the metric, and curvature, which
    differentiates them once more, is unavailable.
    """

    def __init__(
        self,
        name: str,
        axes: Sequence[Axis],
        metric_at: Callable[[np.ndarray], np.ndarray],
        christoffels_at: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        constant_curvature: Optional[float] = None,
        is_product_s1xs2: bool = False,
    ):
        self.name = name
        self.axes = tuple(axes)
        self.dim = len(self.axes)
        self._metric_at = metric_at
        self._christoffels_at = christoffels_at
        self.constant_curvature = constant_curvature
        self.is_product_s1xs2 = is_product_s1xs2

    # -- chart bookkeeping -------------------------------------------------

    def wrap(self, x) -> np.ndarray:
        """Wrap periodic coordinates of points (..., m) into range; validate the others."""
        x = np.array(x, dtype=float)
        for a, ax in enumerate(self.axes):
            if ax.periodic:
                x[..., a] = ax.lo + (x[..., a] - ax.lo) % ax.length
                continue
            inside = (ax.lo - 1e-12 <= x[..., a]) & (x[..., a] <= ax.hi + 1e-12)
            if not np.all(inside):
                raise DomainError(
                    f"{self.name}: coordinate {x[..., a][~inside].flat[0]!r} outside "
                    f"axis {a} range [{ax.lo}, {ax.hi}]"
                )
        return x

    # -- metric ------------------------------------------------------------

    def metric_many(self, pts) -> np.ndarray:
        """Metric at a batch of points, shape (..., m) -> (..., m, m)."""
        x = self.wrap(pts)
        g = np.asarray(self._metric_at(x))
        if not np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12):
            raise DegenerateMetricError(f"{self.name}: metric not symmetric")
        return g

    metric_at = metric_many  # one point is a batch of shape ()

    def inverse_metric_at(self, x) -> np.ndarray:
        g = self.metric_at(x)
        try:
            w = np.linalg.eigvalsh(g)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise DegenerateMetricError(str(exc)) from exc
        if w.min() <= 0:
            raise DegenerateMetricError(
                f"{self.name}: metric not positive definite at {x} (eigs {w})"
            )
        return np.linalg.inv(g)

    # -- derivatives of chart fields ----------------------------------------

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

    christoffels_at = christoffels_many  # one point is a batch of shape ()

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


# ---------------------------------------------------------------------------
# Curvature tensors


@dataclass
class CurvatureTensors:
    """Chart-component curvature data at a single point."""

    g: np.ndarray           # g_{ij}
    gamma: np.ndarray       # Gamma^k_{ij}
    riemann: np.ndarray     # R_{ijkl} = <R(d_i, d_j) d_k, d_l>
    ricci: np.ndarray
    scalar: float


def curvature_package(manifold: ChartManifold, x) -> CurvatureTensors:
    """All curvature tensors of the chart metric at ``x``."""
    x = manifold.wrap(x)
    g = manifold.metric_at(x)
    ginv = manifold.inverse_metric_at(x)
    gamma = manifold.christoffels_at(x)
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


def sectional(manifold: ChartManifold, x, v, w, tensors: Optional[CurvatureTensors] = None) -> float:
    """Sectional curvature of the plane spanned by v and w."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    ct = tensors if tensors is not None else curvature_package(manifold, x)
    g = ct.g
    gram = (v @ g @ v) * (w @ g @ w) - (v @ g @ w) ** 2
    if gram < 1e-14 * max(1.0, float(v @ g @ v) * float(w @ g @ w)):
        raise DegeneratePlaneError("vectors do not span a plane")
    num = float(np.einsum("ijkl,i,j,k,l->", ct.riemann, v, w, w, v))
    return num / gram


def bi_ricci(manifold: ChartManifold, x, v, w, tensors: Optional[CurvatureTensors] = None) -> float:
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


# ---------------------------------------------------------------------------
# Warped product surfaces


@dataclass(frozen=True)
class Warp:
    """Warp function with its first two derivatives."""

    name: str
    w: Callable[[float], float]
    dw: Callable[[float], float]
    d2w: Callable[[float], float]


def builtin_warp(name: str) -> Warp:
    if name == "cosh":
        return Warp("cosh", np.cosh, np.sinh, np.cosh)
    if name == "exp_neg":
        return Warp("exp_neg", lambda z: np.exp(-z), lambda z: -np.exp(-z), lambda z: np.exp(-z))
    raise ConfigurationError(f"unknown warp {name!r}")


class WarpedSurface(ChartManifold):
    """Rotationally symmetric surface: coordinates (s, z), metric w(z)^2 ds^2 + dz^2."""

    def __init__(self, warp: Warp, period: float = 2 * math.pi, z_range=(-6.0, 6.0), name=None):
        self.warp = warp
        axes = [Axis(0.0, period, periodic=True), Axis(z_range[0], z_range[1])]

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
            name=name or f"warped_cylinder[{warp.name}]",
            axes=axes,
            metric_at=metric,
            christoffels_at=christoffels,
        )
        lo, hi = z_range
        zs = np.linspace(lo, hi, 201)
        with np.errstate(all="raise"):
            ws = np.asarray(warp.w(zs), dtype=float)
        if ws.min() <= 0:
            raise ConfigurationError("warp must stay positive on the z-range")

    def gauss_curvature(self, z):
        """-w''(z)/w(z), elementwise over an array of heights."""
        return -self.warp.d2w(z) / self.warp.w(z)

    def sup_gauss_curvature(self, samples: int = 2001) -> float:
        lo, hi = self.axes[1].lo, self.axes[1].hi
        return float(np.max(self.gauss_curvature(np.linspace(lo, hi, samples))))


# ---------------------------------------------------------------------------
# Builtin manifolds


def flat_torus(m: int, period: float = 2 * math.pi, scale: float = 1.0) -> ChartManifold:
    """Flat m-torus; ``scale`` multiplies the metric by scale^2 (homothety)."""
    axes = [Axis(0.0, period, periodic=True) for _ in range(m)]
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
    curvature.  For m = 2 the polar axis carries the reflection seam used by
    grid discretizations.
    """
    if m < 2:
        raise ConfigurationError("round_sphere needs m >= 2")
    scale = 1.0 / curvature

    axes = []
    for i in range(m - 1):
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


def product_s1_s2(circle_length: float = 2 * math.pi) -> ChartManifold:
    """S^1 x S^2 with the standard product metric, coordinates (s, theta, phi)."""
    axes = [
        Axis(0.0, circle_length, periodic=True),
        Axis(0.0, math.pi, reflect=True, partner_axis=2, partner_shift=math.pi),
        Axis(0.0, 2 * math.pi, periodic=True),
    ]

    def metric(x):
        g = np.zeros(x.shape + (3,), dtype=x.dtype)
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = np.sin(x[..., 1]) ** 2
        return g

    def christoffels(x):
        gam = np.zeros(x.shape + (3, 3), dtype=x.dtype)
        st, ct = np.sin(x[..., 1]), np.cos(x[..., 1])
        gam[..., 1, 2, 2] = -st * ct
        gam[..., 2, 1, 2] = gam[..., 2, 2, 1] = ct / st
        return gam

    return ChartManifold(
        name="s1_x_s2",
        axes=axes,
        metric_at=metric,
        christoffels_at=christoffels,
        is_product_s1xs2=True,
    )


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
    """Sampled curvature-condition summary for a pair (M, N)."""

    min_ric: float
    min_bric: float
    sup_sigma_n: float
    cond_a: bool
    cond_b: bool
    cond_c: bool
    exact: bool
    point_count: int
    frame_count: int
    seed: int
    trace_ineq_2b: bool = True
    trace_ineq_3: bool = True


def gauss_curvature_at(n_manifold: ChartManifold, y):
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


def sup_sigma_of(n_manifold: ChartManifold, samples: int = 400) -> float:
    if isinstance(n_manifold, WarpedSurface):
        return n_manifold.sup_gauss_curvature()
    if n_manifold.constant_curvature is not None:
        return n_manifold.constant_curvature
    pts = _sample_points(n_manifold, samples, np.random.default_rng(0))
    return float(np.max(gauss_curvature_at(n_manifold, pts)))


def _sample_points(manifold: ChartManifold, count: int, rng: np.random.Generator) -> np.ndarray:
    pts = np.empty((count, manifold.dim))
    for a, ax in enumerate(manifold.axes):
        if ax.periodic:
            pts[:, a] = rng.uniform(ax.lo, ax.hi, size=count)
        else:
            margin = 0.05 * ax.length
            pts[:, a] = rng.uniform(ax.lo + margin, ax.hi - margin, size=count)
    return pts


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


def min_bric_sampled(
    manifold: ChartManifold,
    points: np.ndarray,
    frames_per_point: int,
    rng: np.random.Generator,
    descent_steps: int = 20,
) -> float:
    """Monte-Carlo lower-bound estimate of min BRic over 2-frames.

    Random orthonormal pairs at each sample point followed by a short
    keep-if-better local rotation descent.  An audit estimate, not a
    certificate.
    """
    best = math.inf
    m = manifold.dim
    for x in points:
        ct = curvature_package(manifold, x)
        local_best = math.inf
        local_pair = None
        for _ in range(frames_per_point):
            pair = _orthonormalize(ct.g, rng.standard_normal((2, m)))
            val = bi_ricci(manifold, x, *pair, tensors=ct)
            if val < local_best:
                local_best, local_pair = val, pair
        # local rotation descent around the best sampled pair
        step = 0.3
        for _ in range(descent_steps):
            cand = local_pair + step * rng.standard_normal((2, m))
            try:
                cand = _orthonormalize(ct.g, cand)
            except FrameError:
                continue
            val = bi_ricci(manifold, x, *cand, tensors=ct)
            if val < local_best:
                local_best, local_pair = val, cand
            else:
                step *= 0.8
        best = min(best, local_best)
    return best


def curvature_conditions_report(
    m_manifold: ChartManifold,
    n_manifold: ChartManifold,
    point_samples: int = 64,
    frame_samples: int = 64,
    seed: int = 0,
) -> CurvatureReport:
    """Evaluate the curvature conditions relating M and N.

    Exact closed forms are used when both manifolds declare constant curvature
    (and for the S^1 x S^2 product); otherwise minima are sampled.
    """
    if point_samples <= 0 or frame_samples <= 0:
        raise ConfigurationError("sampling parameters must be positive")
    m = m_manifold.dim
    sup_sn = sup_sigma_of(n_manifold)
    exact = False

    if m_manifold.constant_curvature is not None:
        sm = m_manifold.constant_curvature
        min_ric = (m - 1) * sm
        min_bric = (2 * m - 3) * sm
        exact = True
        points_used, frames_used = 0, 0
    elif m_manifold.is_product_s1xs2:
        # Ricci eigenvalues are (0, 1, 1); the bi-Ricci minimum over all
        # orthonormal pairs equals the sphere curvature.
        min_ric = 0.0
        min_bric = 1.0
        exact = True
        points_used, frames_used = 0, 0
    else:
        rng = np.random.default_rng(seed)
        pts = _sample_points(m_manifold, point_samples, rng)
        ric_min = math.inf
        for x in pts:
            ct = curvature_package(m_manifold, x)
            vals = np.linalg.eigvalsh(np.linalg.solve(ct.g, ct.ricci))
            ric_min = min(ric_min, float(vals.min()))
        min_ric = ric_min
        min_bric = min_bric_sampled(m_manifold, pts, frame_samples, rng)
        points_used, frames_used = point_samples, frame_samples

    cond_a = min_bric >= sup_sn - 1e-12
    cond_b = min_ric >= -1e-12
    cond_c = min_ric >= sup_sn - 1e-12

    # trace consequences of condition (A), checked on samples (or exactly)
    ineq_2b = ineq_3 = True
    if cond_a:
        if exact and m_manifold.constant_curvature is not None:
            sm = m_manifold.constant_curvature
            scal = m * (m - 1) * sm
            ineq_2b = (m - 3) * min_ric + scal >= (m - 1) * sup_sn - 1e-10
            ineq_3 = scal >= m * (m - 1) / (2 * m - 3) * sup_sn - 1e-10
        elif not exact:
            rng2 = np.random.default_rng(seed + 1)
            for x in _sample_points(m_manifold, min(point_samples, 16), rng2):
                ct = curvature_package(m_manifold, x)
                vals = np.linalg.eigvalsh(np.linalg.solve(ct.g, ct.ricci))
                if (m - 3) * vals.min() + ct.scalar < (m - 1) * sup_sn - 1e-8:
                    ineq_2b = False
                if ct.scalar < m * (m - 1) / (2 * m - 3) * sup_sn - 1e-8:
                    ineq_3 = False

    return CurvatureReport(
        min_ric=float(min_ric),
        min_bric=float(min_bric),
        sup_sigma_n=float(sup_sn),
        cond_a=bool(cond_a),
        cond_b=bool(cond_b),
        cond_c=bool(cond_c),
        exact=exact,
        point_count=points_used,
        frame_count=frames_used,
        seed=seed,
        trace_ineq_2b=bool(ineq_2b),
        trace_ineq_3=bool(ineq_3),
    )

