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
from types import ModuleType
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateMetricError, DegeneratePlaneError, DomainError
from .frames import pd_inverse, quad_form

_COMPLEX_STEP = 1e-30
WARP_SAMPLES = 2001  # heights of the sup of a warped surface's Gauss curvature
WARP_Z_MAX = 6.0  # a warped surface's chart is z in [-WARP_Z_MAX, WARP_Z_MAX]


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
    dtype convention; otherwise Christoffel symbols are obtained by
    complex-step differentiation of the metric, and curvature, which
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
        gt = np.swapaxes(g, -1, -2)  # np.allclose(g, gt, atol=1e-12) without its set-up
        if not (np.abs(g - gt) <= 1e-12 + 1e-5 * np.abs(gt)).all():
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

    # -- derivatives of chart fields ----------------------------------------

    def _complex_step(self, fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
        """d_a fn at wrapped chart points x (..., m); the derivative axis a follows
        the batch axes: (..., m) -> (..., m, *fn's value axes)."""
        parts = []
        for a in range(self.dim):
            xc = x.astype(complex)
            xc[..., a] += 1j * _COMPLEX_STEP
            parts.append(np.imag(np.asarray(fn(xc))) / _COMPLEX_STEP)
        return np.stack(parts, axis=x.ndim - 1)

    def christoffels_many(self, pts) -> np.ndarray:
        """Gamma^k_{ij} at a batch of points, (..., m) -> (..., m, m, m), first index
        upper; one point is a batch of shape ().  ``_christoffels`` takes points
        already ``wrap``-ped."""
        return self._christoffels(self.wrap(pts))

    def _christoffels(self, x: np.ndarray) -> np.ndarray:
        if self._christoffels_at is not None:
            return np.asarray(self._christoffels_at(x))
        return self._christoffels_from_metric(x)

    def _christoffels_from_metric(self, pts) -> np.ndarray:
        x = self.wrap(pts)
        ginv = self.inverse_metric(x, self.metric_many(x))
        dg = self._complex_step(self._metric_at, x)  # axes (..., derivative, i, j)
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        comb = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
        return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, comb)


# ---------------------------------------------------------------------------
# Curvature tensors


@dataclass
class CurvatureTensors:
    """Chart-component curvature data over a batch of points (batch shape ``...``).

    A single point is a batch of shape (); ``scalar`` is then a 0-d array.
    """

    g: np.ndarray           # (..., m, m): g_{ij}
    gamma: np.ndarray       # (..., m, m, m): Gamma^k_{ij}
    riemann: np.ndarray     # (..., m, m, m, m): R_{ijkl} = <R(d_i, d_j) d_k, d_l>
    ricci: np.ndarray       # (..., m, m)
    scalar: np.ndarray      # (...)


def curvature_package(manifold: ChartManifold, x) -> CurvatureTensors:
    """All curvature tensors of the chart metric at chart points ``x`` (..., m)."""
    if manifold._christoffels_at is None:  # a complex step cannot differentiate a complex step
        raise ConfigurationError(f"{manifold.name}: curvature needs analytic Christoffel symbols")
    x = manifold.wrap(x)
    g = manifold.metric_many(x)
    ginv = manifold.inverse_metric(x, g)
    gamma = manifold.christoffels_many(x)
    dgamma = manifold._complex_step(manifold._christoffels_at, x)  # (..., derivative, k, i, j)
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #           + Gamma^l_{ip} Gamma^p_{jk} - Gamma^l_{jp} Gamma^p_{ik}
    r_up = (
        np.einsum("...iljk->...lkij", dgamma)
        - np.einsum("...jlik->...lkij", dgamma)
        + np.einsum("...lip,...pjk->...lkij", gamma, gamma)
        - np.einsum("...ljp,...pik->...lkij", gamma, gamma)
    )
    riemann = np.einsum("...lm,...mkij->...ijkl", g, r_up)
    ricci = np.einsum("...il,...ijkl->...jk", ginv, riemann)
    scalar = np.einsum("...jk,...jk->...", ginv, ricci)
    return CurvatureTensors(g=g, gamma=gamma, riemann=riemann, ricci=ricci, scalar=scalar)


def sectional(manifold: ChartManifold, x, v, w,
              tensors: Optional[CurvatureTensors] = None) -> np.ndarray:
    """Sectional curvature of the planes spanned by v and w (..., m) at chart points x."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    ct = tensors if tensors is not None else curvature_package(manifold, x)
    vv, ww = quad_form(v, ct.g, v), quad_form(w, ct.g, w)
    gram = vv * ww - quad_form(v, ct.g, w) ** 2
    if np.any(gram < 1e-14 * np.maximum(1.0, vv * ww)):
        raise DegeneratePlaneError("vectors do not span a plane")
    return np.einsum("...ijkl,...i,...j,...k,...l->...", ct.riemann, v, w, w, v) / gram


# ---------------------------------------------------------------------------
# Warped product surfaces


class WarpBinding(NamedTuple):
    """A warp function and its first two derivatives in one math namespace."""

    w: Callable[[float], float]
    dw: Callable[[float], float]
    d2w: Callable[[float], float]


class Warp:
    """Warp function with its first two derivatives, written once over the math
    namespace ``xp``: ``formulas(xp)`` is (w, w', w'').

    ``w``, ``dw`` and ``d2w`` bind the formula to numpy, elementwise over arrays.
    ``scalar`` binds it to ``math`` for loops over Python floats: about 5x cheaper
    per call than numpy on a float, and equal to the array binding up to the last
    bits of the library functions."""

    def __init__(self, name: str, formulas: Callable[[ModuleType], tuple]):
        self.name = name
        self.w, self.dw, self.d2w = formulas(np)
        self.scalar = WarpBinding(*formulas(math))


# name -> (w, w', w'') in the math namespace ``xp`` (numpy or math)
_BUILTIN_WARPS = {
    "cosh": lambda xp: (xp.cosh, xp.sinh, xp.cosh),
    "exp_neg": lambda xp: (lambda z: xp.exp(-z), lambda z: -xp.exp(-z), lambda z: xp.exp(-z)),
}


def builtin_warp(name: str) -> Warp:
    if name not in _BUILTIN_WARPS:
        raise ConfigurationError(f"unknown warp {name!r}")
    return Warp(name, _BUILTIN_WARPS[name])


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


def product_s1_s2() -> ChartManifold:
    """S^1 x S^2 with the standard product metric, coordinates (s, theta, phi)."""
    axes = [
        Axis(0.0, 2 * math.pi, periodic=True),
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
    """Closed-form curvature conditions of a pair (M, N).

    ``exact``, ``point_count`` and ``frame_count`` never vary: every report is
    closed-form and samples nothing.  They stay, with the echoed ``seed``, to
    keep the shape of the ``curvature_conditions`` artifact section."""

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
    return sectional(n_manifold, y, [1.0, 0.0], [0.0, 1.0])


def sup_sigma_of(n_manifold: ChartManifold) -> float:
    """sup sigma_N: a declared constant curvature, or a warped surface's sup over heights."""
    if isinstance(n_manifold, WarpedSurface):
        return n_manifold.sup_gauss_curvature()
    if n_manifold.constant_curvature is not None:
        return n_manifold.constant_curvature
    raise ConfigurationError(f"{n_manifold.name}: no closed-form sup sigma_N "
                             "(N must have a constant curvature or be a warped surface)")


def curvature_conditions_report(m_manifold: ChartManifold, n_manifold: ChartManifold,
                                seed: int = 0) -> CurvatureReport:
    """Conditions (A) BRic_M >= sup sigma_N, (B) Ric_M >= 0 and (C) Ric_M >= sup sigma_N,
    with the trace consequences (2b) and (3) of (A), all in closed form.

    M has a constant curvature k (min Ric = (m-1)k, min BRic = (2m-3)k, scal =
    m(m-1)k) or is the S^1 x S^2 product (Ricci eigenvalues (0, 1, 1), scal 2,
    min BRic 1, the sphere's curvature); N as in ``sup_sigma_of``.  Any other
    pair raises ``ConfigurationError``.  Nothing is drawn: ``seed`` is only
    echoed into the report.
    """
    m = m_manifold.dim
    sup_sn = sup_sigma_of(n_manifold)
    if m_manifold.constant_curvature is not None:
        k = m_manifold.constant_curvature
        min_ric, min_bric, scal = (m - 1) * k, (2 * m - 3) * k, m * (m - 1) * k
    elif m_manifold.is_product_s1xs2:
        min_ric, min_bric, scal = 0.0, 1.0, 2.0
    else:
        raise ConfigurationError(f"{m_manifold.name}: no closed-form curvature conditions "
                                 "(M must have a constant curvature or be S^1 x S^2)")

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
