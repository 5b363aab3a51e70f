"""Barrier functions on the product M x N: m-convexity certification,
sublevel-set containment monitoring, and the image-diameter decay monitor.

m-convexity of phi at a point is the nonnegativity of the minimal trace of the
covariant Hessian over orthonormal m-frames, which equals the sum of the m
smallest generalized Hessian eigenvalues — computed exactly, no frame search.
Sublevel certification samples the region; it is an audit, not a proof.
Barrier, Hessian and certificate take product chart points y of shape (..., d);
a single point is a batch of shape ().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .frames import generalized_eigvalsh
from .geometry import ChartManifold, product

DIAMETER_SLOPE_TOL = 0.05  # slack of the fitted log-diameter slope over -eps0/2


@dataclass
class BarrierFunction:
    """Scalar barrier on product chart points y = (x_M, y_N), (..., d)."""

    name: str
    phi: Callable[[np.ndarray], np.ndarray]    # (..., d) -> (...)
    level: float
    grad: Callable[[np.ndarray], np.ndarray]   # (..., d) -> (..., d)
    hess: Callable[[np.ndarray], np.ndarray]   # chart second derivatives, (..., d, d)


@dataclass
class ConvexityCertificate:
    verdict: bool
    worst_point: Optional[np.ndarray]
    worst_value: float
    n_samples: int
    m: int


def covariant_hessian(barrier: BarrierFunction, m_manifold: ChartManifold,
                      n_manifold: ChartManifold, y) -> np.ndarray:
    """D^2 phi = d^2 phi - Gamma^k d_k phi w.r.t. the product connection."""
    y = np.asarray(y, dtype=float)
    gam = product(m_manifold, n_manifold).christoffels_many(y)
    return barrier.hess(y) - np.einsum("...kij,...k->...ij", gam, barrier.grad(y))


def m_convexity_at(barrier: BarrierFunction, m_manifold: ChartManifold,
                   n_manifold: ChartManifold, y, m: int) -> np.ndarray:
    """Sum of the m smallest eigenvalues of the metric Hessian of phi at y, (...)."""
    d2 = covariant_hessian(barrier, m_manifold, n_manifold, y)
    g = product(m_manifold, n_manifold).metric_many(y)
    return np.sum(generalized_eigvalsh(d2, g)[..., :m], axis=-1)


def certify_convexity(barrier: BarrierFunction, m_manifold: ChartManifold,
                      n_manifold: ChartManifold, points) -> ConvexityCertificate:
    """Audit m-convexity of phi, m = dim M, over the sample points (..., d) inside
    the sublevel set."""
    m = m_manifold.dim
    y = np.asarray(points, dtype=float)
    y = y.reshape(-1, y.shape[-1])
    y = y[barrier.phi(y) < barrier.level]
    if not len(y):
        return ConvexityCertificate(False, None, float("nan"), 0, m)
    vals = m_convexity_at(barrier, m_manifold, n_manifold, y, m)
    worst = int(np.argmin(vals))
    return ConvexityCertificate(verdict=bool(vals[worst] >= -1e-12), worst_point=y[worst],
                                worst_value=float(vals[worst]), n_samples=len(y), m=m)


def containment_monitor(checkpoints: Iterable, barrier: BarrierFunction) -> dict:
    """Max phi over the graph at each checkpoint, versus the level c.

    ``checkpoints``: iterable of (t, points) with product-chart points (..., d).
    Requires the initial maximum to lie strictly below the level.
    """
    checkpoints = list(checkpoints)
    points = [np.asarray(pts, dtype=float) for _, pts in checkpoints]
    points = [p.reshape(-1, p.shape[-1]) for p in points]  # checkpoint i: (n_i, d)
    if not all(len(p) for p in points):
        raise ValueError("a checkpoint holds no points")
    # one phi over all checkpoints' points; each maximum over its own run of them
    maxima = np.maximum.reduceat(barrier.phi(np.concatenate(points)), np.cumsum(
        [0] + [len(p) for p in points[:-1]])).tolist() if points else []
    if maxima and maxima[0] >= barrier.level:
        raise ConfigurationError(f"initial datum not inside the sublevel set (max phi = "
                                 f"{maxima[0]:.6g} >= c = {barrier.level:.6g})")
    rows = [{"t": float(t), "max_phi": mx, "margin": barrier.level - mx, "pass": mx < barrier.level}
            for (t, _), mx in zip(checkpoints, maxima)]
    return {"pass": all(r["pass"] for r in rows), "level": barrier.level, "rows": rows}


def diameter_series(pairs: Sequence, eps0: Optional[float] = None) -> dict:
    """Per-checkpoint image diameter plus a log-slope decay fit.

    ``pairs``: iterable of (t, diameter).  When eps0 > 0 the fit over the final
    half of the run is compared with the predicted slope -eps0/2, within
    DIAMETER_SLOPE_TOL.
    """
    t = np.array([p[0] for p in pairs], dtype=float)
    d = np.array([p[1] for p in pairs], dtype=float)
    out: dict = {"t": t, "diameter": d}
    good = d > 0
    if eps0 is not None and eps0 > 0 and good.sum() >= 2:
        half = t >= t[good].max() / 2
        sel = good & half
        if sel.sum() >= 2:
            # the least-squares slope by elementwise products and sums: no BLAS call
            x, y = t[sel] - np.sum(t[sel]) / sel.sum(), np.log(d[sel])
            slope = float(np.sum(x * (y - np.sum(y) / y.size)) / np.sum(x * x))
            out["log_slope"] = slope
            out["required_slope"] = -eps0 / 2 + DIAMETER_SLOPE_TOL
            out["pass"] = slope <= -eps0 / 2 + DIAMETER_SLOPE_TOL
    return out


# ---------------------------------------------------------------------------
# Builtin barrier


def waist_tube_barrier(level: float) -> BarrierFunction:
    """phi = z^2 on a warped cylinder target: squared distance to the z = 0 circle."""

    def phi(y):
        return y[..., -1] ** 2

    def grad(y):
        g = np.zeros(y.shape)
        g[..., -1] = 2 * y[..., -1]
        return g

    def hess(y):
        h = np.zeros(y.shape + y.shape[-1:])
        h[..., -1, -1] = 2.0
        return h

    return BarrierFunction("squared_distance_to_waist_geodesic", phi, level, grad, hess)
