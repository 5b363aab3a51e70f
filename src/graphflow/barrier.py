"""Barrier functions on the product M x N: m-convexity certification,
sublevel-set containment monitoring, and the image-diameter decay monitor.

m-convexity of phi at a point is the nonnegativity of the minimal trace of the
covariant Hessian over orthonormal m-frames, which equals the sum of the m
smallest generalized Hessian eigenvalues — computed exactly, no frame search.
Sublevel certification samples the region; it is an audit, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigurationError
from .geometry import ChartManifold

DIAMETER_SLOPE_TOL = 0.05  # slack of the fitted log-diameter slope over -eps0/2


@dataclass
class BarrierFunction:
    """Scalar barrier on product chart points y = (x_M, y_N)."""

    name: str
    phi: Callable[[np.ndarray], float]
    level: float
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]  # chart second derivatives


@dataclass
class ConvexityCertificate:
    verdict: bool
    worst_point: Optional[np.ndarray]
    worst_value: float
    n_samples: int
    m: int


def product_metric(m_manifold: ChartManifold, n_manifold: ChartManifold, y) -> np.ndarray:
    m = m_manifold.dim
    y = np.asarray(y, dtype=float)
    g = np.zeros((m + n_manifold.dim,) * 2)
    g[:m, :m] = m_manifold.metric_at(y[:m])
    g[m:, m:] = n_manifold.metric_at(y[m:])
    return g


def product_christoffels(m_manifold: ChartManifold, n_manifold: ChartManifold, y) -> np.ndarray:
    m, n = m_manifold.dim, n_manifold.dim
    y = np.asarray(y, dtype=float)
    gam = np.zeros((m + n,) * 3)
    gam[:m, :m, :m] = m_manifold.christoffels_at(y[:m])
    gam[m:, m:, m:] = n_manifold.christoffels_at(y[m:])
    return gam


def covariant_hessian(barrier: BarrierFunction, m_manifold: ChartManifold,
                      n_manifold: ChartManifold, y) -> np.ndarray:
    """D^2 phi = d^2 phi - Gamma^k d_k phi w.r.t. the product connection."""
    y = np.asarray(y, dtype=float)
    gam = product_christoffels(m_manifold, n_manifold, y)
    return barrier.hess(y) - np.einsum("kij,k->ij", gam, np.asarray(barrier.grad(y), dtype=float))


def m_convexity_at(barrier: BarrierFunction, m_manifold: ChartManifold,
                   n_manifold: ChartManifold, y, m: int) -> float:
    """Sum of the m smallest eigenvalues of the metric Hessian of phi at y."""
    d2 = covariant_hessian(barrier, m_manifold, n_manifold, y)
    g = product_metric(m_manifold, n_manifold, y)
    ev = scipy.linalg.eigh(d2, g, eigvals_only=True)
    return float(np.sum(ev[:m]))


def brute_force_m_trace(d2: np.ndarray, g: np.ndarray, m: int, n_frames: int,
                        rng: np.random.Generator) -> float:
    """Minimum over random g-orthonormal m-frames of the Hessian trace."""
    dim = g.shape[0]
    best = np.inf
    for _ in range(n_frames):
        v = rng.standard_normal((dim, m))
        # g-orthonormalize the columns
        for k in range(m):
            for j in range(k):
                v[:, k] -= (v[:, j] @ g @ v[:, k]) * v[:, j]
            v[:, k] /= np.sqrt(v[:, k] @ g @ v[:, k])
        best = min(best, float(np.einsum("ik,ij,jk->", v, d2, v)))
    return best


def certify_convexity(barrier: BarrierFunction, m_manifold: ChartManifold,
                      n_manifold: ChartManifold, points: Sequence, m: int) -> ConvexityCertificate:
    """Audit m-convexity of phi over sample points inside the sublevel set."""
    worst_val = np.inf
    worst_pt = None
    count = 0
    for y in points:
        y = np.asarray(y, dtype=float)
        if barrier.phi(y) >= barrier.level:
            continue
        count += 1
        val = m_convexity_at(barrier, m_manifold, n_manifold, y, m)
        if val < worst_val:
            worst_val, worst_pt = val, y
    return ConvexityCertificate(
        verdict=bool(count > 0 and worst_val >= -1e-12),
        worst_point=worst_pt, worst_value=float(worst_val) if count else float("nan"),
        n_samples=count, m=m,
    )


def containment_monitor(checkpoints: Sequence, barrier: BarrierFunction) -> dict:
    """Max phi over the graph at each checkpoint, versus the level c.

    ``checkpoints``: iterable of (t, points) with product-chart point arrays.
    Requires the initial maximum to lie strictly below the level.
    """
    rows = []
    contained = True
    for i, (t, pts) in enumerate(checkpoints):
        vals = np.array([barrier.phi(np.asarray(y, dtype=float)) for y in pts])
        mx = float(vals.max())
        if i == 0 and mx >= barrier.level:
            raise ConfigurationError(
                f"initial datum not inside the sublevel set (max phi = {mx:.6g} >= c = {barrier.level:.6g})"
            )
        ok = mx < barrier.level
        contained = contained and ok
        rows.append({"t": float(t), "max_phi": mx, "margin": barrier.level - mx, "pass": ok})
    return {"pass": contained, "level": barrier.level, "rows": rows}


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
            slope = float(np.polyfit(t[sel], np.log(d[sel]), 1)[0])
            out["log_slope"] = slope
            out["required_slope"] = -eps0 / 2 + DIAMETER_SLOPE_TOL
            out["pass"] = slope <= -eps0 / 2 + DIAMETER_SLOPE_TOL
    return out


# ---------------------------------------------------------------------------
# Builtin barrier


def waist_tube_barrier(level: float) -> BarrierFunction:
    """phi = z^2 on a warped cylinder target: squared distance to the z = 0 circle."""

    def phi(y):
        return float(y[-1] ** 2)

    def grad(y):
        g = np.zeros(len(y)); g[-1] = 2 * y[-1]
        return g

    def hess(y):
        h = np.zeros((len(y), len(y))); h[-1, -1] = 2.0
        return h

    return BarrierFunction("squared_distance_to_waist_geodesic", phi, level, grad, hess)
