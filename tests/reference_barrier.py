"""Reference implementation of the barrier layer: the per-point product
metric, covariant Hessian, m-convexity (``scipy.linalg.eigh``) and sampled
convexity certificate as they were before the batched barrier replaced them,
the scalar waist-tube barrier they were written for, and the random-frame
brute force that audits the generalized-eigenvalue m-trace, kept verbatim as
test oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg

from graphflow.barrier import BarrierFunction, ConvexityCertificate
from graphflow.geometry import ChartManifold


def product_metric(m_manifold: ChartManifold, n_manifold: ChartManifold, y) -> np.ndarray:
    m = m_manifold.dim
    y = np.asarray(y, dtype=float)
    g = np.zeros((m + n_manifold.dim,) * 2)
    g[:m, :m] = m_manifold.metric_many(y[:m])
    g[m:, m:] = n_manifold.metric_many(y[m:])
    return g


def product_christoffels(m_manifold: ChartManifold, n_manifold: ChartManifold, y) -> np.ndarray:
    m, n = m_manifold.dim, n_manifold.dim
    y = np.asarray(y, dtype=float)
    gam = np.zeros((m + n,) * 3)
    gam[:m, :m, :m] = m_manifold.christoffels_many(y[:m])
    gam[m:, m:, m:] = n_manifold.christoffels_many(y[m:])
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
