"""Observable classification of flow limits.

A converged (minimal) graph limit is sorted into the trichotomy
Constant / Rank1Geodesic / Rank2Flat from its measured singular values,
second fundamental form, and target curvature on the image.  Topological
conclusions (Euler characteristic, local product structure) are not
observable on a chart grid and are reported as untested metadata.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .immersion import GraphMapField, field_geometry

UNTESTED_NOTE = (
    "Euler-characteristic and local-product-structure properties of the limit "
    "are not observable on a chart grid; reported untested."
)


TOL_PER_H_TOL = 100  # a singular value or |A| above 100 h_tol is nonzero ...
TOL_CAP = 1e-2       # ... and so is one above 1e-2, whatever h_tol: both are O(1)
SV_VAR_TOL = 1e-3   # spatial standard deviation allowed for "constant"
FLAT_TOL = 1e-6     # |sigma_N| on the image for the rank-2 case


def classify_from_observables(status: str, max_h: float, max_a: float,
                              lam: np.ndarray, mu: np.ndarray,
                              sigma_n_values: Optional[np.ndarray],
                              h_tol: float = 1e-6,
                              ricci_positive: Optional[bool] = None) -> dict:
    """Sort a limit by its evidence; minimal means a converged status and max|H| < h_tol.

    Returns the ``classification.json`` dict: class, evidence, the
    positive-Ricci contradiction flag and notes."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lam_mean, lam_std = float(lam.mean()), float(lam.std())
    mu_mean, mu_std = float(mu.mean()), float(mu.std())
    sig_max = None if sigma_n_values is None else float(np.abs(sigma_n_values).max())

    tol = min(TOL_PER_H_TOL * h_tol, TOL_CAP)
    rank = int(lam_mean > tol) + int(mu_mean > tol)

    evidence = {
        "max_H": float(max_h), "max_A": float(max_a), "rank_estimate": rank,
        "lambda": {"mean": lam_mean, "std": lam_std}, "mu": {"mean": mu_mean, "std": mu_std},
        "sigma_N_max_abs_on_image": sig_max,
    }

    def report(klass, contradiction=False, extra_notes=()):
        return {"class": klass, "evidence": evidence,
                "contradiction_with_positive_ricci": contradiction,
                "notes": [UNTESTED_NOTE, *extra_notes]}

    converged = status in ("Converged", "Stationary") and max_h < h_tol
    if not converged:
        return report("NotMinimal", extra_notes=[
            f"status {status}, max|H| = {max_h:.3e} >= {h_tol:.1e}"])
    constant_sv = lam_std < SV_VAR_TOL and mu_std < SV_VAR_TOL
    geodesic = max_a < tol
    if not (constant_sv and geodesic):
        return report("Inconclusive", extra_notes=[
            "minimal but singular values vary or |A| above the totally-geodesic threshold"])
    contradiction = bool(ricci_positive) and rank >= 1
    if rank == 0:
        return report("Constant")
    if rank == 1:
        return report("Rank1Geodesic", contradiction=contradiction)
    # rank 2: the image must be flat
    if sig_max is None:
        return report("Inconclusive", extra_notes=["rank 2 but no target curvature samples"])
    if sig_max < FLAT_TOL:
        return report("Rank2Flat", contradiction=contradiction)
    return report("Inconclusive", extra_notes=[
        f"rank 2 with nonflat image (max|sigma_N| = {sig_max:.3e})"])


def classify_limit(field: GraphMapField, status: str, h_tol: float = 1e-6,
                   ricci_positive: Optional[bool] = None) -> dict:
    """Classify a final grid state; evidence from interior nodes."""
    mask = field.interior_mask()
    lam, mu = field.singular_value_fields()
    geo = field_geometry(field)
    max_h = float(np.sqrt(geo.h_sq[mask]).max())
    max_a = float(np.sqrt(geo.a_sq[mask]).max())
    sig = np.broadcast_to(field.N.gauss_curvature_at(field.f[mask]), lam[mask].shape)
    return classify_from_observables(status, max_h, max_a, lam[mask], mu[mask], sig,
                                     h_tol, ricci_positive)
