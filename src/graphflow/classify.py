"""Observable classification of flow limits.

A converged (minimal) graph limit is sorted into the trichotomy
Constant / Rank1Geodesic / Rank2Flat from its measured singular values,
second fundamental form, and target curvature on the image.  Topological
conclusions (Euler characteristic, local product structure) are not
observable on a chart grid and are reported as untested metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional, Sequence

import numpy as np

from .geometry import gauss_curvature_at
from .immersion import GraphMapField, field_geometry

UNTESTED_NOTE = (
    "Euler-characteristic and local-product-structure properties of the limit "
    "are not observable on a chart grid; reported untested."
)


@dataclass
class ClassifyTolerances:
    h_tol: float = 1e-6
    sv_tol: float = 1e-4       # singular value considered nonzero above this
    sv_var_tol: float = 1e-3   # spatial standard deviation allowed for "constant"
    a_tol: float = 1e-4        # totally geodesic threshold on max |A|
    flat_tol: float = 1e-6     # |sigma_N| on the image for the rank-2 case


@dataclass
class LimitReport:
    klass: str                 # Constant | Rank1Geodesic | Rank2Flat | NotMinimal | Inconclusive
    max_h: float
    max_a: float
    rank: int
    lambda_mean: float
    lambda_std: float
    mu_mean: float
    mu_std: float
    sigma_n_max_abs: Optional[float]
    contradiction_with_positive_ricci: bool = False
    notes: Sequence[str] = dfield(default_factory=lambda: [UNTESTED_NOTE])

    def as_dict(self) -> dict:
        return {
            "class": self.klass,
            "evidence": {
                "max_H": self.max_h,
                "max_A": self.max_a,
                "rank_estimate": self.rank,
                "lambda": {"mean": self.lambda_mean, "std": self.lambda_std},
                "mu": {"mean": self.mu_mean, "std": self.mu_std},
                "sigma_N_max_abs_on_image": self.sigma_n_max_abs,
            },
            "contradiction_with_positive_ricci": self.contradiction_with_positive_ricci,
            "notes": list(self.notes),
        }


def classify_from_observables(status: str, max_h: float, max_a: float,
                              lam: np.ndarray, mu: np.ndarray,
                              sigma_n_values: Optional[np.ndarray],
                              tols: Optional[ClassifyTolerances] = None,
                              ricci_positive: Optional[bool] = None) -> LimitReport:
    tols = tols or ClassifyTolerances()
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lam_mean, lam_std = float(lam.mean()), float(lam.std())
    mu_mean, mu_std = float(mu.mean()), float(mu.std())
    sig_max = None if sigma_n_values is None else float(np.abs(sigma_n_values).max())

    rank = int(lam_mean > tols.sv_tol) + int(mu_mean > tols.sv_tol)

    def report(klass, contradiction=False, extra_notes=()):
        return LimitReport(
            klass=klass, max_h=float(max_h), max_a=float(max_a), rank=rank,
            lambda_mean=lam_mean, lambda_std=lam_std, mu_mean=mu_mean, mu_std=mu_std,
            sigma_n_max_abs=sig_max,
            contradiction_with_positive_ricci=contradiction,
            notes=[UNTESTED_NOTE, *extra_notes],
        )

    converged = status in ("Converged", "Stationary") and max_h < tols.h_tol
    if not converged:
        return report("NotMinimal", extra_notes=[
            f"status {status}, max|H| = {max_h:.3e} >= {tols.h_tol:.1e}"])
    constant_sv = lam_std < tols.sv_var_tol and mu_std < tols.sv_var_tol
    geodesic = max_a < tols.a_tol
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
    if sig_max < tols.flat_tol:
        return report("Rank2Flat", contradiction=contradiction)
    return report("Inconclusive", extra_notes=[
        f"rank 2 with nonflat image (max|sigma_N| = {sig_max:.3e})"])


def classify_limit(field: GraphMapField, status: str,
                   tols: Optional[ClassifyTolerances] = None,
                   ricci_positive: Optional[bool] = None,
                   margin: int = 4) -> LimitReport:
    """Classify a final grid state; evidence from interior nodes."""
    mask = field.interior_mask(margin)
    lam, mu = field.singular_value_fields()
    geo = field_geometry(field)
    max_h = float(np.sqrt(geo.h_sq[mask]).max(initial=0.0))
    max_a = float(np.sqrt(geo.a_sq[mask]).max(initial=0.0))
    sig = np.broadcast_to(gauss_curvature_at(field.N, field.f[mask]), lam[mask].shape)
    return classify_from_observables(status, max_h, max_a, lam[mask], mu[mask], sig,
                                     tols, ricci_positive)
