"""Quantitative verification: decay bounds, evolution-equation residuals, and
the mean-curvature inequalities along recorded flows.

All bound curves are closed-form, so a monitor failure localizes to the
simulation.  Residuals compare discrete time derivatives, less the g-trace of
the Hessian in M's connection (the Laplace-Beltrami operator plus the tangential
advection of the nonparametric gauge, in one term), against the analytic
right-hand sides assembled from pointwise geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NotAreaDecreasingError
from .flow import h2_field
from .frames import matvec, quad_form
from .immersion import GraphMapField, field_geometry, quantity_Q, quantity_R_vw, w_norm_sq

H_FLOOR = 1e-8         # the inequalities are evaluated only where |H| exceeds it
VOLUME_REL_TOL = 0.02  # relative tolerance of the volume budget


@dataclass
class BoundConstants:
    """Constants of the closed-form decay bounds.

    a0 is reconstructed as 2 * max Theta(0) (justified by p <= 2); the report
    flags this reconstruction.
    """

    rho0: float
    c0: float
    c1: float
    eps0: float
    eps1: float
    a0: float
    theta0_max: float
    a0_reconstructed: bool = True

    def bound_p(self, t):
        e = self.c0 * np.exp(self.eps0 * np.asarray(t, dtype=float))
        return 2 * e / np.sqrt(1 + e * e)  # e**2 of a scalar is pow(), not always e * e

    def bound_df2(self, t):
        return self.c1 * np.exp(-self.eps0 * np.asarray(t, dtype=float))

    def bound_h2(self, t):
        return self.a0 * np.exp(2 * max(0.0, self.eps1) * np.asarray(t, dtype=float))

    def bound_theta(self, t):
        return self.theta0_max * np.exp(2 * max(0.0, self.eps1) * np.asarray(t, dtype=float))

    def curves(self, t) -> np.ndarray:
        """The four bound_* curves at the times ``t``, stacked: (4,) + t's shape, bit for bit."""
        t = np.asarray(t, dtype=float)
        return np.stack([self.bound_p(t), self.bound_df2(t), self.bound_h2(t), self.bound_theta(t)])


def decay_rates(min_ric: float, sup_sigma_n: float) -> tuple[float, float]:
    """(eps0, eps1): the exponential rates of the bounds, set by the curvature alone."""
    eps0 = 0.25 * min_ric if min_ric >= 0 else 0.5 * min_ric
    return eps0, sup_sigma_n - min_ric


def compute_bound_constants(min_p0: float, max_theta0: float, min_ric: float,
                            sup_sigma_n: float) -> BoundConstants:
    """Constants from the initial state and the ambient curvature extremes."""
    if min_p0 <= 0:
        raise NotAreaDecreasingError(f"initial min p = {min_p0:.3e} is not positive")
    if not min_p0 < 2:  # p = 2 only where df = 0, and then c0 below is not finite
        raise ConfigurationError(f"initial min p = {min_p0!r}: the initial map is constant "
                                 "to working precision, so the decay bounds are undefined")
    rho0 = float(min_p0)
    c0 = rho0 / math.sqrt(4.0 - rho0**2)
    c1 = 2.0 / c0
    eps0, eps1 = decay_rates(min_ric, sup_sigma_n)
    a0 = 2.0 * max_theta0
    return BoundConstants(rho0=rho0, c0=c0, c1=c1, eps0=eps0, eps1=eps1,
                          a0=a0, theta0_max=float(max_theta0))


# ---------------------------------------------------------------------------
# Decay bounds


def check_decay_bounds(series, constants: BoundConstants, h_grid: float,
                       condition_a: Optional[bool] = True, curves=None) -> dict:
    """Margins of min p / max|df|^2 / max|H|^2 / max Theta against the bounds.

    ``series`` holds ``flow.FlowRecord`` rows (t, min_p, max_df2, max_h2, max_theta);
    ``curves``, if given, is ``constants.curves(<the series' times>).tolist()``.
    """
    if not condition_a:
        return {"applicable": False,
                "reason": "curvature condition (A) not certified for this scenario"}
    tol = 1e-6 + 10 * h_grid**2
    rows = []
    curves = curves or constants.curves([rec.t for rec in series]).tolist()
    for rec, b_p, b_df2, b_h2, b_theta in zip(series, *curves):
        margins = {"p": rec.min_p - (b_p - tol), "df2": (b_df2 + tol) - rec.max_df2,
                   "h2": (b_h2 + tol) - rec.max_h2, "theta": (b_theta + tol) - rec.max_theta}
        rows.append({"t": rec.t, "margins": margins, "pass": all(v >= 0 for v in margins.values())})
    ok = all(row["pass"] for row in rows)
    worst = {k: min(r["margins"][k] for r in rows) for k in ("p", "df2", "h2", "theta")}
    return {"applicable": True, "pass": ok, "tol": tol, "worst_margins": worst, "rows": rows}


# ---------------------------------------------------------------------------
# Curvature inputs over the interior nodes


def _curvature_inputs(field: GraphMapField, mask: np.ndarray, alpha: np.ndarray):
    """Ric_M(alpha1, alpha1), Ric_M(alpha2, alpha2), sigma_M(alpha1 ^ alpha2),
    sigma_N and Ric_M at the nodes of ``mask``; ``alpha`` holds their frames.

    M's terms are arrays over the masked nodes, from ``ChartManifold.curvature``;
    sigma_N is a scalar where N declares a constant curvature.  Ric alpha_i is
    formed once per i and dotted with alpha_i elementwise.
    """
    ricci, sig_m = field.M.curvature(field.g_m_field()[mask], alpha[:, 0], alpha[:, 1])
    pair = alpha[:, :2]                                        # rows alpha_1, alpha_2
    ric11, ric22 = np.vecdot(pair, matvec(ricci[:, None], pair)).T
    return ric11, ric22, sig_m, field.N.gauss_curvature_at(field.f[mask]), ricci


def _time_derivative(prev, now, nxt, dtp, dtn):
    """Second-order derivative at the middle of three unequally spaced samples."""
    return (dtp**2 * nxt - dtn**2 * prev + (dtn**2 - dtp**2) * now) / (
        dtp * dtn * (dtp + dtn)
    )


def _checkpoint(triple) -> tuple:
    """What both monitors read at a checkpoint, computed once and kept on its middle
    field: (nodes, lhs, grads, geometry, curvature inputs) at its interior nodes.

    ``nodes`` counts them on the full grid (``GraphMapField.copies``); lhs (3, nodes)
    holds d/dt u - g^{ij}(d2_ij u - Gamma_M^k_ij d_k u) of u = p, |H|^2 and
    Theta = |H|^2 / p, which is (d/dt - X . grad - Laplace-Beltrami) u with X the
    tangential field of the nonparametric gauge, and grads (3, nodes) holds
    |grad p|^2, |grad |H||^2 and <grad Theta, grad p>.  p, |H|^2, Theta and |H| are
    stacked for one neighbour gather, one Hessian trace and one gradient."""
    _, dtp, dtn, f_prev, f_now, f_next = triple
    key = (dtp, dtn, f_prev, f_next)
    hit = f_now._cache.get(_checkpoint.__name__, (None,))
    if hit[0] == key:
        return hit[1]
    mask = f_now.interior_mask()
    prev, now, nxt = (np.stack([p, h2, h2 / p])
                      for p, h2 in ((f.p_field(), h2_field(f)) for f in (f_prev, f_now, f_next)))
    lap, du = f_now._laplace_and_gradient(
        np.stack([*now, np.sqrt(np.maximum(now[1], 0.0))], axis=-1))
    lhs = _time_derivative(prev, now, nxt, dtp, dtn) - lap[:3]
    ginv = f_now.induced_g_inv_field()
    grads = np.stack([quad_form(du[a], ginv, du[b]) for a, b in ((0, 0), (3, 3), (2, 0))])
    geo = field_geometry(f_now)[mask]
    out = (int(mask.sum()) * f_now.copies, lhs[:, mask], grads[:, mask], geo,
           _curvature_inputs(f_now, mask, geo.frame.alpha))
    f_now._cache[_checkpoint.__name__] = (key, out)
    return out


# ---------------------------------------------------------------------------
# Evolution residual of p


def residual_p_evolution(triples: Sequence) -> list:
    """Residual norms of the evolution identity for p at each checkpoint.

    ``triples``: (t, dt_prev, dt_next, field_prev, field_now, field_next) with
    GraphMapField snapshots at three consecutive steps.  The discrete material
    derivative is corrected by the tangential advection of the nonparametric
    gauge.  Returns [{t, l2, linf, nodes}]; ``nodes`` counts the full grid's
    interior nodes.
    """
    out = []
    for triple in triples:
        if triple[4].p_field().min() <= 0:
            raise NotAreaDecreasingError("p <= 0 inside residual evaluation")
        nodes, lhs, grads, pg, (ric11, ric22, sig_m, sig_n, _) = _checkpoint(triple)
        fr = pg.frame
        p = fr.p
        high = 2 * np.sum(pg.a_xi[..., 2:] ** 2, axis=(-2, -1)) * (1 - fr.s_diag[:, 0]) \
            + 2 * np.sum(pg.a_eta[..., 2:] ** 2, axis=(-2, -1)) * (1 - fr.s_diag[:, 1])
        cross = 4 * np.sum((pg.a_xi[:, 0] * fr.t22[:, None] + pg.a_eta[:, 1] * fr.t11[:, None])
                           ** 2, axis=-1)
        q = quantity_Q(fr, ric11, ric22, sig_m, sig_n)
        rhs = 2 * p * pg.a_sq + high + (cross - grads[0]) / (2 * p) + q
        res = lhs[0] - rhs
        out.append({
            "t": float(triple[0]),
            "l2": float(np.sqrt(np.mean(res**2))),
            "linf": float(np.abs(res).max()),
            "nodes": nodes,
        })
    return out


# ---------------------------------------------------------------------------
# Mean curvature and Theta inequalities


def check_H_and_theta_inequalities(triples: Sequence, eps1: float) -> dict:
    """Slack of the differential inequalities for |H|^2 and Theta = |H|^2/p.

    Evaluated only at interior nodes where |H| > H_FLOOR (none above the
    floor is a pass; ``nodes`` counts them on the full grid).  Also audits
    |w|^2 <= |H|^2 pointwise.  Pass iff every slack >= -(1e-6 + 10 (h^2 + dt)).
    """
    checkpoints = []
    for triple in triples:
        t, dtp, dtn, _, f_now, _ = triple
        _, lhs, grads, pg, (_, _, sig_m, sig_n, ricci) = _checkpoint(triple)
        tol = 1e-6 + 10 * (float(f_now.h.max())**2 + max(dtp, dtn))
        above = pg.h_sq > H_FLOOR**2
        n_eval = int(above.sum()) * f_now.copies
        r_term, _, _ = quantity_R_vw(pg.frame, pg.h_xi, pg.h_eta, ricci, sig_m, sig_n)
        slack_h = -2 * grads[1] + 2 * pg.a_sq * pg.h_sq + r_term - lhs[1]
        theta = pg.h_sq / pg.frame.p
        slack_th = grads[2] / pg.frame.p + 2 * max(0.0, eps1) * theta - lhs[2]
        w_excess = w_norm_sq(pg.frame, pg.h_xi, pg.h_eta) - pg.h_sq
        worst_h, worst_th, worst_w = (float(slack_h.min(initial=np.inf, where=above)),
                                      float(slack_th.min(initial=np.inf, where=above)),
                                      float(w_excess.max(initial=-np.inf, where=above)))
        cp_ok = (n_eval == 0) or (worst_h >= -tol and worst_th >= -tol and worst_w <= 1e-12)
        checkpoints.append({
            "t": float(t), "nodes": n_eval, "tol": tol,
            "worst_slack_h": None if n_eval == 0 else worst_h,
            "worst_slack_theta": None if n_eval == 0 else worst_th,
            "worst_w_excess": None if n_eval == 0 else worst_w,
            "pass": cp_ok,
        })
    return inequality_section(checkpoints)


def inequality_section(checkpoints: Sequence) -> dict:
    """The inequality verdict over checkpoints: pass iff each checkpoint passes."""
    return {"pass": all(cp["pass"] for cp in checkpoints), "checkpoints": list(checkpoints)}


# ---------------------------------------------------------------------------
# Volume budget


def check_volume_budget(volume_start: float, volume_end: float, dissipation: float) -> dict:
    """|Delta volume - integral of |H|^2 dmu dt| as a relative discrepancy; pass
    within VOLUME_REL_TOL."""
    drop = volume_start - volume_end
    scale = max(abs(drop), abs(dissipation))
    if scale < 1e-12:  # nothing moved (stationary run): trivially balanced
        return {"volume_drop": drop, "dissipation": dissipation,
                "relative_error": 0.0, "pass": True}
    rel = abs(drop - dissipation) / scale
    return {"volume_drop": drop, "dissipation": dissipation,
            "relative_error": rel, "pass": rel <= VOLUME_REL_TOL}
