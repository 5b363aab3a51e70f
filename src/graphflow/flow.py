"""Time integration of the graphical mean curvature flow.

The map evolves in nonparametric form: f moves with the quasilinear velocity
V whose graph realization (0, V) equals H plus a tangential field dF(X).  Two
exact symmetric reductions are provided: the rotationally equivariant sphere
profile h(theta, t) and the warped-cylinder circle drift z(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotAreaDecreasingError, SolverAbort
from .frames import p_batch, quad_form
from .geometry import WarpedSurface, round_sphere
from .immersion import GraphMapField

CONVERGENCE_STREAK = 100  # consecutive steps with max|H| below tolerance


@dataclass
class FlowParams:
    cfl: float = 0.4
    t_end: float = 1.0
    record_every: int = 10
    h_tol: float = 1e-6
    integrator: str = "RK2"  # or "Euler"

    def __post_init__(self):
        if not (0 < self.cfl <= 1):
            raise ValueError("cfl must be in (0, 1]")
        if self.integrator not in ("RK2", "Euler"):
            raise ValueError("integrator must be RK2 or Euler")


@dataclass
class FlowState:
    field: GraphMapField
    t: float = 0.0
    step_count: int = 0
    status: str = "Running"  # Running | Converged | Drifting | Aborted
    min_p: float = 0.0
    max_h2: float = 0.0
    dissipation: float = 0.0  # accumulated integral of |H|^2 dmu dt
    low_h_streak: int = 0
    diagnostic: str = ""


# ---------------------------------------------------------------------------
# Nonparametric velocity


def nonparametric_rhs(field: GraphMapField) -> np.ndarray:
    """V^a = g^{ij}(d2_ij f^a - Gamma_M^k_ij d_k f^a + Gamma_N^a_bc d_i f^b d_j f^c), (grid, 2)."""
    term = field.covariant_d2f(field.gamma_m_field())         # (..., a, i, j)
    ginv = field.induced_g_inv_field()
    return (term.reshape(term.shape[:-2] + (-1,)) @ ginv.reshape(ginv.shape[:-2] + (-1, 1)))[..., 0]


def tangential_vector_field(field: GraphMapField) -> np.ndarray:
    """X^k = g^{ij}(Gamma_g - Gamma_M)^k_ij; dF(X) is the tangential part of (0, V)."""
    ginv = field.induced_g_inv_field()
    diff = field.gamma_induced_field() - field.gamma_m_field()
    return np.einsum("...ij,...kij->...k", ginv, diff)


def h2_field(field: GraphMapField, v: Optional[np.ndarray] = None) -> np.ndarray:
    """|H|^2 per node via H = (0, V) - dF(X) in product-chart components."""
    if v is None:
        v = nonparametric_rhs(field)
    x = tangential_vector_field(field)
    df = field.df_field()
    tn = v - (x[..., None, :] @ df)[..., 0, :]
    return quad_form(x, field.g_m_field(), x) + quad_form(tn, field.g_n_field(), tn)


def cfl_dt(field: GraphMapField, params: FlowParams) -> float:
    """dt = cfl * h_min^2 / (2 m Lambda), Lambda the max eigenvalue of g^{-1}."""
    lam = float(np.linalg.eigvalsh(field.induced_g_inv_field()).max())
    h_min = float(field.h.min())
    return params.cfl * h_min**2 / (2 * field.M.dim * lam)


def step(state: FlowState, params: FlowParams) -> FlowState:
    """Advance one explicit step; updates status, min p, and the volume budget."""
    if state.status != "Running":
        raise SolverAbort(f"step called on non-running state ({state.status})")
    field = state.field
    dt = cfl_dt(field, params)
    v = nonparametric_rhs(field)
    h2 = h2_field(field, v)
    det = np.linalg.det(field.induced_g_field())
    dissipated = float(np.sum(h2 * np.sqrt(det)) * np.prod(field.h)) * dt

    if params.integrator == "Euler":
        f_new = field.f + dt * v
    else:
        half = field.with_values(field.f + 0.5 * dt * v)
        v_mid = nonparametric_rhs(half)
        f_new = field.f + dt * v_mid

    new_field = field.with_values(f_new)
    nxt = FlowState(
        field=new_field,
        t=state.t + dt,
        step_count=state.step_count + 1,
        dissipation=state.dissipation + dissipated,
        low_h_streak=state.low_h_streak,
    )
    p_now = new_field.p_field()
    nxt.min_p = float(p_now.min())
    if not np.all(np.isfinite(new_field.f)):
        nxt.status = "Aborted"
        nxt.diagnostic = "non-finite map values (CFL violation or blow-up)"
        return nxt
    if nxt.min_p <= 0:
        nxt.status = "Aborted"
        nxt.diagnostic = f"area-decreasing condition lost: min p = {nxt.min_p:.3e}"
        return nxt
    nxt.max_h2 = float(h2_field(new_field).max())
    if nxt.max_h2 < params.h_tol**2:
        nxt.low_h_streak += 1
    else:
        nxt.low_h_streak = 0
    if nxt.low_h_streak >= CONVERGENCE_STREAK:
        nxt.status = "Converged"
    return nxt


# ---------------------------------------------------------------------------
# Equivariant sphere-to-sphere reduction


@dataclass
class FlowRecord:
    """Observables of one recorded state of any scenario: a ``time_series.csv`` row.

    max_df2 is the node-wise max of lambda^2 + mu^2, which can be less than
    max lambda^2 + max mu^2.
    """

    t: float
    min_p: float
    max_lambda: float
    max_mu: float
    max_df2: float
    max_h2: float
    max_theta: float
    volume: float
    diameter: float
    max_a2: float = float("nan")
    residual_l2: float = float("nan")
    residual_linf: float = float("nan")


@dataclass
class EquivariantRun:
    theta: np.ndarray
    kappa: float
    records: list
    snapshots: list        # (t, h) at record cadence
    triples: list          # (t, dt, h_prev, h_now, h_next) for time stencils
    dissipation: float
    status: str
    t_final: float
    h_final: np.ndarray


class EquivariantFlow:
    """Rotationally symmetric flow S^2 -> S^2(kappa): f(theta, phi) = (h(theta), phi).

    The profile satisfies
      dh/dt = h'' / (1 + r^2 h'^2)
            + (sin(theta)cos(theta) h' - sin(h)cos(h)) / (sin^2(theta) + r^2 sin^2(h))
    with r^2 = 1/kappa, on offset nodes theta_j = (j + 1/2) pi / J with odd
    mirror ghosts (h(-theta) = -h(theta), h(pi + s) = -h(pi - s)).
    """

    def __init__(self, n_nodes: int, h0, kappa: float = 1.0, cfl: float = 0.4):
        self.J = int(n_nodes)
        self.kappa = float(kappa)
        self.r2 = 1.0 / self.kappa
        self.cfl = float(cfl)
        self.dtheta = np.pi / self.J
        self.theta = (np.arange(self.J) + 0.5) * self.dtheta
        self.h = np.asarray(h0(self.theta) if callable(h0) else h0, dtype=float).copy()
        if self.h.shape != (self.J,):
            raise ValueError("profile length must match node count")

    def _ghosted(self, h: np.ndarray) -> np.ndarray:
        out = np.empty(self.J + 2)
        out[1:-1] = h
        out[0] = -h[0]
        out[-1] = -h[-1]
        return out

    def derivatives(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self._ghosted(h)
        d1 = (g[2:] - g[:-2]) / (2 * self.dtheta)
        d2 = (g[2:] - 2 * g[1:-1] + g[:-2]) / self.dtheta**2
        return d1, d2

    def rhs(self, h: np.ndarray) -> np.ndarray:
        d1, d2 = self.derivatives(h)
        return self._rhs_from(h, d1, d2)

    def _rhs_from(self, h: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
        num = np.sin(self.theta) * np.cos(self.theta) * d1 - np.sin(h) * np.cos(h)
        den = np.sin(self.theta) ** 2 + self.r2 * np.sin(h) ** 2
        return d2 / (1 + self.r2 * d1**2) + num / den

    def singular_values(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d1, _ = self.derivatives(h)
        r = np.sqrt(self.r2)
        a = r * np.abs(d1)
        b = r * np.abs(np.sin(h)) / np.sin(self.theta)
        return np.maximum(a, b), np.minimum(a, b)

    def observables(self, h: np.ndarray) -> FlowRecord:
        d1, _ = self.derivatives(h)
        v = self.rhs(h)
        h2 = self.r2 * v**2 / (1 + self.r2 * d1**2)
        lam, mu = self.singular_values(h)
        p = p_batch(lam, mu)
        g11 = 1 + self.r2 * d1**2
        g22 = np.sin(self.theta) ** 2 + self.r2 * np.sin(h) ** 2
        vol = 2 * np.pi * float(np.sum(np.sqrt(g11 * g22)) * self.dtheta)
        r = np.sqrt(self.r2)
        diam = r * min(np.pi, 2 * float(np.abs(h).max()))
        pos = p > 0  # Theta only where p > 0; a record with min p <= 0 aborts the run
        return FlowRecord(
            t=np.nan, min_p=float(p.min()), max_lambda=float(lam.max()),
            max_mu=float(mu.max()), max_df2=float((lam**2 + mu**2).max()),
            max_h2=float(h2.max()), max_theta=float(np.max(h2[pos] / p[pos], initial=0.0)),
            volume=vol, diameter=diam,
        )

    def dt_value(self, h: np.ndarray) -> float:
        # CFL against the 1D induced metric of the reduction: the largest
        # inverse-metric eigenvalue seen by the profile equation is
        # 1/(1 + r^2 h'^2) <= 1, so dt ~ cfl dtheta^2 / 2
        d1, _ = self.derivatives(h)
        lam = float((1.0 / (1 + self.r2 * d1**2)).max())
        return self.cfl * self.dtheta**2 / (2 * lam)

    def dissipation_rate(self, h: np.ndarray) -> float:
        d1, _ = self.derivatives(h)
        v = self.rhs(h)
        h2 = self.r2 * v**2 / (1 + self.r2 * d1**2)
        g11 = 1 + self.r2 * d1**2
        g22 = np.sin(self.theta) ** 2 + self.r2 * np.sin(h) ** 2
        return 2 * np.pi * float(np.sum(h2 * np.sqrt(g11 * g22)) * self.dtheta)

    def run(self, t_end: float, record_every: int = 50, h_tol: float = 1e-6,
            integrator: str = "RK2", capture_triples: bool = True) -> EquivariantRun:
        """Integrate the profile; records at cadence, snapshot triples for
        time-derivative stencils (prev/now/next with their unequal steps)."""
        h = self.h.copy()
        t = 0.0
        rec0 = self.observables(h)
        if rec0.min_p <= 0:
            raise NotAreaDecreasingError(f"initial profile has min p = {rec0.min_p:.3e}")
        records: list = []
        snapshots: list = []
        triples: list = []
        dissipation = 0.0
        status = "Running"
        streak = 0
        step_i = 0
        prev_h = None
        prev_dt = None
        pending = None  # (t, dt_prev, dt_next, h_prev, h_now) awaiting h_next
        sin_t = np.sin(self.theta)
        quad_w = 2 * np.pi * self.dtheta
        while t < t_end - 1e-14:
            at_record = step_i % record_every == 0
            if at_record:
                rec = self.observables(h)
                rec.t = t
                records.append(rec)
                snapshots.append((t, h.copy()))
                if rec.min_p <= 0:
                    status = "Aborted"
                    break
            d1, d2 = self.derivatives(h)
            k1 = self._rhs_from(h, d1, d2)
            g11 = 1 + self.r2 * d1**2
            h2_now = self.r2 * k1**2 / g11
            if h2_now.max() < h_tol**2:
                streak += 1
            else:
                streak = 0
            if streak >= CONVERGENCE_STREAK:
                status = "Converged"
                break
            dt = min(self.cfl * self.dtheta**2 * g11.min() / 2, t_end - t)
            if capture_triples and at_record and prev_h is not None:
                pending = (t, prev_dt, dt, prev_h.copy(), h.copy())
            g22 = sin_t**2 + self.r2 * np.sin(h) ** 2
            dissipation += dt * quad_w * float(np.sum(h2_now * np.sqrt(g11 * g22)))
            if integrator == "Euler":
                h_new = h + dt * k1
            else:
                k2 = self.rhs(h + 0.5 * dt * k1)
                h_new = h + dt * k2
            if not np.all(np.isfinite(h_new)):
                status = "Aborted"
                break
            if pending is not None:
                t0, dtp, dtn, hp, hc = pending
                triples.append((t0, dtp, dtn, hp, hc, h_new.copy()))
                pending = None
            prev_h, prev_dt = h, dt
            h = h_new
            t += dt
            step_i += 1
        if status == "Running":
            status = "Finished"
        rec = self.observables(h)
        rec.t = t
        records.append(rec)
        snapshots.append((t, h.copy()))
        return EquivariantRun(
            theta=self.theta, kappa=self.kappa, records=records,
            snapshots=snapshots, triples=triples, dissipation=dissipation,
            status=status, t_final=t, h_final=h,
        )

    def expand_triples(self, run: "EquivariantRun", n_phi: int = 8) -> list:
        """Lift recorded snapshot triples to 2D fields for residual checks."""
        return [
            (t, dtp, dtn, self.expand_field(hp, n_phi), self.expand_field(hc, n_phi),
             self.expand_field(hn, n_phi))
            for (t, dtp, dtn, hp, hc, hn) in run.triples
        ]

    def expand_field(self, h: np.ndarray, n_phi: int = 8) -> GraphMapField:
        """Lift a profile to a 2D field f(theta, phi) = (h(theta), phi)."""
        m = round_sphere(2)
        n = round_sphere(2, curvature=self.kappa)
        phi = np.arange(n_phi) * 2 * np.pi / n_phi
        f = np.empty((self.J, n_phi, 2))
        f[..., 0] = h[:, None]
        f[..., 1] = phi[None, :]
        return GraphMapField(m, n, (self.J, n_phi), f)


# ---------------------------------------------------------------------------
# Circle drift on a warped cylinder


def drift_velocity(surface: WarpedSurface, z: float) -> float:
    """Phi(z) = -w(z) w'(z) / (1 + w(z)^2): the z-velocity of the symmetric circle."""
    w = surface.warp.w(z)
    dw = surface.warp.dw(z)
    return -w * dw / (1 + w * w)


@dataclass
class DriftRun:
    t: np.ndarray
    z: np.ndarray
    h2: np.ndarray          # |H|^2 = Phi(z)^2 along the trajectory
    volume: np.ndarray      # 8 pi^2 sqrt(1 + w^2)
    dissipation: float


def reduce_circle_drift(surface: WarpedSurface, z0: float, t_end: float,
                        dt: float = 1e-3) -> DriftRun:
    """Integrate dz/dt = Phi(z) by classical RK4 on the exact circle reduction."""
    n = int(np.ceil(t_end / dt))
    t = np.empty(n + 1)
    z = np.empty(n + 1)
    t[0], z[0] = 0.0, float(z0)
    for i in range(n):
        step_dt = min(dt, t_end - t[i])
        zi = z[i]
        k1 = drift_velocity(surface, zi)
        k2 = drift_velocity(surface, zi + 0.5 * step_dt * k1)
        k3 = drift_velocity(surface, zi + 0.5 * step_dt * k2)
        k4 = drift_velocity(surface, zi + step_dt * k3)
        z[i + 1] = zi + step_dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t[i + 1] = t[i] + step_dt
    w = np.array([surface.warp.w(zz) for zz in z])
    phi = np.array([drift_velocity(surface, zz) for zz in z])
    h2 = phi**2
    volume = 8 * np.pi**2 * np.sqrt(1 + w**2)
    # the budget identity d(vol)/dt = -int |H|^2 dmu is exact for this
    # reduction; trapezoid in t
    rate = h2 * 8 * np.pi**2 * np.sqrt(1 + w**2)
    dissipation = float(np.trapezoid(rate, t))
    return DriftRun(t=t, z=z, h2=h2, volume=volume, dissipation=dissipation)
