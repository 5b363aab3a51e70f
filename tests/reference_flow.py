"""Reference implementation of the two reduced flows: ``EquivariantFlow``
(its stencil, right-hand side, observables and ``run`` step loop) and the
``reduce_circle_drift`` RK4 loop, stepping at the sample spacing, as they were
before the fused profile kernel and the Python-float drift loop (since replaced
by the coarse-step drift) replaced them, kept verbatim as test oracles; the
profile loop also counts its steps and the range of their dt. Left
out: the profile's 2D lift, which the oracle tests do not use, and the target
curvature, Courant factor and Euler scheme, which no test set (at unit
curvature the dropped factor 1/kappa = 1.0 was exact).
"""

from __future__ import annotations

import numpy as np

from graphflow.errors import NotAreaDecreasingError
from graphflow.flow import (CFL, CONVERGENCE_STREAK, DRIFT_DT, DriftRun, EquivariantRun,
                            FlowRecord, RecordedState, drift_velocity)
from graphflow.frames import p_batch
from graphflow.geometry import WarpedSurface


class EquivariantFlow:
    """Rotationally symmetric flow S^2 -> S^2: f(theta, phi) = (h(theta), phi).

    The profile satisfies
      dh/dt = h'' / (1 + h'^2)
            + (sin(theta)cos(theta) h' - sin(h)cos(h)) / (sin^2(theta) + sin^2(h))
    on offset nodes theta_j = (j + 1/2) pi / J with odd
    mirror ghosts (h(-theta) = -h(theta), h(pi + s) = -h(pi - s)).
    """

    def __init__(self, n_nodes: int, h0):
        self.J = int(n_nodes)
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
        den = np.sin(self.theta) ** 2 + np.sin(h) ** 2
        return d2 / (1 + d1**2) + num / den

    def singular_values(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d1, _ = self.derivatives(h)
        a = np.abs(d1)
        b = np.abs(np.sin(h)) / np.sin(self.theta)
        return np.maximum(a, b), np.minimum(a, b)

    def observables(self, h: np.ndarray, t: float = np.nan) -> FlowRecord:
        d1, _ = self.derivatives(h)
        v = self.rhs(h)
        h2 = v**2 / (1 + d1**2)
        lam, mu = self.singular_values(h)
        p = p_batch(lam, mu)
        g11 = 1 + d1**2
        g22 = np.sin(self.theta) ** 2 + np.sin(h) ** 2
        vol = 2 * np.pi * float(np.sum(np.sqrt(g11 * g22)) * self.dtheta)
        diam = min(np.pi, 2 * float(np.abs(h).max()))
        pos = p > 0  # Theta only where p > 0; a record with min p <= 0 aborts the run
        return FlowRecord(
            t=t, min_p=float(p.min()), max_lambda=float(lam.max()),
            max_mu=float(mu.max()), max_df2=float((lam**2 + mu**2).max()),
            max_h2=float(h2.max()), max_theta=float(np.max(h2[pos] / p[pos], initial=0.0)),
            volume=vol, diameter=diam,
        )

    def run(self, t_end: float, record_every: int = 50, h_tol: float = 1e-6) -> EquivariantRun:
        """Integrate the profile, recording every ``record_every`` steps and at
        the end; a recorded state keeps the steps around it for time stencils."""
        h = self.h.copy()
        t = 0.0
        rec0 = self.observables(h)
        if rec0.min_p <= 0:
            raise NotAreaDecreasingError(f"initial profile has min p = {rec0.min_p:.3e}")
        records: list = []
        states: list = []
        dissipation = 0.0
        status = "Running"
        streak = 0
        step_i = 0
        prev_h = prev_dt = None
        dt_min, dt_max = np.inf, 0.0
        sin_t = np.sin(self.theta)
        quad_w = 2 * np.pi * self.dtheta
        while t < t_end - 1e-14:
            at_record = step_i % record_every == 0
            if at_record:
                rec = self.observables(h, t)
                records.append(rec)
                states.append(RecordedState(t, h))
                if rec.min_p <= 0:
                    status = "Aborted"
                    break
            d1, d2 = self.derivatives(h)
            k1 = self._rhs_from(h, d1, d2)
            g11 = 1 + d1**2
            h2_now = k1**2 / g11
            if h2_now.max() < h_tol**2:
                streak += 1
            else:
                streak = 0
            if streak >= CONVERGENCE_STREAK:
                status = "Converged"
                break
            dt = min(CFL * self.dtheta**2 * g11.min() / 2, t_end - t)
            g22 = sin_t**2 + np.sin(h) ** 2
            dissipation += dt * quad_w * float(np.sum(h2_now * np.sqrt(g11 * g22)))
            k2 = self.rhs(h + 0.5 * dt * k1)
            h_new = h + dt * k2
            if not np.all(np.isfinite(h_new)):
                status = "Aborted"
                break
            if at_record and step_i > 0:
                states[-1].stencil = (prev_dt, dt, prev_h, h_new)
            prev_h, prev_dt = h, dt
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            h = h_new
            t += dt
            step_i += 1
        if status == "Running":
            status = "Finished"
        if not step_i:
            dt_min = dt_max = np.nan
        records.append(self.observables(h, t))
        states.append(RecordedState(t, h))
        return EquivariantRun(records=records, states=states, dissipation=dissipation,
                              status=status, steps=step_i, dt_min=dt_min, dt_max=dt_max)


def reduce_circle_drift(surface: WarpedSurface, z0: float, t_end: float,
                        dt: float = DRIFT_DT) -> DriftRun:
    """Integrate dz/dt = Phi(z) by classical RK4 on the exact circle reduction."""
    n = int(np.ceil(t_end / dt))
    t = np.empty(n + 1)
    z = np.empty(n + 1)
    t[0], z[0] = 0.0, float(z0)
    for i in range(n):
        step_dt = min(dt, t_end - t[i])
        zi = z[i]
        k1 = drift_velocity(surface.warp, zi)
        k2 = drift_velocity(surface.warp, zi + 0.5 * step_dt * k1)
        k3 = drift_velocity(surface.warp, zi + 0.5 * step_dt * k2)
        k4 = drift_velocity(surface.warp, zi + step_dt * k3)
        z[i + 1] = zi + step_dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t[i + 1] = t[i] + step_dt
    w = surface.warp.w(z)
    h2 = drift_velocity(surface.warp, z) ** 2
    volume = 8 * np.pi**2 * np.sqrt(1 + w**2)
    # the budget identity d(vol)/dt = -int |H|^2 dmu is exact for this
    # reduction; trapezoid in t
    rate = h2 * 8 * np.pi**2 * np.sqrt(1 + w**2)
    dissipation = float(np.trapezoid(rate, t))
    return DriftRun(t=t, z=z, w=w, h2=h2, volume=volume, dissipation=dissipation)
