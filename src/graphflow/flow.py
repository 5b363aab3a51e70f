"""Time integration of the graphical mean curvature flow.

The map evolves in nonparametric form: f moves with the quasilinear velocity
V whose graph realization (0, V) equals H plus a tangential field dF(X).  Two
exact symmetric reductions are provided: the rotationally equivariant sphere
profile h(theta, t) and the warped-cylinder circle drift z(t).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NotAreaDecreasingError, SolverAbort
from .frames import max_eigenvalue, p_batch, sym_index
from .geometry import Warp, WarpedSurface, round_sphere
from .immersion import COLUMN_SOURCE, GraphMapField, field_cached

CFL = 0.4  # Courant factor of the explicit steps (``cfl_dt``, ``EquivariantFlow.run``)
CONVERGENCE_STREAK = 100  # consecutive steps with max|H| below tolerance
PHI_WIDTH = 8  # azimuthal nodes of the 2D lift of an equivariant profile
LIFT_BATCH_NODES = 2048  # theta nodes x profiles of a batch of lifts: a default lift's nodes
STEP_BLOCK = 64  # profile steps between the batched checks of ``EquivariantFlow.run``
DRIFT_DT = 1e-3  # sample spacing of the circle-drift reduction


@dataclass
class FlowParams:
    cfl: float = CFL
    t_end: float = 1.0
    h_tol: float = 1e-6
    integrator: str = "RK2"  # the only scheme

    def __post_init__(self):
        if not (0 < self.cfl <= 1):
            raise ValueError("cfl must be in (0, 1]")
        if self.integrator != "RK2":
            raise ValueError("integrator must be RK2")


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


@field_cached
def nonparametric_rhs(field: GraphMapField) -> np.ndarray:
    """V^a = g^{ij}(d2_ij f^a - Gamma_M^k_ij d_k f^a + Gamma_N^a_bc d_i f^b d_j f^c), (grid, 2):
    the Hessian's rows contracted with g^{-1}'s, an off-diagonal row twice."""
    w = sym_index(field.M.dim)[3]
    v = np.add.reduce(field._hessian_rows() * (w * field._induced_g_inverse()[0]), axis=1)
    return v.T.reshape(field.shape + (2,))


@field_cached
def tangential_vector_field(field: GraphMapField) -> np.ndarray:
    """X^k = g^{ij}(Gamma_g - Gamma_M)^k_ij; dF(X) is the tangential part of (0, V), (grid, m).

    Contracted straight from the first differences of the induced metric's rows,
    X^k = g^{kl}(g^{ij} d_i g_jl - 1/2 g^{ij} d_l g_ij) - g^{ij} Gamma_M^k_ij, so the
    m^3 induced Christoffel tensor is never formed."""
    m = field.M.dim
    _, _, full, w = sym_index(m)
    ginv, dg = field._induced_g_inverse()[0], field._dg_rows()        # (S, n), (S, l, n)
    g_full, w_ginv = ginv.take(full, axis=0), w * ginv
    div = np.add.reduce(g_full[:, :, None] * dg.take(full, axis=0).transpose(2, 0, 1, 3),
                        axis=(0, 1))
    trace = np.add.reduce(w_ginv[:, None] * dg, axis=0)
    gam_m = np.add.reduce(w_ginv * field._gamma_m_rows(), axis=1)
    x = np.add.reduce(g_full * (div - 0.5 * trace), axis=1) - gam_m
    return x.T.reshape(field.shape + (m,))


@field_cached
def h2_field(field: GraphMapField) -> np.ndarray:
    """|H|^2 per node via H = (0, V) - dF(X) in product-chart components."""
    def rows(a):
        return a.reshape(-1, a.shape[-1]).T

    def quad(u, a):  # u^T a u, (u^T a) first
        return np.add.reduce(np.add.reduce(u[:, None] * a, axis=0) * u, axis=0)
    x, d = rows(tangential_vector_field(field)), field._f_derivatives()[0]
    tn = rows(nonparametric_rhs(field)) - np.add.reduce(x * d, axis=1)
    return (quad(x, field._g_m_rows()[0]) + quad(tn, field._g_n_rows())).reshape(field.shape)


def cfl_dt(field: GraphMapField, params: FlowParams) -> float:
    """dt = cfl * h_min^2 / (2 m Lambda), Lambda the max eigenvalue of g^{-1}, from the
    inverse that checked g: in closed form for m <= 3 (``frames.max_eigenvalue``)."""
    lam = float(max_eigenvalue(field._induced_g_inverse()[0]).max())
    return params.cfl * float(field.h.min())**2 / (2 * field.M.dim * lam)


def step(state: FlowState, params: FlowParams) -> FlowState:
    """Advance one explicit RK2 step; updates status, min p, and the volume budget.

    The RHS and |H|^2 are cached on each field, so the end of one step hands
    them to the start of the next.  The midpoint and end values are checked finite
    before a chart sees them; an aborted step keeps the field it started from.
    """
    if state.status != "Running":
        raise SolverAbort(f"step called on non-running state ({state.status})")
    field = state.field
    dt = cfl_dt(field, params)
    v = nonparametric_rhs(field)
    dissipated = float(np.sum(h2_field(field) * field.volume_density()) * math.prod(field.h)) * dt
    nxt = FlowState(field=field, t=state.t + dt, step_count=state.step_count + 1,
                    dissipation=state.dissipation + dissipated,
                    low_h_streak=state.low_h_streak, min_p=state.min_p)
    f = field.f + 0.5 * dt * v
    if np.all(np.isfinite(f)):
        f = field.f + dt * nonparametric_rhs(field.with_values(f))
    if not np.all(np.isfinite(f)):
        nxt.status = "Aborted"
        nxt.diagnostic = "non-finite map values (CFL violation or blow-up)"
        return nxt
    nxt.field = field.with_values(f)
    nxt.min_p = nxt.field.min_p()
    if nxt.min_p <= 0:
        nxt.status = "Aborted"
        nxt.diagnostic = f"area-decreasing condition lost: min p = {nxt.min_p:.3e}"
        return nxt
    nxt.max_h2 = float(h2_field(nxt.field).max())
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
class RecordedState:
    t: float
    h: np.ndarray
    # (dt_prev, dt_next, h_prev, h_next): the steps into and out of this state;
    # None without a step on both sides
    stencil: Optional[tuple] = None


@dataclass
class EquivariantRun:
    records: list          # FlowRecord per recorded state
    states: list           # RecordedState, aligned 1:1 with records
    dissipation: float
    status: str
    steps: int = 0         # steps taken, and the range of their dt (nan without a step)
    dt_min: float = float("nan")
    dt_max: float = float("nan")


class EquivariantFlow:
    """Rotationally symmetric flow between unit spheres: f(theta, phi) = (h(theta), phi).

    The profile satisfies
      dh/dt = h'' / (1 + h'^2)
            + (sin(theta)cos(theta) h' - sin(h)cos(h)) / (sin^2(theta) + sin^2(h))
    on offset nodes theta_j = (j + 1/2) pi / J with odd mirror ghosts
    (h(-theta) = -h(theta), h(pi + s) = -h(pi - s)).
    """

    def __init__(self, n_nodes: int, h0):
        self.J = int(n_nodes)
        self.dtheta = np.pi / self.J
        self.theta = (np.arange(self.J) + 0.5) * self.dtheta
        self._sin_t = np.sin(self.theta)  # here to _g_add: theta-only factors, computed once
        self._sin_cos_t = self._sin_t * np.cos(self.theta)
        self._spacing = np.repeat([[2 * self.dtheta], [self.dtheta**2]], self.J, axis=1)
        self._g_add = np.array([self._sin_t**2, np.ones(self.J)])
        self.h = np.asarray(h0(self.theta) if callable(h0) else h0, dtype=float).copy()
        if self.h.shape != (self.J,):
            raise ValueError("profile length must match node count")
        self.M = round_sphere(2)
        self.N = round_sphere(2)

    def _stage_kernel(self, b: np.ndarray, ws: np.ndarray):
        """The profile's dh/dt, bound to a ghost-padded buffer b (length J + 2,
        the profile in b[1:-1]) and a workspace ws of shape (7, J).  Each call
        of the returned function fills the odd mirror ghosts of b, evaluates
        the right-hand side without allocating, and returns the views
        (dh/dt, h', sin h, g11, g22) of ws, which the next call of any kernel
        bound to ws overwrites.  ws holds (sin h, h', dh/dt, g22, g11, tmp, sin h cos h):
        (h', dh/dt), (sin h, h') and (g22, g11) are contiguous (2, J) views, one call each,
        and ws[2:5] holds the rows (dh/dt, g22, g11) that ``run`` keeps of a step.
        Their constants are full (2, J) arrays: a broadcast (2, 1) column doubles a call's cost."""
        J = self.J
        h, g_plus, g_minus = b[1:-1], b[2:], b[:-2]
        ghost_src, ghost_dst = b[1:J + 1:max(J - 1, 1)], b[::J + 1]  # nodes 1, J -> 0, J + 1
        sin_h, d1, v, g22, g11, tmp, sin_cos_h = ws
        d1_v, sin_h_d1, g = ws[1:3], ws[0:2], ws[3:5]
        spacing, g_add, sin_cos_t = self._spacing, self._g_add, self._sin_cos_t
        out = (v, d1, sin_h, g11, g22)
        # the kernel's time is numpy's per-call cost: ufuncs are locals, and
        # each writes into its last positional argument
        neg, sub, add, div, mul, sq, sin, cos = (np.negative, np.subtract, np.add, np.divide,
                                                 np.multiply, np.square, np.sin, np.cos)

        def stage():
            neg(ghost_src, ghost_dst)
            sub(g_plus, g_minus, d1)
            add(h, h, v)  # d2 = ((g+ - 2g) + g-) / dtheta^2, h' = (g+ - g-) / (2 dtheta)
            sub(g_plus, v, v)
            add(v, g_minus, v)
            div(d1_v, spacing, d1_v)
            sin(h, sin_h)
            cos(h, sin_cos_h)
            mul(sin_h, sin_cos_h, sin_cos_h)
            sq(sin_h_d1, g)  # g22 = sin^2(h) + sin^2(theta), g11 = h'^2 + 1
            add(g, g_add, g)
            div(v, g11, v)  # v = d2 / g11 + (sin cos(theta) h' - sin h cos h) / g22
            mul(sin_cos_t, d1, tmp)
            sub(tmp, sin_cos_h, tmp)
            div(tmp, g22, tmp)
            add(v, tmp, v)
            return out
        return stage

    def rhs(self, h: np.ndarray) -> tuple:
        """(dh/dt, h', sin h, g11, g22) of the profile h, g11 = 1 + h'^2 and
        g22 = sin^2(theta) + sin^2(h), for the observables to share.  The stage
        kernel of ``run`` on fresh arrays of its own."""
        b = np.empty(self.J + 2)
        b[1:-1] = h
        return self._stage_kernel(b, np.empty((7, self.J)))()

    def singular_values(self, k: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(lambda, mu) of a profile from its tuple ``k = rhs(h)``: |h'| and
        |sin h| / sin(theta), ordered."""
        a, b = np.abs(k[1]), np.abs(k[2]) / self._sin_t
        return np.maximum(a, b), np.minimum(a, b)

    def observables(self, h: np.ndarray, t: float = np.nan) -> FlowRecord:
        k = self.rhs(h)
        v, _, _, g11, g22 = k
        h2 = v**2 / g11
        lam, mu = self.singular_values(k)
        p = p_batch(lam, mu)
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
        """Integrate the profile by explicit RK2 steps, recording every ``record_every`` steps
        and at the end; a recorded state keeps the steps around it for time stencils.  The
        state and the next one live in two ghost-padded buffers that swap roles each step, the
        half step in a third; a recorded profile is a copy.  Steps run in blocks of at most
        STEP_BLOCK that also end at record steps, at t_end and where a streak of small max
        |H|^2 would reach CONVERGENCE_STREAK; a step keeps its first-stage (dh/dt, g22, g11),
        its dt and its new state.  Once per block, stacked calls give each step's max |H|^2,
        finiteness and term dt * quad_w * sum(|H|^2 sqrt(g11 g22)), and a replay in step order
        stops where a per-step loop would: the step whose streak of small max |H|^2 reaches
        CONVERGENCE_STREAK (Converged, without its term) or whose new state is not finite
        (Aborted, with its term).  Time, state, counters and stencil are those before it."""
        if record_every < 1:
            raise ValueError(f"record_every must be at least 1, not {record_every!r}")
        J = self.J
        bufs = np.empty((3, J + 2))
        ws = np.empty((7, J))  # the stage kernels' workspace, shared
        h, h_next, h_half = (b[1:-1] for b in bufs)
        stage, stage_next, stage_half = (self._stage_kernel(b, ws) for b in bufs)
        kept = ws[2:5]  # (dh/dt, g22, g11) of a step's first stage
        firsts = np.empty((STEP_BLOCK, 3, J))  # kept, for each step of a block
        news = np.empty((STEP_BLOCK + 1, J))  # a block's start state, then each step's new one
        h[:] = self.h
        t = 0.0
        rec0 = self.observables(h, 0.0)  # the first record, if the run takes a step
        if rec0.min_p <= 0:
            raise NotAreaDecreasingError(f"initial profile has min p = {rec0.min_p:.3e}")
        if not rec0.min_p < 2:  # p = 2 only where the differential vanishes
            raise ConfigurationError(f"initial profile has min p = {rec0.min_p!r}: the initial "
                                     "map is constant to working precision")
        records: list = []
        states: list = []
        dissipation = 0.0
        status = "Running"
        streak = 0
        step_i = 0
        prev_h = prev_dt = None
        dt_min, dt_max = np.inf, 0.0
        quad_w = 2 * np.pi * self.dtheta
        cfl_dtheta2 = CFL * self.dtheta**2
        h_tol2, t_stop = h_tol**2, t_end - 1e-14
        add, mul, div, sq, sqrt, isfinite = (np.add, np.multiply, np.divide, np.square,
                                             np.sqrt, np.isfinite)
        amax, amin, total, every = (np.maximum.reduce, np.minimum.reduce, np.add.reduce,
                                    np.logical_and.reduce)
        while t < t_stop:
            at_record = step_i % record_every == 0
            if at_record:
                h_rec = h.copy()
                rec = self.observables(h_rec, t) if step_i else rec0
                records.append(rec)
                states.append(RecordedState(t, h_rec))
                if rec.min_p <= 0:
                    status = "Aborted"
                    break
                if step_i > 0:
                    prev_h = h_next.copy()  # the state before, until this block overwrites it
            news[0] = h
            dts, t_step = [], t
            for i in range(min(STEP_BLOCK, record_every - step_i % record_every,
                               CONVERGENCE_STREAK - streak)):
                k1, _, _, g11, _ = stage()
                firsts[i] = kept
                dt = min(cfl_dtheta2 * float(amin(g11)) / 2, t_end - t_step)
                mul(k1, 0.5 * dt, h_half)
                add(h, h_half, h_half)
                k2 = stage_half()[0]
                mul(k2, dt, h_next)
                add(h, h_next, h_next)
                news[i + 1] = h_next
                dts.append(dt)
                (h, stage), (h_next, stage_next) = (h_next, stage_next), (h, stage)
                t_step += dt
                if not t_step < t_stop:
                    break
            n = len(dts)
            k1s, g22s, g11s = firsts[:n].transpose(1, 0, 2)
            h2s = div(sq(k1s), g11s)  # |H|^2 per step and node
            areas = sqrt(mul(g11s, g22s))
            terms = np.array(dts) * quad_w * total(mul(h2s, areas, areas), axis=1)
            taken = 0
            for top, term, ok in zip(amax(h2s, axis=1).tolist(), terms.tolist(),
                                     every(isfinite(news[1:n + 1]), axis=1).tolist()):
                streak = streak + 1 if top < h_tol2 else 0
                if streak >= CONVERGENCE_STREAK:
                    status = "Converged"
                    break
                dissipation += term
                if not ok:
                    status = "Aborted"
                    break
                taken += 1
            for dt in dts[:taken]:
                t += dt
            if taken:
                dt_min, dt_max = min(dt_min, *dts[:taken]), max(dt_max, *dts[:taken])
                if at_record and step_i > 0:
                    states[-1].stencil = (prev_dt, dts[0], prev_h, news[1].copy())
                prev_dt = dts[taken - 1]
            step_i += taken
            if status != "Running":
                h = news[taken]
                break
        if status == "Running":
            status = "Finished"
        if not step_i:
            dt_min = dt_max = np.nan
        h_end = h.copy()
        records.append(self.observables(h_end, t))
        states.append(RecordedState(t, h_end))
        return EquivariantRun(records=records, states=states, dissipation=dissipation,
                              status=status, steps=step_i, dt_min=dt_min, dt_max=dt_max)

    def expand_field(self, h: np.ndarray) -> GraphMapField:
        """Lift one profile; see ``expand_fields``."""
        return self.expand_fields([h])[0]

    @functools.cached_property
    def _column(self) -> GraphMapField:
        """The lifts' (J, 1) column, its grid fields computed: no (J, PHI_WIDTH) grid is built."""
        column = object.__new__(GraphMapField)
        column.__dict__.update(M=self.M, N=self.N, shape=(self.J, 1), copies=PHI_WIDTH, _cache={},
                               h=np.array([self.dtheta, 2 * np.pi / PHI_WIDTH]),
                               _seam_roll=[0, 0])  # a roll moves no node of one column
        for name in GraphMapField.GRID_FIELDS:
            getattr(column, name)()
        return column

    def expand_fields(self, profiles: Sequence[np.ndarray]) -> list:
        """Lift profiles to f(theta, phi) = (h(theta), phi) on PHI_WIDTH azimuthal
        nodes, each given as its column at phi = 0: a (J, 1) field with the lift's
        spacing (dtheta, 2 pi / PHI_WIDTH), an azimuthal stencil that reads the node
        itself (exact for phi-invariant fields) and ``copies`` = PHI_WIDTH, so that its
        node counts and volume are the lift's.  Their values are computed once, on a
        batch grid of one column per profile, and each lift reads its column.  No
        (J, PHI_WIDTH) grid or array is built: f's derivatives come from the profiles'
        odd mirror stencil, as in ``rhs``, in the arithmetic of ``GraphMapField._differences``,
        negated where ``N.wrap`` mirrored f^theta, as the batch's rows; d_phi f = (0, 1) and
        the other second derivatives, 0, are exact."""
        column, width = self._column, len(profiles)
        grid = column._cache
        h = np.asarray(profiles, dtype=float).T                    # (J, K)
        batch = object.__new__(GraphMapField)
        batch.__dict__.update(column.__dict__, shape=h.shape,
                              f=self.N.wrap(np.stack([h, np.zeros(h.shape)], axis=-1)))
        batch._cache = {name: np.broadcast_to(grid[name], h.shape + grid[name].shape[2:])
                        for name in ("g_m_field", "g_m_inv_field", "gamma_m_field")}
        batch._cache["_stencil_index"] = grid["_stencil_index"] * width + np.arange(width)
        sign = np.where(batch.f[..., 1] == 0, 1.0, -1.0)  # -1 where the wrap mirrored h
        b = np.concatenate([-h[:1], h, -h[-1:]])  # h(-theta) = -h(theta), h(pi + s) = -h(pi - s)
        d, d2 = np.zeros((2, 2, h.size)), np.zeros((2, 3, h.size))  # rows over the batch's nodes
        d[0, 0] = (sign * (b[2:] - b[:-2]) / (2 * self.dtheta)).ravel()
        d[1, 1] = 1.0
        d2[0, 0] = (sign * (b[2:] - 2 * h + b[:-2]) / self.dtheta**2).ravel()
        batch._cache["_f_derivatives"] = d, d2
        lifts = []
        for k in range(width):
            lift = object.__new__(GraphMapField)
            lift.__dict__.update(column.__dict__, f=batch.f[:, k:k + 1], _cache={
                **grid, COLUMN_SOURCE: functools.partial(_read_column, batch, k)})
            lifts.append(lift)
        return lifts

    def stencil_fields(self, state: RecordedState) -> tuple:
        """(t, dt_prev, dt_next, field_prev, field_now, field_next) of a state
        with a stencil, for the time-derivative monitors; the three lifts are one batch."""
        dt_prev, dt_next, h_prev, h_next = state.stencil
        return (state.t, dt_prev, dt_next, *self.expand_fields([h_prev, state.h, h_next]))

    def lift_states(self, states: Sequence[RecordedState], stencils: bool = True) -> Iterator:
        """(lift, triple) per state: its lift and, if ``stencils`` and it has a
        stencil, its ``stencil_fields`` tuple, else None.  The profiles are lifted
        in order, in batches of at most LIFT_BATCH_NODES column nodes (at least one
        profile), each batch made when its first lift is read."""
        def lifts():
            todo = (h for s in states for h in (
                (s.stencil[2], s.h, s.stencil[3]) if stencils and s.stencil else (s.h,)))
            while chunk := [*itertools.islice(todo, max(1, LIFT_BATCH_NODES // self.J))]:
                yield from self.expand_fields(chunk)
        lifted = lifts()
        for s in states:
            if stencils and s.stencil:
                prev, now, nxt = itertools.islice(lifted, 3)
                yield now, (s.t, s.stencil[0], s.stencil[1], prev, now, nxt)
            else:
                yield next(lifted), None


def _read_column(batch: GraphMapField, k: int, cached):
    """The ``COLUMN_SOURCE`` of lift k of a batch (``EquivariantFlow.expand_fields``):
    column k, read-only, of each array of a field-cached value computed on the batch (of
    every row's flat nodes, for a ``row_cached`` value)."""
    def column(a: np.ndarray) -> np.ndarray:
        out = a[..., k::batch.shape[1]] if cached.rows else a[:, k:k + 1]
        out.flags.writeable = False
        return out
    return _map_arrays(column, cached(batch))


def _map_arrays(fn, value):
    """``fn`` applied to each array of a value: an array, or a tuple or a record
    (dataclass) of values."""
    if isinstance(value, np.ndarray):
        return fn(value)
    if isinstance(value, tuple):
        return tuple(_map_arrays(fn, v) for v in value)
    return type(value)(**{f.name: _map_arrays(fn, getattr(value, f.name)) for f in fields(value)})


# ---------------------------------------------------------------------------
# Circle drift on a warped cylinder


def drift_velocity(warp: Warp, z):
    """Phi(z) = -w(z) w'(z) / (1 + w(z)^2), the z-velocity of the symmetric
    circle, elementwise over arrays."""
    w = warp.w(z)
    return -w * warp.dw(z) / (1 + w * w)


@dataclass
class DriftRun:
    t: np.ndarray
    z: np.ndarray
    w: np.ndarray           # warp w(z): the circle's singular value
    h2: np.ndarray          # |H|^2 = Phi(z)^2 along the trajectory
    volume: np.ndarray      # 8 pi^2 sqrt(1 + w^2)
    dissipation: float


def _sample_times(t_end: float, dt: float) -> np.ndarray:
    """0, dt, 2 dt, ... below t_end, then t_end itself: strictly increasing."""
    t = np.arange(max(int(np.ceil(t_end / dt)), 0)) * dt
    return np.append(t[t < t_end], t_end)


def reduce_circle_drift(surface: WarpedSurface, z0: float, t_end: float,
                        dt: float = DRIFT_DT) -> DriftRun:
    """The exact circle reduction dz/dt = Phi(z), solved in closed form: the warp's
    declared trajectory sampled every ``dt`` and at t_end, with z[0] = z0 exactly."""
    trajectory = surface.warp.trajectory
    if trajectory is None:
        raise ConfigurationError(f"warp {surface.warp.name!r} declares no closed-form "
                                 "circle trajectory")
    t = _sample_times(t_end, dt)
    z = trajectory(float(z0), t)
    z[0] = z0
    w = surface.warp.w(z)
    # Phi^2, the volume and the trapezoid in place, in the order of ``drift_velocity``, ** 2,
    # 8 pi^2 sqrt(1 + w^2) and ``np.trapezoid``: 1 + w^2 is Phi's denominator
    volume = np.multiply(w, w)
    volume += 1.0
    h2 = np.negative(w)
    h2 *= surface.warp.dw(z)
    h2 /= volume
    h2 *= h2
    np.sqrt(volume, out=volume)
    volume *= 8 * np.pi**2
    # the budget identity d(vol)/dt = -int |H|^2 dmu is exact for this
    # reduction; trapezoid in t
    flux = h2 * volume
    pairs = np.add(flux[1:], flux[:-1])
    pairs *= np.diff(t)
    pairs /= 2.0
    dissipation = float(pairs.sum())
    return DriftRun(t=t, z=z, w=w, h2=h2, volume=volume, dissipation=dissipation)
