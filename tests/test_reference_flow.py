"""The fused profile kernel and the coarse-step drift against the loops they
replaced (``tests/reference_flow.py``): the profile bit for bit, the drift on
the same sample times up to the oracle's rounding and within 1e-12."""

from __future__ import annotations

import numpy as np
import pytest

import reference_flow
from graphflow.flow import DRIFT_DT, EquivariantFlow, reduce_circle_drift
from graphflow.geometry import WarpedSurface, builtin_warp


def _assert_same_run(new, old):
    assert new.status == old.status
    assert new.dissipation == old.dissipation
    assert new.records == old.records
    assert len(new.states) == len(old.states)
    for a, b in zip(new.states, old.states):
        assert a.t == b.t and np.array_equal(a.h, b.h)
        assert (a.stencil is None) == (b.stencil is None)
        if a.stencil is not None:
            assert a.stencil[:2] == b.stencil[:2]
            assert all(np.array_equal(x, y) for x, y in zip(a.stencil[2:], b.stencil[2:]))


@pytest.mark.parametrize("nodes, t_end, record_every, status", [
    (32, 20.0, 500, "Converged"),
    (64, 1.0, 100, "Finished"),
    (256, 0.05, 40, "Finished"),
])
def test_equivariant_run_is_bit_identical(nodes, t_end, record_every, status):
    def h0(th):
        return 0.8 * np.sin(th)
    new = EquivariantFlow(nodes, h0).run(t_end, record_every=record_every)
    old = reference_flow.EquivariantFlow(nodes, h0).run(t_end, record_every=record_every)
    assert new.status == status
    assert sum(s.stencil is not None for s in new.states) >= 1
    _assert_same_run(new, old)


@pytest.mark.parametrize("record_every", [1, 2])
@pytest.mark.parametrize("nodes", [1, 2, 3])
def test_equivariant_run_is_bit_identical_on_few_nodes(nodes, record_every):
    # the odd mirror ghosts are one strided view of nodes 1 and J; at J = 1
    # both ghosts mirror the same node
    def h0(th):
        return 0.8 * np.sin(th)
    new = EquivariantFlow(nodes, h0).run(20.0, record_every=record_every)
    old = reference_flow.EquivariantFlow(nodes, h0).run(20.0, record_every=record_every)
    assert new.steps > 10 and sum(s.stencil is not None for s in new.states) >= 1
    _assert_same_run(new, old)
    assert np.array_equal(EquivariantFlow(nodes, h0).rhs(new.states[-1].h)[0],
                          reference_flow.EquivariantFlow(nodes, h0).rhs(new.states[-1].h))


def test_equivariant_run_repeats_on_one_flow():
    # the run's buffers are its own: a second run on the same flow starts afresh
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    _assert_same_run(eq.run(0.2, record_every=30), eq.run(0.2, record_every=30))


@pytest.mark.parametrize("warp, z0, t_end", [
    ("cosh", 0.5, 30.0),
    ("exp_neg", 0.0, 5.0),
    ("cosh", 0.5, 1.2345),   # not a multiple of DRIFT_DT: the last sample step is clamped
    ("cosh", 0.5, 0.003),    # shorter than one DRIFT_STEP: one RK4 step, no Adams step
    ("exp_neg", 0.0, 7.0007),  # neither a multiple of DRIFT_DT nor of ADAMS_STEP
    ("exp_neg", 0.0, 8.002),   # the sum of DRIFT_DT overshoots: the last sample step is < 0
    ("cosh", 0.5, 0.555),      # past the RK4 start: the last Adams step ends past t_end
])
def test_circle_drift_agrees_with_the_rk4_loop(warp, z0, t_end):
    # the Adams pair (RK4 start with Hermite samples, then the corrector's
    # polynomial) against RK4 at the sample spacing: the same sample times,
    # values within 1e-12 relative to max(1, |value|)
    surface = WarpedSurface(builtin_warp(warp))
    new = reduce_circle_drift(surface, z0, t_end)
    old = reference_flow.reduce_circle_drift(surface, z0, t_end)
    n = len(old.t)  # the oracle repeats its last sample where its sum of dt overshoots
    while n > 1 and old.t[n - 1] <= old.t[n - 2]:
        n -= 1
    # the oracle's times are a running sum of dt, the drift's are k dt and t_end
    assert np.array_equal(new.t, np.append(np.arange(n - 1) * DRIFT_DT, t_end))
    assert np.abs(new.t - old.t[:n]).max() <= 1e-12 * t_end
    assert new.z[0] == z0
    for name in ("z", "w", "h2", "volume"):
        a, b = getattr(new, name), getattr(old, name)[:n]
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-12, name
    assert new.dissipation == pytest.approx(old.dissipation, rel=1e-12)
    assert new.t[-1] == pytest.approx(t_end, abs=1e-12)
