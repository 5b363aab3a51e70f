"""The fused profile kernel and the coarse-step drift against the loops they
replaced (``tests/reference_flow.py``): the profile bit for bit, the drift on
the same sample times up to the oracle's rounding and within 1e-12."""

from __future__ import annotations

import functools
from dataclasses import astuple

import numpy as np
import pytest

import graphflow.flow
import reference_flow
from graphflow.flow import CFL, DRIFT_DT, STEP_BLOCK, EquivariantFlow, reduce_circle_drift
from graphflow.geometry import WarpedSurface, builtin_warp


def _h0(th):
    return 0.8 * np.sin(th)


def _same(a, b) -> bool:
    # equal values, NaN equal to NaN: an aborted run can end on NaN
    return np.array_equal(a, b, equal_nan=True)


@functools.cache
def _oracle(nodes, t_end, record_every, cfl=CFL):
    """The oracle's run of ``_h0``, made once: the block-size variants of a case share it."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(reference_flow, "CFL", cfl)  # the oracle reads CFL at run time
        return reference_flow.EquivariantFlow(nodes, _h0).run(t_end, record_every=record_every)


def _assert_same_run(new, old):
    assert new.status == old.status
    assert _same(new.dissipation, old.dissipation)
    assert new.steps == old.steps and _same([new.dt_min, new.dt_max], [old.dt_min, old.dt_max])
    assert _same([astuple(r) for r in new.records], [astuple(r) for r in old.records])
    assert len(new.states) == len(old.states)
    for a, b in zip(new.states, old.states):
        assert a.t == b.t and _same(a.h, b.h)
        assert (a.stencil is None) == (b.stencil is None)
        if a.stencil is not None:
            assert a.stencil[:2] == b.stencil[:2]
            assert all(np.array_equal(x, y) for x, y in zip(a.stencil[2:], b.stencil[2:]))


@pytest.fixture(params=[1, 2, 3])
def small_blocks(request, monkeypatch):
    """Runs in blocks of 1, 2 or 3 steps: every step is at or next to a block's edge."""
    monkeypatch.setattr(graphflow.flow, "STEP_BLOCK", request.param)


RUNS = [
    (32, 20.0, 500, "Converged"),
    (64, 1.0, 100, "Finished"),
    (256, 0.05, 40, "Finished"),
]


@pytest.mark.parametrize("nodes, t_end, record_every, status", RUNS)
def test_equivariant_run_is_bit_identical(nodes, t_end, record_every, status):
    new = EquivariantFlow(nodes, _h0).run(t_end, record_every=record_every)
    old = _oracle(nodes, t_end, record_every)
    assert new.status == status
    assert sum(s.stencil is not None for s in new.states) >= 1
    _assert_same_run(new, old)


@pytest.mark.parametrize("nodes, t_end, record_every, status", RUNS)
def test_equivariant_run_in_small_blocks_is_bit_identical(small_blocks, nodes, t_end,
                                                          record_every, status):
    test_equivariant_run_is_bit_identical(nodes, t_end, record_every, status)


@pytest.fixture(scope="module")
def step_times():
    """t after each step of the J = 32 profile: a run that records every step."""
    return [s.t for s in EquivariantFlow(32, _h0).run(6.5, record_every=1).states]


B = STEP_BLOCK
BLOCK_ENDS = [1, 9, B - 1, B, B + 1, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B, 12 * B + 1, 48 * B + 7]


@pytest.mark.parametrize("steps", BLOCK_ENDS)
def test_equivariant_run_ends_anywhere_in_a_dissipation_block(step_times, steps):
    # the steps run in blocks, and the dissipation is summed once per block:
    # a run that ends inside one block, one step before, on and after a
    # block's end, or after many blocks adds the same terms in the same order
    # as the oracle's loop
    t_end = (step_times[steps - 1] + step_times[steps]) / 2  # the last step is clamped
    new = EquivariantFlow(32, _h0).run(t_end, record_every=100)
    old = _oracle(32, t_end, 100)
    assert new.status == "Finished" and new.steps == steps
    _assert_same_run(new, old)


@pytest.mark.parametrize("steps", BLOCK_ENDS)
def test_equivariant_run_in_small_blocks_ends_anywhere(small_blocks, step_times, steps):
    test_equivariant_run_ends_anywhere_in_a_dissipation_block(step_times, steps)


ABORTS = [
    (2.0, 32, 5.0, 1, 5),          # a record with min p <= 0
    (1.5, 8, 1e300, 10**9, 125),   # a step to a non-finite profile
]


@pytest.mark.parametrize("cfl, nodes, t_end, record_every, steps", ABORTS)
def test_equivariant_run_aborts_like_the_oracle(monkeypatch, cfl, nodes, t_end, record_every,
                                                 steps):
    # both loops read CFL at run time; past the stable step the profile blows up
    monkeypatch.setattr(graphflow.flow, "CFL", cfl)
    with np.errstate(all="ignore"):
        new = EquivariantFlow(nodes, _h0).run(t_end, record_every=record_every)
    old = _oracle(nodes, t_end, record_every, cfl)
    assert new.status == "Aborted" and new.steps == steps
    if record_every == 1:  # the record at the last step aborted: the end repeats it
        assert new.records[-2].min_p <= 0 < new.records[-3].min_p
        assert np.isfinite(new.dissipation)
    else:  # the aborted step's own dissipation term is in the sum
        assert len(new.records) == 2 and np.isnan(new.dissipation) and np.isnan(old.dissipation)
    _assert_same_run(new, old)


@pytest.mark.parametrize("cfl, nodes, t_end, record_every, steps", ABORTS)
def test_equivariant_run_in_small_blocks_aborts_like_the_oracle(small_blocks, monkeypatch, cfl,
                                                                nodes, t_end, record_every,
                                                                steps):
    test_equivariant_run_aborts_like_the_oracle(monkeypatch, cfl, nodes, t_end, record_every,
                                                steps)


STOPS = {  # (cfl, nodes, t_end, record_every, status) of a run that stops before t_end
    "converged": (CFL, 32, 20.0, 10**9, "Converged"),
    "non_finite": (1.5, 8, 1e300, 10**9, "Aborted"),
    "record_min_p": (2.0, 32, 5.0, 5, "Aborted"),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("stop", STOPS)
def test_equivariant_run_stops_anywhere_in_a_block(monkeypatch, stop, where):
    # the run stops at step s: blocks of s, s - 1 and s + 1 steps make s the
    # first, the second or the last step of its block.  A record is checked
    # before its step, which starts a block, so there the block before it is
    # cut at the record (s + 1), ends at it (s) or is one step long (s - 1)
    cfl, nodes, t_end, record_every, status = STOPS[stop]
    old = _oracle(nodes, t_end, record_every, cfl)
    s = old.steps
    monkeypatch.setattr(graphflow.flow, "CFL", cfl)
    monkeypatch.setattr(graphflow.flow, "STEP_BLOCK",
                        {"first": s, "middle": s - 1, "last": s + 1}[where])
    with np.errstate(all="ignore"):
        new = EquivariantFlow(nodes, _h0).run(t_end, record_every=record_every)
    assert old.status == status and s > 3
    _assert_same_run(new, old)


@pytest.mark.parametrize("record_every", [1, B - 1, B, B + 1])
def test_equivariant_run_records_at_any_block_edge(record_every):
    # a record step ends the block before it, so blocks of every length from
    # 1 to STEP_BLOCK meet records and the convergence streak
    new = EquivariantFlow(32, _h0).run(20.0, record_every=record_every)
    old = _oracle(32, 20.0, record_every)
    assert new.status == "Converged" and len(new.records) > 3
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
    ("cosh", 0.5, 0.003),    # three samples
    ("exp_neg", 0.0, 7.0007),  # not a multiple of DRIFT_DT: a short last sample step
    ("exp_neg", 0.0, 8.002),   # the sum of DRIFT_DT overshoots: the last sample step is < 0
    ("cosh", 0.5, 0.555),
])
def test_circle_drift_agrees_with_the_rk4_loop(warp, z0, t_end):
    # the closed-form trajectories against RK4 at the sample spacing: the same
    # sample times, values within 1e-12 relative to max(1, |value|)
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
