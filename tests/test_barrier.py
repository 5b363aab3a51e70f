"""Barrier functions: covariant Hessians, m-convexity, containment, diameter decay.

``reference_barrier`` keeps the per-point barrier layer (``scipy.linalg.eigh``)
that the batched one replaced; the batched layer is checked against it.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

import reference_artifacts as ref_artifacts
import reference_barrier as ref
from graphflow import app
from graphflow.barrier import (BarrierFunction, certify_convexity, containment_monitor,
                               diameter_series, m_convexity_at, waist_tube_barrier)
from graphflow.errors import ConfigurationError
from graphflow.flow import reduce_circle_drift
from graphflow.frames import generalized_eigvalsh
from graphflow.geometry import WarpedSurface, builtin_warp, product

ORACLE_RTOL = 1e-12  # relative to the largest magnitude compared


def test_product_metric_blocks(s1xs2, waist_cylinder):
    y = np.array([0.3, 1.2, 2.0, 0.5, 0.4])
    chart = product(s1xs2, waist_cylinder)
    g = chart.metric_many(y)
    assert np.allclose(g[:3, :3], s1xs2.metric_many(y[:3]))
    assert np.allclose(g[3:, 3:], waist_cylinder.metric_many(y[3:]))
    assert np.abs(g[:3, 3:]).max() == 0.0
    gam = chart.christoffels_many(y)
    assert np.abs(gam[:3, 3:, :]).max() == 0.0
    np.testing.assert_array_equal(gam, ref.product_christoffels(s1xs2, waist_cylinder, y))


def test_waist_barrier_hessian_value(s1xs2, waist_cylinder):
    # phi = z^2: chart Hessian 2 e_z x e_z, plus the connection term
    # -Gamma^z_{ss} d_z phi = w w' * 2z on the cylinder block
    bar = waist_tube_barrier(1.0)
    z = 0.4
    y = np.array([0.3, 1.2, 2.0, 0.5, z])
    d2 = ref.covariant_hessian(bar, s1xs2, waist_cylinder, y)
    w, dw = math.cosh(z), math.sinh(z)
    assert d2[-1, -1] == pytest.approx(2.0)
    assert d2[-2, -2] == pytest.approx(2.0 * z * w * dw)
    assert np.abs(d2[:3, :3]).max() == 0.0
    # the generalized eigenvalues of (D^2 phi, g): 0 on S^1 x S^2, 2 z w'/w and 2 on the
    # cylinder, so the full trace that the package reads is 2 z tanh z + 2
    assert m_convexity_at(bar, s1xs2, waist_cylinder, y, 5) == pytest.approx(
        2.0 * z * math.tanh(z) + 2.0)


def test_m_convexity_oracle_vs_brute_force(s1xs2, waist_cylinder, rng):
    bar = waist_tube_barrier(1.0)
    y = np.array([0.1, 1.4, 0.7, 1.0, 0.3])
    d2 = ref.covariant_hessian(bar, s1xs2, waist_cylinder, y)
    g = product(s1xs2, waist_cylinder).metric_many(y)
    for m in (2, 3, 4, 5):
        exact = m_convexity_at(bar, s1xs2, waist_cylinder, y, m)
        brute = ref.brute_force_m_trace(d2, g, m, n_frames=300, rng=rng)
        assert brute >= exact - 1e-10  # random frames never undercut the oracle
    # m-traces are monotone in m only after sorting; sanity: m=5 is the full trace
    ev = scipy.linalg.eigh(d2, g, eigvals_only=True)
    assert m_convexity_at(bar, s1xs2, waist_cylinder, y, 5) == pytest.approx(float(ev.sum()))


def _concave(bar):
    """The negated barrier: a sublevel set on which phi is m-concave."""
    return BarrierFunction("concave", lambda y: -bar.phi(y), 10.0,
                           lambda y: -bar.grad(y), lambda y: -bar.hess(y))


def test_certify_convexity_verdicts(s1xs2, waist_cylinder):
    bar = waist_tube_barrier(1.0)
    pts = [np.array([0.0, 1.2, 2.0, sv, zv])
           for sv in (0.5, 2.0) for zv in np.linspace(-0.9, 0.9, 7)]
    cert = certify_convexity(bar, s1xs2, waist_cylinder, pts)
    assert cert.verdict and cert.n_samples == len(pts)
    # a concave barrier fails: the negated waist tube
    cert = certify_convexity(_concave(bar), s1xs2, waist_cylinder, pts)
    assert not cert.verdict


@pytest.fixture(scope="module")
def waist_audit_points(tmp_path_factory):
    """The sample points that a cylinder_waist run hands to certify_convexity."""
    seen = []

    def recorded(barrier, m_manifold, n_manifold, points):
        seen.append(np.array(points))
        return certify_convexity(barrier, m_manifold, n_manifold, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(app, "certify_convexity", recorded)
        app.run_scenario(app.builtin_config("cylinder_waist", {("flow", "t_end"): 0.5}),
                         out_dir=str(tmp_path_factory.mktemp("waist")))
    (points,) = seen
    return points.reshape(-1, points.shape[-1])


@pytest.mark.parametrize("concave", [False, True])
def test_batched_barrier_matches_per_point_oracle(s1xs2, waist_cylinder, waist_audit_points,
                                                  concave):
    assert waist_audit_points.shape == (36, 5)
    bar, oracle_bar = waist_tube_barrier(1.0), ref.waist_tube_barrier(1.0)
    if concave:
        bar, oracle_bar = _concave(bar), _concave(oracle_bar)
    pts = waist_audit_points
    chart = product(s1xs2, waist_cylinder)
    # the covariant Hessian over the batch, as ``m_convexity_at`` forms it
    got_d2 = bar.hess(pts) - np.einsum("...kij,...k->...ij", chart.christoffels_many(pts),
                                       bar.grad(pts))
    got_g = chart.metric_many(pts)
    for y, d2, g in zip(pts, got_d2, got_g):
        want_d2 = ref.covariant_hessian(oracle_bar, s1xs2, waist_cylinder, y)
        np.testing.assert_allclose(d2, want_d2, rtol=0, atol=ORACLE_RTOL * np.abs(want_d2).max())
        np.testing.assert_array_equal(g, ref.product_metric(s1xs2, waist_cylinder, y))
    for m in (2, 3, 4, 5):
        got = m_convexity_at(bar, s1xs2, waist_cylinder, pts, m)
        want = np.array([ref.m_convexity_at(oracle_bar, s1xs2, waist_cylinder, y, m)
                         for y in pts])
        np.testing.assert_allclose(got, want, rtol=ORACLE_RTOL,
                                   atol=ORACLE_RTOL * np.abs(want).max())
        # a single point is a batch of shape ()
        single = [m_convexity_at(bar, s1xs2, waist_cylinder, y, m) for y in pts]
        assert all(np.shape(v) == () for v in single)
        np.testing.assert_allclose(single, got, rtol=ORACLE_RTOL,
                                   atol=ORACLE_RTOL * np.abs(want).max())
    got = certify_convexity(bar, s1xs2, waist_cylinder, pts)
    want = ref.certify_convexity(oracle_bar, s1xs2, waist_cylinder, pts, m=3)
    assert (got.verdict, got.n_samples, got.m) == (want.verdict, want.n_samples, want.m)
    assert got.verdict is (not concave)
    assert got.worst_value == pytest.approx(want.worst_value, rel=ORACLE_RTOL, abs=1e-15)
    np.testing.assert_array_equal(got.worst_point, want.worst_point)


def test_certify_convexity_outside_the_sublevel_set(s1xs2, waist_cylinder):
    # no sample inside the sublevel set: no verdict can be drawn from the audit
    pts = np.array([[0.0, 1.0, 2.0, 0.5, z] for z in (1.5, -2.0)])
    cert = certify_convexity(waist_tube_barrier(1.0), s1xs2, waist_cylinder, pts)
    oracle = ref.certify_convexity(ref.waist_tube_barrier(1.0), s1xs2, waist_cylinder, pts, m=3)
    for c in (cert, oracle):
        assert not c.verdict and c.n_samples == 0 and c.worst_point is None
        assert math.isnan(c.worst_value)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_generalized_eigvalsh_matches_scipy(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((64, k, k))
    a = a + np.swapaxes(a, -1, -2)
    b = rng.standard_normal((64, k, k))
    g = b @ np.swapaxes(b, -1, -2) + 0.1 * np.eye(k)  # SPD, condition number below 1e4
    got = generalized_eigvalsh(a, g)
    want = np.array([scipy.linalg.eigh(ai, gi, eigvals_only=True) for ai, gi in zip(a, g)])
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= ORACLE_RTOL * scale)
    assert generalized_eigvalsh(a[0], g[0]).shape == (k,)


def test_containment_monitor():
    bar = waist_tube_barrier(1.0)
    good = [(0.0, [np.array([0.0, 0.0, 0.0, 0.0, 0.5])]),
            (1.0, [np.array([0.0, 0.0, 0.0, 0.0, 0.2])])]
    res = containment_monitor(good, bar)
    assert res["pass"]
    assert res["rows"][1]["margin"] > res["rows"][0]["margin"]
    escaped = good + [(2.0, [np.array([0.0, 0.0, 0.0, 0.0, 1.5])])]
    res = containment_monitor(escaped, bar)
    assert not res["pass"]
    with pytest.raises(ConfigurationError):
        containment_monitor([(0.0, [np.array([0.0, 0.0, 0.0, 0.0, 2.0])])], bar)
    # a checkpoint is one point array, (..., d): its max phi over every point
    ring = np.zeros((3, 4, 5))
    ring[..., -1] = np.linspace(-0.9, 0.6, 12).reshape(3, 4)
    (row,) = containment_monitor([(0.5, ring)], bar)["rows"]
    assert row["max_phi"] == 0.9 ** 2 and row["margin"] == 1.0 - 0.9 ** 2


def _waist_checkpoints():
    """The default cylinder_waist run's checkpoints, as its containment monitor reads them."""
    run = reduce_circle_drift(WarpedSurface(builtin_warp("cosh")), 0.5, 30.0)
    idx = sorted({*range(0, len(run.t), 400), len(run.t) - 1})
    circle = np.stack(np.broadcast_arrays(0.0, 1.0, 2.0, 0.0, run.z[idx]), axis=-1)
    return list(zip(run.t[idx], circle[:, None]))


@pytest.mark.parametrize("checkpoints", [
    _waist_checkpoints(),
    [(0.0, [np.array([0.1, 0.0, 0.0, 0.0, 0.5])]), (1, np.array([0.0, 0.0, 0.0, 0.0, 0.2])),
     (2.0, np.zeros((3, 4, 5)) + 0.9), (np.float64(3.0), [[0.0, 0.0, 0.0, 0.0, -1.5]]),
     (4, [[0, 0, 0, 0, 1], [0, 0, 0, 0, -2]])],
    [(t, np.linspace(-0.5, 0.5 + t, 10).reshape(2, 5)) for t in (0.0, 0.25, 0.75)],
    [(0.5, np.array([0.0, 0.0, 0.0, 0.0, np.nan])), (1.0, np.array([0.0, 0.0, 0.0, 0.0, 0.1]))],
    [],
], ids=["cylinder_waist", "shapes", "stacked", "nan", "none"])
def test_containment_monitor_matches_its_per_checkpoint_oracle(checkpoints):
    # one phi over all checkpoints' points, whatever their shapes: the rows of the
    # monitor that evaluated phi per checkpoint, bit for bit
    bar = waist_tube_barrier(1.0)
    new, old = containment_monitor(iter(checkpoints), bar), ref_artifacts.containment_monitor(
        checkpoints, bar)
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


@pytest.mark.parametrize("first", [np.array([0.0, 0.0, 0.0, 0.0, 2.0]), np.full((2, 5), -1.0)])
def test_containment_monitor_refuses_as_its_oracle(first):
    bar = waist_tube_barrier(1.0)
    for later in (np.zeros(5), np.zeros(first.shape)):
        with pytest.raises(ConfigurationError) as new:
            containment_monitor([(0.0, first), (1.0, later)], bar)
        with pytest.raises(ConfigurationError) as old:
            ref_artifacts.containment_monitor([(0.0, first), (1.0, later)], bar)
        assert str(new.value) == str(old.value)


def test_containment_monitor_refuses_an_empty_checkpoint():
    # an empty checkpoint has no maximum, for the oracle's np.max as for the monitor
    checkpoints = [(0.0, np.zeros((2, 5))), (1.0, np.zeros((0, 5))), (2.0, np.zeros(5))]
    for monitor in (containment_monitor, ref_artifacts.containment_monitor):
        with pytest.raises(ValueError):
            monitor(checkpoints, waist_tube_barrier(1.0))


def test_diameter_series_slope():
    ts = np.linspace(0.0, 8.0, 33)
    pairs = list(zip(ts, 3.0 * np.exp(-2.0 * ts)))
    res = diameter_series(pairs, eps0=0.25)
    assert res["pass"]
    assert res["log_slope"] == pytest.approx(-2.0, abs=1e-8)
    slow = list(zip(ts, 3.0 * np.exp(-0.01 * ts)))
    assert not diameter_series(slow, eps0=0.25)["pass"]
    # no fit requested without a positive rate
    assert "log_slope" not in diameter_series(pairs, eps0=None)


def test_diameter_slope_matches_polyfit():
    # the closed-form slope is the least-squares slope of np.polyfit, over the
    # final half of random series of any length
    rng = np.random.default_rng(5)
    for _ in range(200):
        ts = np.sort(rng.uniform(0.0, 10.0, rng.integers(3, 40)))
        d = np.exp(rng.normal(0.0, 2.0) + rng.normal(0.0, 1.0) * ts + rng.normal(0.0, 0.3, ts.size))
        sel = ts >= ts.max() / 2
        if sel.sum() < 2:
            continue
        want = np.polyfit(ts[sel], np.log(d[sel]), 1)[0]
        got = diameter_series(list(zip(ts, d)), eps0=0.25)["log_slope"]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
