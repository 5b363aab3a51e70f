"""Barrier functions: covariant Hessians, m-convexity, containment, diameter decay."""

import math

import numpy as np
import pytest

from graphflow.barrier import (BarrierFunction, brute_force_m_trace, certify_convexity,
                               containment_monitor, covariant_hessian, diameter_series,
                               m_convexity_at, product_christoffels, product_metric,
                               waist_tube_barrier)
from graphflow.errors import ConfigurationError


def test_product_metric_blocks(s1xs2, waist_cylinder):
    y = np.array([0.3, 1.2, 2.0, 0.5, 0.4])
    g = product_metric(s1xs2, waist_cylinder, y)
    assert np.allclose(g[:3, :3], s1xs2.metric_at(y[:3]))
    assert np.allclose(g[3:, 3:], waist_cylinder.metric_at(y[3:]))
    assert np.abs(g[:3, 3:]).max() == 0.0
    gam = product_christoffels(s1xs2, waist_cylinder, y)
    assert np.abs(gam[:3, 3:, :]).max() == 0.0


def test_waist_barrier_hessian_value(s1xs2, waist_cylinder):
    # phi = z^2: chart Hessian 2 e_z x e_z, plus the connection term
    # -Gamma^z_{ss} d_z phi = w w' * 2z on the cylinder block
    bar = waist_tube_barrier(1.0)
    z = 0.4
    y = np.array([0.3, 1.2, 2.0, 0.5, z])
    d2 = covariant_hessian(bar, s1xs2, waist_cylinder, y)
    w, dw = math.cosh(z), math.sinh(z)
    assert d2[-1, -1] == pytest.approx(2.0)
    assert d2[-2, -2] == pytest.approx(2.0 * z * w * dw)
    assert np.abs(d2[:3, :3]).max() == 0.0


def test_m_convexity_oracle_vs_brute_force(s1xs2, waist_cylinder, rng):
    bar = waist_tube_barrier(1.0)
    y = np.array([0.1, 1.4, 0.7, 1.0, 0.3])
    d2 = covariant_hessian(bar, s1xs2, waist_cylinder, y)
    g = product_metric(s1xs2, waist_cylinder, y)
    for m in (2, 3, 4, 5):
        exact = m_convexity_at(bar, s1xs2, waist_cylinder, y, m)
        brute = brute_force_m_trace(d2, g, m, n_frames=300, rng=rng)
        assert brute >= exact - 1e-10  # random frames never undercut the oracle
    # m-traces are monotone in m only after sorting; sanity: m=5 is the full trace
    import scipy.linalg
    ev = scipy.linalg.eigh(d2, g, eigvals_only=True)
    assert m_convexity_at(bar, s1xs2, waist_cylinder, y, 5) == pytest.approx(float(ev.sum()))


def test_certify_convexity_verdicts(s1xs2, waist_cylinder):
    bar = waist_tube_barrier(1.0)
    pts = [np.array([0.0, 1.2, 2.0, sv, zv])
           for sv in (0.5, 2.0) for zv in np.linspace(-0.9, 0.9, 7)]
    cert = certify_convexity(bar, s1xs2, waist_cylinder, pts, m=3)
    assert cert.verdict and cert.n_samples == len(pts)
    # a concave barrier fails: the negated waist tube
    bad = BarrierFunction("concave", lambda y: -bar.phi(y), 10.0,
                          lambda y: -bar.grad(y), lambda y: -bar.hess(y))
    cert = certify_convexity(bad, s1xs2, waist_cylinder, pts, m=3)
    assert not cert.verdict


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
