"""Singular values and adapted frames: property-based checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_geometry
from graphflow.frames import build_svd_frame, p_batch, pd_inverse, singular_value_invariants
from graphflow.geometry import hopf_map, round_sphere, s3_hopf_chart


def _random_sample(rng, m):
    """(df, g_m, g_n) at one random point."""
    a = rng.standard_normal((m, m))
    g_m = a @ a.T + m * np.eye(m)
    b = rng.standard_normal((2, 2))
    g_n = b @ b.T + 2 * np.eye(2)
    df = rng.standard_normal((m, 2))
    return df, g_m, g_n


def _singular_values(g_m, g_n, df):
    lam, mu, _, _ = singular_value_invariants(np.linalg.inv(g_m), g_n, df)
    return lam, mu


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 5))
def test_frame_orthonormality_and_tangency(seed, m):
    rng = np.random.default_rng(seed)
    df, g_m, g_n = _random_sample(rng, m)
    fr = build_svd_frame(df, g_m, g_n)

    assert fr.lam >= fr.mu >= 0
    assert np.abs(fr.alpha @ g_m @ fr.alpha.T - np.eye(m)).max() < 1e-9
    assert np.abs(fr.beta @ g_n @ fr.beta.T - np.eye(2)).max() < 1e-9

    g_ind = g_m + df @ g_n @ df.T
    assert np.abs(fr.e @ g_ind @ fr.e.T - np.eye(m)).max() < 1e-9

    gp = np.zeros((m + 2, m + 2))
    gp[:m, :m] = g_m
    gp[m:, m:] = g_n
    # normals are unit and orthogonal in the product metric
    assert abs(fr.xi @ gp @ fr.xi - 1) < 1e-9
    assert abs(fr.eta @ gp @ fr.eta - 1) < 1e-9
    assert abs(fr.xi @ gp @ fr.eta) < 1e-9
    # and orthogonal to the graph tangent vectors (e_i, df e_i)
    dfe = np.concatenate([fr.e, (df.T @ fr.e.T).T], axis=-1)
    assert np.abs(dfe @ gp @ fr.xi).max() < 1e-9
    assert np.abs(dfe @ gp @ fr.eta).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 5))
def test_scalar_identities(seed, m):
    rng = np.random.default_rng(seed)
    fr = build_svd_frame(*_random_sample(rng, m))
    lam, mu = fr.lam, fr.mu

    assert abs(fr.s_diag[0] ** 2 + fr.t11 ** 2 - 1) < 1e-10
    assert abs(fr.s_diag[1] ** 2 + fr.t22 ** 2 - 1) < 1e-10
    assert abs(fr.s_diag[0] - (1 - lam**2) / (1 + lam**2)) < 1e-10
    assert abs(fr.s_diag[1] - (1 - mu**2) / (1 + mu**2)) < 1e-10
    assert abs(fr.t11 - (-2 * lam / (1 + lam**2))) < 1e-10
    assert abs(fr.t22 - (-2 * mu / (1 + mu**2))) < 1e-10
    expect_p = 2 * (1 - lam**2 * mu**2) / ((1 + lam**2) * (1 + mu**2))
    assert abs(fr.p - expect_p) < 1e-10
    assert -2.0 - 1e-12 <= fr.p <= 2.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 5))
# draws with mu << lambda, where tr/2 - root loses up to 3.6e-12 in mu
@example(seed=3705, m=2)
@example(seed=4240, m=2)
@example(seed=4434, m=2)
@example(seed=4932, m=2)
@example(seed=6850, m=2)
@example(seed=9527, m=2)
@example(seed=9688, m=2)
@example(seed=9913, m=2)
def test_batch_matches_pointwise(seed, m):
    # the 2x2 invariants against the frame's SVD and against the SVD of the
    # whitened df, one LAPACK call for the batch
    rng = np.random.default_rng(seed)
    samples = [_random_sample(rng, m) for _ in range(4)]
    df, g_m, g_n = (np.stack(col) for col in zip(*samples))
    lam_b, mu_b, tr, det = singular_value_invariants(np.linalg.inv(g_m), g_n, df)
    for k, s in enumerate(samples):
        fr = build_svd_frame(*s)
        assert abs(fr.lam - lam_b[k]) <= 1e-12
        assert abs(fr.mu - mu_b[k]) <= 1e-12
    lam_ref, mu_ref = reference_geometry.singular_values_batch(g_m, g_n, df)
    assert np.abs(lam_b - lam_ref).max() <= 1e-12
    assert np.abs(mu_b - mu_ref).max() <= 1e-12
    assert np.abs(tr - (lam_ref**2 + mu_ref**2)).max() <= 1e-12 * tr.max()
    assert np.abs(det - (lam_ref * mu_ref)**2).max() <= 1e-12 * tr.max() ** 2
    p = p_batch(lam_b, mu_b)
    assert p.shape == (4,)


def test_singular_values_of_isometry():
    lam, mu = _singular_values(np.eye(2), np.eye(2), np.eye(2))
    assert lam == pytest.approx(1.0)
    assert mu == pytest.approx(1.0)


def test_constant_map_frame():
    df = np.zeros((3, 2))
    fr = build_svd_frame(df, np.eye(3), np.eye(2))
    assert fr.lam == 0.0 and fr.mu == 0.0
    assert fr.p == pytest.approx(2.0)
    lam, mu, tr, det = singular_value_invariants(np.eye(3), np.eye(2), df)
    assert (lam, mu, tr, det) == (0.0, 0.0, 0.0, 0.0)


def _hopf_samples():
    # the hopf_pointwise scenario: d(Hopf) has lambda = mu = 2 in these charts
    n = 13
    eta = (np.arange(n) + 0.5) * (math.pi / 2) / n
    xi = np.arange(n) * 2 * math.pi / n
    x = np.stack(np.meshgrid(eta, xi, xi[:n // 2], indexing="ij"), axis=-1).reshape(-1, 3)
    df = np.array([[2.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    s3 = s3_hopf_chart()
    g_m_inv = s3.inverse_metric(x, s3.metric_many(x))
    return g_m_inv, round_sphere(2).metric_many(hopf_map(x.T).T), df


def test_conformal_singular_values_are_exact():
    g_m_inv, g_n, df = _hopf_samples()
    lam, mu, tr, det = singular_value_invariants(g_m_inv, g_n, df)
    assert lam.shape == (1014,)
    assert max(np.abs(lam - 2.0).max(), np.abs(mu - 2.0).max()) <= 1e-10
    # the naive discriminant (tr/2)^2 - det cancels to roundoff at lambda = mu,
    # and its square root turns that into an error of about sqrt(eps)
    naive = np.sqrt(tr / 2 + np.sqrt(np.maximum((tr / 2) ** 2 - det, 0.0)))
    assert np.abs(naive - 2.0).max() > 1e-10


def test_rank_one_differential():
    rng = np.random.default_rng(3)
    df, g_m, g_n = _random_sample(rng, 3)
    df[:, 1] = 0.0  # df maps into the first coordinate direction of N only
    lam, mu = _singular_values(g_m, g_n, df)
    fr = build_svd_frame(df, g_m, g_n)
    assert mu == 0.0 and lam > 0 and abs(lam - fr.lam) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_pd_inverse_matches_inv_and_refuses_what_cholesky_refuses(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((200, k, k))
    g = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(k)
    ginv = pd_inverse(g)
    assert np.abs(ginv @ g - np.eye(k)).max() <= 1e-11
    assert np.abs(ginv - np.linalg.inv(g)).max() <= 1e-11 * np.abs(ginv).max()
    diag = np.diag(rng.uniform(0.1, 3.0, k))
    assert np.array_equal(pd_inverse(diag), np.linalg.inv(diag))  # 1/a and 1/d exactly
    for bad in (np.nan, np.inf, -1.0, 0.0):
        h = g.copy()
        h[17, -1, -1] = bad
        assert pd_inverse(h) is None, bad
    # positive definite, but a Cholesky factorisation reads its Schur complement as 0
    assert pd_inverse(np.array([[3.0, 0.3], [0.3, 0.03]])) is None
