"""Singular values and adapted frames: property-based checks, and the m = 2
frame on component arrays against the stacked construction it replaced."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_geometry
from graphflow.flow import EquivariantFlow
from graphflow.frames import (SVDFrame, build_svd_frame, max_eigenvalue, p_batch, pd_inverse,
                              singular_value_invariants, sym_inverse_and_det, sym_rows)
from graphflow.geometry import hopf_map, round_sphere, s3_hopf_chart

FRAME_FIELDS = [f.name for f in fields(SVDFrame)]
EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("cond", [1e1, 1e2, 1e4, 1e6, 1e8])
def test_closed_form_3x3_inverse_and_det_against_lapack(cond):
    # the L D L^T branch on SPD matrices with eigenvalues (1, cond^-1/2, cond^-1),
    # rotated at random and scaled: inverse and determinant within 4 eps cond of
    # inv and det, relative (about 0.5 eps cond is what it reads)
    rng = np.random.default_rng(int(math.log10(cond)))
    q, _ = np.linalg.qr(rng.standard_normal((500, 3, 3)))
    ev = np.array([1.0, cond**-0.5, 1.0 / cond]) * rng.uniform(0.5, 2.0, (500, 1))
    g = (q * ev[:, None, :]) @ np.swapaxes(q, -1, -2)
    g = (g + np.swapaxes(g, -1, -2)) / 2
    ginv, (_, det) = pd_inverse(g), sym_inverse_and_det(sym_rows(g))
    want = np.linalg.inv(g)
    scale = np.abs(want).max(axis=(-2, -1))
    assert (np.abs(ginv - want).max(axis=(-2, -1)) <= 4 * EPS * cond * scale).all()
    assert np.array_equal(ginv, np.swapaxes(ginv, -1, -2))
    want_det = np.linalg.det(g)
    assert (np.abs(det - want_det) <= 4 * EPS * cond * want_det).all()


def _ladder(k, cond):
    """500 SPD k x k matrices with eigenvalues (1, cond^-1/2, cond^-1) (k = 3) or (1, cond^-1)
    (k = 2), rotated at random and scaled."""
    rng = np.random.default_rng(int(math.log10(cond)) + 10 * k)
    q, _ = np.linalg.qr(rng.standard_normal((500, k, k)))
    ev = np.array([1.0, cond**-0.5, 1.0 / cond][3 - k:]) * rng.uniform(0.5, 2.0, (500, 1))
    g = (q * ev[:, None, :]) @ np.swapaxes(q, -1, -2)
    return (g + np.swapaxes(g, -1, -2)) / 2


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("cond", [1e1, 1e2, 1e4, 1e6, 1e8])
def test_closed_form_max_eigenvalue_against_lapack(k, cond):
    # cfl_dt's Lambda = lambda_max(g^{-1}) = 1 / lambda_min(g), from the closed-form inverse:
    # within 4 eps cond of eigvalsh's lambda_min, relative (it reads about 1.5 eps cond),
    # and lambda_max of g itself within 8 eps (about 5).  The trigonometric form's least root
    # of g would not do: it reads 5e-5 relative at cond 1e8, where the two least eigenvalues
    # are close against the spread
    g = _ladder(k, cond)
    lam_min = 1.0 / max_eigenvalue(sym_inverse_and_det(sym_rows(g))[0])
    want = np.linalg.eigvalsh(g)
    assert (np.abs(lam_min - want[:, 0]) <= 4 * EPS * cond * want[:, 0]).all()
    assert (np.abs(max_eigenvalue(sym_rows(g)) - want[:, -1]) <= 8 * EPS * want[:, -1]).all()


@pytest.mark.parametrize("k", [2, 3])
def test_closed_form_max_eigenvalue_is_exact_on_diagonal_metrics(k):
    # a diagonal g (the torus projection's induced metric), c I (the trigonometric form's
    # 0/0) and a batch that mixes them with a full metric, whose rows take the closed form
    rng = np.random.default_rng(k)
    diag = np.zeros((50, k, k))
    diag[:, range(k), range(k)] = rng.uniform(0.1, 3.0, (50, k))
    scalar = 0.7 * np.broadcast_to(np.eye(k), (50, k, k))
    full = _ladder(k, 1e2)[:50]
    for g in (diag, scalar, np.concatenate([diag, scalar, full])):
        got, n = max_eigenvalue(sym_rows(g)), min(len(g), 100)  # the first n are diagonal
        assert np.array_equal(got[:n], np.diagonal(g[:n], axis1=-2, axis2=-1).max(axis=-1))
    want = np.linalg.eigvalsh(full)[:, -1]
    assert (np.abs(got[100:] - want) <= 8 * EPS * want).all()
    # the step bound of a diagonal g: 1 / min g_ii, the bits of 1 / eigvalsh's lambda_min
    inv = sym_inverse_and_det(sym_rows(diag))[0]
    want = 1.0 / np.linalg.eigvalsh(diag)[:, 0]
    assert np.array_equal(max_eigenvalue(inv), want)
    assert np.array_equal(want, 1.0 / np.min(np.diagonal(diag, axis1=-2, axis2=-1), axis=-1))
    assert np.array_equal(max_eigenvalue(sym_rows(scalar)), np.full(50, 0.7))


def _cholesky_refuses(g):
    """True where ``cholesky`` raises or, as it does on NaN input, returns non-finite."""
    try:
        return not np.isfinite(np.linalg.cholesky(g)).all()
    except np.linalg.LinAlgError:
        return True


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "indefinite", "last_pivot_rounds_to_0"])
def test_closed_form_3x3_refuses_what_cholesky_refuses(bad):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 3, 3))
    g = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3)
    assert pd_inverse(g) is not None and not _cholesky_refuses(g)
    if bad == "last_pivot_rounds_to_0":
        # L D L^T in decimals, with L unit lower triangular (l10 = l20 = 0.3,
        # l21 = 0) and D = 1 + ((3, 0.3), (0.3, 0.03)), the 2 x 2 case of the test
        # above: singular in decimals, while in binary eigvalsh reads its least
        # eigenvalue as a roundoff-positive 5.1e-16 and both factorisations read
        # the last pivot as <= 0
        h = np.array([[1.0, 0.3, 0.3], [0.3, 3.09, 0.39], [0.3, 0.39, 0.12]])
    else:
        h = g.copy()
        h[17, 1, 2] = h[17, 2, 1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                                     "indefinite": 50.0}[bad]
    assert _cholesky_refuses(h)
    assert pd_inverse(h) is None and sym_inverse_and_det(sym_rows(h)) is None


# -- the m = 2 frame on component arrays against the stacked oracle ------------


def _frames(df, g_m, g_n):
    return build_svd_frame(df, g_m, g_n), reference_geometry.stacked_svd_frame(df, g_m, g_n)


def _ulps(got, want, scale):
    """max |got - want| in units of eps * scale, scale broadcast against want."""
    return float((np.abs(got - want) / (EPS * scale)).max())


@pytest.mark.parametrize("nodes", [32, 256])
def test_m2_frame_matches_the_stacked_oracle_on_tsui_lifts(nodes):
    # a lift as a run reads it, one column of 32 or 256 nodes, and its full-width
    # twin of 256 or 2,048 nodes, whose columns round d_phi phi each their own way
    eq = EquivariantFlow(nodes, lambda th: 0.8 * np.sin(th))
    run = eq.run(0.05, record_every=10)
    for h in (run.states[0].h, run.states[-1].h):
        for fld in (eq.expand_field(h), reference_geometry.full_width_lift(eq, h)):
            new, old = _frames(fld.df_field(), fld.g_m_field(), fld.g_n_field())
            for name in FRAME_FIELDS:
                got, want = getattr(new, name), getattr(old, name)
                assert got.shape == want.shape, name
                if name in ("beta", "eta"):
                    # the one exception: entries of size ~1e-15, sums of two nonzero
                    # products that the oracle's matmuls fuse, differ in their last bits
                    tiny = np.abs(want) < 1e-13
                    assert np.array_equal(got[~tiny], want[~tiny]), name
                    assert np.abs(got - want).max() <= 1e-28, name
                else:
                    assert np.array_equal(got, want), name


def _diagonal_metrics(rng, n):
    return tuple(np.eye(2) * rng.uniform(0.2, 3.0, (n, 1, 2)) for _ in range(2))


def _differentials(rng, n):
    """df batches of each kind: zero, rank one along a chart axis or not, a tiny mu,
    conformal, anticonformal and general."""
    s, z = rng.uniform(0.1, 2.0, n), np.zeros(n)
    th = rng.uniform(0.0, 2 * math.pi, n)
    rot = np.stack([np.stack([np.cos(th), -np.sin(th)], -1),
                    np.stack([np.sin(th), np.cos(th)], -1)], -2) * s[:, None, None]

    def mat(a, b, c, d):
        return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)

    return {
        "zero": np.zeros((n, 2, 2)),
        "rank_one_axis": mat(s, z, z, z),
        "rank_one_cross": mat(z, s, z, z),
        "tiny_mu": mat(s, z, z, 1e-15 * s),
        "rank_one": rng.standard_normal((n, 2, 1)) * rng.standard_normal((n, 1, 2)),
        "conformal": rot,
        "anticonformal": rot * np.array([1.0, -1.0]),
        "general": rng.standard_normal((n, 2, 2)),
    }


def test_m2_frame_matches_the_stacked_oracle_with_diagonal_metrics():
    # every chart metric of the package is diagonal: then only the two-product
    # sums of df^T alpha and of beta's quadratic forms can tell the component form
    # from the oracle's fused matmuls, and only where df has no zero to cancel one
    rng = np.random.default_rng(11)
    g_m, g_n = _diagonal_metrics(rng, 400)
    for kind, df in _differentials(rng, 400).items():
        new, old = _frames(df, g_m, g_n)
        if kind in ("zero", "rank_one_axis", "rank_one_cross", "tiny_mu"):
            assert (old.mu <= 1e-13).all(), kind        # the chart-axis beta branch
        for name in FRAME_FIELDS:
            got, want = getattr(new, name), getattr(old, name)
            if name in ("beta", "xi", "eta") and kind in ("rank_one", "conformal",
                                                           "anticonformal", "general"):
                assert _ulps(got, want, np.abs(want).max(axis=-1, keepdims=True)) <= 4, (kind,
                                                                                         name)
            else:
                assert np.array_equal(got, want), (kind, name)


def test_m2_frame_stays_within_a_few_ulps_of_the_stacked_oracle_on_any_metrics():
    # general metrics give every sum two nonzero products: each field differs from
    # the oracle by a few ulps of its scale (mu, and S, T and p through it, of
    # lambda's: |Q - R| cancels where mu << lambda)
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 400, 2, 2))
    g_m = a @ np.swapaxes(a, -1, -2) + 2 * np.eye(2)
    g_n = b @ np.swapaxes(b, -1, -2) + 2 * np.eye(2)
    for kind, df in _differentials(rng, 400).items():
        new, old = _frames(df, g_m, g_n)
        scale = np.maximum(old.lam, 1.0)
        for name in FRAME_FIELDS:
            got, want = getattr(new, name), getattr(old, name)
            row = np.abs(want).max(axis=-1, keepdims=True) if want.ndim > 1 else scale
            assert _ulps(got, want, row) <= 32, (kind, name)


# -- the m > 2 frame on component arrays against the LAPACK oracle -------------


def _metrics(rng, n, k):
    a = rng.standard_normal((n, k, k))
    return a @ np.swapaxes(a, -1, -2) + k * np.eye(k)


def _complement_projector(alpha, g_m):
    """The g_M-orthogonal projector onto the span of the rows alpha_3.. (..., m, m)."""
    rest = alpha[..., 2:, :]
    return np.swapaxes(rest, -1, -2) @ rest @ g_m


@pytest.mark.parametrize("m", [3, 4, 5])
def test_frame_matches_the_lapack_oracle(m):
    # random batches, where df has rank 2: the scalars within 1e-13 of lambda's scale
    # and the vectors within 1e-12 of the oracle's; for m > 3 the SVD completes
    # alpha_1, alpha_2 to a basis its own way, so the span of alpha_3.. is compared
    rng = np.random.default_rng(m)
    df = rng.standard_normal((500, m, 2)) * rng.uniform(0.05, 2.0, (500, 1, 1))
    g_m, g_n = _metrics(rng, 500, m), _metrics(rng, 500, 2)
    new, old = _frames(df, g_m, g_n)
    assert (old.mu > 1e-3).all()
    scale = np.maximum(old.lam, 1.0)
    for name in ("lam", "mu", "p", "t11", "t22"):
        assert (np.abs(getattr(new, name) - getattr(old, name)) <= 1e-13 * scale).all(), name
    assert (np.abs(new.s_diag - old.s_diag) <= 1e-13 * scale[:, None]).all()
    for name in ("alpha", "e"):
        got, want = getattr(new, name), getattr(old, name)
        rows = 3 if m == 3 else 2
        assert np.abs(got[:, :rows] - want[:, :rows]).max() <= 1e-12, name
    for name in ("beta", "xi", "eta"):
        assert np.abs(getattr(new, name) - getattr(old, name)).max() <= 1e-12, name
    assert np.abs(_complement_projector(new.alpha, g_m)
                  - _complement_projector(old.alpha, g_m)).max() <= 1e-12


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("kind", ["conformal", "rank_one", "zero"])
def test_frame_keeps_the_chart_axes_of_an_axis_aligned_differential(m, kind):
    # df along the chart axes and metrics k I, as in the torus projection: the frame
    # is LAPACK's natural one, up to rounding, also where lam = mu and the singular
    # vectors are not unique; a zero singular value is exactly 0
    rng = np.random.default_rng(m)
    df = np.zeros((20, m, 2))
    scale = rng.uniform(0.2, 2.0, 20)
    if kind != "zero":
        df[:, 0, 0] = scale
    if kind == "conformal":
        df[:, 1, 1] = scale
    g_m = np.eye(m) * rng.uniform(0.5, 3.0, (20, 1, 1))
    g_n = np.eye(2) * rng.uniform(0.5, 3.0, (20, 1, 1))
    new, old = _frames(df, g_m, g_n)
    if kind == "conformal":
        assert np.array_equal(new.lam, new.mu)
    else:
        assert (new.mu == 0.0).all() and ((new.lam == 0.0) == (kind == "zero")).all()
    for name in FRAME_FIELDS:
        assert np.abs(getattr(new, name) - getattr(old, name)).max() <= 1e-12, name
