"""Batched graph geometry against the pointwise reference implementation.

``reference_geometry`` keeps the scalar frame and ``point_geometry`` that
the batched ``build_svd_frame`` and ``field_geometry`` replaced; both must
agree to 1e-12 at every node.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_geometry as ref
from graphflow.flow import EquivariantFlow
from graphflow.frames import DifferentialSample, build_svd_frame
from graphflow.geometry import WarpedSurface, builtin_warp, flat_torus, product_s1_s2
from graphflow.immersion import GraphMapField, field_geometry, point_geometry

TOL = 1e-12
FRAME_FIELDS = ("lam", "mu", "alpha", "beta", "e", "xi", "eta", "s_diag", "sperp_diag",
                "t11", "t22", "p")
GEOMETRY_FIELDS = ("g", "g_inv", "a_xi", "a_eta", "h_xi", "h_eta", "a_sq", "h_sq",
                   "tangency_residual", "a_vectors")


def _tsui_field(nodes):
    eq = EquivariantFlow(nodes, lambda th: 0.8 * np.sin(th))
    return eq.expand_field(eq.h, n_phi=8)


def _torus_projection_field():
    m, n = flat_torus(3), flat_torus(2, scale=0.5)
    shape = (4, 4, 4)
    mesh = np.meshgrid(*[np.arange(k) * ax.length / k for k, ax in zip(shape, m.axes)],
                       indexing="ij")
    return GraphMapField(m, n, shape, np.stack([mesh[0], mesh[1]], axis=-1))


def _s1xs2_to_warped_field():
    # non-constant curvature on both sides: S^1 x S^2 -> cosh-warped cylinder
    m, n = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    shape = (6, 8, 8)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    f = np.stack([x[..., 0] + 0.3 * np.sin(x[..., 2]),
                  0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])], axis=-1)
    return GraphMapField(m, n, shape, f)


FIELDS = {
    "tsui_32": lambda: _tsui_field(32),
    "tsui_64": lambda: _tsui_field(64),
    "torus_projection_4x4x4": _torus_projection_field,
    "s1xs2_to_warped_cylinder": _s1xs2_to_warped_field,
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_geometry_matches_pointwise_oracle(name):
    field = FIELDS[name]()
    geo = field_geometry(field)
    assert geo.h_sq.shape == field.shape
    for node in np.ndindex(field.shape):
        want = ref.point_geometry(field, node)
        got = point_geometry(field, node)
        for key in GEOMETRY_FIELDS:
            assert np.abs(getattr(got, key) - getattr(want, key)).max() <= TOL, (node, key)
        for key in FRAME_FIELDS:
            assert np.abs(getattr(got.frame, key) - getattr(want.frame, key)).max() <= TOL, \
                (node, key)


@st.composite
def _samples(draw):
    """A batch of one dimension m with full-rank, rank-1 and rank-0 differentials."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    m = draw(st.integers(2, 5))
    out = []
    for rank in draw(st.lists(st.sampled_from((0, 1, 1, 2)), min_size=1, max_size=12)):
        a = rng.standard_normal((m, m))
        b = rng.standard_normal((2, 2))
        df = rng.standard_normal((m, 2)) * rng.uniform(0.0, 1.5)
        if rank == 0:
            df[:] = 0.0
        elif rank == 1:
            df = np.outer(rng.standard_normal(m), rng.standard_normal(2))
        out.append((df, a @ a.T + m * np.eye(m), b @ b.T + 2 * np.eye(2)))
    return m, out


@settings(max_examples=60, deadline=None)
@given(batch=_samples())
def test_batched_frame_matches_pointwise_oracle(batch):
    m, samples = batch
    df, g_m, g_n = (np.array(col) for col in zip(*samples))
    frame = build_svd_frame(DifferentialSample(df=df, g_m=g_m, g_n=g_n))
    for k, (dfk, gmk, gnk) in enumerate(samples):
        want = ref.build_svd_frame(DifferentialSample(df=dfk, g_m=gmk, g_n=gnk))
        null_noise = m > 2 and want.mu <= 1e-13 and np.any(dfk)
        for key in FRAME_FIELDS:
            got, exp = getattr(frame, key)[k], getattr(want, key)
            if null_noise and key in ("alpha", "e"):
                # rank 1 with dim M > 2: rows 1.. span the kernel of df, whose
                # basis the SVD picks from rounding noise; compare the span
                # (the g_M-orthogonal projector) and the first row
                assert np.abs(got[0] - exp[0]).max() <= TOL
                proj = (got[1:].T @ got[1:] - exp[1:].T @ exp[1:]) @ gmk
                assert np.abs(proj).max() <= TOL
                continue
            assert np.abs(got - exp).max() <= TOL, (k, key)
