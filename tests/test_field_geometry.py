"""Batched graph geometry against the pointwise reference implementation.

``reference_geometry`` keeps the scalar frame and ``point_geometry`` that
the batched ``build_svd_frame`` and ``field_geometry`` replaced; both must
agree to 1e-12 at every node.
"""

import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphflow
import reference_geometry as ref
from graphflow.app import _identity_samples
from graphflow.classify import classify_limit
from graphflow.flow import PHI_WIDTH, EquivariantFlow, FlowParams, FlowState, h2_field, step
from graphflow.frames import build_svd_frame
from graphflow.geometry import WarpedSurface, builtin_warp, flat_torus, product_s1_s2
from graphflow.immersion import COLUMN_SOURCE, GraphMapField, field_geometry
from graphflow.verify import check_H_and_theta_inequalities, residual_p_evolution

TOL = 1e-12
FRAME_FIELDS = ("lam", "mu", "alpha", "beta", "e", "xi", "eta", "s_diag", "t11", "t22", "p")
GEOMETRY_FIELDS = ("a_xi", "a_eta", "h_xi", "h_eta", "a_sq", "h_sq")


def _tsui_field(nodes):
    # the column lift, and its full-width twin on the loop stencils
    eq = EquivariantFlow(nodes, lambda th: 0.8 * np.sin(th))
    return eq.expand_fields([eq.h])[0], ref.full_width_lift(eq, eq.h, ref.LoopStencilField)


def _with_loop_twin(field):
    return field, ref.LoopStencilField(field.M, field.N, field.shape, field.f)


def _torus_projection_field():
    m, n = flat_torus(3), flat_torus(2, scale=0.5)
    shape = (4, 4, 4)
    mesh = np.meshgrid(*[np.arange(k) * ax.length / k for k, ax in zip(shape, m.axes)],
                       indexing="ij")
    return _with_loop_twin(GraphMapField(m, n, shape, np.stack([mesh[0], mesh[1]], axis=-1)))


def _torus3_to_t2_field():
    # T^3 -> T^2(0.5) off the projection: an induced metric that is not diagonal
    m, n, shape = flat_torus(3), flat_torus(2, scale=0.5), (4, 4, 4)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    return GraphMapField(m, n, shape, x[..., :2] + 0.1 * np.stack(
        [np.sin(x[..., 2]), np.cos(x[..., 0])], axis=-1))


def _s1xs2_to_warped_field():
    # non-constant curvature on both sides: S^1 x S^2 -> cosh-warped cylinder
    m, n = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    shape = (6, 8, 8)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    f = np.stack([x[..., 0] + 0.3 * np.sin(x[..., 2]),
                  0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])], axis=-1)
    return _with_loop_twin(GraphMapField(m, n, shape, f))


FIELDS = {
    "tsui_32": lambda: _tsui_field(32),
    "tsui_64": lambda: _tsui_field(64),
    "torus_projection_4x4x4": _torus_projection_field,
    "s1xs2_to_warped_cylinder": _s1xs2_to_warped_field,
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_geometry_matches_pointwise_oracle(name):
    # the oracle reads df, d2f and the induced fields from a twin on the same values
    # whose stencils are the loop stencils: a field with wrong f derivatives fails here.
    # A tsui lift is one column, which stands for every column of its full-width twin
    field, twin = FIELDS[name]()
    geo = field_geometry(field)
    assert geo.h_sq.shape == field.shape
    for node in np.ndindex(twin.shape):
        want = ref.point_geometry(twin, node)
        got = geo[tuple(min(i, n - 1) for i, n in zip(node, field.shape))]
        for key in GEOMETRY_FIELDS:
            assert np.abs(getattr(got, key) - getattr(want, key)).max() <= TOL, (node, key)
        tangency = ref.tangency_residual(twin, got.frame.e, node)  # A on the batched frame
        assert abs(tangency - want.tangency_residual) <= TOL, node
        for key in FRAME_FIELDS:
            assert np.abs(getattr(got.frame, key) - getattr(want.frame, key)).max() <= TOL, \
                (node, key)


def _close(got, want) -> bool:
    """Within TOL of the size of ``want``, or of 1 for smaller values."""
    return bool(np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max()))


def _assert_exact_lift_derivatives(eq, h, lift, full):
    """A column's f derivatives: the theta parts bit for bit those of the full-width
    lift and of the profile's odd mirror stencil (the flow's own), the phi parts
    exactly d_phi f = (0, 1) and 0, and within 1e-13 of the full lift's, whose
    d_phi phi rounds its own way (1 +- 7e-16, and d2_phiphi phi up to 2.3e-14 at
    256 nodes)."""
    df, d2f = ref.df_field(lift)[:, 0], ref.d2f_field(lift)[:, 0]
    full_df, full_d2f = ref.df_field(full)[:, 0], ref.d2f_field(full)[:, 0]
    b = np.concatenate([-h[:1], h, -h[-1:]])  # h(-theta) = -h(theta), h(pi + s) = -h(pi - s)
    sign = np.where(lift.f[:, 0, 1] == 0, 1.0, -1.0)  # where the wrap mirrored h: -1
    assert np.array_equal(df[:, 0, 0], full_df[:, 0, 0]), "d_theta f^theta: full lift"
    assert np.array_equal(df[:, 0, 0], sign * eq.rhs(h)[1]), "d_theta f^theta: profile stencil"
    assert np.array_equal(d2f[:, 0, 0, 0], full_d2f[:, 0, 0, 0]), "d2 f^theta: full lift"
    assert np.array_equal(d2f[:, 0, 0, 0], sign * (b[2:] - 2 * h + b[:-2]) / eq.dtheta**2), \
        "d2 f^theta: profile stencil"
    # per node, df is (d_theta f^theta, d_theta f^phi, d_phi f^theta, d_phi f^phi) flat
    assert (df.reshape(-1, 4)[:, 1:] == [0.0, 0.0, 1.0]).all(), \
        "d_phi f = (0, 1), d_theta f^phi = 0: exact"
    assert not d2f.reshape(-1, 8)[:, 1:].any(), "the other second derivatives: exactly 0"
    assert np.abs(df - full_df).max() <= 1e-13, "d f: full lift"
    assert np.abs(d2f - full_d2f).max() <= 1e-13, "d2 f: full lift"


def _assert_lifts_match_full_width_lifts(nodes):
    eq = EquivariantFlow(nodes, lambda th: 0.8 * np.sin(th))
    run = eq.run(0.05, record_every=10)
    states = run.states[:3]
    assert states[0].t == 0 and len(states) == 3
    readers = {"p": GraphMapField.p_field, "h2": h2_field,
               "dg": ref.induced_dg_field,
               "induced_g_inv": ref.induced_g_inv_field}
    for state, lift in zip(states, eq.expand_fields([s.h for s in states])):
        full = ref.full_width_lift(eq, state.h)
        assert lift.shape == (nodes, 1) and lift.copies == PHI_WIDTH
        with pytest.raises(ValueError, match="lift the profile"):  # it would read d_phi f = 0
            lift.with_values(lift.f)
        assert np.array_equal(lift.f, full.f[:, :1]) and np.array_equal(lift.h, full.h)
        _assert_exact_lift_derivatives(eq, state.h, lift, full)
        for name, read in readers.items():
            assert read(lift).shape[1] == 1 and _close(read(lift), read(full)), name
        # each is read from a read-only column of the batch's values
        for value in (lift.p_field(), h2_field(lift), lift._dg_rows(), lift._pointwise().g_inv):
            assert not value.flags.writeable
        geo, want = field_geometry(lift), field_geometry(full)
        for key in GEOMETRY_FIELDS:
            assert _close(getattr(geo, key), getattr(want, key)), key
        for key in FRAME_FIELDS:
            assert _close(getattr(geo.frame, key), getattr(want.frame, key)), key
        assert _close(lift.volume(), full.volume())
        assert _close(geo.a_sq[lift.interior_mask()].max(), want.a_sq[full.interior_mask()].max())
        got_ev, want_ev = (classify_limit(fld, "Finished")["evidence"] for fld in (lift, full))
        for key in ("max_H", "max_A", "rank_estimate", "sigma_N_max_abs_on_image"):
            assert _close(got_ev[key], want_ev[key]), key
        for sv in ("lambda", "mu"):
            for key in ("mean", "std"):
                assert _close(got_ev[sv][key], want_ev[sv][key]), (sv, key)
    # the monitors on a column triple and on its full-width twin.  The residual is a
    # small difference of O(1) terms, which it can move by up to 1e-10 relative: it
    # is compared within TOL of those terms
    state = next(s for s in run.states if s.stencil)
    batched = eq.stencil_fields(state)
    full = batched[:3] + tuple(ref.full_width_lift(eq, h)
                               for h in (state.stencil[2], state.h, state.stencil[3]))
    (got,), (want,) = residual_p_evolution([batched]), residual_p_evolution([full])
    assert got["nodes"] == want["nodes"] == (nodes - 8) * PHI_WIDTH
    for key in ("l2", "linf"):
        assert _close(got[key], want[key]), key
    (got,), (want,) = (check_H_and_theta_inequalities([triple], eps1=0.0)["checkpoints"]
                       for triple in (batched, full))
    assert got["nodes"] == want["nodes"] > 0 and got["tol"] == want["tol"]
    for key in ("worst_slack_h", "worst_slack_theta", "worst_w_excess"):
        assert abs(got[key] - want[key]) <= TOL * abs(want[key]), key


@pytest.mark.parametrize("nodes", [32, 64])
def test_batched_lifts_match_full_width_lifts(nodes):
    # a batch evaluates its lifts' derived values once, one column per profile, and
    # each lift is its (J, 1) column; the full-width lift built from the same profile
    # evaluates all PHI_WIDTH columns on its own grid.  The column's f derivatives are
    # built from the profile: the theta parts bit for bit the full lift's, the phi
    # parts exact (see ``_assert_exact_lift_derivatives``).  Every other value agrees
    # with every column at every node, seam rows included, within TOL, and so do
    # max |A|^2, the classifier's evidence and both monitors' rows, nodes and tol included
    _assert_lifts_match_full_width_lifts(nodes)


@pytest.mark.parametrize("profile", [lambda th: -0.8 * np.sin(th),
                                     lambda th: 0.3 * np.sin(2 * th)],
                         ids=["negative", "crossing_zero"])
def test_lifts_of_profiles_the_wrap_mirrors_match_full_width_lifts(profile):
    # where h < 0, N.wrap stores (-h, phi + pi): the column's theta derivatives change
    # sign there, as the full lift's seam-aware stencils read them
    eq = EquivariantFlow(32, profile)
    lift, full = eq.expand_fields([eq.h])[0], ref.full_width_lift(eq, eq.h)
    assert (lift.f[:, 0, 1] == math.pi).sum() >= 15
    _assert_exact_lift_derivatives(eq, eq.h, lift, full)
    for read in (GraphMapField.p_field, h2_field, ref.induced_dg_field):
        assert _close(read(lift), read(full))
    geo, want = field_geometry(lift), field_geometry(full)
    for key in GEOMETRY_FIELDS:
        assert _close(getattr(geo, key), getattr(want, key)), key


def _even_ghosts(h, df, d2f, dtheta):
    # the profile stencil's ghosts mirrored evenly, h(-theta) = h(theta) and
    # h(pi + s) = h(pi - s): the seam rows read h_0 for -h_0 and h_{J-1} for -h_{J-1}.
    # The batch's f derivatives are rows over its (J, K) nodes: df[a, i], d2f[a, s]
    for row, inner, sign in ((0, 1, 1.0), (-1, -2, -1.0)):
        df[0, 0].reshape(h.shape)[row] = sign * (h[inner] - h[row]) / (2 * dtheta)
        d2f[0, 0].reshape(h.shape)[row] = (h[inner] - h[row]) / dtheta**2


def _phi_stretched(h, df, d2f, dtheta):
    # d_phi f^phi = 1 + 1e-6
    df[1, 1] += 1e-6


@pytest.mark.parametrize("defect, check", [
    (_even_ghosts, "d_theta f^theta: full lift"),
    (_phi_stretched, "d_phi f = (0, 1)"),
], ids=["even_ghosts", "phi_stretched"])
def test_lift_derivative_defects_fail_the_lift_checks(monkeypatch, defect, check):
    # each defect, written into the f derivatives of every lift batch, fails the
    # first check that reads it
    def expand(self, profiles):
        lifts = original(self, profiles)
        batch = lifts[0]._cache[COLUMN_SOURCE].args[0]
        defect(np.asarray(profiles).T, *batch._cache["_f_derivatives"], self.dtheta)
        return lifts
    original = EquivariantFlow.expand_fields
    monkeypatch.setattr(EquivariantFlow, "expand_fields", expand)
    with pytest.raises(AssertionError, match=re.escape(check)):
        _assert_lifts_match_full_width_lifts(32)


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
    frame = build_svd_frame(df, g_m, g_n)
    for k, (dfk, gmk, gnk) in enumerate(samples):
        want = ref.build_svd_frame(dfk, gmk, gnk)
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


# exactly degenerate m = 2 samples: with metrics k I the whitening only scales
# df, so the whitened differential keeps the exact structure drawn here
DEGENERATE = {
    "conformal": lambda x, y: [[x, -y], [y, x]],        # lam = mu > 0, a rotation
    "anticonformal": lambda x, y: [[x, y], [y, -x]],    # lam = mu > 0, a reflection
    "rank_one_row": lambda x, y: [[x, y], [0.0, 0.0]],  # mu = 0, kernel a chart axis of M
    "rank_one_col": lambda x, y: [[x, 0.0], [y, 0.0]],  # mu = 0, image a chart axis of N
    "zero": lambda x, y: [[0.0, 0.0], [0.0, 0.0]],      # lam = mu = 0
}


def _tangency(frame, df, g_m, g_n):
    """max |<(e_i, df^T e_i), nu>| over the normals nu = xi, eta in the product metric."""
    gp = np.zeros((4, 4))
    gp[:2, :2], gp[2:, 2:] = g_m, g_n
    dfe = np.concatenate([frame.e, frame.e @ df], axis=-1)
    return np.abs(dfe @ gp @ np.stack([frame.xi, frame.eta], axis=-1)).max()


@pytest.mark.parametrize("kind", sorted(DEGENERATE))
def test_batched_frame_on_exactly_degenerate_samples(kind):
    rng = np.random.default_rng(sorted(DEGENERATE).index(kind))
    samples = [(np.array(DEGENERATE[kind](*rng.standard_normal(2))),
                rng.uniform(0.5, 3.0) * np.eye(2), rng.uniform(0.5, 3.0) * np.eye(2))
               for _ in range(8)]
    df, g_m, g_n = (np.array(col) for col in zip(*samples))
    frame = build_svd_frame(df, g_m, g_n)
    if kind.startswith("rank_one"):
        assert (frame.mu == 0.0).all()
    else:
        assert np.array_equal(frame.lam, frame.mu)
    for k, (dfk, gmk, gnk) in enumerate(samples):
        want = ref.build_svd_frame(dfk, gmk, gnk)
        got = ref.SVDFrame(**{key: getattr(frame, key)[k] for key in FRAME_FIELDS})
        for key in ("lam", "mu", "p", "s_diag", "t11", "t22"):
            assert np.abs(getattr(got, key) - getattr(want, key)).max() <= TOL, (k, key)
        assert np.abs(got.beta @ gnk @ got.beta.T - np.eye(2)).max() <= TOL, k
        assert abs(_tangency(got, dfk, gmk, gnk) - _tangency(want, dfk, gmk, gnk)) <= TOL, k
        if kind.startswith("rank_one"):
            keys = ("alpha", "beta", "e", "xi", "eta")
        else:
            # lam = mu: any g_M-orthonormal basis is singular, and arctan2 picks
            # another than the SVD; compare the span (the g_M-orthogonal projector)
            keys = ()
            for key in ("alpha", "e"):
                g, w = getattr(got, key), getattr(want, key)
                assert np.abs((g.T @ g - w.T @ w) @ gmk).max() <= TOL, (k, key)
        for key in keys:
            assert np.abs(getattr(got, key) - getattr(want, key)).max() <= TOL, (k, key)


def _refuse_lapack(monkeypatch, what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"LAPACK called on {what}")

    for name in ("svd", "solve", "inv", "cholesky", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)


def test_tsui_lift_calls_no_lapack(monkeypatch):
    # every matrix of an m = 2 lift is 2 x 2, and all of them have closed forms
    field, _ = _tsui_field(32)
    _refuse_lapack(monkeypatch, "a tsui lift")
    geo = field_geometry(field)
    assert np.isfinite(geo.a_sq).all() and np.isfinite(geo.frame.p).all()
    assert np.isfinite(field.p_field()).all() and np.isfinite(h2_field(field)).all()


@pytest.mark.parametrize("make", [lambda: _s1xs2_to_warped_field()[0],
                                  lambda: _torus3_to_t2_field()],
                         ids=["s1xs2_to_warped_cylinder", "t3_to_t2"])
def test_grid_steps_call_no_lapack(monkeypatch, make):
    # an m = 3 grid step: the induced metric's inverse, sqrt(det g) and the step bound's
    # max eigenvalue of g^{-1} are closed forms on rows; on T^3 g is not diagonal
    field = make()
    _refuse_lapack(monkeypatch, "an m = 3 grid step")
    state = FlowState(field=field, min_p=field.min_p())
    for _ in range(5):
        state = step(state, FlowParams(t_end=1.0))
    assert state.status == "Running" and state.step_count == 5
    assert np.isfinite(h2_field(state.field)).all()


def test_m3_frames_call_no_lapack(monkeypatch):
    # the 4^3 T^3 field and a batch of the identity suite's m = 3 samples: the m > 2
    # frame and the 3 x 3 metrics of a grid field have closed forms too
    field, _ = _torus_projection_field()
    g_m, g_n, df, *_ = _identity_samples(500, 0)[3]
    _refuse_lapack(monkeypatch, "an m = 3 frame")
    geo = field_geometry(field)
    assert np.isfinite(geo.a_sq).all() and np.isfinite(geo.frame.p).all()
    frame = build_svd_frame(df, g_m, g_n)
    assert frame.alpha.shape == (len(df), 3, 3) and np.isfinite(frame.alpha).all()
    assert (frame.mu > 0).all()


def _s1xs2_triple():
    """A checkpoint of ``_s1xs2_to_warped_field``'s map on (6, 12, 8), whose 12 theta nodes
    leave 4 interior ones: (t, dt_prev, dt_next, f_prev, f_now, f_next) of two RK2 steps."""
    m, n = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    x = GraphMapField(m, n, (6, 12, 8), np.zeros((6, 12, 8, 2))).coords()
    states = [FlowState(field=GraphMapField(m, n, (6, 12, 8), np.stack(
        [x[..., 0] + 0.3 * np.sin(x[..., 2]),
         0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])], axis=-1)))]
    for _ in range(2):
        states.append(step(states[-1], FlowParams(t_end=1.0)))
    s0, s1, s2 = states
    return (s1.t, s1.t - s0.t, s2.t - s1.t, s0.field, s1.field, s2.field)


def test_monitors_call_no_lapack(monkeypatch):
    # an m = 3 checkpoint's residual and inequalities, and the classifier: the frame, A and
    # the monitors' contractions have closed forms on rows
    triple = _s1xs2_triple()
    _refuse_lapack(monkeypatch, "the monitors of an m = 3 grid")
    (row,) = residual_p_evolution([triple])
    (cp,) = check_H_and_theta_inequalities([triple], eps1=1.0)["checkpoints"]
    assert row["nodes"] > 0 and math.isfinite(row["l2"]) and cp["nodes"] > 0
    assert classify_limit(triple[4], "Finished")["class"] == "NotMinimal"


# the functions of ``src/graphflow`` that may call a BLAS routine: the identity suite's
# oracle and the barrier certificate's generalised eigenvalues
BLAS_ALLOWED = {"app.py": {"_identity_samples", "run_identities"},
                "frames.py": {"generalized_eigvalsh"}}
BLAS_PRODUCTS = {"matmul", "vecdot", "dot", "inner", "tensordot"}


def _blas_calls(source: str) -> list:
    """(enclosing functions, line, what) of each contraction that numpy may hand to BLAS:
    ``@``, a call of one of BLAS_PRODUCTS (``np.dot`` or ``a.dot``) and an ``einsum`` with
    ``optimize``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_PRODUCTS or (
                    name == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
                what = name
        if what:
            found.append((scope, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def test_no_blas_call_outside_the_allowed_functions():
    # the step, the monitors, the classifier and the curvature terms contract by
    # elementwise products and np.add.reduce (or a plain einsum), so no BLAS kernel
    # decides their bits; each allowed function does hold such a call
    probe = ("def f(a, b):\n    a @= b\n    return np.einsum('ij,j', a, b, optimize=True), "
             "np.vecdot(a, b), a.dot(b), np.einsum('ij,j', a, b)\n")
    assert [what for _, _, what in _blas_calls(probe)] == ["@", "einsum", "vecdot", "dot"]
    src = pathlib.Path(graphflow.__file__).parent
    for path in sorted(src.glob("*.py")):
        calls, allowed = _blas_calls(path.read_text()), BLAS_ALLOWED.get(path.name, set())
        assert [c for c in calls if not allowed & set(c[0])] == [], path.name
        assert allowed <= {name for scope, _, _ in calls for name in scope}, path.name
