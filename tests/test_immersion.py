"""Discrete graph maps: derivatives, induced metric, pointwise geometry."""

import math
from dataclasses import fields

import numpy as np
import pytest

import reference_geometry as ref
from graphflow.errors import ConfigurationError, DomainError, SolverAbort
from graphflow.flow import EquivariantFlow, FlowParams, cfl_dt, h2_field, nonparametric_rhs
from graphflow.geometry import (WARP_Z_MAX, WarpedSurface, builtin_warp, flat_torus, product,
                                product_s1_s2, round_sphere)
from graphflow.immersion import COLUMN_SOURCE, FieldRows, GraphMapField, field_geometry, w_norm_sq


def _torus_field(n=32, scale=0.5, perturb=0.0):
    m = flat_torus(2)
    target = flat_torus(2, scale=scale)
    xs = np.arange(n) * 2 * math.pi / n
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    f = np.stack([xg, yg], axis=-1)
    if perturb:
        f = f + perturb * np.stack([np.sin(yg), np.cos(xg)], axis=-1)
    return GraphMapField(m, target, (n, n), f)


def _constant_sphere_field(n=24):
    m = round_sphere(2)
    target = round_sphere(2)
    f = np.empty((n, n, 2))
    f[..., 0] = 1.0
    f[..., 1] = 2.0
    return GraphMapField(m, target, (n, n), f)


# -- construction ------------------------------------------------------------


def test_shape_validation():
    m = flat_torus(2)
    with pytest.raises(ConfigurationError, match=r"grid shape \(8,\) must match dim M = 2"):
        GraphMapField(m, flat_torus(2), (8,), np.zeros((8, 2)))
    with pytest.raises(ConfigurationError):
        GraphMapField(m, flat_torus(2), (8, 8), np.zeros((8, 7, 2)))


@pytest.mark.parametrize("shape", [(8, 2), (8, 1)])
def test_periodic_axis_needs_three_nodes(shape):
    # on 2 nodes both centred-difference neighbours of a node are the other
    # node, so every derivative along that axis would be 0
    m = flat_torus(2)
    xg, yg = np.meshgrid(*[np.arange(n) * 2 * math.pi / n for n in shape], indexing="ij")
    with pytest.raises(ConfigurationError, match="periodic grid axis 1 has"):
        GraphMapField(m, flat_torus(2), shape, np.stack([xg, yg], axis=-1))
    GraphMapField(m, flat_torus(2), (8, 3), np.zeros((8, 3, 2)))  # 3 nodes are enough


def test_noncompact_axis_rejected():
    from graphflow.geometry import WarpedSurface, builtin_warp
    cyl = WarpedSurface(builtin_warp("cosh"))  # z axis is neither periodic nor reflect
    with pytest.raises(ConfigurationError):
        GraphMapField(cyl, flat_torus(2), (8, 8), np.zeros((8, 8, 2)))


def test_nested_polar_chart_refused_on_a_grid():
    # S^3's outer polar angle has no seam a grid could mirror across
    with pytest.raises(ConfigurationError,
                       match="grid axis 0 of round_sphere_3 must be periodic or reflect"):
        GraphMapField(round_sphere(3), flat_torus(2), (8, 8, 8), np.zeros((8, 8, 8, 2)))
    # each factor of S^2 x S^2 folds across its own theta
    shape = (8, 4, 8, 4)
    GraphMapField(product(round_sphere(2), round_sphere(2)), flat_torus(2), shape,
                  np.zeros(shape + (2,)))


@pytest.mark.parametrize("z", [WARP_Z_MAX + 0.5, -WARP_Z_MAX - 0.5])
def test_target_past_a_bounded_axis_raises_when_the_field_is_built(z):
    cyl = WarpedSurface(builtin_warp("cosh"))
    f = np.zeros((4, 4, 2))
    f[1, 2, 1] = z
    with pytest.raises(DomainError, match="outside axis 1"):
        GraphMapField(flat_torus(2), cyl, (4, 4), f)
    field = GraphMapField(flat_torus(2), cyl, (4, 4), np.zeros((4, 4, 2)))
    with pytest.raises(DomainError, match="outside axis 1"):
        field.with_values(f)


def test_axis_coords_offset_on_reflect():
    f = _constant_sphere_field(8)
    th = f.axis_coords(0)
    assert th[0] == pytest.approx(0.5 * math.pi / 8)  # offset nodes avoid the pole
    ph = f.axis_coords(1)
    assert ph[0] == 0.0


# -- derivative stencils -----------------------------------------------------


def test_identity_map_derivatives():
    f = _torus_field(16)
    df = ref.df_field(f)
    assert np.abs(df - np.eye(2)).max() < 1e-12
    assert np.abs(ref.d2f_field(f)).max() < 1e-12


def test_smooth_map_derivative_accuracy():
    errs = []
    for n in (32, 64):
        f = _torus_field(n, perturb=0.3)
        xs = f.coords()
        exact = np.empty(f.shape + (2, 2))
        exact[..., 0, 0] = 1.0
        exact[..., 0, 1] = -0.3 * np.sin(xs[..., 0])
        exact[..., 1, 0] = 0.3 * np.cos(xs[..., 1])
        exact[..., 1, 1] = 1.0
        errs.append(np.abs(ref.df_field(f) - exact).max())
    assert 3.0 < errs[0] / errs[1] < 5.0  # second-order stencils


def test_laplace_beltrami_flat():
    # on a flat M with a constant induced metric, Gamma_M = Gamma_g = 0: the g-trace
    # of the Hessian in M's connection is the Laplace-Beltrami operator
    n = 64
    f = _torus_field(n)
    u = np.sin(f.coords()[..., 0]) * np.sin(f.coords()[..., 1])
    lap = f._laplace_and_gradient(u[..., None])[0][0]
    # induced metric of the identity into the half-scale torus is (1 + 1/4) I
    assert np.abs(lap + 2.0 / 1.25 * u).max() < 5e-3


def test_grad_norm_sq_flat():
    n = 64
    f = _torus_field(n)
    x = f.coords()[..., 0]
    u = np.sin(x)
    expect = np.cos(x) ** 2 / 1.25
    du = f._grid_array(f._laplace_and_gradient(u[..., None])[1][0])
    assert np.abs(ref.quad_form(du, ref.induced_g_inv_field(f), du) - expect).max() < 5e-3


# -- induced metric, singular values, p --------------------------------------


def test_identity_map_singular_values():
    f = _torus_field(16, scale=0.5)
    lam, mu = f.singular_value_fields()
    assert np.abs(lam - 0.5).max() < 1e-12
    assert np.abs(mu - 0.5).max() < 1e-12
    # p = 2 (1 - 1/16) / (5/4)^2 = 1.2
    assert abs(f.min_p() - 1.2) < 1e-12


def test_volume_of_identity_graph():
    f = _torus_field(16, scale=0.5)
    # det(g) = (5/4)^2 over the (2 pi)^2 torus
    assert f.volume() == pytest.approx(1.25 * (2 * math.pi) ** 2)


def _s1xs2_to_cosh_start():
    m, n, shape = product_s1_s2(), WarpedSurface(builtin_warp("cosh")), (4, 4, 4)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    first = GraphMapField(m, n, shape, np.stack([x[..., 0], np.full(shape, 0.5)], axis=-1))
    # the azimuth crosses its seam at some nodes, so the periodic folds run
    values = np.stack([x[..., 0] + 0.4 * np.sin(x[..., 2]),
                       0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])], axis=-1)
    return first, values


def _tsui_lift_start():
    # N is the round sphere: values pushed past its poles fold across the
    # polar seam, shifting the azimuth; the values depend on phi, so the first
    # field is a full-width lift, not the column that expand_field gives
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    first = ref.full_width_lift(eq, eq.h)
    x = first.coords()
    values = first.f + np.stack([0.3 * np.cos(x[..., 0]), 0.1 * np.sin(x[..., 1])], axis=-1)
    values[:2, :, 0] += math.pi - 0.05  # past the other pole at some nodes
    assert (values[..., 0] < 0).any() and (values[..., 0] > math.pi).any()
    return first, values


@pytest.mark.parametrize("start", [_s1xs2_to_cosh_start, _tsui_lift_start])
def test_with_values_matches_a_fresh_field(start):
    # with_values reuses the grid that the first field validated; a field made
    # that way must be bit for bit the field that the constructor makes
    first, values = start()
    first.p_field(), ref.induced_g_inv_field(first)  # the first field has its fields cached
    light = first.with_values(values)
    fresh = GraphMapField(first.M, first.N, first.shape, values)
    readers = {
        "f": lambda fld: fld.f, "df": ref.df_field, "d2f": ref.d2f_field,
        "g_n": ref.g_n_field, "gamma_n": ref.gamma_n_field,
        "induced_g": ref.induced_g_field,
        "induced_g_inv": ref.induced_g_inv_field, "p": GraphMapField.p_field,
        "rhs": nonparametric_rhs, "h2": h2_field,
    }
    for name, read in readers.items():
        assert np.array_equal(read(light), read(fresh)), name
    geo_light, geo_fresh = field_geometry(light), field_geometry(fresh)
    for rec_light, rec_fresh in ((geo_light, geo_fresh), (geo_light.frame, geo_fresh.frame)):
        for f in fields(rec_light):
            if f.name != "frame":
                assert np.array_equal(getattr(rec_light, f.name), getattr(rec_fresh, f.name)), f.name
    with pytest.raises(ConfigurationError, match="incompatible with grid"):
        first.with_values(values[..., :1])
    with pytest.raises(ConfigurationError, match="incompatible with grid"):
        first.with_values(values[:-1])


def test_interior_mask():
    f = _torus_field(16)
    assert f.interior_mask().all()  # fully periodic: no seam
    s = _constant_sphere_field(16)
    mask = s.interior_mask()
    assert not mask[0].any() and not mask[-1].any()
    assert mask[8].all()
    # a grid field: every field on the grid reads the one read-only mask
    assert s.with_values(s.f).interior_mask() is mask and not mask.flags.writeable
    narrow = _constant_sphere_field(8)  # 4 + 4 seam nodes leave none
    for fld in (narrow, narrow.with_values(narrow.f)):
        with pytest.raises(ConfigurationError, match=r"^grid shape \(8, 8\) has no interior node"):
            fld.interior_mask()


def _torus3_field(perturb=0.1):
    m, target = flat_torus(3), flat_torus(2, scale=0.5)
    x = GraphMapField(m, target, (4, 4, 4), np.zeros((4, 4, 4, 2))).coords()
    return GraphMapField(m, target, (4, 4, 4), x[..., :2] + perturb * np.stack(
        [np.sin(x[..., 2]), np.cos(x[..., 0])], axis=-1))


@pytest.mark.parametrize("corruption", ["nan", "inf", "inf_times_zero", "indefinite"])
def test_corrupted_induced_metric_aborts(monkeypatch, corruption):
    # a g_N value as a blown-up state would carry it, handed to the field's
    # pointwise pass by N's chart without the chart's symmetry check.  On the
    # perturbed torus df has no zero entry at the node, so the inf reaches g
    # without an inf * 0; on the identity torus (projection) df has zero entries,
    # so df g_N df^T meets inf * 0 and reads NaN, which must end in the same one
    # line and raise no warning.  Both fields factorise g in closed form after a
    # finiteness test: the 2 x 2 pivot test, like potrf's, passes NaN
    perturb = 0.0 if corruption == "inf_times_zero" else 0.1
    for fld, node in ((_torus_field(8, perturb=perturb), (3, 4)),
                      (_torus3_field(perturb), (1, 2, 3))):
        g_n, gam_n = fld.N._rows(fld.f.reshape(-1, 2).T)
        g_n[..., np.ravel_multi_index(node, fld.shape)] = {
            "nan": np.nan, "inf": np.diag([np.inf, 1.0]), "inf_times_zero": np.diag([np.inf, 1.0]),
            "indefinite": np.diag([1.0, -50.0])}[corruption]
        monkeypatch.setattr(fld.N, "_rows", lambda x, rows=(g_n, gam_n): rows)
        for read in (ref.induced_g_inv_field, GraphMapField.volume_density):
            with pytest.raises(SolverAbort,
                               match=r"^induced metric not positive definite \(corrupted state\)$"):
                read(fld)


def test_induced_metric_of_an_m3_field_in_closed_form():
    # one L D L^T factorisation gives the inverse and sqrt(det g); cfl_dt reads the
    # max eigenvalue of that inverse in closed form, within rounding of eigvalsh's
    fld = _torus3_field()
    g = ref.induced_g_field(fld)
    scale = np.abs(np.linalg.inv(g)).max()
    assert np.abs(ref.induced_g_inv_field(fld) - np.linalg.inv(g)).max() <= 1e-14 * scale
    root_det = np.sqrt(np.linalg.det(g))
    assert np.abs(fld.volume_density() - root_det).max() <= 1e-14 * root_det.max()
    params = FlowParams()
    lam_min = float(np.linalg.eigvalsh(g)[..., 0].min())
    want = params.cfl * float(fld.h.min()) ** 2 / (2 * 3 * (1.0 / lam_min))
    assert abs(cfl_dt(fld, params) - want) <= 1e-14 * want


def test_induced_metric_of_an_m4_field():
    # m >= 4 keeps cholesky + inv, with det g from the factor's diagonal: S^2 x S^2
    # -> T^2(0.5) with every axis of M coupled to another through df
    m = product(round_sphere(2), round_sphere(2))
    shape = (4, 4, 4, 4)
    x = GraphMapField(m, flat_torus(2), shape, np.zeros(shape + (2,))).coords()
    fld = GraphMapField(m, flat_torus(2, scale=0.5), shape, np.stack(
        [x[..., 1] + 0.3 * np.sin(x[..., 2]), x[..., 3] + 0.2 * np.cos(x[..., 0])], axis=-1))
    g = ref.induced_g_field(fld)
    assert np.abs(g[..., 0, 3]).min() > 1e-2 and np.abs(g[..., 1, 2]).min() > 1e-2
    want = np.linalg.inv(g)
    assert np.abs(ref.induced_g_inv_field(fld) - want).max() <= 1e-14 * np.abs(want).max()
    root_det = np.sqrt(np.linalg.det(g))
    assert np.abs(fld.volume_density() - root_det).max() <= 1e-14 * root_det.max()


# -- the pointwise pass against the row getters it replaced ------------------


def _pass_cases():
    """(M, N, shape, f) of the fields whose pass is checked against the row getters."""
    def coords(m, shape):
        return GraphMapField(m, flat_torus(2), shape, np.zeros(shape + (2,))).coords()
    s1xs2, shape = product_s1_s2(), (6, 8, 8)
    x = coords(s1xs2, shape)
    yield "s1xs2_cosh", (s1xs2, WarpedSurface(builtin_warp("cosh")), shape, np.stack(
        [x[..., 0] + 0.3 * np.sin(x[..., 2]), 0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])],
        axis=-1))
    t3, shape = flat_torus(3), (4, 4, 4)
    x = coords(t3, shape)
    yield "t3_t2", (t3, flat_torus(2, scale=0.5), shape, x[..., :2] + 0.1 * np.stack(
        [np.sin(x[..., 2]), np.cos(x[..., 0] - x[..., 1])], axis=-1))
    s2xs2, shape = product(round_sphere(2), round_sphere(2)), (8, 4, 8, 4)  # m = 4: LAPACK
    x = coords(s2xs2, shape)
    yield "s2xs2_s2", (s2xs2, round_sphere(2), shape, np.stack(
        [0.5 * x[..., 0] + 0.6 + 0.2 * np.sin(x[..., 3]), x[..., 1] + 0.3 * np.sin(x[..., 2])],
        axis=-1))


def _assert_pass_matches_row_getters(fld, oracle):
    got, want = fld._pointwise(), oracle._pointwise()
    assert isinstance(got, FieldRows) and isinstance(want, FieldRows)
    for name in FieldRows._fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.abs(got.v).max() > 1e-2  # a field that moves
    # the oracle's own g_n_field, gamma_n_field and p_field: the chart's grid arrays, and
    # p from invariant_rows; the field's grid arrays of its rows
    for name in ("g_n_field", "gamma_n_field"):
        assert np.array_equal(getattr(ref, name)(fld), getattr(oracle, name)()), name
    for read in (ref.induced_g_field, ref.induced_g_inv_field, ref.covariant_d2f):
        assert np.array_equal(read(fld), read(oracle)), read.__name__
    for name in ("volume_density", "p_field"):
        assert np.array_equal(getattr(fld, name)(), getattr(oracle, name)()), name
    assert np.array_equal(nonparametric_rhs(fld), nonparametric_rhs(oracle))
    assert np.array_equal(h2_field(fld), ref.row_getter_h2_field(oracle))
    assert np.array_equal(ref.tangent_field(fld),
                          ref.row_getter_tangential_vector_field(oracle))


@pytest.mark.parametrize("case", [c for _, c in _pass_cases()], ids=[n for n, _ in _pass_cases()])
def test_pointwise_pass_matches_the_row_getters(case):
    # g_N, Gamma_N, the induced metric, its inverse and det, nabla^2 f, V, and what
    # reads them (p, X and |H|^2), bit for bit: the pass runs the getters' ufuncs in
    # their order; on S^2 x S^2 the inverse goes through cholesky and inv
    m, n, shape, f = case
    _assert_pass_matches_row_getters(GraphMapField(m, n, shape, f),
                                     ref.RowGetterField(m, n, shape, f))


def test_pointwise_pass_of_a_lift_batch_matches_the_row_getters():
    # a batch of three 32-node tsui lifts: the pass on the batch's rows, and each
    # lift's column of it
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    lifts = eq.expand_fields([eq.h, 0.5 * eq.h, eq.h + 0.2 * np.sin(2 * eq.theta)])
    batch = lifts[0]._cache[COLUMN_SOURCE].args[0]
    oracle = object.__new__(ref.RowGetterField)
    oracle.__dict__.update(batch.__dict__, _cache={"_f_derivatives": batch._f_derivatives()})
    _assert_pass_matches_row_getters(batch, oracle)
    for k, lift in enumerate(lifts):
        for read, want in ((GraphMapField.p_field, oracle.p_field()),
                           (nonparametric_rhs, nonparametric_rhs(oracle)),
                           (h2_field, ref.row_getter_h2_field(oracle)),
                           (ref.covariant_d2f, ref.covariant_d2f(oracle))):
            assert np.array_equal(read(lift), want[:, k:k + 1]), (k, read.__name__)


# -- pointwise geometry ------------------------------------------------------


def test_constant_map_is_totally_geodesic():
    f = _constant_sphere_field()
    pg = field_geometry(f)[12, 5]
    assert pg.a_sq < 1e-20
    assert pg.h_sq < 1e-20
    assert pg.frame.p == pytest.approx(2.0)
    # the tangency audit carries the O(h^2) error of the discrete Christoffel
    # symbols of the induced metric; it must shrink under refinement
    res = ref.tangency_residual(f, field_geometry(f).frame.e[12, 5], (12, 5))
    fine = _constant_sphere_field(48)
    res_fine = ref.tangency_residual(fine, field_geometry(fine).frame.e[24, 5], (24, 5))
    assert res < 1e-2
    assert res_fine < res / 3.0


def test_identity_map_flat_geometry():
    f = _torus_field(16, scale=0.5)
    pg = field_geometry(f)[3, 7]
    assert pg.a_sq < 1e-24
    assert pg.h_sq < 1e-24
    assert np.allclose(ref.induced_g_field(f)[3, 7], 1.25 * np.eye(2))


def test_w_norm_and_theta_nonnegative():
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    fld = eq.expand_fields([eq.h])[0]
    pg = field_geometry(fld)[16, 0]
    assert pg.h_sq > 0
    assert 0.0 <= w_norm_sq(pg.frame, pg.h_xi, pg.h_eta) <= pg.h_sq + 1e-15
    assert pg.frame.p > 0  # so Theta = |H|^2 / p > 0


def _p_gradient_check(field: GraphMapField, node) -> np.ndarray:
    """|discrete grad_{e_k} p - (2 A^xi_{1k} T11 + 2 A^eta_{2k} T22)| per k."""
    pg = field_geometry(field)[node]
    dp = field._grid_array(field._laplace_and_gradient(field.p_field()[..., None])[1][0])[node]
    fr = pg.frame
    lhs = fr.e @ dp
    rhs = 2 * pg.a_xi[0] * fr.t11 + 2 * pg.a_eta[1] * fr.t22
    return np.abs(lhs - rhs)


def test_p_gradient_identity_converges():
    errs = []
    for n in (32, 64):
        eq = EquivariantFlow(n, lambda th: 0.8 * np.sin(th))
        fld = eq.expand_fields([eq.h])[0]
        errs.append(_p_gradient_check(fld, (n // 2, 0)).max())
    assert errs[1] < errs[0]
    assert errs[1] < 1e-2


def test_expanded_field_matches_reduction():
    eq = EquivariantFlow(48, lambda th: 0.8 * np.sin(th))
    fld = eq.expand_fields([eq.h])[0]
    lam2, mu2 = fld.singular_value_fields()
    lam1, mu1 = eq.singular_values(eq.rhs(eq.h))
    assert np.abs(lam2[:, 0] - lam1).max() < 1e-10
    assert np.abs(mu2[:, 0] - mu1).max() < 1e-10
