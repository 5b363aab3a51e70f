"""Ghost-padded stencils against the per-offset loop stencils they replaced.

``reference_geometry.LoopStencilField`` keeps ``shift``, ``neighbor_f``,
``unwrap_target`` (its mirror test on every value) and the per-offset
``df_field``, ``d2f_field``, ``gamma_induced_field`` (the induced Christoffels,
here compared with ``reference_geometry.gamma_induced`` on the padded first
differences of the induced metric), ``grad_field`` and ``hessian_trace`` (the
g-trace of a scalar's Hessian in M's connection, which with the gradient is what
``GraphMapField._laplace_and_gradient`` gives); the padded slices must reproduce
them bit for bit, including where the mirror test's candidate mask is decided
within an ulp.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_geometry as ref
from graphflow.errors import ConfigurationError
from graphflow.flow import EquivariantFlow
from graphflow.geometry import (Axis, ChartManifold, WarpedSurface, builtin_warp, flat_torus,
                                product, product_s1_s2, round_sphere)
from graphflow.immersion import GraphMapField, _stencil_offsets


def _tsui(n_phi, amplitude=0.8):
    # the lift f(theta, phi) = (h(theta), phi) at any azimuthal width
    eq = EquivariantFlow(32, lambda th: amplitude * np.sin(th))
    phi = np.arange(n_phi) * 2 * math.pi / n_phi
    f = np.stack(np.broadcast_arrays(eq.h[:, None], phi), axis=-1)
    return eq.M, eq.N, (32, n_phi), f


def _torus_projection():
    m, n = flat_torus(3), flat_torus(2, scale=0.5)
    shape = (4, 4, 4)
    mesh = np.meshgrid(*[np.arange(k) * ax.length / k for k, ax in zip(shape, m.axes)],
                       indexing="ij")
    return m, n, shape, np.stack([mesh[0], mesh[1]], axis=-1)


def _s1xs2_to_cosh(shape=(4, 4, 4), amp=0.3):
    m, n = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    f = np.stack([x[..., 0] + amp * np.sin(x[..., 2]),
                  0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])], axis=-1)
    return m, n, shape, f


def _tilted_sphere(shape=(24, 8), tilt=0.7):
    # the identity of S^2 followed by a rotation by ``tilt`` about the x-axis:
    # the image passes near N's pole at interior nodes, where neighbour
    # azimuths lie 90-135 degrees apart and the mirror is the closer value
    m, n = round_sphere(2), round_sphere(2)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    th, ph = x[..., 0], x[..., 1]
    c, s = math.cos(tilt), math.sin(tilt)
    y = np.sin(th) * np.sin(ph)
    z = np.cos(th)
    u = np.stack([np.sin(th) * np.cos(ph), c * y - s * z, s * y + c * z], axis=-1)
    f = np.stack([np.arccos(np.clip(u[..., 2], -1.0, 1.0)),
                  np.arctan2(u[..., 1], u[..., 0]) % (2 * math.pi)], axis=-1)
    return m, n, shape, f


CASES = {
    "tilted_sphere_24x8": _tilted_sphere,
    "tsui_32x8": lambda: _tsui(8),
    "tsui_32x4": lambda: _tsui(4),
    "torus_projection_4x4x4": _torus_projection,
    "s1xs2_to_cosh_4x4x4": _s1xs2_to_cosh,
}


def _assert_same_stencils(m, n, shape, f):
    new = GraphMapField(m, n, shape, f)
    old = ref.LoopStencilField(m, n, shape, f)
    # every neighbour of f, one offset at a time
    centre = new.f.reshape(-1, 2).T  # the rows of f over the nodes
    nb = np.moveaxis(new.unwrap_target(new._gather(centre), centre), 0, -1)
    for off, got in zip(_stencil_offsets(m.dim), nb):
        shifts = [(a, int(s)) for a, s in enumerate(off) if s]
        assert np.array_equal(got.reshape(f.shape), old.neighbor_f(shifts)), off
    assert np.array_equal(new.df_field(), old.df_field())
    assert np.array_equal(new.d2f_field(), old.d2f_field())
    assert np.array_equal(ref.gamma_induced(new), old.gamma_induced_field())
    u = new.p_field()
    lap, du = new._laplace_and_gradient(u[..., None])
    assert np.array_equal(du[0], old.grad_field(u))
    assert np.array_equal(lap[0], old.hessian_trace(u))
    # the monitors' one gather for both, over scalars stacked on a trailing axis
    stacked = np.stack([u, u * u, np.cos(u)], axis=-1)
    lap, du = new._laplace_and_gradient(stacked)
    for c in range(stacked.shape[-1]):
        assert np.array_equal(lap[c], old.hessian_trace(stacked[..., c])), c
        assert np.array_equal(du[c], old.grad_field(stacked[..., c])), c


@pytest.mark.parametrize("name", sorted(CASES))
def test_padded_stencils_match_loop_stencils(name):
    _assert_same_stencils(*CASES[name]())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), amp=st.floats(0.0, 0.3),
       case=st.sampled_from(("sphere", "s1xs2")))
def test_padded_stencils_match_loop_stencils_on_perturbed_fields(seed, amp, case):
    rng = np.random.default_rng(seed)
    if case == "sphere":
        m, n, shape, f = _tsui(int(rng.choice([4, 8])), amplitude=0.6)
    else:
        m, n, shape, f = _s1xs2_to_cosh(amp=0.1)
    _assert_same_stencils(m, n, shape, f + amp * rng.uniform(-1.0, 1.0, f.shape))


def test_tilted_sphere_takes_the_mirror_at_far_partner_values():
    # the case above must keep values where only the mirror test of the
    # oracle, not the partner-distance pre-test, decides: partner distance in
    # (s/2, 3s/4] at interior nodes, and the mirror taken
    m, n, shape, f = _tilted_sphere()
    old = ref.LoopStencilField(m, n, shape, f)
    interior = old.interior_mask()
    decided = 0
    for off in _stencil_offsets(m.dim):
        shifts = [(a, int(s)) for a, s in enumerate(off) if s]
        raw = f
        for a, step in shifts:
            raw = old.shift(raw, a, step)
        mirrored = old.neighbor_f(shifts)[..., 0] != raw[..., 0]
        dist = np.abs((raw[..., 1] - f[..., 1] + math.pi) % (2 * math.pi) - math.pi)
        decided += np.sum(mirrored & interior & (dist > math.pi / 2) & (dist <= 0.75 * math.pi))
    assert decided >= 8


def _seam_masks(field):
    """(old, new) candidate masks of the mirror test over f's neighbours: the partner
    distance perdist(gap) > s/2 taken through a remainder, and |gap| in
    (s/2, L - s/2) widened by a relative 1e-9, which must contain the first."""
    lq, half = 2 * math.pi, math.pi / 2
    centre = field.f.reshape(-1, 2).T
    gap = (field._gather(centre)[1] - centre[1]).reshape((-1,) + field.shape)
    old = np.abs((gap + lq / 2) % lq - lq / 2) > half
    new = (np.abs(gap) > (1 - 1e-9) * half) & (np.abs(gap) < (1 + 1e-9) * (lq - half))
    assert not (old & ~new).any()
    return old, new


def test_seam_mask_at_half_the_seam_shift_matches_loop_stencils():
    # azimuths a quarter turn apart, nudged by an ulp either way: partner gaps
    # within an ulp of s/2 and of L - s/2, which the widened mask hands to the
    # mirror test and the remainder test did not
    m, n = round_sphere(2), round_sphere(2)
    shape = (16, 8)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    quarter = math.pi / 2
    phi = np.array([0.0, np.nextafter(quarter, 0.0), math.pi, np.nextafter(3 * quarter, 7.0),
                    0.0, quarter, np.nextafter(math.pi, 0.0), 3 * quarter])
    f = np.stack(np.broadcast_arrays(x[..., 0], phi), axis=-1)
    old, new = _seam_masks(GraphMapField(m, n, shape, f))
    assert (new & ~old).sum() >= 8
    _assert_same_stencils(m, n, shape, f)


@pytest.mark.parametrize("tilt", [0.7, 1.3])
def test_seam_mask_where_the_image_crosses_the_pole_matches_loop_stencils(tilt):
    # the tilted sphere's image crosses N's pole at theta = tilt, an interior node
    # row: there the mirror test decides
    m, n, shape, f = _tilted_sphere(shape=(32, 16), tilt=tilt)
    assert GraphMapField(m, n, shape, f).interior_mask()[round(tilt / (math.pi / 32))].all()
    old, new = _seam_masks(GraphMapField(m, n, shape, f))
    assert old.any()
    _assert_same_stencils(m, n, shape, f)


@pytest.mark.parametrize("centre", [0.0, 0.3, 2 * math.pi - 1e-9])
def test_periodic_fold_matches_the_remainder_at_its_edges(centre):
    # unwrap_target folds only where (value - centre) + L/2 leaves [0, L), since
    # % is the identity inside; at the edges of that interval, and far out,
    # it must give the bits of the remainder over every value
    m, n = flat_torus(2), flat_torus(2)
    f = np.full((3, 3, 2), centre)
    half = math.pi
    edges = [-half, half, 3 * half, -3 * half, 0.0, -0.0, 1e-300, 40 * half + 0.1, -40 * half, np.nan]
    d = np.array(edges + [np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf)])
    vals = (centre + d)[:, None, None, None] + np.zeros((1, 3, 3, 2))
    new = np.moveaxis(GraphMapField(m, n, (3, 3), f).unwrap_target(
        np.moveaxis(vals, -1, 0).copy(), np.moveaxis(f, -1, 0)), 0, -1)
    old = ref.LoopStencilField(m, n, (3, 3), f).unwrap_target(vals)
    assert np.array_equal(new, old, equal_nan=True)


def test_partner_axis_must_come_later():
    m = ChartManifold("flipped_sphere", [
        Axis(0.0, 2 * math.pi, periodic=True),
        Axis(0.0, math.pi, reflect=True, partner_axis=0, partner_shift=math.pi)],
        lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)),
        lambda x: np.zeros(x.shape + (2, 2)))
    with pytest.raises(ConfigurationError, match="later axis"):
        GraphMapField(m, flat_torus(2), (8, 8), np.zeros((8, 8, 2)))


def test_partner_resolution_must_divide_seam_shift():
    # an odd azimuthal node count cannot roll by half a turn
    with pytest.raises(ConfigurationError, match="divide the seam shift"):
        GraphMapField(round_sphere(2), round_sphere(2), (8, 5), np.ones((8, 5, 2)))


def _grids():
    # every seam the package's charts have: none (tori), the sphere's (its partner
    # turned by half its nodes), one per factor (S^2 x S^2), and a lift's column
    yield flat_torus(3), (4, 5, 3)
    yield flat_torus(2), (7, 3)
    yield round_sphere(2), (12, 8)
    yield round_sphere(2), (9, 6)
    yield product_s1_s2(), (6, 8, 8)
    yield product_s1_s2(), (3, 4, 4)
    yield product(round_sphere(2), round_sphere(2)), (8, 4, 8, 4)
    yield product(round_sphere(2), flat_torus(1), round_sphere(2)), (4, 6, 3, 5, 4)


@pytest.mark.parametrize("m, shape", list(_grids()), ids=lambda v: str(v) if isinstance(v, tuple)
                         else v.name)
def test_stencil_index_and_coords_match_the_padded_grid(m, shape):
    # the per-axis stencil index and coordinate grid against the ghost-padded index
    # (np.take, roll and concatenate per axis, then a slice per offset) and the
    # meshgrid they replaced, value for value
    fld = GraphMapField(m, flat_torus(2), shape, np.zeros(shape + (2,)))
    oracle = ref.RowGetterField(m, flat_torus(2), shape, np.zeros(shape + (2,)))
    got, want = fld._stencil_index(), oracle._stencil_index()
    assert got.shape == want.shape == (len(_stencil_offsets(m.dim)),) + shape
    assert np.array_equal(got, want)
    assert np.array_equal(fld.coords(), oracle.coords())


def test_stencil_index_of_a_lift_column_matches_the_padded_grid():
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    lift = eq.expand_field(eq.h)
    assert np.array_equal(lift._stencil_index(), ref.RowGetterField._stencil_index.__wrapped__(lift))
