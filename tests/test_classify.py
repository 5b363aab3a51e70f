"""Limit classification trichotomy from measured observables."""

import math

import numpy as np
import pytest

from graphflow.classify import classify_from_observables, classify_limit
from graphflow.errors import ConfigurationError
from graphflow.flow import EquivariantFlow
from graphflow.geometry import flat_torus, round_sphere
from graphflow.immersion import GraphMapField


def _obs(status="Converged", max_h=1e-9, max_a=1e-9, lam=0.0, mu=0.0,
         sigma=0.0, ricci_positive=False):
    return classify_from_observables(
        status, max_h, max_a, np.full(8, lam), np.full(8, mu),
        np.full(8, sigma), ricci_positive=ricci_positive)


def test_constant_limit():
    rep = _obs(lam=0.0, mu=0.0)
    assert rep["class"] == "Constant" and rep["evidence"]["rank_estimate"] == 0
    assert not rep["contradiction_with_positive_ricci"]


def test_rank1_geodesic_limit():
    rep = _obs(lam=1.0, mu=0.0, sigma=-1.0)
    assert rep["class"] == "Rank1Geodesic" and rep["evidence"]["rank_estimate"] == 1


def test_rank1_contradiction_flag():
    # a nonconstant minimal limit under positive Ricci is flagged
    rep = _obs(lam=1.0, mu=0.0, ricci_positive=True)
    assert rep["class"] == "Rank1Geodesic"
    assert rep["contradiction_with_positive_ricci"]


def test_rank2_flat_limit():
    rep = _obs(lam=0.5, mu=0.5, sigma=0.0)
    assert rep["class"] == "Rank2Flat" and rep["evidence"]["rank_estimate"] == 2


def test_rank2_nonflat_is_inconclusive():
    rep = _obs(lam=0.5, mu=0.5, sigma=1.0)
    assert rep["class"] == "Inconclusive"


def test_not_minimal():
    rep = _obs(max_h=1e-3)
    assert rep["class"] == "NotMinimal"
    rep = classify_from_observables("Aborted", 1e-9, 1e-9, np.zeros(4), np.zeros(4), None)
    assert rep["class"] == "NotMinimal"


def test_varying_singular_values_inconclusive():
    lam = np.linspace(0.0, 0.5, 8)
    rep = classify_from_observables("Converged", 1e-9, 1e-9, lam, np.zeros(8), np.zeros(8))
    assert rep["class"] == "Inconclusive"


def test_report_dict_shape():
    d = _obs()
    assert d["class"] == "Constant"
    assert "evidence" in d and "rank_estimate" in d["evidence"]
    assert d["notes"]  # untested topological properties are disclosed


def test_classify_limit_constant_field():
    n = 24
    f = np.empty((n, n, 2))
    f[..., 0], f[..., 1] = 1.0, 2.0
    field = GraphMapField(round_sphere(2), round_sphere(2), (n, n), f)
    rep = classify_limit(field, "Converged", ricci_positive=True)
    assert rep["class"] == "Constant"


def test_classify_limit_rank2_projection():
    n = 12
    xs = np.arange(n) * 2 * math.pi / n
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    field = GraphMapField(flat_torus(2), flat_torus(2, scale=0.5), (n, n),
                          np.stack([xg, yg], -1))
    rep = classify_limit(field, "Stationary")
    assert rep["class"] == "Rank2Flat"
    assert rep["evidence"]["rank_estimate"] == 2


def test_tolerances_dataclass():
    rep = classify_from_observables("Converged", 1e-4, 1e-9, np.zeros(4), np.zeros(4),
                                    np.zeros(4), h_tol=1e-3)
    assert rep["class"] == "Constant"  # looser h tolerance admits this limit


def test_tolerance_capped_below_unit_singular_values():
    # at h_tol = 1e-2, 100 h_tol = 1 would call the singular values 0.5 of a
    # flat projection zero; the threshold stops at 1e-2
    rep = classify_from_observables("Stationary", 0.0, 0.0, np.full(4, 0.5), np.full(4, 0.5),
                                    np.zeros(4), h_tol=1e-2)
    assert rep["evidence"]["rank_estimate"] == 2 and rep["class"] == "Rank2Flat"


def test_classify_limit_refuses_a_lift_without_interior_nodes():
    # 8 theta nodes are all within SEAM_MARGIN of a pole: no evidence to classify
    eq = EquivariantFlow(8, lambda th: 0.8 * np.sin(th))
    field = eq.expand_field(eq.h)
    with pytest.raises(ConfigurationError,
                       match=rf"^grid shape \(8, {field.shape[1]}\) has no interior node[^\n]*$"):
        classify_limit(field, "Converged")
