"""Shared fixtures for the graphflow test suite."""

import numpy as np
import pytest
from hypothesis import settings

from graphflow.geometry import (WarpedSurface, builtin_warp, flat_torus, product_s1_s2,
                                round_sphere)

# ``--hypothesis-profile=ci``: the default settings, random draws included, and
# a failing draw prints its @reproduce_failure blob.  It replaces hypothesis'
# own "ci" profile, which derandomizes, so CI draws what a local run draws.
settings.register_profile("ci", parent=settings.get_profile("default"), print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def sphere2():
    return round_sphere(2)


@pytest.fixture(scope="session")
def sphere3():
    return round_sphere(3)


@pytest.fixture(scope="session")
def torus2():
    return flat_torus(2)


@pytest.fixture(scope="session")
def torus3():
    return flat_torus(3)


@pytest.fixture(scope="session")
def s1xs2():
    return product_s1_s2()


@pytest.fixture(scope="session")
def waist_cylinder():
    return WarpedSurface(builtin_warp("cosh"))


@pytest.fixture(scope="session")
def funnel_cylinder():
    return WarpedSurface(builtin_warp("exp_neg"))
