import numpy as np
import pytest

from groupoidal import (
    BundleAction,
    InternalConsistencyError,
    InvalidStructureError,
    identity_fiber_maps,
    trivial_line_bundle,
)
from groupoidal._util import fmt
from groupoidal.instances import (
    cyclic_group,
    symmetric_z2z2_actions,
    symmetric_z2z2_bundle,
    trivial_group,
)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def triv():
    return trivial_group()


@pytest.fixture(scope="session")
def z2z2_actions():
    return symmetric_z2z2_actions()


@pytest.fixture(scope="session")
def z2z2_bundle():
    return symmetric_z2z2_bundle()


def line_bundle_action(action):
    bundle = trivial_line_bundle(action.target)
    return bundle, BundleAction(action.group, bundle, action,
                                identity_fiber_maps(bundle, action), action.side)


def assert_close(a, b, tol=1e-9):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


def bracket_by_search(e, z1, z2):
    """The left bracket [z1, z2] of e, found by its definition: the unique
    left arrow p with p.z2 == z1, by one pass over the left arrows whose
    source is rho(z2).  The right bracket at (z1, z2) is
    bracket_by_search(opposite(e), z2, z1).  A reference for bracket_table.
    """
    if e.sigma[z1] != e.sigma[z2]:
        raise InvalidStructureError(
            f"no bracket: {fmt(z1)} and {fmt(z2)} lie in different fibers")
    act, u = e.left_action.act, e.rho[z2]
    hits = [p for p, s in e.left_groupoid.src.items() if s == u and act.get((p, z2)) == z1]
    if len(hits) > 1:
        raise InternalConsistencyError("left translate not unique; action not free")
    if not hits:
        raise InvalidStructureError(f"no left translate carries {fmt(z2)} to {fmt(z1)}")
    return hits[0]
