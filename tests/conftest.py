import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

from groupoidal import (
    BundleAction,
    BundleEquivalence,
    FiniteGroupoid,
    GroupoidEquivalence,
    GroupoidHom,
    InternalConsistencyError,
    InvalidStructureError,
    SpaceAction,
    identity_fiber_maps,
    opposite,
    pullback_bundle,
    semidirect_fell_bundle,
    semidirect_left,
    semidirect_orbit_bundle_action,
    semidirect_space_action,
    trivial_line_bundle,
)
from groupoidal._util import fmt
from groupoidal.bundles import _left_inner, _semidirect_orbit_bundle_action
from groupoidal.groupoids import _orbit_action_data
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


# ---------------------------------------------------------------------------
# the right-handed constructions as built before read_back: relabeled by
# flipping each label through a second pass, or pulled back along the flip.
# References for read_back.


def _flip(label):
    return (label[1], label[0])


def flip_labels(g, arrows):
    """g with every unit and arrow label (a, b) renamed (b, a); ``arrows``
    lists the renamed arrows in the order the result keeps."""
    units = tuple(map(_flip, g.units))
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        src={x: _flip(g.src[_flip(x)]) for x in arrows},
        rng={x: _flip(g.rng[_flip(x)]) for x in arrows},
        comp={(_flip(x), _flip(y)): _flip(xy) for (x, y), xy in g.comp.items()},
        inv={x: _flip(g.inv[_flip(x)]) for x in arrows},
        unit_arrow={u: _flip(g.unit_arrow[_flip(u)]) for u in units},
    )


def semidirect_right_by_flip(a, x):
    left = opposite(semidirect_left(opposite(x), opposite(a)))
    return flip_labels(left, tuple((s, ar) for s in a.group.elements for ar in x.arrows))


def semidirect_right_space_action_by_flip(h, s1, s2):
    sd = semidirect_right_by_flip(h, h.target)
    sd_op = opposite(flip_labels(sd, tuple(map(_flip, sd.arrows))))
    left = semidirect_space_action(opposite(h), opposite(s1), opposite(s2), semidirect=sd_op)
    return SpaceAction(sd, left.space, {u: _flip(v) for u, v in left.fibring.items()},
                       {(_flip(p), u): v for (p, u), v in left.act.items()}, "right")


def symmetric_groupoid_equivalence_by_flip(x, g, h):
    left_action = semidirect_space_action(*_orbit_action_data(x, g, h))
    right_data = _orbit_action_data(opposite(x), opposite(h), opposite(g))
    return GroupoidEquivalence(
        left_action, semidirect_right_space_action_by_flip(*map(opposite, right_data)))


def _pullback_by_flip(base, bundle):
    return pullback_bundle(GroupoidHom(base, bundle.base, {x: _flip(x) for x in base.arrows}),
                           bundle)


def semidirect_right_fell_bundle_by_pullback(ba, a):
    left = opposite(semidirect_fell_bundle(opposite(a), opposite(ba)))
    return _pullback_by_flip(semidirect_right_by_flip(ba.base_action, a.base), left)


def symmetric_action_equivalence_by_pullback(a, g, h):
    """symmetric_action_equivalence with its base built a second time, by
    symmetric_groupoid_equivalence_by_flip, and its right bundle pulled back
    onto that base's right groupoid."""
    left = semidirect_orbit_bundle_action(a, g, h)
    a_op, h_op, g_op = opposite(a), opposite(h), opposite(g)
    right = _semidirect_orbit_bundle_action(a_op, h_op, g_op)
    base = symmetric_groupoid_equivalence_by_flip(a.base, g.base_action, h.base_action)
    left_inner = _left_inner(a, g, left.quotient.fiber_transport, base.sigma)
    right_inner = _left_inner(a_op, h_op, right.quotient.fiber_transport, base.rho)
    x = a.base
    return BundleEquivalence(
        base=base,
        left_bundle=left.acting,
        right_bundle=_pullback_by_flip(base.right_groupoid, opposite(right.acting)),
        dims={z: a.dim[z] for z in x.arrows},
        left_tensors=dict(left.tensors),
        right_tensors={(z, q): right.tensors[(_flip(q), z)].transpose(0, 2, 1)
                       for (q, z) in base.right_action.act},
        left_inner=left_inner,
        right_inner={(z1, z2): right_inner[(z2, z1)].transpose(0, 2, 1)
                     for z1 in x.arrows for z2 in x.arrows if (z2, z1) in right_inner},
        provenance="symmetric",
    )


def assert_identical(x, y, path="value"):
    """x and y field by field: the same types, tuples, dict keys in the same
    order, and arrays bitwise (dtype, shape and bytes)."""
    assert type(x) is type(y), f"{path}: {type(x).__name__} != {type(y).__name__}"
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            assert_identical(getattr(x, f.name), getattr(y, f.name), f"{path}.{f.name}")
    elif isinstance(x, Mapping):
        assert list(x) == list(y), f"{path}: keys or their order differ"
        for k in x:
            assert_identical(x[k], y[k], f"{path}[{k!r}]")
    elif isinstance(x, np.ndarray):
        assert (x.dtype, x.shape) == (y.dtype, y.shape), f"{path}: dtype or shape differ"
        assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes(), \
            f"{path}: entries differ"
    elif isinstance(x, tuple):
        assert len(x) == len(y), f"{path}: lengths differ"
        for i, (u, v) in enumerate(zip(x, y)):
            assert_identical(u, v, f"{path}[{i}]")
    else:
        assert x == y, f"{path}: {x!r} != {y!r}"
