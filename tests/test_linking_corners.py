"""The linking system without the dense linking algebra.

Corners come from the linking bundle restricted to one tag, and the unit
check reads the linking bundle's products with a unit arrow.  Both are
compared here with the dense linking algebra they replace:
``subalgebra(ls.algebra, ...)`` for the corners and the left and right
multiplication matrices of the projection sum for the unit check, whose
defect passes at 1e-8 exactly when the dense matrices do.
"""

import numpy as np
import pytest

import groupoidal.bundles as bundles
import groupoidal.morita as morita
from groupoidal import (
    BundleAction,
    FellBundle,
    FiniteGroupoid,
    InvalidStructureError,
    identity_fiber_maps,
    linking_bundle,
    linking_system,
    make_pair_groupoid,
    one_sided_equivalence,
    semidirect_orbit_bundle_action,
    symmetric_action_equivalence,
    symmetric_morita,
    trivial_line_bundle,
    verify_morita,
)
from groupoidal._util import deviation
from groupoidal.instances import random_free_commuting_instance, symmetric_z2z2_bundle

from conftest import subalgebra, unverified_linking_system
from test_morita import two_dimensional_fiber_instance


def _random_equivalence(seed):
    base, gact, hact = random_free_commuting_instance(np.random.default_rng(seed))
    lb = trivial_line_bundle(base)
    gba = BundleAction(gact.group, lb, gact, identity_fiber_maps(lb, gact), "left")
    hba = BundleAction(hact.group, lb, hact, identity_fiber_maps(lb, hact), "right")
    return symmetric_action_equivalence(lb, gba, hba)


EQUIVALENCES = {
    "z2z2": lambda: symmetric_action_equivalence(*symmetric_z2z2_bundle()),
    "one_sided": lambda: one_sided_equivalence(*symmetric_z2z2_bundle()[:2]),
    "two_dim_fibers": lambda: symmetric_action_equivalence(*two_dimensional_fiber_instance()),
    **{f"random_seed{s}": lambda s=s: _random_equivalence(s) for s in (2, 7, 31)},
}


def _dense_acts_as_unit(ls, p, limit):
    """The unit check on the dense linking algebra, as it was made before."""
    alg = ls.algebra
    eye = np.eye(alg.dimension)
    left = np.einsum("kij,i->kj", alg.struct, p)
    right = np.einsum("kij,j->ki", alg.struct, p)
    return bool(alg.dimension and deviation(left, eye) <= limit
                and deviation(right, eye) <= limit)


@pytest.mark.parametrize("assemble", [linking_system, unverified_linking_system])
@pytest.mark.parametrize("name", sorted(EQUIVALENCES))
def test_corners_are_the_dense_subalgebras(name, assemble):
    ls = assemble(EQUIVALENCES[name]())
    for corner, tag in ((ls.corner_left, "p"), (ls.corner_right, "q")):
        dense = subalgebra(ls.algebra, lambda lbl, tag=tag: lbl[0][0] == tag)
        assert corner.basis == dense.basis
        assert np.array_equal(corner.struct, dense.struct)
        assert np.array_equal(corner.invol, dense.invol)
    assert ls.corner_left.provenance == "left corner"
    assert ls.corner_right.provenance == "right corner"


def test_projections_are_the_dense_algebra_coordinates():
    ls = linking_system(EQUIVALENCES["two_dim_fibers"]())
    alg = ls.algebra
    p = ls.projection_left + ls.projection_right
    units = {ls.groupoid.unit_arrow[u] for u in ls.groupoid.units}
    support = {alg.basis[k][0] for k in np.flatnonzero(p)}
    assert support == units
    assert len(p) == alg.dimension
    assert np.allclose(p, alg.unit(), atol=1e-9)


def test_certificate_never_builds_the_linking_algebra(monkeypatch):
    built_on, systems = [], []
    section_algebra, make_system = morita.section_algebra, morita.linking_system

    def recording_section_algebra(b):
        built_on.append(b)
        return section_algebra(b)

    def recording_linking_system(*args, **kwargs):
        systems.append(make_system(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(morita, "section_algebra", recording_section_algebra)
    monkeypatch.setattr(morita, "linking_system", recording_linking_system)
    assert symmetric_morita(*symmetric_z2z2_bundle()).verdict == "equivalent"
    (ls,) = systems
    assert built_on and not any(b is ls.bundle for b in built_on)
    assert "algebra" not in vars(ls)
    assert verify_morita(ls).verdict == "equivalent"
    assert "algebra" not in vars(ls)


def _nan_module_product(e):
    key = next(iter(e.left_tensors))
    e.left_tensors[key] = e.left_tensors[key] * np.nan


def _nan_corner_product(e):
    b = e.left_bundle
    key = next(k for k in b.mult
               if not (b.base.is_unit_arrow(k[0]) or b.base.is_unit_arrow(k[1])))
    b.mult[key] = b.mult[key] * np.nan


def _scaled_unit_product(e):
    b = e.left_bundle
    u = b.base.unit_arrow[b.base.units[0]]
    b.mult[(u, u)] = 1.5 * b.mult[(u, u)]


CORRUPTIONS = {
    "nan_module_product": _nan_module_product,
    "nan_corner_product": _nan_corner_product,
    "scaled_unit_product": _scaled_unit_product,
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCES))
def test_unit_check_agrees_with_the_dense_matrices(name):
    ls = linking_system(EQUIVALENCES[name]())
    p = ls.projection_left + ls.projection_right
    assert morita._unit_defect(ls.bundle, p) <= 1e-8
    assert _dense_acts_as_unit(ls, p, 1e-8) is True


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name", ["z2z2", "two_dim_fibers", "random_seed7"])
def test_unit_check_agrees_with_the_dense_matrices_on_corrupted_data(name, corruption):
    e = EQUIVALENCES[name]()
    CORRUPTIONS[corruption](e)
    ls = unverified_linking_system(e)
    p = ls.projection_left + ls.projection_right
    assert not morita._unit_defect(ls.bundle, p) <= 1e-8
    assert _dense_acts_as_unit(ls, p, 1e-8) is False


def test_unit_check_fails_on_an_empty_bundle_and_a_zero_sum():
    ls = linking_system(EQUIVALENCES["z2z2"]())
    empty = FellBundle(FiniteGroupoid((), (), {}, {}, {}, {}, {}), {}, {}, {})
    assert np.isnan(morita._unit_defect(empty, np.zeros(0)))
    assert morita._unit_defect(ls.bundle, np.zeros(len(ls.projection_left))) == 1.0


@pytest.mark.parametrize("corruption,note", [
    ("nan_module_product", "linking algebra has no unit"),
    ("scaled_unit_product", "corner projections do not sum to the unit (defect 3.333e-01)"),
])
def test_failed_unit_check_is_noted_without_the_linking_algebra(corruption, note):
    e = EQUIVALENCES["z2z2"]()
    CORRUPTIONS[corruption](e)
    ls = unverified_linking_system(e)
    cert = verify_morita(ls)
    assert note in cert.notes
    assert "algebra" not in vars(ls)


@pytest.mark.parametrize("name,verdict", [
    ("random_seed7", "not-certified"),
    ("two_dim_fibers", "indeterminate"),
    ("z2z2", "indeterminate"),
])
def test_failed_unit_check_enters_the_verdict(name, verdict):
    e = EQUIVALENCES[name]()
    _scaled_unit_product(e)
    cert = verify_morita(unverified_linking_system(e))
    assert cert.verdict == verdict
    assert any(n.startswith("corner projections do not sum to the unit") for n in cert.notes)


def test_corner_that_is_not_closed_names_the_product():
    link = linking_bundle(EQUIVALENCES["z2z2"]())
    g = link.base
    pair = next(k for k in link.mult if k[0][0] == k[1][0] == "p"
                and not g.is_unit_arrow(k[0]))
    g.comp[pair] = ("z", g.arrows[len(g.arrows) // 2][1])
    with pytest.raises(InvalidStructureError, match="left corner not closed: product at"):
        morita._corner(link, "p", "left corner")
    assert morita._corner(link, "q", "right corner").dimension > 0


def test_symmetric_hypotheses_are_checked_once(monkeypatch):
    calls = []
    check = bundles._check_symmetric_bundle_hypotheses

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(bundles, "_check_symmetric_bundle_hypotheses", counting)
    symmetric_action_equivalence(*symmetric_z2z2_bundle())
    assert len(calls) == 1


def test_bad_inputs_keep_their_messages():
    lb, gba, hba = symmetric_z2z2_bundle()
    for build in (symmetric_action_equivalence, semidirect_orbit_bundle_action):
        with pytest.raises(InvalidStructureError,
                           match="expected a left action g and a right action h"):
            build(lb, hba, gba)
        other = trivial_line_bundle(make_pair_groupoid(2))
        with pytest.raises(InvalidStructureError,
                           match="both actions must act on the given bundle"):
            build(other, gba, hba)
