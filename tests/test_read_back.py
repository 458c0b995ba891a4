"""read_back: every right-handed object is its left-handed build on opposite()
data, read back once.  The constructions are checked field by field against
the earlier ones (conftest), which relabeled a second build instead."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import groupoidal.algebras as algebras_mod
import groupoidal.bundles as bundles_mod
import groupoidal.groupoids as gpd_mod
from groupoidal import (
    BundleAction,
    GroupAction,
    InvalidStructureError,
    NonFreeActionError,
    SpaceAction,
    check_space_action,
    group_set_action,
    identity_fiber_maps,
    make_pair_groupoid,
    make_trivial_cbundle,
    opposite,
    quotient_fell_bundle,
    raeburn,
    read_back,
    semidirect_fell_bundle,
    semidirect_left,
    semidirect_right,
    semidirect_right_fell_bundle,
    semidirect_right_space_action,
    symmetric_action_equivalence,
    symmetric_morita,
    trivial_bundle_action,
    trivial_line_bundle,
)
from groupoidal.instances import (
    cyclic_group,
    diagonal_algebra,
    raeburn_four_points,
    swap_tau_on_diagonal,
    symmetric_z2z2_bundle,
)
from groupoidal.algebras import AlgebraAction
from groupoidal.cli import main

from conftest import (
    assert_identical,
    semidirect_right_by_flip,
    semidirect_right_fell_bundle_by_pullback,
    semidirect_right_space_action_by_flip,
    symmetric_action_equivalence_by_pullback,
)


def translation_bundle(shape, seed=None):
    """The line bundle on the pair groupoid over G x H x K, shape (|G|, |H|, |K|),
    with G and H translating their coordinates; units are numbered in order,
    or in a seeded random order."""
    ng, nh, nk = shape
    raw = [(a, b, c) for a in range(ng) for b in range(nh) for c in range(nk)]
    order = (range(len(raw)) if seed is None
             else np.random.default_rng(seed).permutation(len(raw)).tolist())
    relabel = {u: int(i) + 1 for u, i in zip(raw, order)}
    base = make_pair_groupoid(len(raw))
    g_grp, h_grp = cyclic_group(ng), cyclic_group(nh)

    def action(grp, move, side):
        maps = {t: {relabel[u]: relabel[move(t, u)] for u in raw} for t in grp.elements}
        return gpd_mod.action_from_unit_map(grp, base, maps, side)

    gact = action(g_grp, lambda t, u: ((u[0] + t) % ng, u[1], u[2]), "left")
    hact = action(h_grp, lambda t, u: (u[0], (u[1] + t) % nh, u[2]), "right")
    lb = trivial_line_bundle(base)
    return (lb, BundleAction(g_grp, lb, gact, identity_fiber_maps(lb, gact), "left"),
            BundleAction(h_grp, lb, hact, identity_fiber_maps(lb, hact), "right"))


def diagonal_bundle(defect=0.0):
    """The constant C^2 bundle over four points (i, j), Z2 swapping i with
    the coordinate swap on the fibers and Z2 swapping j with identity fiber
    maps, the nontrivial one off by ``defect`` in every entry."""
    z2 = cyclic_group(2)
    pts = tuple((i, j) for i in range(2) for j in range(2))
    bundle = make_trivial_cbundle(diagonal_algebra(2), pts)
    swap = swap_tau_on_diagonal(z2).matrices
    near = {0: np.eye(2, dtype=complex), 1: np.eye(2, dtype=complex) + defect}
    gba = BundleAction(z2, bundle, GroupAction(z2, bundle.base, {
        (t, (i, j)): ((i + t) % 2, j) for t in z2.elements for (i, j) in pts}, "left"),
        {(t, u): swap[t] for t in z2.elements for u in pts}, "left")
    hba = BundleAction(z2, bundle, GroupAction(z2, bundle.base, {
        (t, (i, j)): (i, (j + t) % 2) for t in z2.elements for (i, j) in pts}, "right"),
        {(t, u): near[t] for t in z2.elements for u in pts}, "right")
    return bundle, gba, hba


# Z2 x Z2, Z3 left with Z2 right (unequal orders catch a G/H swap), seeded
# (2,3,1) and (3,2,1), and a bundle with nontrivial fiber maps
INSTANCES = {
    "z2z2": symmetric_z2z2_bundle,
    "mixed_orders": lambda: translation_bundle((3, 2, 1)),
    "seeded_231": lambda: translation_bundle((2, 3, 1), seed=1),
    "seeded_321": lambda: translation_bundle((3, 2, 1), seed=2),
    "diagonal": diagonal_bundle,
}


@pytest.mark.parametrize("name", INSTANCES)
def test_symmetric_action_equivalence_is_the_relabeled_construction(name):
    args = INSTANCES[name]()
    assert_identical(symmetric_action_equivalence(*args),
                     symmetric_action_equivalence_by_pullback(*args))


@pytest.mark.parametrize("name", INSTANCES)
def test_semidirect_right_constructions_are_the_relabeled_ones(name):
    a, g, h = INSTANCES[name]()
    hact = h.base_action
    assert_identical(semidirect_right(hact, a.base), semidirect_right_by_flip(hact, a.base))
    assert_identical(semidirect_right_fell_bundle(h, a),
                     semidirect_right_fell_bundle_by_pullback(h, a))
    # H |x x acting on the arrows of x: H by its action, x by right translation
    x = a.base
    s1 = group_set_action(hact.group, x.arrows, hact.act, "right")
    s2 = SpaceAction(x, x.arrows, dict(x.src),
                     {(y, u): x.comp[(u, y)] for u in x.arrows for y in x.arrows
                      if x.src[u] == x.rng[y]}, "right")
    out = semidirect_right_space_action(hact, s1, s2)
    assert check_space_action(out).ok
    assert_identical(out, semidirect_right_space_action_by_flip(hact, s1, s2))


def test_read_back_lists_arrows_h_major():
    a, _g, h = translation_bundle((3, 2, 1))
    left = semidirect_left(opposite(a.base), opposite(h.base_action))
    right = read_back(left)
    assert right.arrows == tuple((s, x) for s in h.group.elements for x in a.base.arrows)
    assert right.units == tuple((e, u) for (u, e) in left.units)
    with pytest.raises(TypeError, match="no read-back"):
        read_back(h.group.elements)


def _call_counts(run, *functions) -> dict:
    codes = {fn.__code__: fn.__name__ for fn in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(tracer)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def test_symmetric_morita_builds_each_groupoid_once():
    # one semidirect product and one quotient per corner, plus the right
    # crossed product and quotient the right corner is identified with;
    # nothing is relabeled through a homomorphism
    args = translation_bundle((3, 2, 1))
    counts = _call_counts(lambda: symmetric_morita(*args), gpd_mod._semidirect_left,
                          gpd_mod._quotient_groupoid, gpd_mod.check_homomorphism,
                          gpd_mod.symmetric_groupoid_equivalence)
    assert counts == {"_semidirect_left": 3, "_quotient_groupoid": 3,
                      "check_homomorphism": 0, "symmetric_groupoid_equivalence": 0}


_CHECKS = (bundles_mod.check_bundle_action, gpd_mod.check_action, gpd_mod.require_free,
           algebras_mod.regular_representation)


def test_symmetric_morita_checks_each_action_once():
    # g and h once, as hypotheses, and each induced action on a quotient
    # (g on a/H, h^op on the opposite quotient, h on G\a) once; one
    # representation for the unit fibers in step 6 and one per corner
    args = translation_bundle((3, 2, 1))
    counts = _call_counts(lambda: symmetric_morita(*args), *_CHECKS)
    assert counts == {"check_bundle_action": 5, "check_action": 5, "require_free": 2,
                      "regular_representation": 3}


def test_two_sided_raeburn_demo_checks_each_action_once(capsys):
    # symmetric_morita's checks; the induced-algebra sides quotient by
    # actions it has checked
    counts = _call_counts(lambda: main(["demo", "raeburn", "--two-sided"]), *_CHECKS)
    assert counts == {"check_bundle_action": 5, "check_action": 5, "require_free": 2,
                      "regular_representation": 4}


def test_base_equivalence_scenario_checks_each_action_once(capsys):
    # g and h once, as hypotheses, and the action each induces on its side's
    # quotient once; both sides quotient unchecked
    model = str(Path(__file__).resolve().parent.parent / "models" / "symmetric_z2z2.model")
    counts = _call_counts(lambda: main(["check-equivalence", "base_equivalence", model]),
                          gpd_mod.check_action, gpd_mod.require_free, gpd_mod.quotient_groupoid)
    assert counts == {"check_action": 4, "require_free": 2, "quotient_groupoid": 0}


def _group_law_failure():
    """Z3 on the pair groupoid over {1, 2}, 1 and 2 both swapping: automorphisms
    with the identity acting trivially, but 1.(1.x) != 2.x."""
    z3, x = cyclic_group(3), make_pair_groupoid(2)
    swap = {1: 2, 2: 1}
    act = gpd_mod.action_from_unit_map(z3, x, {0: {1: 1, 2: 2}, 1: swap, 2: swap}, "left")
    lb = trivial_line_bundle(x)
    return x, act, lb, BundleAction(z3, lb, act, identity_fiber_maps(lb, act), "left")


def test_public_constructions_check_their_actions():
    # the unchecked builders leave every check at the public entry points
    x, act, lb, ba = _group_law_failure()
    with pytest.raises(InvalidStructureError,
                       match=re.escape("semidirect_left: group law failed [(1,1,(1,1))]")):
        semidirect_left(x, act)
    with pytest.raises(InvalidStructureError,
                       match=re.escape("semidirect_fell_bundle: base: group law failed")):
        semidirect_fell_bundle(lb, ba)
    z2 = cyclic_group(2)
    lazy = trivial_bundle_action(z2, lb, "right")
    for thunk in (lambda: gpd_mod.quotient_groupoid(x, lazy.base_action),
                  lambda: quotient_fell_bundle(lb, lazy)):
        with pytest.raises(NonFreeActionError,
                           match="quotient_groupoid: action not free, element 1 fixes"):
            thunk()


def test_raeburn_checks_its_hypotheses_at_the_certificate_tolerance(z2):
    points, gsp, hsp, b, sigma, tau = raeburn_four_points()
    near = {t: m + (1e-8 if t != z2.identity else 0.0) for t, m in tau.matrices.items()}
    tau = AlgebraAction(z2, b, near, "left")
    cert = raeburn(points, gsp, hsp, b, sigma, tau, tol=1e-6)
    assert cert.verdict == "equivalent"
    # at the default tolerance the same defect is rejected up front
    with pytest.raises(InvalidStructureError, match="raeburn tau: group law"):
        raeburn(points, gsp, hsp, b, sigma, tau)


def test_symmetric_hypotheses_follow_the_tolerance():
    args = diagonal_bundle(defect=1e-8)
    assert symmetric_morita(*args, tol=1e-6).verdict == "equivalent"
    for tol in (1e-9, 1e-6):
        # a defect above tol is still rejected by the hypothesis check
        defect = 1e-8 if tol == 1e-9 else 1e-4
        with pytest.raises(InvalidStructureError,
                           match="bundle action h: fiber maps satisfy the group law"):
            symmetric_action_equivalence(*diagonal_bundle(defect), tol=tol)


def test_raeburn_rejects_non_commuting_fiber_actions(z2):
    # the coordinate swaps (01) and (12) of C^3 are *-automorphisms that do
    # not commute; symmetric_morita's hypothesis check rejects them
    points, gsp, hsp, *_ = raeburn_four_points()
    b = diagonal_algebra(3)

    def swap(p):
        return AlgebraAction(z2, b, {0: np.eye(3, dtype=complex),
                                     1: np.eye(3, dtype=complex)[p]}, "left")

    with pytest.raises(InvalidStructureError, match="fiber actions do not commute") as info:
        raeburn(points, gsp, hsp, b, swap([1, 0, 2]), swap([0, 2, 1]))
    # the witness is the first (t, k, x) attaining the residual: the two
    # swaps, on the first arrow
    assert str(info.value) == "fiber actions do not commute at (1,1,(0,0)) (residual 1.000e+00)"
