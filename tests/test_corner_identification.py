"""Certificate corners are identified with crossed products as bundles.

morita._identify_corner maps the linking bundle restricted to one tag onto a
target bundle by (tag, x) -> x with identity fiber maps, and checks it with
verify_bundle_iso at the certificate's tol.  No section algebra is built for
the target.  A residual above tol, or a failed structural check, makes the
certificate not-certified with one note.  The dense reference kept here
compares the corner algebra with the target's section algebra on a basis,
as the certificate did before.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from groupoidal import (
    BundleAction,
    FellBundle,
    SpaceAction,
    coaction_demo,
    group_set_action,
    identity_fiber_maps,
    one_sided_transformation_morita,
    section_algebra,
    symmetric_morita,
    trivial_line_bundle,
)
from groupoidal import morita
from groupoidal.instances import (
    cyclic_group,
    random_free_commuting_instance,
    symmetric_z2z2_bundle,
)

from conftest import AlgebraIso, verify_algebra_iso
from test_morita import mixed_group_orders_certificate
from test_positivity import matrix_fiber_bundle


def transformation_args():
    """Z2 acting on itself by translation, on the line bundle over Z2."""
    grp = cyclic_group(2)
    om = (0, 1)
    yact = SpaceAction(grp, om, {u: grp.units[0] for u in om},
                       {(g, u): (g + u) % 2 for g in grp.elements for u in om}, "left")
    gact = group_set_action(grp, om, {(t, u): (t + u) % 2
                                      for t in grp.elements for u in om}, "left")
    return trivial_line_bundle(grp), yact, gact


def seeded_symmetric_args(seed):
    rng = np.random.default_rng(6000 + seed)
    while True:
        base, gact, hact = random_free_commuting_instance(rng)
        if len(base.units) <= 4:
            break
    lb = trivial_line_bundle(base)
    return (lb, BundleAction(gact.group, lb, gact, identity_fiber_maps(lb, gact), "left"),
            BundleAction(hact.group, lb, hact, identity_fiber_maps(lb, hact), "right"))


def scaled(b: FellBundle, factor: float, table: str = "mult") -> FellBundle:
    """A copy of b with one tensor of ``table`` multiplied by factor."""
    tensors = dict(getattr(b, table))
    key = list(tensors)[len(tensors) // 2]
    tensors[key] = factor * tensors[key]
    return replace(b, **{table: tensors})


def scaling(module_function, factor):
    """A stand-in for module_function whose bundle has one tensor scaled."""
    def build(*args):
        return scaled(module_function(*args), factor)
    return build


def residual_notes(cert) -> list:
    return [float(m.group(1)) for n in cert.notes
            if (m := re.search(r"identified with .*\(residual (\S+)\)$", n))]


def dense_identification_passes(ls, tag, target, tol=1e-9) -> bool:
    """The corner algebra against the target's section algebra, on a basis."""
    corner = ls.corner_left if tag == "p" else ls.corner_right
    alg = section_algebra(target)
    if corner.dimension != alg.dimension:
        return False
    u = np.zeros((corner.dimension, corner.dimension), dtype=complex)
    for k, ((_tag, arrow), i) in enumerate(corner.basis):
        if (arrow, i) not in alg.basis:
            return False
        u[alg.basis.index((arrow, i)), k] = 1.0
    return verify_algebra_iso(AlgebraIso(corner, alg, u), tol).ok


def recorded_identifications(monkeypatch, run) -> list:
    """The (linking system, tag, target, residual) of each identification
    that ``run`` makes."""
    calls, identify = [], morita._identify_corner

    def recording(ls, tag, target, tol):
        calls.append((ls, tag, target, identify(ls, tag, target, tol)))
        return calls[-1][-1]

    monkeypatch.setattr(morita, "_identify_corner", recording)
    run()
    monkeypatch.undo()
    return calls


INSTANCES = {
    "z2z2": lambda: symmetric_morita(*symmetric_z2z2_bundle()),
    "mixed_orders": mixed_group_orders_certificate,
    "transformation": lambda: one_sided_transformation_morita(*transformation_args()),
    "coaction": lambda: coaction_demo(matrix_fiber_bundle(2, 2)),
    **{f"seeded{seed}": (lambda seed=seed: symmetric_morita(*seeded_symmetric_args(seed)))
       for seed in range(3)},
}


@pytest.mark.parametrize("name", INSTANCES)
def test_bundle_identification_agrees_with_the_dense_reference(name, monkeypatch):
    calls = recorded_identifications(monkeypatch, INSTANCES[name])
    assert sorted(tag for _ls, tag, _t, _r in calls) == ["p", "q"]
    for ls, tag, target, res in calls:
        assert res <= 1e-9
        assert dense_identification_passes(ls, tag, target)
        for wrong in (scaled(target, 1.5), scaled(target, -1.0, "star")):
            res = morita._identify_corner(ls, tag, wrong, 1e-9)
            assert not res <= 1e-9
            assert not dense_identification_passes(ls, tag, wrong)


def count_section_algebras(monkeypatch, run) -> int:
    built, section = [], morita.section_algebra

    def counting(b):
        built.append(b)
        return section(b)

    monkeypatch.setattr(morita, "section_algebra", counting)
    cert = run()
    monkeypatch.undo()
    assert cert.verdict == "equivalent"
    return len(built)


def test_certificates_build_only_the_two_corners(monkeypatch):
    assert count_section_algebras(monkeypatch, INSTANCES["z2z2"]) == 2
    assert count_section_algebras(monkeypatch, INSTANCES["transformation"]) == 2


def test_failed_symmetric_identification_is_not_certified(monkeypatch):
    monkeypatch.setattr(morita, "semidirect_right_fell_bundle",
                        scaling(morita.semidirect_right_fell_bundle, 1.5))
    cert = symmetric_morita(*symmetric_z2z2_bundle())
    assert cert.verdict == "not-certified"
    assert cert.notes[-1] == "corner identification failed"
    left, right = residual_notes(cert)
    assert left == 0.0 and right == pytest.approx(0.5)


def test_failed_transformation_identification_is_not_certified(monkeypatch):
    monkeypatch.setattr(morita, "semidirect_fell_bundle",
                        scaling(morita.semidirect_fell_bundle, 1.5))
    cert = one_sided_transformation_morita(*transformation_args())
    assert cert.verdict == "not-certified"
    assert cert.notes[-1] == "corner identification failed"
    right, left = residual_notes(cert)
    assert right == 0.0 and left == pytest.approx(0.5)


def identify_against_scaled(monkeypatch, b):
    """Make every bundle identification whose target is b itself see a copy
    of b with one product scaled by 1.5."""
    wrong_b, iso_residual = scaled(b, 1.5), morita._iso_residual

    def against_wrong_b(source, target, arrow_map, tol):
        return iso_residual(source, wrong_b if target is b else target, arrow_map, tol)

    monkeypatch.setattr(morita, "_iso_residual", against_wrong_b)


def test_failed_right_transformation_identification_is_not_certified(monkeypatch):
    # the orbit bundle G\(b*Omega) is checked against b itself: a b with one
    # product scaled, seen only by that last check, fails it
    b, yact, gact = transformation_args()
    identify_against_scaled(monkeypatch, b)
    cert = one_sided_transformation_morita(b, yact, gact)
    assert cert.verdict == "not-certified"
    assert cert.notes[-1] == "corner identification failed"
    right, left = residual_notes(cert)
    assert right == pytest.approx(0.5) and left == 0.0


def test_identification_is_checked_at_the_certificate_tol(monkeypatch):
    monkeypatch.setattr(morita, "semidirect_right_fell_bundle",
                        scaling(morita.semidirect_right_fell_bundle, 1 + 1e-8))
    cert = symmetric_morita(*symmetric_z2z2_bundle(), tol=1e-6)
    assert cert.verdict == "equivalent"
    left, right = residual_notes(cert)
    assert left == 0.0 and 5e-9 < right < 2e-8
    assert "corner identification failed" not in cert.notes


def test_a_structural_mismatch_is_not_certified(monkeypatch):
    # a target with wider fibers fails verify_bundle_iso's check of the fiber
    # maps: the residual is NaN, and the verdict follows the same policy
    build = morita.semidirect_right_fell_bundle

    def wider(*args):
        b = build(*args)
        return FellBundle(b.base, {x: d + 1 for x, d in b.dim.items()}, b.mult, b.star)

    monkeypatch.setattr(morita, "semidirect_right_fell_bundle", wider)
    cert = symmetric_morita(*symmetric_z2z2_bundle())
    assert cert.verdict == "not-certified"
    assert cert.notes[-1] == "corner identification failed"
    assert np.isnan(residual_notes(cert)[1])


def test_failed_coaction_identification_is_not_certified(monkeypatch):
    # the demo identifies its right corner through the transformation route:
    # the same scaled b fails it, before the dimension note is added
    b = trivial_line_bundle(cyclic_group(2))
    identify_against_scaled(monkeypatch, b)
    cert = coaction_demo(b)
    assert cert.verdict == "not-certified"
    assert cert.notes[-2:] == ["corner identification failed",
                               "left dimension 8, right dimension 2"]
    right, left = residual_notes(cert)
    assert right == pytest.approx(0.5) and left == 0.0
