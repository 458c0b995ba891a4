import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groupoidal import (
    BundleAction,
    BundleIso,
    GroupoidHom,
    InvalidStructureError,
    NonFreeActionError,
    SpaceAction,
    action_from_unit_map,
    check_bundle_action,
    check_module_action,
    group_set_action,
    identity_fiber_maps,
    is_free_bundle_action,
    make_pair_groupoid,
    make_trivial_cbundle,
    opposite,
    one_sided_equivalence,
    one_sided_transformation_equivalence,
    orbit_bundle_action,
    principal_fell_decomposition,
    pullback_bundle,
    quotient_fell_bundle,
    semidirect_fell_bundle,
    semidirect_orbit_bundle_action,
    semidirect_right_fell_bundle,
    symmetric_action_equivalence,
    transformation_fell_bundle,
    transformation_groupoid,
    trivial_action,
    trivial_bundle_action,
    trivial_line_bundle,
    validate_fell_bundle,
    verify_bundle_equivalence,
    verify_bundle_iso,
)
from groupoidal.instances import (
    cyclic_group,
    diagonal_algebra,
    matrix_algebra,
    random_free_action_instance,
)

from groupoidal._util import fmt

from conftest import assert_close, bracket_by_search, line_bundle_action


# ---------------------------------------------------------------------------
# validation


def test_trivial_line_bundle_over_point(triv):
    b = trivial_line_bundle(make_pair_groupoid(1))
    assert validate_fell_bundle(b).ok


def test_line_bundle_over_pair_groupoid():
    b = trivial_line_bundle(make_pair_groupoid(3))
    rep = validate_fell_bundle(b)
    assert rep.ok
    assert rep.metrics["associativity"] == 0.0


def test_negated_star_matrix_detected():
    b = trivial_line_bundle(make_pair_groupoid(3))
    b.star[(1, 2)] = -b.star[(1, 2)]
    rep = validate_fell_bundle(b)
    assert not rep.ok
    names = [c.name for c in rep.failures()]
    assert "star involutive" in names or "(ab)* == b*a*" in names
    assert any(c.witness for c in rep.failures())


def test_nan_product_tensor_fails_with_witness():
    b = trivial_line_bundle(make_pair_groupoid(3))
    g = b.base
    key = ((1, 2), (2, 3))
    b.mult[key] = b.mult[key] * np.nan
    rep = validate_fell_bundle(b)
    assert not rep.ok
    assert np.isnan(rep.metrics["associativity"]) and np.isnan(rep.metrics["antihomomorphism"])
    # the witness is the first tuple, in enumeration order, that reads the poisoned product
    x, y, z = next((x, y, z) for x, y, z in g.composable_triples()
                   if key in {(x, y), (g.comp[(x, y)], z), (y, z), (x, g.comp[(y, z)])})
    failures = {c.name: c.witness for c in rep.failures()}
    assert failures["mult associative"] == f"triple ({fmt(x)},{fmt(y)},{fmt(z)})"
    x, y = next((x, y) for x, y in g.composable_pairs()
                if key in {(x, y), (g.inv[y], g.inv[x])})
    assert failures["(ab)* == b*a*"] == f"pair ({fmt(x)},{fmt(y)})"


def test_non_associative_base_raises_naming_the_triple():
    # Z/3 with 1 + 1 = 0: every fiber product is the identity, so no residual
    # can see it, but the products of (1,1,2) lie over 2 and over 1
    g = cyclic_group(3)
    g.comp[(1, 1)] = 0
    with pytest.raises(InvalidStructureError,
                       match=r"^products of \(1,1,2\) lie over different arrows$"):
        validate_fell_bundle(trivial_line_bundle(g))


def test_nan_inner_product_fails_with_witness(z2z2_bundle):
    e = symmetric_action_equivalence(*z2z2_bundle)
    key = next(k for k in e.left_inner if k[0] != k[1])
    e.left_inner[key] = e.left_inner[key] * np.nan
    rep = verify_bundle_equivalence(e)
    assert not rep.ok
    failures = {c.name: c.witness for c in rep.failures()}
    first = next(k for k in e.left_inner if k in (key, key[::-1]))
    assert failures["step 3: inner products adjoint-symmetric"] == fmt(first)
    z3 = next(z for z in e.base.space if e.base.rho[z] == e.base.rho[key[1]])
    assert failures["step 5: exchange identity"] == fmt((*key, z3))
    assert np.isnan(rep.metrics["step5 exchange"])


def test_nan_diagonal_inner_product_fails_step_6(z2z2_bundle):
    # step 6 takes ranks and eigenvalues of the diagonal inner products; a
    # NaN there fails the fullness check with its point instead of raising,
    # and the failures of steps 3-5 are still reported
    e = symmetric_action_equivalence(*z2z2_bundle)
    z = e.base.space[0]
    e.left_inner[(z, z)] = e.left_inner[(z, z)] * np.nan
    rep = verify_bundle_equivalence(e)
    failures = {c.name: c.witness for c in rep.failures()}
    assert failures["step 6: inner products full on unit fibers"] == \
        f"left inner product not finite at {fmt(z)}"
    assert failures["step 3: inner products adjoint-symmetric"] == fmt((z, z))
    assert "step 4: inner products compatible with the module actions" in failures
    assert "step 5: exchange identity" in failures


def test_zero_diagonal_inner_product_fails_step_6_fullness(z2z2_bundle):
    # a zero <z, z>_L spans nothing of its unit fiber: finite, but not full
    e = symmetric_action_equivalence(*z2z2_bundle)
    key = ((1, 1), (1, 1))
    e.left_inner[key] = np.zeros_like(e.left_inner[key])
    lines = str(verify_bundle_equivalence(e)).splitlines()
    assert "FAIL  step 6: inner products full on unit fibers  [left fullness at (1,1)]" in lines


def test_inner_product_coverage_names_the_pair(z2z2_bundle):
    # the witness is the first missing pair, else the first extra pair, in
    # space order, as e's (z1, z2)
    e = symmetric_action_equivalence(*z2z2_bundle)
    space = e.base.space
    checks = (("left inner product defined on sigma pairs", e.left_inner, e.base.sigma),
              ("right inner product defined on rho pairs", e.right_inner, e.base.rho))

    def witnesses():
        failures = {c.name: c.witness for c in verify_bundle_equivalence(e).failures()}
        return [failures.get(name) for name, _table, _fiber in checks]

    defined, outside = [], []
    for _name, table, fiber in checks:
        same = [(z1, z2) for z1 in space for z2 in space if fiber[z1] == fiber[z2]]
        other = [(z1, z2) for z1 in space for z2 in space if fiber[z1] != fiber[z2]]
        defined.append(same)
        outside.append(other[0])
        for key in (other[-1], other[0]):  # the first in space order is added last
            table[key] = table[(key[0], key[0])]
    assert witnesses() == [fmt(pair) for pair in outside]

    for (_name, table, _fiber), same in zip(checks, defined):
        for key in (same[-1], same[1]):
            del table[key]
    assert witnesses() == [fmt(same[1]) for same in defined]


HASH_CASE = """
from groupoidal import linking_system, symmetric_action_equivalence, validate_fell_bundle
from groupoidal.instances import symmetric_z2z2_bundle
ls = linking_system(symmetric_action_equivalence(*symmetric_z2z2_bundle()))
for x in ls.groupoid.arrows:
    if x[0] == "z":
        ls.bundle.star[x] = 2 * ls.bundle.star[x]
print([(c.name, c.witness) for c in validate_fell_bundle(ls.bundle).failures()])
"""


# actions that fail at many entries: the Z2xZ2 left action with every image
# moved to the next point of its fiber, the right action conjugated by such
# a shift, and g with each element's images rotated along the arrows; the
# integer tables number labels in table order, never in a set's order
HASH_ACTION_CASE = """
from dataclasses import replace
from groupoidal import (GroupoidEquivalence, check_action, check_space_action,
                        symmetric_groupoid_equivalence, verify_groupoid_equivalence)
from groupoidal.instances import symmetric_z2z2_actions
x, g, h = symmetric_z2z2_actions()
e = symmetric_groupoid_equivalence(x, g, h)
def shifted(a, fibring):
    fibers = {}
    for z in a.space:
        fibers.setdefault(fibring[z], []).append(z)
    return {z: f[(f.index(z) + 1) % len(f)] for f in fibers.values() for z in f}
left = shifted(e.left_action, e.left_action.fibring)
a = replace(e.left_action, act={k: left[v] for k, v in e.left_action.act.items()})
perm = shifted(e.right_action, e.sigma)
f = GroupoidEquivalence(e.left_action, replace(
    e.right_action, act={(q, perm[z]): perm[v] for (q, z), v in e.right_action.act.items()}))
arrows = list(x.arrows)
rotated = replace(g, act={(t, y): arrows[(arrows.index(v) + 1) % len(arrows)]
                         if t != g.group.identity else v for (t, y), v in g.act.items()})
for rep in (check_space_action(a), verify_groupoid_equivalence(f), check_action(rotated)):
    print([(c.name, c.witness) for c in rep.failures()])
"""


def _outputs_under_hash_seeds(case):
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", case], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    return outputs


def test_witnesses_do_not_depend_on_the_hash_seed():
    # the Z2xZ2 linking bundle with its z stars doubled fails the
    # antihomomorphism law at many pairs; the witness is the first of them
    outputs = _outputs_under_hash_seeds(HASH_CASE)
    assert outputs[0] == outputs[1]
    assert "(ab)* == b*a*" in outputs[0]


def test_action_witnesses_do_not_depend_on_the_hash_seed():
    outputs = _outputs_under_hash_seeds(HASH_ACTION_CASE)
    assert outputs[0] == outputs[1]
    for name in ("compatible with composition", "(iii) actions commute",
                 "acts by automorphisms (composition)"):
        assert name in outputs[0]


# ---------------------------------------------------------------------------
# trivial C*-bundles, pullbacks, transformation bundles


def test_make_trivial_cbundle_line():
    b = make_trivial_cbundle(diagonal_algebra(1), ("x",))
    assert validate_fell_bundle(b).ok
    assert b.total_dimension() == 1


def test_make_trivial_cbundle_matrix_fibers():
    m2 = matrix_algebra(2)
    b = make_trivial_cbundle(m2, ("x", "y"))
    assert validate_fell_bundle(b).ok
    assert all(b.dim[x] == 4 for x in b.base.arrows)
    assert b.total_dimension() == 8
    # every fiber carries the algebra structure of the given C*-algebra
    for x in b.base.arrows:
        assert_close(b.mult[(x, x)], m2.struct)
        assert_close(b.star[x], m2.invol)


def test_make_trivial_cbundle_rejects_non_cstar():
    bad = diagonal_algebra(2)
    bad.struct = np.zeros_like(bad.struct)  # kill the product: radical appears
    with pytest.raises(InvalidStructureError, match="C\\*"):
        make_trivial_cbundle(bad, ("x",))


def test_pullback_identity_is_same_bundle():
    g = make_pair_groupoid(2)
    b = trivial_line_bundle(g)
    hom = GroupoidHom(g, g, {x: x for x in g.arrows})
    pb = pullback_bundle(hom, b)
    assert pb.dim == b.dim
    assert all(np.array_equal(pb.mult[k], b.mult[k]) for k in b.mult)


def test_pullback_dimensions_transported(z2):
    act = group_set_action(
        z2, ("a", "b"),
        {(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"}, "left")
    b = make_trivial_cbundle(matrix_algebra(2), tuple(z2.elements))
    # reuse the base of b as the target; pull back along the projection
    tb_base = transformation_groupoid(z2, act)
    hom = GroupoidHom(tb_base, z2, {(x, u): x for (x, u) in tb_base.arrows})
    lb = trivial_line_bundle(z2)
    pb = pullback_bundle(hom, lb)
    assert all(pb.dim[(x, u)] == lb.dim[x] for (x, u) in tb_base.arrows)


def test_verify_bundle_iso_reports_partial_maps():
    lb = trivial_line_bundle(make_pair_groupoid(2))
    arrows = lb.base.arrows
    ident = {x: x for x in arrows}
    eye = {x: np.eye(1, dtype=complex) for x in arrows}
    assert verify_bundle_iso(BundleIso(lb, lb, ident, eye)).ok
    partial = {x: y for x, y in ident.items() if x != (1, 2)}
    rep = verify_bundle_iso(BundleIso(lb, lb, partial, eye))
    assert [c.name for c in rep.checks] == ["arrow map bijective"] and not rep.ok
    no_fiber = {x: m for x, m in eye.items() if x != (2, 1)}
    rep = verify_bundle_iso(BundleIso(lb, lb, ident, no_fiber))
    assert [(c.name, c.witness) for c in rep.failures()] == \
        [("fiber maps are linear isomorphisms", "(2,1)")]


def test_verify_bundle_iso_rejects_an_injective_map_into_a_larger_fiber():
    # C -> C + C, a -> (a, 0), is injective, multiplicative and star-preserving,
    # but not onto: the two section algebras are not isomorphic
    small = make_trivial_cbundle(diagonal_algebra(1), (0,))
    large = make_trivial_cbundle(diagonal_algebra(2), (0,))
    rep = verify_bundle_iso(BundleIso(small, large, {0: 0},
                                      {0: np.array([[1.0], [0.0]], dtype=complex)}))
    assert [(c.name, c.witness) for c in rep.failures()] == \
        [("fiber maps are linear isomorphisms", "0")]
    # and the other way round, a map onto a smaller fiber
    rep = verify_bundle_iso(BundleIso(large, small, {0: 0},
                                      {0: np.array([[1.0, 0.0]], dtype=complex)}))
    assert not rep.ok


def test_transformation_bundle_matches_pullback(z2):
    # the coordinate projection identifies the transformation bundle with
    # the pullback, here via (a, u) -> (a, p(a).u) which for the line bundle
    # is the identity on labels
    act = group_set_action(
        z2, ("a", "b"),
        {(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"}, "left")
    lb = trivial_line_bundle(z2)
    tb = transformation_fell_bundle(lb, act)
    assert validate_fell_bundle(tb).ok
    assert len(tb.base.arrows) == 4 and all(d == 1 for d in tb.dim.values())
    hom = GroupoidHom(tb.base, z2, {(x, u): x for (x, u) in tb.base.arrows})
    pb = pullback_bundle(hom, lb)
    iso = BundleIso(tb, pb, {a: a for a in tb.base.arrows},
                    {a: np.eye(1, dtype=complex) for a in tb.base.arrows})
    assert verify_bundle_iso(iso).ok


def test_transformation_bundle_involution_formula(z2):
    # (a,u)* = (a*, p(a).u) on every element
    act = group_set_action(
        z2, ("a", "b"),
        {(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"}, "left")
    lb = trivial_line_bundle(z2)
    tb = transformation_fell_bundle(lb, act)
    for (x, u) in tb.base.arrows:
        assert tb.base.inv[(x, u)] == (z2.inv[x], act.apply(x, u))
        assert_close(tb.star[(x, u)], lb.star[x])


def test_transformation_bundle_one_point_restriction(triv):
    act = group_set_action(triv, ("p",), {("e", "p"): "p"}, "left")
    lb = trivial_line_bundle(triv)
    tb = transformation_fell_bundle(lb, act)
    assert len(tb.base.arrows) == 1
    assert validate_fell_bundle(tb).ok


# ---------------------------------------------------------------------------
# bundle actions


def test_trivial_bundle_action(z2):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    ba = trivial_bundle_action(z2, lb, "left")
    assert check_bundle_action(ba).ok
    assert not is_free_bundle_action(ba)


def test_diagonal_action_on_constant_bundle(z2):
    # the Raeburn builder: (b, x).h = (inv(tau_h) b, x.h)
    b = make_trivial_cbundle(diagonal_algebra(2), (0, 1))
    base = b.base
    from groupoidal import GroupAction
    act = GroupAction(z2, base, {(t, u): (t + u) % 2
                                 for t in z2.elements for u in base.arrows}, "right")
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    fiber = {(t, u): (np.eye(2, dtype=complex) if t == 0 else swap)
             for t in z2.elements for u in base.arrows}
    ba = BundleAction(z2, b, act, fiber, "right")
    rep = check_bundle_action(ba)
    assert rep.ok
    assert is_free_bundle_action(ba)
    # p-equivariance is structural: fiber maps land over the moved arrow
    for (t, u), m in ba.fiber_maps.items():
        assert m.shape == (b.dim[act.act[(t, u)]], b.dim[u])


def test_bundle_action_group_law_violation_detected(z2):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    act = trivial_action(z2, lb.base, "left")
    fiber = identity_fiber_maps(lb, act)
    fiber[(1, (1, 2))] = -np.eye(1, dtype=complex)  # breaks U_1 U_1 = U_0
    ba = BundleAction(z2, lb, act, fiber, "left")
    rep = check_bundle_action(ba)
    assert not rep.ok


# ---------------------------------------------------------------------------
# semidirect and quotient bundles


def test_semidirect_bundle_trivial_group(triv):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    sd = semidirect_fell_bundle(lb, trivial_bundle_action(triv, lb, "left"))
    assert validate_fell_bundle(sd).ok
    assert sd.total_dimension() == lb.total_dimension()


def test_semidirect_bundle_z2_swap(z2):
    g = make_pair_groupoid(2)
    act = action_from_unit_map(z2, g, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}}, "left")
    lb, ba = line_bundle_action(act)
    sd = semidirect_fell_bundle(lb, ba)
    assert sd.total_dimension() == 8
    assert validate_fell_bundle(sd).ok
    # involution: (a,s)* = (inv(s).a*, inv(s)) on every fiber
    for (x, s) in sd.base.arrows:
        si = z2.inv_elem(s)
        expected = ba.fiber_maps[(si, g.inv[x])] @ lb.star[x]
        assert_close(sd.star[(x, s)], expected)
        assert sd.base.inv[(x, s)] == (act.apply(si, g.inv[x]), si)


def test_semidirect_right_bundle(z2):
    g = make_pair_groupoid(4)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    lb, ba = line_bundle_action(act)
    sd = semidirect_right_fell_bundle(ba, lb)
    assert sd.total_dimension() == 32
    assert validate_fell_bundle(sd).ok


def test_quotient_bundle(z2, z2z2_actions):
    g4, _gact, hact = z2z2_actions
    lb, hba = line_bundle_action(hact)
    qb, qm = quotient_fell_bundle(lb, hba)
    assert len(qb.base.arrows) == 8
    assert validate_fell_bundle(qb).ok
    # star passes to orbits: (a.H)* = a*.H for all fibers
    for p in qb.base.arrows:
        expected = qm.fiber_transport[lb.base.inv[p]] @ lb.star[p]
        assert_close(qb.star[p], expected)


def test_quotient_bundle_trivial_group(triv):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    qb, qm = quotient_fell_bundle(lb, trivial_bundle_action(triv, lb, "right"))
    assert qb.dim == lb.dim
    assert all(np.array_equal(qb.mult[k], lb.mult[k]) for k in lb.mult)


def test_quotient_bundle_rejects_non_free(z2):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    ba = trivial_bundle_action(z2, lb, "right")
    with pytest.raises(NonFreeActionError):
        quotient_fell_bundle(lb, ba)


# ---------------------------------------------------------------------------
# module actions


def test_orbit_bundle_action(z2, triv, z2z2_actions):
    g4, _gact, hact = z2z2_actions
    lb, hba = line_bundle_action(hact)
    mod = orbit_bundle_action(lb, hba)
    assert check_module_action(mod).ok
    # after the principal identification the module action is c.(d, u) = (cd, u):
    # transported through the fiber charts it equals transformation-bundle
    # multiplication in the quotient coordinate
    pfd = principal_fell_decomposition(lb, hba)
    chart, fibers = pfd.iso.arrow_map, pfd.iso.fiber_maps
    trans = pfd.transformation_bundle
    for (p, z), tensor in mod.tensors.items():
        q, u = chart[z]
        left_arrow = (p, pfd.base.action.apply(q, u))
        assert trans.base.comp[(left_arrow, (q, u))] == chart[mod.base.apply(p, z)]
        lhs = np.einsum("kl,lij->kij", fibers[mod.base.apply(p, z)], tensor)
        rhs = np.einsum("kib,bj->kij", trans.mult[(left_arrow, (q, u))], fibers[z])
        assert_close(lhs, rhs)
    # trivial group: plain bundle multiplication
    lb2 = trivial_line_bundle(g4)
    mod0 = orbit_bundle_action(lb2, trivial_bundle_action(triv, lb2, "right"))
    for (p, z), tensor in mod0.tensors.items():
        assert_close(tensor, lb2.mult[(p, z)])
    assert check_module_action(mod0).ok


def test_semidirect_orbit_bundle_action(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    mod = semidirect_orbit_bundle_action(lb, gba, hba)
    assert check_module_action(mod).ok
    # adjusted-representative formula: (a.H, t).b = (a.h)(t.b) with
    # src(a).h = t.r(b); for line bundles the tensor entry is exactly 1
    for tensor in mod.tensors.values():
        assert_close(tensor, np.ones((1, 1, 1)))


def test_semidirect_orbit_bundle_action_trivial_groups(triv):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    mod = semidirect_orbit_bundle_action(
        lb, trivial_bundle_action(triv, lb, "left"),
        trivial_bundle_action(triv, lb, "right"))
    assert check_module_action(mod).ok


# ---------------------------------------------------------------------------
# principal bundle decomposition


def test_principal_fell_trivial_group(triv):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    pfd = principal_fell_decomposition(lb, trivial_bundle_action(triv, lb, "right"))
    assert verify_bundle_iso(pfd.iso).ok
    assert pfd.iso.arrow_map == {x: (x, lb.base.src[x]) for x in lb.base.arrows}


def test_principal_fell_four_points(z2z2_bundle):
    lb, _gba, hba = z2z2_bundle
    pfd = principal_fell_decomposition(lb, hba)
    rep = verify_bundle_iso(pfd.iso)
    assert rep.ok
    assert rep.metrics["multiplicativity"] <= 1e-9
    # multiplicativity instance tau(a)tau(b) = tau(ab), re-checked directly
    src = lb.base
    tau, amap = pfd.iso.fiber_maps, pfd.iso.arrow_map
    trans = pfd.transformation_bundle
    for (a, b) in src.composable_pairs():
        lhs = np.einsum("kab,ai,bj->kij", trans.mult[(amap[a], amap[b])],
                        tau[a], tau[b])
        rhs = np.einsum("kl,lij->kij", tau[src.comp[(a, b)]], lb.mult[(a, b)])
        assert_close(lhs, rhs)


def test_principal_fell_matches_quotient_transformation_picture(z2):
    # a transformation bundle over a principal base, quotiented by the group
    # acting in the space coordinate, recovers the original bundle
    grp = cyclic_group(2)
    unit = grp.units[0]
    lt = SpaceAction(grp, tuple(grp.elements), {u: unit for u in grp.elements},
                     {(g, u): grp.mul(g, u) for g in grp.elements
                      for u in grp.elements}, "left")
    lb = trivial_line_bundle(grp)
    tb = transformation_fell_bundle(lb, lt)
    from groupoidal import GroupAction
    rt = GroupAction(grp, tb.base,
                     {(t, (x, u)): (x, grp.mul(u, grp.inv_elem(t)))
                      for t in grp.elements for (x, u) in tb.base.arrows},
                     "right")
    ba = BundleAction(grp, tb, rt, identity_fiber_maps(tb, rt), "right")
    qb, _qm = quotient_fell_bundle(tb, ba)
    iso = BundleIso(qb, lb, {p: p[0] for p in qb.base.arrows},
                    {p: np.eye(1, dtype=complex) for p in qb.base.arrows})
    assert verify_bundle_iso(iso).ok


def test_randomized_principal_decompositions():
    rng = np.random.default_rng(90125)
    for _ in range(8):
        bundle, hba = random_free_action_instance(rng)
        pfd = principal_fell_decomposition(bundle, hba)
        assert verify_bundle_iso(pfd.iso).ok
        # the opposite bundle is a Fell bundle, and opposite is an involution
        assert validate_fell_bundle(opposite(bundle)).ok
        again = opposite(opposite(bundle))
        assert all(np.array_equal(again.mult[k], m) for k, m in bundle.mult.items())


# ---------------------------------------------------------------------------
# equivalence bimodules


def test_symmetric_action_equivalence_verifies(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    rep = verify_bundle_equivalence(e)
    assert rep.ok, rep.failures()
    for key, value in rep.metrics.items():
        if key.startswith("step") and "margin" not in key:
            assert value <= 1e-9


def test_trivial_groups_exchange_is_associativity(triv):
    # with both groups trivial the exchange identity is (ab*)c = a(b*c)
    lb = trivial_line_bundle(make_pair_groupoid(3))
    e = one_sided_equivalence(lb, trivial_bundle_action(triv, lb, "left"))
    rep = verify_bundle_equivalence(e)
    assert rep.ok
    base, x = e.base, lb.base
    for (z1, z2_) in e.left_inner:
        # inner products reduce to bundle multiplication against the star
        expected = np.einsum("mic,cj->mij", lb.mult[(z1, x.inv[z2_])],
                             lb.star[z2_])
        assert_close(e.left_inner[(z1, z2_)], expected)


def test_inner_product_projection_compatibility(z2z2_bundle):
    # p(<a,b>_L) is the left bracket of the base points
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    for (z1, z2_), tensor in e.left_inner.items():
        p = bracket_by_search(e.base, z1, z2_)
        assert tensor.shape[0] == e.left_bundle.dim[p]


def test_one_sided_equivalence(z2z2_bundle):
    lb, gba, _hba = z2z2_bundle
    e = one_sided_equivalence(lb, gba)
    rep = verify_bundle_equivalence(e)
    assert rep.ok, rep.failures()
    # right inner product <a,b>_R = G.(a* b): for the line bundle the
    # tensor entry is conj-linear in a and exactly 1 on basis vectors
    for (z1, z2_), tensor in e.right_inner.items():
        assert_close(tensor, np.ones((1, 1, 1)))


def test_one_sided_transformation_equivalence(z2):
    grp = cyclic_group(2)
    unit = grp.units[0]
    om = (0, 1)
    yact = SpaceAction(grp, om, {u: unit for u in om},
                       {(g, u): (g + u) % 2 for g in grp.elements for u in om},
                       "left")
    gact = group_set_action(z2, om, {(t, u): (t + u) % 2
                                     for t in z2.elements for u in om}, "left")
    lb = trivial_line_bundle(grp)
    e = one_sided_transformation_equivalence(lb, yact, gact)
    rep = verify_bundle_equivalence(e)
    assert rep.ok, rep.failures()
    # fibrings: rho(y,u) = ((r(y), y.u), e), and sigma(y,u) = ('e', (s(y), r))
    # is the unit of G\(b*Omega) at the orbit representative r of u
    right = e.base.right_groupoid
    reps = {r for (_k, (_y, r)) in right.arrows}
    for (y, u) in e.base.space:
        assert e.base.rho[(y, u)] == ((grp.rng[y], yact.apply(y, u)), 0)
        (r,) = {gact.apply(t, u) for t in z2.elements} & reps
        assert e.base.sigma[(y, u)] == ("e", (grp.src[y], r))
    # the right bundle is b on the orbit representatives, ('e', (y, u)) -> y
    iso = verify_bundle_iso(BundleIso(
        e.right_bundle, lb, {x: x[1][0] for x in right.arrows},
        {x: np.eye(1, dtype=complex) for x in right.arrows}))
    assert iso.ok, iso.failures()
    assert iso.metrics["multiplicativity"] == iso.metrics["star preservation"] == 0.0
    # left inner product instance: <(b, t.u), (c, u)>_L sits over
    # (bc*, t.p(c).u, t)
    for (z1, z2_) in e.left_inner:
        (y1, u1), (y2, u2) = z1, z2_
        p = bracket_by_search(e.base, z1, z2_)
        (w, uw), t = p
        assert w == grp.comp[(y1, grp.inv[y2])]
        assert uw == yact.apply(y2, u1)


def test_one_sided_transformation_rejects_bad_principal_data(z2, triv):
    grp = cyclic_group(2)
    unit = grp.units[0]
    om = (0, 1)
    yact = SpaceAction(grp, om, {u: unit for u in om},
                       {(g, u): (g + u) % 2 for g in grp.elements for u in om},
                       "left")
    lazy = group_set_action(z2, om, {(t, u): u for t in z2.elements for u in om},
                            "left")
    lb = trivial_line_bundle(grp)
    with pytest.raises(InvalidStructureError, match="free"):
        one_sided_transformation_equivalence(lb, yact, lazy)


# G actions on Omega = Z4, over the base Z2 moving Omega by 2 inside its one
# fiber: Z2 swapping 0<->1 and 2<->3 is free and commutes, but its orbits
# split the fiber in two; Z4 through the cycle 0 -> 2 -> 1 -> 3 is free and
# transitive, but does not commute, so its lift is not by automorphisms
_CYCLE = (0, 2, 1, 3)  # its own inverse: the position of u in the cycle
BAD_PRINCIPAL_ACTIONS = {
    "orbits_not_fibers": (2, lambda t, u: u ^ t, "orbits differ from fibring fibers"),
    "not_commuting": (4, lambda t, u: _CYCLE[(_CYCLE[u] + t) % 4],
                      "bundle action g: base: acts by automorphisms"),
}


@pytest.mark.parametrize("name", BAD_PRINCIPAL_ACTIONS)
def test_one_sided_transformation_rejects_bad_group_actions(name):
    order, move, message = BAD_PRINCIPAL_ACTIONS[name]
    grp, g = cyclic_group(2), cyclic_group(order)
    om = (0, 1, 2, 3)
    yact = SpaceAction(grp, om, {u: grp.units[0] for u in om},
                       {(y, u): (u + 2 * y) % 4 for y in grp.elements for u in om},
                       "left")
    gact = group_set_action(g, om, {(t, u): move(t, u) for t in g.elements for u in om},
                            "left")
    with pytest.raises(InvalidStructureError, match=message):
        one_sided_transformation_equivalence(trivial_line_bundle(grp), yact, gact)


def test_corrupted_inner_product_fails_step3(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    key = next(k for k in e.left_inner if k[0] != k[1])
    e.left_inner[key] = -e.left_inner[key]
    rep = verify_bundle_equivalence(e)
    assert not rep.ok
    failing = [c.name for c in rep.failures()]
    assert any("step 3" in name for name in failing)
    assert any(c.witness for c in rep.failures())


def test_unique_translate_searches_succeed_once(z2z2_bundle):
    # every inner-product pair admits exactly one group translate
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    base = e.base
    g, h = gba.base_action, hba.base_action
    x = lb.base
    for (z1, z2_) in e.left_inner:
        hits = [t for t in g.group.elements
                if g.unit_image(t, x.src[z2_]) == x.src[z1]]
        assert len(hits) == 1
    for (z1, z2_) in e.right_inner:
        hits = [k for k in h.group.elements
                if h.unit_image(k, x.rng[z1]) == x.rng[z2_]]
        assert len(hits) == 1


def test_adjoint_symmetry_exhaustive(z2z2_bundle):
    # star of the left inner product equals the swapped left inner product
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    p_bun = e.left_bundle
    for (z1, z2_), tensor in e.left_inner.items():
        p = bracket_by_search(e.base, z1, z2_)
        starred = np.einsum("kl,lij->kij", p_bun.star[p], np.conjugate(tensor))
        swapped = np.transpose(e.left_inner[(z2_, z1)], (0, 2, 1))
        assert_close(starred, swapped)


def test_one_sided_transformation_trivial_case(triv):
    # the space is the unit set of the base and the group is trivial
    grp = cyclic_group(2)
    om = tuple(grp.units)
    yact = SpaceAction(grp, om, {u: u for u in om},
                       {(g, u): grp.rng[g] for g in grp.elements for u in om
                        if grp.src[g] == u}, "left")
    gact = group_set_action(triv, om, {("e", u): u for u in om}, "left")
    lb = trivial_line_bundle(grp)
    e = one_sided_transformation_equivalence(lb, yact, gact)
    assert verify_bundle_equivalence(e).ok


def test_randomized_symmetric_equivalences_verify():
    # end-to-end property run: random free commuting pairs with the line
    # bundle on top must yield verified equivalence bimodules
    from groupoidal import BundleAction, identity_fiber_maps
    from groupoidal.instances import random_free_commuting_instance

    rng = np.random.default_rng(57721566)
    for _ in range(6):
        base, gact, hact = random_free_commuting_instance(rng)
        lb = trivial_line_bundle(base)
        gba = BundleAction(gact.group, lb, gact,
                           identity_fiber_maps(lb, gact), "left")
        hba = BundleAction(hact.group, lb, hact,
                           identity_fiber_maps(lb, hact), "right")
        e = symmetric_action_equivalence(lb, gba, hba)
        rep = verify_bundle_equivalence(e)
        assert rep.ok, rep.failures()
        assert verify_bundle_equivalence(opposite(e)).ok
