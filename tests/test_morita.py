import re
from pathlib import Path

import numpy as np
import pytest

from groupoidal import (
    AlgebraAction,
    BundleAction,
    InvalidStructureError,
    SpaceAction,
    coaction_demo,
    cstar_bundle_morita,
    exchange_residual,
    group_set_action,
    identity_fiber_maps,
    linking_system,
    make_pair_groupoid,
    make_trivial_cbundle,
    one_sided_equivalence,
    one_sided_morita,
    one_sided_transformation_morita,
    raeburn,
    section_algebra,
    star_structure_report,
    symmetric_action_equivalence,
    symmetric_morita,
    transformation_fell_bundle,
    trivial_bundle_action,
    trivial_line_bundle,
    validate_fell_bundle,
    validate_groupoid,
    verify_morita,
)
from groupoidal import GroupAction, morita
from groupoidal.instances import (
    cyclic_group,
    diagonal_algebra,
    matrix_algebra,
    raeburn_four_points,
    raeburn_two_points,
    symmetric_z2z2_bundle,
)
from groupoidal._util import fmt

from conftest import assert_close, dense_raeburn_side

GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# linking systems


def test_linking_system_trivial_groups(triv):
    # both groups trivial: a two-by-two block structure over the bundle data
    lb = trivial_line_bundle(make_pair_groupoid(2))
    e = one_sided_equivalence(lb, trivial_bundle_action(triv, lb, "left"))
    ls = linking_system(e)
    assert validate_groupoid(ls.groupoid).ok
    assert validate_fell_bundle(ls.bundle).ok
    n = len(lb.base.arrows)
    assert ls.corner_left.dimension == n
    assert ls.corner_right.dimension == n
    assert ls.algebra.dimension == 4 * n
    cert = verify_morita(ls)
    assert cert.verdict == "equivalent"
    # corners of the trivial scenario carry the same invariants
    assert sorted(cert.left_report.blocks) == sorted(cert.right_report.blocks)


def test_linking_projections_sum_to_unit(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    ls = linking_system(e)
    unit = ls.algebra.unit()
    assert unit is not None
    assert_close(ls.projection_left + ls.projection_right, unit)
    # each projection is a self-adjoint idempotent
    for p in (ls.projection_left, ls.projection_right):
        assert_close(ls.algebra.multiply(p, p), p)
        assert_close(ls.algebra.star_vec(p), p)


def test_linking_system_symmetric_instance(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    ls = linking_system(e)
    assert validate_groupoid(ls.groupoid).ok
    assert validate_fell_bundle(ls.bundle).ok
    # |P| + |Q| + 2|Z| arrows
    assert len(ls.groupoid.arrows) == 16 + 16 + 2 * 16
    cert = verify_morita(ls)
    assert cert.verdict == "equivalent"
    assert cert.left_report.center_dimension == cert.right_report.center_dimension
    # exchange residual is the linking associativity defect on (Z, Zb, Z)
    assert cert.exchange_residual <= 1e-9
    assert validate_fell_bundle(ls.bundle).metrics["associativity"] <= 1e-9


def test_linking_system_one_sided_z2(z2z2_bundle):
    lb, gba, _hba = z2z2_bundle
    e = one_sided_equivalence(lb, gba)
    ls = linking_system(e)
    assert validate_groupoid(ls.groupoid).ok
    cert = verify_morita(ls)
    assert cert.verdict == "equivalent"


def test_zeroed_off_diagonal_fails_fullness(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    for key in e.left_inner:
        e.left_inner[key] = np.zeros_like(e.left_inner[key])
    for key in e.right_inner:
        e.right_inner[key] = np.zeros_like(e.right_inner[key])
    ls = linking_system(e, strict=False)
    cert = verify_morita(ls)
    assert cert.verdict == "not-certified"
    assert cert.fullness_rank_left == 0
    assert cert.fullness_rank_right == 0
    assert any("not full" in note for note in cert.notes)


def test_fullness_closes_one_inner_product_under_the_corner(z2z2_bundle):
    # a single nonzero inner product spans one dimension; the ideal it
    # generates is reached only by closing that span under the corner
    e = symmetric_action_equivalence(*z2z2_bundle)
    kept = next(k for k in e.left_inner if k[0] == k[1])
    for key in e.left_inner:
        if key != kept:
            e.left_inner[key] = np.zeros_like(e.left_inner[key])
    ls = linking_system(e, strict=False)
    corner = ls.corner_left
    z = kept[0]
    arrow = ls.groupoid.comp[(("z", z), ("zb", z))]
    s = np.zeros(corner.dimension, dtype=complex)
    for k, c in enumerate(e.left_inner[kept][:, 0, 0]):
        s[corner.basis.index((arrow, k))] = c
    n = corner.dimension
    ideal = [s] + [corner.struct[:, :, j] @ (corner.struct[:, i, :] @ s)
                   for i in range(n) for j in range(n)]
    assert np.linalg.matrix_rank(s[None, :]) == 1
    assert np.linalg.matrix_rank(np.array(ideal)) == n == 16
    cert = verify_morita(ls)
    assert cert.fullness_rank_left == n
    assert cert.fullness_rank_right == ls.corner_right.dimension


def test_positivity_margin_over_all_sections(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    ls = linking_system(e)
    cert = verify_morita(ls)
    assert cert.positivity_margin_left >= -1e-9
    assert cert.positivity_margin_right >= -1e-9


def test_exchange_residual_matches_linking_defect(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    e = symmetric_action_equivalence(lb, gba, hba)
    assert exchange_residual(e) <= 1e-9
    key = next(k for k in e.left_inner if k[0] != k[1])
    e.left_inner[key] = 2.0 * e.left_inner[key]
    assert exchange_residual(e) > 1e-9


def test_unverified_paths_reject_a_pair_without_bracket(z2z2_bundle):
    # an inner product on points in different sigma fibers has no bracket;
    # the paths that skip verification must still name the pair
    e = symmetric_action_equivalence(*z2z2_bundle)
    z1, z2 = next((a, b) for a in e.base.space for b in e.base.space
                  if e.base.sigma[a] != e.base.sigma[b])
    e.left_inner[(z1, z2)] = e.left_inner[(z1, z1)]
    with pytest.raises(InvalidStructureError, match=re.escape(f"no bracket at {fmt((z1, z2))}")):
        exchange_residual(e)
    with pytest.raises(InvalidStructureError, match="no bracket"):
        linking_system(e, strict=False)


def test_unverified_paths_reject_a_moved_action_entry():
    # moving one action entry to another point of its fiber leaves a pair of
    # the inner products without a bracket; a seeded sample of those moves
    base = symmetric_action_equivalence(*symmetric_z2z2_bundle()).base
    moves = [(side, key, v)
             for side, fiber in (("left_action", base.rho), ("right_action", base.sigma))
             for key, v0 in getattr(base, side).act.items()
             for v in base.space if v != v0 and fiber[v] == fiber[v0]]
    named = {f"no bracket at {fmt((z1, z2))}" for z1 in base.space for z2 in base.space}
    for k in np.random.default_rng(14).choice(len(moves), size=24, replace=False):
        side, key, v = moves[k]
        for run in (exchange_residual, lambda f: linking_system(f, strict=False)):
            e = symmetric_action_equivalence(*symmetric_z2z2_bundle())
            getattr(e.base, side).act[key] = v
            with pytest.raises(InvalidStructureError) as exc:
                run(e)
            assert str(exc.value) in named


# ---------------------------------------------------------------------------
# headline certificates


def test_symmetric_morita_certificate(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    cert = symmetric_morita(lb, gba, hba)
    assert cert.verdict == "equivalent"
    assert cert.centers_match
    assert cert.corners_full
    assert len(cert.left_report.blocks) == len(cert.right_report.blocks)
    assert any("identified with the crossed product" in n for n in cert.notes)


def test_symmetric_morita_trivial_groups(triv):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    cert = symmetric_morita(lb, trivial_bundle_action(triv, lb, "left"),
                            trivial_bundle_action(triv, lb, "right"))
    assert cert.verdict == "equivalent"
    assert cert.left_report.blocks == cert.right_report.blocks


def test_one_sided_morita(z2z2_bundle):
    lb, gba, _hba = z2z2_bundle
    cert = one_sided_morita(lb, gba)
    assert cert.verdict == "equivalent"
    assert cert.left_report.center_dimension == cert.right_report.center_dimension


def test_certificate_serialization_deterministic(z2z2_bundle):
    lb, gba, hba = z2z2_bundle
    a = symmetric_morita(lb, gba, hba, seed=3).to_json()
    b = symmetric_morita(lb, gba, hba, seed=3).to_json()
    assert a == b
    assert '"verdict": "equivalent"' in a


# ---------------------------------------------------------------------------
# C*-bundle and transformation scenarios


def test_cstar_bundle_morita_line_fibers(z2):
    b = make_trivial_cbundle(diagonal_algebra(1), (0, 1))
    act = GroupAction(z2, b.base, {(t, u): (t + u) % 2
                                   for t in z2.elements for u in b.base.arrows},
                      "left")
    ba = BundleAction(z2, b, act, identity_fiber_maps(b, act), "left")
    cert = cstar_bundle_morita(b, ba)
    assert cert.verdict == "equivalent"
    assert sorted(cert.left_report.blocks) == [2]
    assert sorted(cert.right_report.blocks) == [1]
    assert cert.left_report.center_dimension == 1
    assert cert.right_report.center_dimension == 1


def test_cstar_bundle_morita_matrix_fibers(z2):
    b = make_trivial_cbundle(matrix_algebra(2), (0, 1))
    act = GroupAction(z2, b.base, {(t, u): (t + u) % 2
                                   for t in z2.elements for u in b.base.arrows},
                      "left")
    ba = BundleAction(z2, b, act, identity_fiber_maps(b, act), "left")
    cert = cstar_bundle_morita(b, ba)
    assert cert.verdict == "equivalent"
    assert sorted(cert.left_report.blocks) == [4]
    assert sorted(cert.right_report.blocks) == [2]


def test_cstar_bundle_morita_rejects_non_space_base(z2):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    ba = trivial_bundle_action(z2, lb, "left")
    with pytest.raises(InvalidStructureError, match="units"):
        cstar_bundle_morita(lb, ba)


def test_transformation_morita(z2):
    grp = cyclic_group(2)
    unit = grp.units[0]
    om = (0, 1)
    yact = SpaceAction(grp, om, {u: unit for u in om},
                       {(g, u): (g + u) % 2 for g in grp.elements for u in om},
                       "left")
    gact = group_set_action(z2, om, {(t, u): (t + u) % 2
                                     for t in z2.elements for u in om}, "left")
    lb = trivial_line_bundle(grp)
    cert = one_sided_transformation_morita(lb, yact, gact)
    assert cert.verdict == "equivalent"
    assert cert.right_dimension == section_algebra(lb).dimension


# ---------------------------------------------------------------------------
# raeburn


def test_raeburn_trivial_everything(triv):
    points = ("x",)
    gsp = group_set_action(triv, points, {("e", "x"): "x"}, "left")
    hsp = group_set_action(triv, points, {("e", "x"): "x"}, "right")
    b = diagonal_algebra(1)
    act = AlgebraAction(triv, b, {"e": np.eye(1, dtype=complex)}, "left")
    cert = raeburn(points, gsp, hsp, b, act, act)
    assert cert.verdict == "equivalent"
    assert cert.left_dimension == cert.right_dimension == 1


def test_raeburn_smallest_nontrivial():
    cert = raeburn(*raeburn_two_points())
    assert cert.verdict == "equivalent"
    assert sorted(cert.left_report.blocks) == [2]
    assert sorted(cert.right_report.blocks) == [1]


def test_raeburn_two_sided_four_points():
    cert = raeburn(*raeburn_four_points())
    assert cert.verdict == "equivalent"
    assert cert.left_report.center_dimension == cert.right_report.center_dimension
    assert any("identified equivariantly" in n for n in cert.notes)


def _defective_quotient(defect):
    """morita.quotient_fell_bundle with ``defect`` added to one nonzero
    product entry of the quotient bundle."""
    original = morita.quotient_fell_bundle

    def defective(a, ba, tol):
        quot, qm = original(a, ba, tol)
        key = next(iter(quot.mult))
        tensor = quot.mult[key].copy()
        tensor[np.nonzero(tensor)[0][0], 0, 0] += defect
        quot.mult[key] = tensor
        return quot, qm

    return defective


def _defective_induced_quotients(monkeypatch, defect):
    # the quotient bundles that _raeburn_side identifies each induced algebra
    # with get ``defect``, so that each identification has that residual;
    # the quotients of symmetric_morita are left alone
    side = morita._raeburn_side

    def defective_side(*args):
        with monkeypatch.context() as m:
            m.setattr(morita, "quotient_fell_bundle", _defective_quotient(defect))
            return side(*args)

    monkeypatch.setattr(morita, "_raeburn_side", defective_side)


def test_raeburn_nan_identification_is_not_certified(monkeypatch):
    # Python's max(0.0, nan) is 0.0: the residuals are reduced NaN-first
    _defective_induced_quotients(monkeypatch, np.nan)
    cert = raeburn(*raeburn_four_points())
    assert cert.verdict == "not-certified"
    assert "induced-algebra identification failed" in cert.notes
    assert "induced algebra over H identified equivariantly (residual nan)" in cert.notes


def test_raeburn_identification_is_checked_at_the_certificate_tolerance(monkeypatch):
    # a residual between 1e-9 and tol reaches the verdict instead of raising
    _defective_induced_quotients(monkeypatch, 1e-8)
    cert = raeburn(*raeburn_four_points(), tol=1e-6)
    assert cert.verdict == "equivalent"
    assert "induced algebra over H identified equivariantly (residual 1.000e-08)" in cert.notes
    strict = raeburn(*raeburn_four_points())
    assert strict.verdict == "not-certified"
    assert strict.notes[-1] == "induced-algebra identification failed"


def _raeburn_matrix_fiber(z2, triv):
    # noncommutative fiber: full two-by-two matrices with conjugation by the
    # coordinate swap as the outer action
    points = (0, 1)
    gsp = group_set_action(z2, points, {(t, u): (t + u) % 2
                                        for t in z2.elements for u in points},
                           "left")
    hsp = group_set_action(triv, points, {("e", u): u for u in points}, "right")
    m2 = matrix_algebra(2)
    conj_mat = np.zeros((4, 4), dtype=complex)
    # matrix of Ad(swap) on the matrix-unit basis: e_ij -> e_{s(i) s(j)}
    perm = {0: 1, 1: 0}
    for k, (i, j) in enumerate(m2.basis):
        conj_mat[m2.basis.index((perm[i], perm[j])), k] = 1.0
    sigma = AlgebraAction(z2, m2, {0: np.eye(4, dtype=complex), 1: conj_mat},
                          "left")
    tau = AlgebraAction(triv, m2, {"e": np.eye(4, dtype=complex)}, "left")
    return points, gsp, hsp, m2, sigma, tau


def _raeburn_z3(_z2, _triv):
    # Z3 x Z3 with G = Z3 translating the first coordinate and H = Z3 both,
    # each also rotating the three entries of the diagonal fiber: over G an
    # orbit representative moved by H is another orbit's representative
    # shifted by an element of Z3, which differs from its inverse
    z3 = cyclic_group(3)
    points = tuple((i, j) for i in range(3) for j in range(3))
    gsp = group_set_action(z3, points, {(t, (i, j)): ((t + i) % 3, j)
                                        for t in z3.elements for (i, j) in points}, "left")
    hsp = group_set_action(z3, points, {(t, (i, j)): ((i + t) % 3, (j + t) % 3)
                                        for t in z3.elements for (i, j) in points}, "right")
    b = diagonal_algebra(3)
    rotation = AlgebraAction(z3, b, {t: np.roll(np.eye(3, dtype=complex), t, axis=0)
                                     for t in z3.elements}, "left")
    return points, gsp, hsp, b, rotation, rotation


@pytest.mark.parametrize("defect", [0.0, 1e-8, np.nan])
@pytest.mark.parametrize("instance", [
    lambda _z2, _triv: raeburn_two_points(),
    lambda _z2, _triv: raeburn_four_points(),
    _raeburn_matrix_fiber,
    _raeburn_z3,
], ids=["smallest", "two_sided", "matrix_fiber", "z3"])
def test_raeburn_side_matches_dense_reference(instance, defect, z2, triv, monkeypatch):
    # each side's residual as bundles equals the one the dense induced
    # algebra gives, with the quotient both identifications read clean or
    # carrying the defect; the two-sided instance is also the four-point
    # instance of the acceptance suite
    args = instance(z2, triv)
    calls = []
    side = morita._raeburn_side

    def recorded(*side_args):
        calls.append(side_args)
        return side(*side_args)

    monkeypatch.setattr(morita, "_raeburn_side", recorded)
    assert raeburn(*args).verdict == "equivalent"
    assert len(calls) == 2
    if defect != 0.0:
        monkeypatch.setattr(morita, "quotient_fell_bundle", _defective_quotient(defect))
    for bundle, outer, inner, outer_alg, inner_alg, tol in calls:
        res = side(bundle, outer, inner, outer_alg, inner_alg, tol)
        ref = dense_raeburn_side(bundle, outer, inner, args[3], outer_alg, inner_alg, tol)
        assert res == ref or (np.isnan(res) and np.isnan(ref)), (res, ref)
        assert res == pytest.approx(defect, abs=1e-15, nan_ok=True)


def test_raeburn_rejects_non_commuting_algebra_actions(z2):
    points, gsp = raeburn_two_points()[:2]
    # two transpositions of the three-dimensional diagonal algebra do not
    # commute even though each is an order-two *-automorphism
    b3 = diagonal_algebra(3)
    z2b = cyclic_group(2)
    hsp2 = group_set_action(z2b, points, {(t, u): (t + u) % 2
                                          for t in z2b.elements for u in points},
                            "right")
    perm01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    perm12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    sigma2 = AlgebraAction(z2, b3, {0: np.eye(3, dtype=complex), 1: perm01}, "left")
    tau2 = AlgebraAction(z2b, b3, {0: np.eye(3, dtype=complex), 1: perm12}, "left")
    with pytest.raises(InvalidStructureError, match="commute"):
        raeburn(points, gsp, hsp2, b3, sigma2, tau2)


# ---------------------------------------------------------------------------
# coaction special case


@pytest.mark.parametrize("order,blocks_left,blocks_right,center", [
    (1, [1], [1], 1),
    (2, [2, 2], [1, 1], 2),
    (3, [3, 3, 3], [1, 1, 1], 3),
])
def test_coaction_demo(order, blocks_left, blocks_right, center):
    cert = coaction_demo(trivial_line_bundle(cyclic_group(order)))
    assert cert.verdict == "equivalent"
    assert cert.left_dimension == order ** 3
    assert cert.right_dimension == order
    assert sorted(cert.left_report.blocks) == blocks_left
    assert sorted(cert.right_report.blocks) == blocks_right
    assert cert.left_report.center_dimension == center
    assert cert.right_report.center_dimension == center


def test_coaction_demo_rejects_non_group_base():
    lb = trivial_line_bundle(make_pair_groupoid(2))
    with pytest.raises(InvalidStructureError, match="group"):
        coaction_demo(lb)


def test_coaction_oracle_independent_wedderburn():
    # recompute both sides outside the certificate pipeline
    grp = cyclic_group(2)
    unit = grp.units[0]
    lt = SpaceAction(grp, tuple(grp.elements), {u: unit for u in grp.elements},
                     {(g, u): grp.mul(g, u) for g in grp.elements
                      for u in grp.elements}, "left")
    lb = trivial_line_bundle(grp)
    big = transformation_fell_bundle(lb, lt)
    rt = GroupAction(grp, big.base,
                     {(t, (x, u)): (x, grp.mul(u, grp.inv_elem(t)))
                      for t in grp.elements for (x, u) in big.base.arrows},
                     "left")
    gba = BundleAction(grp, big, rt, identity_fiber_maps(big, rt), "left")
    from groupoidal import semidirect_fell_bundle
    left = section_algebra(semidirect_fell_bundle(big, gba))
    assert left.dimension == 8
    assert star_structure_report(left).blocks == (2, 2)
    right = section_algebra(lb)
    assert star_structure_report(right).blocks == (1, 1)


def test_cstar_bundle_morita_single_point(triv):
    b = make_trivial_cbundle(diagonal_algebra(1), ("x",))
    ba = trivial_bundle_action(triv, b, "left")
    cert = cstar_bundle_morita(b, ba)
    assert cert.verdict == "equivalent"
    assert cert.left_dimension == cert.right_dimension == 1


def _phase_twisted_z2z2():
    # rescale each fiber basis vector by a fourth root of unity; the twisted
    # bundle has complex structure constants and the actions acquire
    # matching phase fiber maps, exercising every conjugation in the chain
    from groupoidal.instances import symmetric_z2z2_actions

    g4, gact, hact = symmetric_z2z2_actions()
    rng = np.random.default_rng(42)
    phase = {x: 1j ** int(rng.integers(4)) for x in g4.arrows}
    dim = {x: 1 for x in g4.arrows}
    mult = {}
    for (x, y) in g4.composable_pairs():
        xy = g4.comp[(x, y)]
        mult[(x, y)] = np.array(
            [[[phase[x] * phase[y] / phase[xy]]]], dtype=complex)
    star = {x: np.array([[np.conjugate(phase[x]) / phase[g4.inv[x]]]],
                        dtype=complex) for x in g4.arrows}
    from groupoidal import FellBundle
    bundle = FellBundle(g4, dim, mult, star)
    gfib = {(t, x): np.array([[phase[x] / phase[gact.apply(t, x)]]],
                             dtype=complex)
            for t in gact.group.elements for x in g4.arrows}
    hfib = {(t, x): np.array([[phase[x] / phase[hact.apply(t, x)]]],
                             dtype=complex)
            for t in hact.group.elements for x in g4.arrows}
    gba = BundleAction(gact.group, bundle, gact, gfib, "left")
    hba = BundleAction(hact.group, bundle, hact, hfib, "right")
    return bundle, gba, hba


def test_phase_twisted_symmetric_instance():
    bundle, gba, hba = _phase_twisted_z2z2()
    assert validate_fell_bundle(bundle).ok
    from groupoidal import check_bundle_action
    assert check_bundle_action(gba).ok
    assert check_bundle_action(hba).ok
    e = symmetric_action_equivalence(bundle, gba, hba)
    from groupoidal import verify_bundle_equivalence
    rep = verify_bundle_equivalence(e)
    assert rep.ok, rep.failures()
    cert = symmetric_morita(bundle, gba, hba)
    assert cert.verdict == "equivalent"
    # twisted and untwisted instances are isomorphic, so invariants agree
    assert sorted(cert.left_report.blocks) == [2, 2, 2, 2]


def two_dimensional_fiber_instance():
    # diagonal two-dimensional fibers with coordinate-swapping fiber maps
    from groupoidal.instances import symmetric_z2z2_actions
    from groupoidal import FellBundle

    g4, gact, hact = symmetric_z2z2_actions()
    dim = {x: 2 for x in g4.arrows}
    tensor = np.zeros((2, 2, 2), dtype=complex)
    tensor[0, 0, 0] = 1.0
    tensor[1, 1, 1] = 1.0
    mult = {pair: tensor for pair in g4.composable_pairs()}
    star = {x: np.eye(2, dtype=complex) for x in g4.arrows}
    bundle = FellBundle(g4, dim, mult, star)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    gfib = {(t, x): (np.eye(2, dtype=complex) if t == 0 else swap)
            for t in gact.group.elements for x in g4.arrows}
    hfib = {(t, x): np.eye(2, dtype=complex)
            for t in hact.group.elements for x in g4.arrows}
    gba = BundleAction(gact.group, bundle, gact, gfib, "left")
    hba = BundleAction(hact.group, bundle, hact, hfib, "right")
    return bundle, gba, hba


def test_two_dimensional_fiber_symmetric_instance():
    from groupoidal import check_bundle_action, verify_bundle_equivalence

    bundle, gba, hba = two_dimensional_fiber_instance()
    assert check_bundle_action(gba).ok and check_bundle_action(hba).ok
    e = symmetric_action_equivalence(bundle, gba, hba)
    rep = verify_bundle_equivalence(e)
    assert rep.ok, rep.failures()
    cert = symmetric_morita(bundle, gba, hba)
    assert cert.verdict == "equivalent"
    assert cert.left_report.center_dimension == cert.right_report.center_dimension


def mixed_group_orders_certificate():
    # six units, left Z/3 and right Z/2 translations: the two translate
    # searches are genuinely asymmetric, so any swapped inverse or transpose
    # in the bracket and inner-product formulas would surface here
    from groupoidal import action_from_unit_map, identity_fiber_maps, make_pair_groupoid

    z3, z2 = cyclic_group(3), cyclic_group(2)
    units = [(a, b) for a in range(3) for b in range(2)]
    base = make_pair_groupoid(len(units))
    relabel = {u: i + 1 for i, u in enumerate(units)}
    gmaps = {t: {relabel[(a, b)]: relabel[((a + t) % 3, b)] for (a, b) in units}
             for t in z3.elements}
    hmaps = {t: {relabel[(a, b)]: relabel[(a, (b + t) % 2)] for (a, b) in units}
             for t in z2.elements}
    gact = action_from_unit_map(z3, base, gmaps, "left")
    hact = action_from_unit_map(z2, base, hmaps, "right")
    lb = trivial_line_bundle(base)
    gba = BundleAction(z3, lb, gact, identity_fiber_maps(lb, gact), "left")
    hba = BundleAction(z2, lb, hact, identity_fiber_maps(lb, hact), "right")
    return symmetric_morita(lb, gba, hba)


def test_symmetric_morita_mixed_group_orders():
    cert = mixed_group_orders_certificate()
    assert cert.verdict == "equivalent"
    assert sorted(cert.left_report.blocks) == [3] * 6
    assert sorted(cert.right_report.blocks) == [2] * 6
    assert cert.left_report.center_dimension == cert.right_report.center_dimension == 6
    # full-precision margins and residuals, generated by tests/test_golden.py
    golden = GOLDEN / "mixed_group_orders_certificate.json"
    assert cert.to_json() + "\n" == golden.read_text()


def test_raeburn_with_matrix_fiber(z2, triv):
    points, gsp, hsp, m2, sigma, tau = _raeburn_matrix_fiber(z2, triv)
    cert = raeburn(points, gsp, hsp, m2, sigma, tau)
    assert cert.verdict == "equivalent"
    assert sorted(cert.left_report.blocks) == [4]
    assert sorted(cert.right_report.blocks) == [2]
