"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with -s to see the per-criterion lines; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from groupoidal import (
    NonFreeActionError,
    orbit_bundle_action,
    orbit_space_action,
    principal_decomposition,
    principal_fell_decomposition,
    quotient_fell_bundle,
    quotient_groupoid,
    raeburn,
    section_algebra,
    semidirect_fell_bundle,
    star_structure_report,
    symmetric_action_equivalence,
    symmetric_groupoid_equivalence,
    symmetric_morita,
    transformation_fell_bundle,
    trivial_line_bundle,
    verify_bundle_equivalence,
    verify_bundle_iso,
    verify_groupoid_equivalence,
    verify_morita,
    coaction_demo,
    AlgebraAction,
    group_set_action,
)
from groupoidal.instances import (
    cyclic_group,
    diagonal_algebra,
    random_free_action_instance,
    random_free_commuting_instance,
    raeburn_four_points,
    raeburn_two_points,
    symmetric_z2z2_bundle,
    trivial_group,
)

from test_algebras import (
    semidirect_convolution,
    transformation_convolution,
    transformation_involution,
)
from conftest import line_bundle_action, unverified_linking_system

TOL = 1e-9


def _announce(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {message}")


def test_criterion_1_symmetric_instance_certifies():
    start = time.perf_counter()
    bundle, gba, hba = symmetric_z2z2_bundle()
    e = symmetric_action_equivalence(bundle, gba, hba)
    rep = verify_bundle_equivalence(e, TOL)
    assert rep.ok, rep.failures()
    step_residuals = {k: v for k, v in rep.metrics.items() if k.startswith("step")}
    for key, value in step_residuals.items():
        if "margin" in key:
            assert value >= -TOL, (key, value)
        else:
            assert value <= TOL, (key, value)
    cert = symmetric_morita(bundle, gba, hba, tol=TOL)
    assert cert.verdict == "equivalent"
    assert cert.left_report.center_dimension == cert.right_report.center_dimension
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(1, f"six-step verification and equivalent verdict with equal "
                 f"corner centers ({cert.left_report.center_dimension}) "
                 f"in {elapsed:.2f}s")


def test_criterion_2_groupoid_equivalence_randomized():
    bundle, gba, hba = symmetric_z2z2_bundle()
    e = symmetric_groupoid_equivalence(bundle.base, gba.base_action,
                                       hba.base_action)
    assert verify_groupoid_equivalence(e).ok

    rng = np.random.default_rng(271828)
    checked = 0
    for _ in range(50):
        base, gact, hact = random_free_commuting_instance(rng)
        assert len(base.units) <= 6
        eq = symmetric_groupoid_equivalence(base, gact, hact)
        rep = verify_groupoid_equivalence(eq)
        assert rep.ok, rep.failures()
        checked += 1
    assert checked == 50

    # inject a single-entry corruption into a fresh instance and catch it
    rng2 = np.random.default_rng(314159)
    base, gact, hact = random_free_commuting_instance(rng2)
    eq = symmetric_groupoid_equivalence(base, gact, hact)
    p_gpd = eq.left_groupoid
    key = next(iter(p_gpd.comp))
    wrong = next(a for a in p_gpd.arrows if a != p_gpd.comp[key])
    p_gpd.comp[key] = wrong
    rep = verify_groupoid_equivalence(eq)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())

    eq2 = symmetric_groupoid_equivalence(base, gact, hact)
    z0 = eq2.space[0]
    eq2.left_action.act[(p_gpd.unit_arrow[eq2.rho[z0]], z0)] = eq2.space[1] \
        if eq2.space[1] != z0 else eq2.space[2]
    rep2 = verify_groupoid_equivalence(eq2)
    assert not rep2.ok
    assert any(c.witness for c in rep2.failures())
    _announce(2, "items (i)-(v) on the four-point instance plus 50 seeded "
                 "instances; injected corruptions detected with witnesses")


def test_criterion_3_principal_decompositions():
    rng = np.random.default_rng(1618033)
    for trial in range(20):
        bundle, hba = random_free_action_instance(rng)
        base, hact = bundle.base, hba.base_action

        pd = principal_decomposition(base, hact)
        chart = pd.source_chart
        assert len(set(chart.values())) == len(base.arrows)
        for (a, b) in base.composable_pairs():
            assert pd.transformation.comp[(chart[a], chart[b])] == \
                chart[base.comp[(a, b)]]
        for t in hact.group.elements:
            for x in base.arrows:
                p, u = chart[x]
                assert chart[hact.apply(t, x)] == (p, hact.unit_image(t, u))

        pfd = principal_fell_decomposition(bundle, hba)
        rep = verify_bundle_iso(pfd.iso, TOL)
        assert rep.ok
        assert rep.metrics["multiplicativity"] <= TOL
        assert rep.metrics["star preservation"] <= TOL
        # equivariance residual of the fiber charts
        worst = 0.0
        for t in hba.group.elements:
            for x in base.arrows:
                tx = hact.apply(t, x)
                lhs = pfd.iso.fiber_maps[tx] @ hba.fiber_maps[(t, x)]
                worst = max(worst, float(np.max(np.abs(
                    lhs - pfd.iso.fiber_maps[x]))))
        assert worst <= TOL
    _announce(3, "20 randomized free actions decomposed; isomorphisms verified "
                 "entrywise with residuals <= 1e-9")


def test_criterion_4_raeburn_cases():
    start = time.perf_counter()
    small = raeburn(*raeburn_two_points(), tol=TOL)
    assert small.verdict == "equivalent"
    assert sorted(small.left_report.blocks) == [2]
    assert sorted(small.right_report.blocks) == [1]

    big = raeburn(*raeburn_four_points(), tol=TOL)
    assert big.verdict == "equivalent"
    # centers computed independently on each corner by the structure report
    assert big.left_report.center_dimension == big.right_report.center_dimension

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(4, f"two-point case blocks [2] ~ [1]; four-point two-sided case "
                 f"equivalent with matching centers "
                 f"({big.left_report.center_dimension}) in {elapsed:.2f}s")


def test_criterion_5_coaction_special_case():
    expected = {2: ([2, 2], [1, 1], 2), 3: ([3, 3, 3], [1, 1, 1], 3)}
    for order, (blocks_left, blocks_right, center) in expected.items():
        grp = cyclic_group(order)
        cert = coaction_demo(trivial_line_bundle(grp), tol=TOL)
        assert cert.verdict == "equivalent"
        assert cert.left_dimension == order ** 3
        assert cert.right_dimension == order
        assert cert.left_report.center_dimension == center
        assert cert.right_report.center_dimension == center
        # independent oracle: Wedderburn reports of both sides, computed
        # directly from freshly built section algebras
        from groupoidal import BundleAction, GroupAction, identity_fiber_maps
        from groupoidal import SpaceAction
        unit = grp.units[0]
        lt = SpaceAction(grp, tuple(grp.elements),
                         {u: unit for u in grp.elements},
                         {(g, u): grp.mul(g, u) for g in grp.elements
                          for u in grp.elements}, "left")
        lb = trivial_line_bundle(grp)
        big = transformation_fell_bundle(lb, lt)
        rt = GroupAction(grp, big.base,
                         {(t, (x, u)): (x, grp.mul(u, grp.inv_elem(t)))
                          for t in grp.elements for (x, u) in big.base.arrows},
                         "left")
        gba = BundleAction(grp, big, rt, identity_fiber_maps(big, rt), "left")
        left = section_algebra(semidirect_fell_bundle(big, gba))
        right = section_algebra(lb)
        assert sorted(star_structure_report(left).blocks) == blocks_left
        assert sorted(star_structure_report(right).blocks) == blocks_right
        assert sorted(cert.left_report.blocks) == blocks_left
        assert sorted(cert.right_report.blocks) == blocks_right
    _announce(5, "coaction duality for Z2 and Z3: dimensions |G|^3 vs |G|, "
                 "matching centers, independent block decompositions agree")


def test_criterion_6_convolution_formula_fidelity():
    z2 = cyclic_group(2)
    from groupoidal import action_from_unit_map, make_pair_groupoid

    # transformation base
    act = group_set_action(
        z2, ("a", "b"),
        {(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"}, "left")
    lb = trivial_line_bundle(z2)
    tb = transformation_fell_bundle(lb, act)
    alg = section_algebra(tb)
    n = alg.dimension
    worst = 0.0
    for i in range(n):
        for j in range(n):
            f1 = {alg.basis[i][0]: np.array([1.0 + 0j])}
            g1 = {alg.basis[j][0]: np.array([1.0 + 0j])}
            generic = alg.struct[:, i, j]
            direct = transformation_convolution(lb, act, f1, g1)
            for k, lbl in enumerate(alg.basis):
                got = direct.get(lbl[0], np.zeros(1))[0]
                worst = max(worst, abs(generic[k] - got))
        st = alg.invol[:, i]
        direct_star = transformation_involution(
            lb, act, {lbl[0]: np.array([1.0 + 0j if k == i else 0.0j])
                      for k, lbl in enumerate(alg.basis)})
        for k, lbl in enumerate(alg.basis):
            worst = max(worst, abs(st[k] - direct_star[lbl[0]][0]))
    assert worst <= 1e-12

    # semidirect base
    g2 = make_pair_groupoid(2)
    gact = action_from_unit_map(z2, g2, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}},
                                "left")
    lb2, ba = line_bundle_action(gact)
    sd_alg = section_algebra(semidirect_fell_bundle(lb2, ba))
    n = sd_alg.dimension
    worst_sd = 0.0
    for i in range(n):
        for j in range(n):
            f1 = {sd_alg.basis[i][0]: np.array([1.0 + 0j])}
            g1 = {sd_alg.basis[j][0]: np.array([1.0 + 0j])}
            generic = sd_alg.struct[:, i, j]
            direct = semidirect_convolution(lb2, ba, f1, g1)
            for k, lbl in enumerate(sd_alg.basis):
                got = direct.get(lbl[0], np.zeros(1))[0]
                worst_sd = max(worst_sd, abs(generic[k] - got))
    assert worst_sd <= 1e-12
    _announce(6, f"specialized convolution formulas match the generic product "
                 f"entrywise (residuals {worst:.1e}, {worst_sd:.1e})")


def test_criterion_7_negative_controls():
    bundle, gba, hba = symmetric_z2z2_bundle()

    # zeroed off-diagonal linking data fails fullness
    e = symmetric_action_equivalence(bundle, gba, hba)
    for key in e.left_inner:
        e.left_inner[key] = np.zeros_like(e.left_inner[key])
    for key in e.right_inner:
        e.right_inner[key] = np.zeros_like(e.right_inner[key])
    ls = unverified_linking_system(e)
    cert = verify_morita(ls, tol=TOL)
    assert cert.verdict == "not-certified"
    assert cert.fullness_rank_left < cert.left_dimension
    assert any("not full" in note for note in cert.notes)

    # a non-free action is rejected by every quotient construction
    from groupoidal import trivial_bundle_action, trivial_action
    z2 = cyclic_group(2)
    lazy = trivial_action(z2, bundle.base, "right")
    lazy_bundle = trivial_bundle_action(z2, bundle, "right")
    witnesses = []
    for thunk in (
        lambda: quotient_groupoid(bundle.base, lazy),
        lambda: orbit_space_action(bundle.base, lazy),
        lambda: principal_decomposition(bundle.base, lazy),
        lambda: quotient_fell_bundle(bundle, lazy_bundle),
        lambda: orbit_bundle_action(bundle, lazy_bundle),
        lambda: principal_fell_decomposition(bundle, lazy_bundle),
    ):
        with pytest.raises(NonFreeActionError) as err:
            thunk()
        witnesses.append(str(err.value))
    assert all("fixes arrow" in w for w in witnesses)
    # and by raeburn, before it induces an algebra over the orbits
    triv = trivial_group()
    gsp = group_set_action(triv, ("x",), {("e", "x"): "x"}, "left")
    xact = group_set_action(z2, ("x",), {(t, "x"): "x" for t in z2.elements},
                            "right")
    scalars = diagonal_algebra(1)
    sigma = AlgebraAction(triv, scalars, {"e": np.eye(1, dtype=complex)}, "left")
    tau = AlgebraAction(z2, scalars,
                        {t: np.eye(1, dtype=complex) for t in z2.elements},
                        "left")
    with pytest.raises(NonFreeActionError, match="fixes arrow"):
        raeburn(("x",), gsp, xact, scalars, sigma, tau, tol=TOL)

    # a corrupted involution fails step 3 with a witness
    e3 = symmetric_action_equivalence(bundle, gba, hba)
    key = next(k for k in e3.left_inner if k[0] != k[1])
    e3.left_inner[key] = -e3.left_inner[key]
    rep = verify_bundle_equivalence(e3, TOL)
    assert not rep.ok
    step3 = [c for c in rep.failures() if "step 3" in c.name]
    assert step3 and step3[0].witness
    _announce(7, "fullness, freeness, and adjoint-symmetry controls all "
                 "rejected with concrete witnesses")
