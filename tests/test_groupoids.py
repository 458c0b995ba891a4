import itertools
from dataclasses import replace

import numpy as np
import pytest

from groupoidal import (
    FiniteGroup,
    GroupoidEquivalence,
    GroupoidHom,
    InternalConsistencyError,
    InvalidStructureError,
    NonFreeActionError,
    SpaceAction,
    ValidationReport,
    action_from_unit_map,
    bracket_table,
    check_action,
    check_covariant,
    check_homomorphism,
    check_space_action,
    group_set_action,
    is_free,
    left_translation_action,
    make_group,
    make_pair_groupoid,
    one_sided_transformation_equivalence,
    opposite,
    orbit_space_action,
    principal_decomposition,
    quotient_groupoid,
    semidirect_left,
    semidirect_right,
    semidirect_right_space_action,
    semidirect_space_action,
    symmetric_groupoid_equivalence,
    transformation_groupoid,
    trivial_action,
    trivial_line_bundle,
    validate_groupoid,
    verify_groupoid_equivalence,
)
from groupoidal._util import fmt
from groupoidal.groupoids import _group_by
from groupoidal.instances import cyclic_group, random_free_commuting_instance

from conftest import bracket_by_search, product_with_group


# ---------------------------------------------------------------------------
# validate_groupoid and basic constructors


def test_trivial_groupoid_valid():
    g = make_pair_groupoid(1)
    assert len(g.units) == 1 and len(g.arrows) == 1
    assert validate_groupoid(g).ok


@pytest.mark.parametrize("n,arrows", [(2, 4), (3, 9), (4, 16)])
def test_pair_groupoid_counts(n, arrows):
    g = make_pair_groupoid(n)
    assert len(g.arrows) == arrows == n * n
    assert validate_groupoid(g).ok


def test_pair_groupoid_rejects_zero():
    with pytest.raises(InvalidStructureError):
        make_pair_groupoid(0)


def test_check_homomorphism_reports_partial_and_stray_maps():
    g = make_pair_groupoid(2)
    ident = {x: x for x in g.arrows}
    assert check_homomorphism(GroupoidHom(g, g, ident)).ok
    partial = {x: y for x, y in ident.items() if x != (1, 2)}
    rep = check_homomorphism(GroupoidHom(g, g, partial))
    assert [(c.name, c.witness) for c in rep.failures()] == \
        [("total", "missing image of (1,2)")]
    stray = {**ident, (1, 2): (1, 3)}
    rep = check_homomorphism(GroupoidHom(g, g, stray))
    assert [(c.name, c.witness) for c in rep.failures()] == \
        [("arrows land in target", "(1,2)")]
    with pytest.raises(InvalidStructureError, match="total"):
        check_homomorphism(GroupoidHom(g, g, partial)).require()


def test_corrupted_comp_detected_with_witness():
    g = make_pair_groupoid(3)
    g_op = opposite(g)
    g.comp[((1, 2), (2, 3))] = (2, 3)
    rep = validate_groupoid(g)
    assert not rep.ok
    bad = rep.failures()[0]
    assert "(1,2)" in (bad.witness or "") and "(2,3)" in (bad.witness or "")
    # the opposite is a view: the edit shows through and is caught there too
    assert g_op.comp[((2, 3), (1, 2))] == (2, 3)
    assert not validate_groupoid(g_op).ok


def test_make_group_cyclic_orders():
    assert len(cyclic_group(2).elements) == 2
    z3 = cyclic_group(3)
    assert len(z3.elements) == 3
    assert validate_groupoid(z3).ok
    assert isinstance(opposite(z3), FiniteGroup) and validate_groupoid(opposite(z3)).ok
    # exhaustive associativity oracle on the table itself
    for a, b, c in itertools.product(z3.elements, repeat=3):
        assert z3.mul(z3.mul(a, b), c) == z3.mul(a, z3.mul(b, c))


def test_make_group_rejects_broken_associativity():
    # 3-element table with identity but a(aa) != (aa)a
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        ("a", "a"): "b", ("a", "b"): "e",
        ("b", "a"): "a", ("b", "b"): "a",
    }
    with pytest.raises(InvalidStructureError, match="associative"):
        make_group(table)


# ---------------------------------------------------------------------------
# group actions


def test_trivial_action_valid_not_free(z2):
    g = make_pair_groupoid(2)
    act = trivial_action(z2, g, "left")
    assert check_action(act).ok
    assert not is_free(act)


def test_swap_action_free_on_four_points(z2):
    g = make_pair_groupoid(4)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    assert check_action(act).ok
    # exhaustive stabilizer check over all 16 arrows
    assert all(act.apply(1, x) != x for x in g.arrows)
    assert is_free(act)


def test_swap_action_on_three_points_not_free(z2):
    g = make_pair_groupoid(3)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3}, 1: {1: 2, 2: 1, 3: 3}}, "left")
    assert check_action(act).ok
    assert act.apply(1, (3, 3)) == (3, 3)
    assert not is_free(act)


def test_range_fibers_invariant_under_actions(z2):
    # counting Haar system: |r^-1(u)| == |r^-1(t.u)| for automorphisms
    g = make_pair_groupoid(4)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 3, 2: 4, 3: 1, 4: 2}}, "left")
    for t in z2.elements:
        for u in g.units:
            assert len(g.range_fiber(u)) == len(g.range_fiber(act.unit_image(t, u)))


# ---------------------------------------------------------------------------
# transformation groupoids


def swap_space_action(z2):
    return group_set_action(
        z2, ("a", "b"),
        {(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"}, "left")


def test_transformation_groupoid_one_point_fiber(triv):
    act = group_set_action(triv, ("p",), {("e", "p"): "p"}, "left")
    tg = transformation_groupoid(triv, act)
    assert len(tg.arrows) == 1 and len(tg.units) == 1
    assert validate_groupoid(tg).ok


def test_transformation_groupoid_z2_swap(z2):
    act = swap_space_action(z2)
    tg = transformation_groupoid(z2, act)
    assert len(tg.arrows) == 4 and len(tg.units) == 2
    assert validate_groupoid(tg).ok
    # inv(g, a) = (g, b) for the nonidentity element
    assert tg.inv[(1, "a")] == (1, act.apply(1, "a")) == (1, "b")


def test_transformation_groupoid_source_range_formulas(z2):
    # s(x,u) = (s(x),u) and r(x,u) = (r(x), x.u) on every arrow
    act = swap_space_action(z2)
    tg = transformation_groupoid(z2, act)
    for (x, u) in tg.arrows:
        assert tg.src[(x, u)] == (z2.src[x], u)
        assert tg.rng[(x, u)] == (z2.rng[x], act.apply(x, u))


def test_transformation_range_fiber_bijection(z2):
    # y -> (y, inv(y)x.u) is a bijection of range fibers
    act = swap_space_action(z2)
    tg = transformation_groupoid(z2, act)
    for (x, u) in tg.arrows:
        upstairs = z2.range_fiber(z2.rng[x])
        image = {(y, act.apply(z2.comp[(z2.inv[y], x)], u)) for y in upstairs}
        downstairs = {z for z in tg.arrows if tg.rng[z] == tg.rng[(x, u)]}
        assert image == downstairs


# ---------------------------------------------------------------------------
# semidirect products


def test_semidirect_left_trivial_group_is_product(triv, z2):
    g = make_pair_groupoid(2)
    sd = semidirect_left(g, trivial_action(triv, g, "left"))
    assert validate_groupoid(sd).ok
    assert len(sd.arrows) == len(g.arrows)
    # with a trivial action the semidirect product is the direct product
    sd2 = semidirect_left(g, trivial_action(z2, g, "left"))
    prod = product_with_group(g, z2)
    assert sd2 == prod


def test_semidirect_left_z2_swap(z2):
    g = make_pair_groupoid(2)
    act = action_from_unit_map(z2, g, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}}, "left")
    sd = semidirect_left(g, act)
    assert len(sd.arrows) == 8 and len(sd.units) == 2
    assert validate_groupoid(sd).ok


def test_semidirect_left_source_formula(z2):
    # s((x,t)) = (inv(t).s(x), e) for every arrow
    g = make_pair_groupoid(2)
    act = action_from_unit_map(z2, g, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}}, "left")
    sd = semidirect_left(g, act)
    for (x, t) in sd.arrows:
        assert sd.src[(x, t)] == (act.unit_image(z2.inv_elem(t), g.src[x]), 0)
        assert sd.rng[(x, t)] == (g.rng[x], 0)
        # inverse law (x,s)^-1 = (inv(s).inv(x), inv(s))
        assert sd.inv[(x, t)] == (act.apply(z2.inv_elem(t), g.inv[x]), z2.inv_elem(t))


def test_semidirect_right_z2(z2, triv):
    g = make_pair_groupoid(4)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    sd = semidirect_right(act, g)
    assert len(sd.arrows) == 32
    assert validate_groupoid(sd).ok
    # r(t,x) = (e, r(x).inv(t)) on all arrows
    for (t, x) in sd.arrows:
        assert sd.rng[(t, x)] == (0, act.unit_image(z2.inv_elem(t), g.rng[x]))
    sd0 = semidirect_right(trivial_action(triv, g, "right"), g)
    assert validate_groupoid(sd0).ok
    assert len(sd0.arrows) == len(g.arrows)


def test_semidirect_side_mismatch_rejected(z2):
    g = make_pair_groupoid(2)
    act = action_from_unit_map(z2, g, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}}, "right")
    with pytest.raises(InvalidStructureError):
        semidirect_left(g, act)


# ---------------------------------------------------------------------------
# quotients


def test_quotient_trivial_group_identity(triv):
    g = make_pair_groupoid(3)
    q, qm = quotient_groupoid(g, trivial_action(triv, g, "right"))
    assert len(q.arrows) == len(g.arrows)
    assert all(qm.arrow_map[x] == x for x in g.arrows)


def test_quotient_counts_and_well_definedness(z2):
    g = make_pair_groupoid(4)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    q, qm = quotient_groupoid(g, act)
    assert len(q.arrows) == 8 and len(q.units) == 2
    assert len(q.arrows) * len(z2.elements) == len(g.arrows)
    assert validate_groupoid(q).ok
    # well-definedness oracle: any representatives with matching sources
    # multiply into the same orbit
    for x in g.arrows:
        for y in g.arrows:
            if g.src[x] == g.rng[y]:
                assert qm.arrow_map[g.comp[(x, y)]] == \
                    q.comp[(qm.arrow_map[x], qm.arrow_map[y])]
    # units map to units
    for u in g.units:
        assert qm.arrow_map[g.unit_arrow[u]] == q.unit_arrow[qm.unit_map[u]]


def test_quotient_rejects_non_free(z2):
    g = make_pair_groupoid(3)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3}, 1: {1: 2, 2: 1, 3: 3}}, "right")
    with pytest.raises(NonFreeActionError, match="fixes arrow"):
        quotient_groupoid(g, act)


def test_orbit_space_action(z2, triv):
    g = make_pair_groupoid(4)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    osa = orbit_space_action(g, act)
    assert check_space_action(osa).ok
    # fibring is surjective onto the quotient units
    assert {osa.fibring[z] for z in osa.space} == set(osa.groupoid.units)
    # trivial group: left translation of g on itself
    lt = orbit_space_action(g, trivial_action(triv, g, "right"))
    ref = left_translation_action(g)
    assert lt.act == ref.act and lt.fibring == ref.fibring


# ---------------------------------------------------------------------------
# covariant pairs


def test_covariant_semidirect_space_action(z2, triv):
    g = make_pair_groupoid(2)
    act = action_from_unit_map(z2, g, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}}, "left")
    # the group permutes the arrow set of g coordinatewise; g translates itself
    s1 = group_set_action(
        z2, g.arrows,
        {(t, x): act.apply(t, x) for t in z2.elements for x in g.arrows}, "left")
    s2 = left_translation_action(g)
    assert check_covariant(act, s1, s2)
    sd_act = semidirect_space_action(act, s1, s2)
    assert check_space_action(sd_act).ok
    # defined-iff condition: (x,t).u defined iff s(x) = fibring(t.u)
    sd = sd_act.groupoid
    for (x, t) in sd.arrows:
        for u in s2.space:
            defined = ((x, t), u) in sd_act.act
            assert defined == (g.src[x] == s2.fibring[s1.apply(t, u)])
    # trivial group reduces to the action of g itself
    s1t = group_set_action(triv, g.arrows,
                           {("e", x): x for x in g.arrows}, "left")
    sd0 = semidirect_space_action(trivial_action(triv, g, "left"), s1t, s2)
    assert {(x, u): v for ((x, _e), u), v in sd0.act.items()} == s2.act


def test_covariance_failure_reported(z2):
    g = make_pair_groupoid(2)
    act = action_from_unit_map(z2, g, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}}, "left")
    s1 = group_set_action(z2, g.arrows,
                          {(t, x): x for t in z2.elements for x in g.arrows}, "left")
    s2 = left_translation_action(g)
    assert not check_covariant(act, s1, s2)
    with pytest.raises(InvalidStructureError, match="covariant"):
        semidirect_space_action(act, s1, s2)


def test_semidirect_right_space_action(z2):
    g = make_pair_groupoid(4)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    s1 = group_set_action(
        z2, g.arrows,
        {(t, x): act.apply(t, x) for t in z2.elements for x in g.arrows}, "right")
    # right translation of g on itself
    s2 = SpaceAction(g, tuple(g.arrows), dict(g.src),
                     {(x, u): g.comp[(u, x)] for u in g.arrows for x in g.arrows
                      if g.src[u] == g.rng[x]}, "right")
    assert check_space_action(s2).ok
    out = semidirect_right_space_action(act, s1, s2)
    assert check_space_action(out).ok
    # sigma(u) = r(x.inv(h)) controls definedness
    sd = out.groupoid
    for (h, x) in sd.arrows:
        for u in s2.space:
            defined = ((h, x), u) in out.act
            assert defined == (s2.fibring[u]
                               == g.rng[act.apply(z2.inv_elem(h), x)])


# ---------------------------------------------------------------------------
# the symmetric equivalence and its brackets


def test_symmetric_equivalence_four_points(z2z2_actions):
    g4, gact, hact = z2z2_actions
    e = symmetric_groupoid_equivalence(g4, gact, hact)
    assert len(e.left_groupoid.arrows) == 16
    assert len(e.right_groupoid.arrows) == 16
    rep = verify_groupoid_equivalence(e)
    assert rep.ok, rep.failures()


def test_symmetric_equivalence_trivial_groups(triv):
    g = make_pair_groupoid(2)
    e = symmetric_groupoid_equivalence(
        g, trivial_action(triv, g, "left"), trivial_action(triv, g, "right"))
    assert verify_groupoid_equivalence(e).ok


def test_rho_factoring_property(z2z2_actions):
    # rho(z.(h, G.y)) == rho(z) for all composable pairs
    g4, gact, hact = z2z2_actions
    e = symmetric_groupoid_equivalence(g4, gact, hact)
    for (q, z), v in e.right_action.act.items():
        assert e.rho[v] == e.rho[z]


def test_left_bracket_unit_case(z2z2_actions):
    # the diagonal entries of both bracket tables are unit arrows
    g4, gact, hact = z2z2_actions
    e = symmetric_groupoid_equivalence(g4, gact, hact)
    left, right = bracket_table(e), bracket_table(opposite(e))
    for z in e.space:
        p = left[(z, z)]
        assert e.left_groupoid.is_unit_arrow(p)
        assert e.left_groupoid.rng[p] == e.rho[z]
        q = right[(z, z)]
        assert e.right_groupoid.is_unit_arrow(q)


def test_brackets_characterize_and_are_unique(z2z2_actions):
    g4, gact, hact = z2z2_actions
    e = symmetric_groupoid_equivalence(g4, gact, hact)
    left, right = bracket_table(e), bracket_table(opposite(e))
    pairs = 0
    for z1 in e.space:
        for z2_ in e.space:
            if e.sigma[z1] == e.sigma[z2_]:
                p = left[(z1, z2_)]
                assert e.left_apply(p, z2_) == z1
                # uniqueness oracle: scan every left arrow
                hits = [q for q in e.left_groupoid.arrows
                        if e.left_defined(q, z2_) and e.left_apply(q, z2_) == z1]
                assert hits == [p]
                pairs += 1
            if e.rho[z1] == e.rho[z2_]:
                q = right[(z2_, z1)]
                assert e.right_apply(z1, q) == z2_
                hits = [r for r in e.right_groupoid.arrows
                        if e.right_defined(z1, r) and e.right_apply(z1, r) == z2_]
                assert hits == [q]
    assert pairs > 0
    assert len(left) == pairs


def _brackets_by_search(e):
    """Every left and right bracket of e, each found by its own search."""
    pairs = list(itertools.product(e.space, repeat=2))
    e_op = opposite(e)
    left = {(z1, z2): bracket_by_search(e, z1, z2) for z1, z2 in pairs
            if e.sigma[z1] == e.sigma[z2]}
    right = {(z1, z2): bracket_by_search(e_op, z2, z1) for z1, z2 in pairs
             if e.rho[z1] == e.rho[z2]}
    return left, right


def _one_sided_transformation_base(z2):
    grp = cyclic_group(2)
    om = (0, 1)
    yact = SpaceAction(grp, om, {u: grp.units[0] for u in om},
                       {(g, u): (g + u) % 2 for g in grp.elements for u in om}, "left")
    gact = group_set_action(z2, om, {(t, u): (t + u) % 2
                                     for t in z2.elements for u in om}, "left")
    return one_sided_transformation_equivalence(trivial_line_bundle(grp), yact, gact).base


def test_bracket_table_matches_generic_search(z2):
    # the table inverts the left action once; the search finds each bracket
    # by its definition, so the two agree on every kind of equivalence
    rng = np.random.default_rng(20261018)
    cases = []
    for _ in range(6):
        e = symmetric_groupoid_equivalence(*random_free_commuting_instance(rng))
        cases += [e, opposite(e)]
    cases.append(_one_sided_transformation_base(z2))
    for e in cases:
        left, right = _brackets_by_search(e)
        assert left and right
        assert bracket_table(e) == left
        assert bracket_table(opposite(e)) == {(z2_, z1): q for (z1, z2_), q in right.items()}


def _search_bracket_checks(e):
    """(name, ok, witness) of both bracket checks, each bracket found by
    bracket_by_search: the verifier's bracket block before it read
    bracket_table."""
    rep = ValidationReport()
    e_op = opposite(e)
    bad, seen = None, {"left": set(), "right": set()}
    sides = (("left", e.sigma, lambda z1, z2: bracket_by_search(e, z1, z2),
              e.left_action.act, False),
             ("right", e.rho, lambda z1, z2: bracket_by_search(e_op, z2, z1),
              e.right_action.act, True))
    for z1, z2, (side, fiber, bracket, act, flip) in itertools.product(e.space, e.space, sides):
        if fiber[z1] != fiber[z2]:
            continue
        try:
            r = bracket(z1, z2)
        except (InvalidStructureError, InternalConsistencyError):
            bad = (side, z1, z2)
            break
        seen[side].add(r)
        if act.get((r, z1 if flip else z2)) != (z2 if flip else z1):
            bad = (side, z1, z2)
            break
    rep.add("bracket characterizing identities", bad is None,
            f"{bad[0]} pair ({fmt(bad[1])},{fmt(bad[2])})" if bad else None)
    if bad is None:
        rep.add("brackets jointly surjective",
                seen["left"] == set(e.left_groupoid.arrows)
                and seen["right"] == set(e.right_groupoid.arrows))
    return [(c.name, c.ok, c.witness) for c in rep.checks]


def test_bracket_checks_match_per_pair_search(z2):
    # the verifier reads its brackets from bracket_table; its two bracket
    # checks must come out as the per-pair search made them
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(30):
        e = symmetric_groupoid_equivalence(*random_free_commuting_instance(rng))
        cases += [e, opposite(e)]
    cases.append(_one_sided_transformation_base(z2))
    names = {"bracket characterizing identities", "brackets jointly surjective"}
    for e in cases:
        rep = verify_groupoid_equivalence(e)
        got = [(c.name, c.ok, c.witness) for c in rep.checks if c.name in names]
        assert len(got) == 2
        assert got == _search_bracket_checks(e)


def test_bracket_rejects_mismatched_fibers(z2z2_actions):
    # under this instance the arrows (1,2) and (1,1) lie in different
    # sigma fibers, so the pair has no bracket and no key in the table
    g4, gact, hact = z2z2_actions
    e = symmetric_groupoid_equivalence(g4, gact, hact)
    assert e.sigma[(1, 2)] != e.sigma[(1, 1)]
    table = bracket_table(e)
    assert ((1, 2), (1, 1)) not in table
    assert all(e.sigma[z1] == e.sigma[z2_] for z1, z2_ in table)


def test_sigma_corruption_detected(z2z2_actions):
    g4, gact, hact = z2z2_actions
    e = symmetric_groupoid_equivalence(g4, gact, hact)
    z0 = e.space[0]
    others = [u for u in e.right_groupoid.units if u != e.sigma[z0]]
    e.right_action.fibring[z0] = others[0]
    rep = verify_groupoid_equivalence(e)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())


def test_non_free_rejected_by_symmetric_equivalence(z2, z2z2_actions):
    g4, _gact, hact = z2z2_actions
    lazy = trivial_action(z2, g4, "left")
    with pytest.raises(NonFreeActionError):
        symmetric_groupoid_equivalence(g4, lazy, hact)


def test_non_commuting_rejected(z2):
    g4 = make_pair_groupoid(4)
    gact = action_from_unit_map(
        z2, g4, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 3, 3: 4, 4: 1}}, "left")
    hact = action_from_unit_map(
        z2, g4, {0: {1: 1, 2: 2, 3: 3, 4: 4}, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    # the 4-cycle squared is not the identity; reject before commuting fails
    with pytest.raises(InvalidStructureError):
        symmetric_groupoid_equivalence(g4, gact, hact)


def test_randomized_equivalences_all_verify():
    rng = np.random.default_rng(20240817)
    for _ in range(12):
        base, gact, hact = random_free_commuting_instance(rng)
        assert is_free(gact) and is_free(hact)
        e = symmetric_groupoid_equivalence(base, gact, hact)
        rep = verify_groupoid_equivalence(e)
        assert rep.ok, rep.failures()
        # the opposite is an involution and a (Q^op, P^op) equivalence
        base_op = opposite(base)
        assert validate_groupoid(base_op).ok
        again = opposite(base_op)
        assert (again.src, again.rng, dict(again.comp)) == (base.src, base.rng, base.comp)
        assert verify_groupoid_equivalence(opposite(e)).ok


def _composition_by_full_walk(a):
    """The "compatible with composition" witness, walking every point of the
    space for every composable pair (the reference for the indexed walk)."""
    if a.side == "right":
        a = opposite(a)
    g, sentinel = a.groupoid, object()
    for x, y in g.composable_pairs():
        xy = g.comp.get((x, y), sentinel)
        for u in a.space:
            if (y, u) not in a.act:
                continue
            step = a.act.get((x, a.act[(y, u)]), sentinel)
            if a.act.get((xy, u), sentinel) is sentinel or step is sentinel \
                    or a.act[(xy, u)] != step:
                return f"({fmt(x)},{fmt(y)},{fmt(u)})"
    return None


def _commute_by_full_walk(e):
    """The "(iii) actions commute" witness, probing every right arrow for
    every left-action entry (the reference for the fiber-indexed probe)."""
    for (p, z) in e.left_action.act:
        for q in e.right_groupoid.arrows:
            if not e.right_defined(z, q):
                continue
            if not e.right_defined(e.left_apply(p, z), q) or \
               not e.left_defined(p, e.right_apply(z, q)) or \
               e.right_apply(e.left_apply(p, z), q) != e.left_apply(p, e.right_apply(z, q)):
                return f"({fmt(p)},{fmt(z)},{fmt(q)})"
    return None


def _with_references(rep, references):
    """rep's (name, verdict, witness) entries, those named in ``references``
    recomputed by the reference walk."""
    out = []
    for c in rep.checks:
        if c.name in references:
            wit = references[c.name]()
            out.append((c.name, wit is None, wit))
        else:
            out.append((c.name, c.ok, c.witness))
    return out


def _corrupted_actions(a, rng):
    """Copies of a with one action entry corrupted, by kind of corruption."""
    la = a if a.side == "left" else opposite(a)  # the same act table, read left
    g, keys = la.groupoid, list(la.act)
    cases = {}

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    k = pick(keys)
    v = la.act[k]
    # another image in the same fiber, so that the image check still passes
    others = [u for u in la.space if la.fibring[u] == la.fibring[v] and u != v]
    cases["wrong image"] = {**la.act, k: pick(others or [u for u in la.space if u != v])}
    cases["deleted"] = {kk: w for kk, w in la.act.items() if kk != k}
    outside = [(x, u) for x in g.arrows for u in la.space if g.src[x] != la.fibring[u]]
    if outside:
        x, u = pick(outside)
        cases["extra"] = {**la.act, (x, u): pick(
            [w for w in la.space if la.fibring[w] == g.rng[x]] or list(la.space))}
    k2 = pick([kk for kk in keys if kk[0] == k[0] and la.act[kk] != v] or keys)
    cases["swapped"] = {**la.act, k: la.act[k2], k2: v}
    # witnesses follow the space order, not the order of the table
    cases["swapped, table reversed"] = dict(reversed(cases["swapped"].items()))
    return {kind: replace(a, act=act) for kind, act in cases.items()}


def _conjugated_right_action(e, rng):
    """The right action conjugated by a permutation of Z that preserves sigma:
    both actions stay valid, so verification reaches item (iii)."""
    perm = {}
    for fiber in _group_by(e.space, e.sigma).values():
        for z, w in zip(fiber, rng.permutation(len(fiber))):
            perm[z] = fiber[int(w)]
    act = {(q, perm[z]): perm[v] for (q, z), v in e.right_action.act.items()}
    return replace(e.right_action, act=act)


def _assert_matches_full_walks(e, a):
    """Check a, and e with a in place of its action on a's side, against the
    full walks; return the verification report."""
    rep = check_space_action(a)
    assert [(c.name, c.ok, c.witness) for c in rep.checks] == _with_references(
        rep, {"compatible with composition": lambda: _composition_by_full_walk(a)})
    f = GroupoidEquivalence(a, e.right_action) if a.side == "left" \
        else GroupoidEquivalence(e.left_action, a)
    rep = verify_groupoid_equivalence(f)
    assert [(c.name, c.ok, c.witness) for c in rep.checks] == _with_references(rep, {
        "left action: compatible with composition":
            lambda: _composition_by_full_walk(f.left_action),
        "right action: compatible with composition":
            lambda: _composition_by_full_walk(f.right_action),
        "(iii) actions commute": lambda: _commute_by_full_walk(f),
    })
    return rep


def _fails(rep, suffix):
    return any(c.name.endswith(suffix) and not c.ok for c in rep.checks)


def test_indexed_walks_match_full_walks_on_corrupted_actions():
    # seeded differential test: on corrupted actions, check_space_action and
    # verify_groupoid_equivalence name the same checks with the same verdicts
    # and witnesses as the full walks give
    rng = np.random.default_rng(20261018)
    composition_failures = conjugations_failing_iii = 0
    for _ in range(30):
        e = symmetric_groupoid_equivalence(*random_free_commuting_instance(rng))
        for a in (*_corrupted_actions(e.left_action, rng).values(),
                  *_corrupted_actions(e.right_action, rng).values()):
            rep = _assert_matches_full_walks(e, a)
            composition_failures += _fails(rep, "compatible with composition")
        rep = _assert_matches_full_walks(e, _conjugated_right_action(e, rng))
        conjugations_failing_iii += _fails(rep, "(iii) actions commute")
    # the corruptions reach the walks under test, not only the earlier checks
    assert composition_failures > 0
    assert conjugations_failing_iii >= 20


# ---------------------------------------------------------------------------
# principal decomposition


def test_principal_decomposition_trivial_group(triv):
    g = make_pair_groupoid(3)
    pd = principal_decomposition(g, trivial_action(triv, g, "right"))
    assert len(pd.quotient.arrows) == len(g.arrows)
    assert pd.source_chart == {x: (x, g.src[x]) for x in g.arrows}


def test_principal_decomposition_four_points(z2, z2z2_actions):
    g4, _gact, hact = z2z2_actions
    pd = principal_decomposition(g4, hact)
    assert len(pd.quotient.arrows) == 8
    assert validate_groupoid(pd.transformation).ok
    # arrow-by-arrow isomorphism re-check (16 arrows)
    chart = pd.source_chart
    assert len(set(chart.values())) == 16
    for a in g4.arrows:
        for b in g4.arrows:
            if g4.src[a] == g4.rng[b]:
                assert pd.transformation.comp[(chart[a], chart[b])] == \
                    chart[g4.comp[(a, b)]]
    # composability transport (y, z.u)(z, u) = (yz, u) downstairs
    t = pd.transformation
    for (y, u2), (z, u) in t.composable_pairs():
        assert u2 == pd.action.apply(z, u)
        assert t.comp[((y, u2), (z, u))] == (pd.quotient.comp[(y, z)], u)


def test_principal_decomposition_equivariance(z2z2_actions):
    g4, _gact, hact = z2z2_actions
    pd = principal_decomposition(g4, hact)
    for t in hact.group.elements:
        for x in g4.arrows:
            p, u = pd.source_chart[x]
            assert pd.source_chart[hact.apply(t, x)] == \
                (p, hact.unit_image(t, u))


def test_principal_decomposition_rejects_non_free(z2):
    g = make_pair_groupoid(3)
    act = action_from_unit_map(
        z2, g, {0: {1: 1, 2: 2, 3: 3}, 1: {1: 2, 2: 1, 3: 3}}, "right")
    with pytest.raises(NonFreeActionError):
        principal_decomposition(g, act)
