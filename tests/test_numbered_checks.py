"""The action, equivalence and morphism checks on integer tables, against
the label walks they replaced (the references in conftest): the same report
text, or the same exception, on single-entry corruptions of two
equivalences, their group actions, their corner identifications and a
principal decomposition; and the tables are numbered per call, so that an
edit to a label table shows in the next check."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from groupoidal import (
    BundleIso,
    FellBundle,
    GroupoidEquivalence,
    GroupoidHom,
    actions_commute,
    check_action,
    check_bundle_action,
    check_homomorphism,
    check_module_action,
    check_space_action,
    is_free,
    linking_bundle,
    linking_system,
    make_pair_groupoid,
    opposite,
    orbit_bundle_action,
    principal_decomposition,
    principal_fell_decomposition,
    symmetric_action_equivalence,
    symmetric_groupoid_equivalence,
    validate_fell_bundle,
    verify_bundle_iso,
    verify_groupoid_equivalence,
)
from groupoidal import groupoids, morita
from groupoidal.groupoids import _Transposed
from groupoidal.instances import symmetric_z2z2_actions, symmetric_z2z2_bundle

from conftest import (
    check_action_by_labels,
    check_homomorphism_by_labels,
    check_module_action_by_labels,
    check_space_action_by_labels,
    fell_bundle_structure_by_labels,
    verify_bundle_iso_by_labels,
    verify_groupoid_equivalence_by_labels,
)
from test_blocked_kernels import pair6_actions, pair6_equivalence

# each instance, and the stride through its entries: every entry of the
# Z2xZ2 instance, every fifth of the pair6 one
INSTANCES = {"z2z2": (symmetric_z2z2_actions, 1), "pair6": (pair6_actions, 5)}


@functools.lru_cache(maxsize=None)
def equivalence(name):
    return symmetric_groupoid_equivalence(*INSTANCES[name][0]())


def outcome(check, *args):
    """The report text of a check, or the exception it raised."""
    try:
        return str(check(*args))
    except Exception as exc:  # the label walks raise on some corruptions, and so must the checks
        return f"{type(exc).__name__}: {exc}"


def corrupted_space_actions(a, stride):
    """Copies of a space action with one entry changed: an image redirected
    inside and outside its fiber, a key deleted, a key or image with a label
    outside the arrows or the points (first and last in the table), and a
    fibring value changed to another unit or to an unknown label."""
    la = a if a.side == "left" else opposite(a)  # the same tables, read left
    keys, points, units = list(a.act), list(a.space), list(la.groupoid.units)
    for k in keys[::stride]:
        v = a.act[k]
        inside = [u for u in points if la.fibring[u] == la.fibring[v] and u != v]
        outside = [u for u in points if la.fibring[u] != la.fibring[v]]
        for w in inside[:1] + outside[:1]:
            yield replace(a, act={**a.act, k: w})
        yield replace(a, act={kk: w for kk, w in a.act.items() if kk != k})
    arrow, point = keys[0][0], points[0]
    for key in (("nowhere", point), (arrow, "nowhere")):
        yield replace(a, act={**a.act, key: point})
        yield replace(a, act={key: point, **a.act})
    yield replace(a, act={**a.act, keys[-1]: "nowhere"})
    for u in points[::stride]:
        for w in [w for w in units if w != la.fibring[u]][:1] + ["nowhere"]:
            yield replace(a, fibring={**a.fibring, u: w})


def corrupted_group_actions(a, stride):
    """Copies of a group action with one entry changed: an image moved to
    the next arrow, a key deleted, an image outside the arrows, and an
    element t other than the identity made to fix an arrow x, by swapping
    the images of x and of the arrow t sends to x (so that t stays a
    bijection and the later checks are reached)."""
    keys, arrows = list(a.act), list(a.target.arrows)
    for k in keys[::stride]:
        t, x = k
        yield replace(a, act={**a.act, k: arrows[(arrows.index(a.act[k]) + 1) % len(arrows)]})
        yield replace(a, act={kk: v for kk, v in a.act.items() if kk != k})
        back = next(kk for kk in keys if kk[0] == t and a.act[kk] == x)
        if back != k:
            yield replace(a, act={**a.act, k: x, back: a.act[k]})
    yield replace(a, act={**a.act, keys[-1]: "nowhere"})


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("side", ["left", "right"])
def test_space_action_checks_match_the_label_walks(name, side):
    e = equivalence(name)
    stride = INSTANCES[name][1]
    original = e.left_action if side == "left" else e.right_action
    cases = 0
    for a in corrupted_space_actions(original, stride):
        want = outcome(check_space_action_by_labels, a)
        assert outcome(check_space_action, a) == want
        f = GroupoidEquivalence(a, e.right_action) if side == "left" \
            else GroupoidEquivalence(e.left_action, a)
        # on pair6, the whole equivalence where the action check passes
        if stride == 1 or want.startswith("==") and "FAIL" not in want:
            assert outcome(verify_groupoid_equivalence, f) == \
                outcome(verify_groupoid_equivalence_by_labels, f)
        cases += 1
    assert cases > 20


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_equivalence_items_match_the_label_walks(name):
    # actions that pass their own checks but break items (i)-(v) and the
    # brackets: a right action conjugated by a fiber-preserving permutation
    # of the space, and the two actions traded for their own opposites
    e = equivalence(name)
    assert str(verify_groupoid_equivalence(e)) == str(verify_groupoid_equivalence_by_labels(e))
    points = list(e.space)
    fibers = {}
    for z in points:
        fibers.setdefault(e.sigma[z], []).append(z)
    for shift in (1, 2):
        perm = {z: fiber[(k + shift) % len(fiber)]
                for fiber in fibers.values() for k, z in enumerate(fiber)}
        act = {(q, perm[z]): perm[v] for (q, z), v in e.right_action.act.items()}
        f = GroupoidEquivalence(e.left_action, replace(e.right_action, act=act))
        assert str(verify_groupoid_equivalence(f)) == \
            str(verify_groupoid_equivalence_by_labels(f))
        assert not verify_groupoid_equivalence(f).ok
    f = opposite(e)
    assert str(verify_groupoid_equivalence(f)) == str(verify_groupoid_equivalence_by_labels(f))
    # the right action listing the space in another order is read in the
    # order of the left action's space
    f = GroupoidEquivalence(e.left_action,
                            replace(e.right_action, space=tuple(reversed(e.space))))
    assert str(verify_groupoid_equivalence(f)) == str(verify_groupoid_equivalence_by_labels(f))
    assert verify_groupoid_equivalence(f).ok


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_group_action_checks_match_the_label_walks(name):
    _x, g, h = INSTANCES[name][0]()
    stride = INSTANCES[name][1]
    for a, other in ((g, h), (h, g)):
        for c in corrupted_group_actions(a, stride):
            assert outcome(check_action, c) == outcome(check_action_by_labels, c)
            if all((t, x) in c.act for t in c.group.elements for x in c.target.arrows):
                fixed = any(c.act[(t, x)] == x for t in c.group.elements
                            if t != c.group.identity for x in c.target.arrows)
                assert is_free(c) is not fixed
            if "FAIL" not in outcome(check_action_by_labels, c):
                left, right = (c, other) if c.side == "left" else (other, c)
                want = next(((t, k, x) for t in left.group.elements
                             for k in right.group.elements for x in left.target.arrows
                             if right.act[(k, left.act[(t, x)])]
                             != left.act[(t, right.act[(k, x)])]), None)
                assert actions_commute(left, right) == want


def test_checks_see_an_edit_made_after_an_earlier_check():
    # nothing is numbered on the label objects: an edit in place between two
    # checks shows in the second
    x, g, _h = symmetric_z2z2_actions()
    e = equivalence("z2z2")
    assert check_action(g).ok and check_space_action(e.left_action).ok
    k = next(k for k in g.act if k[0] != g.group.identity)
    old = g.act[k]
    try:
        g.act[k] = k[1]
        assert str(check_action(g)) == str(check_action_by_labels(g))
        assert not check_action(g).ok
    finally:
        g.act[k] = old
    assert check_action(g).ok
    act = dict(e.left_action.act)
    a = replace(e.left_action, act=act)
    key = next(iter(act))
    act[key] = next(z for z in e.space if z != act[key])
    assert str(check_space_action(a)) == str(check_space_action_by_labels(a))
    assert not check_space_action(a).ok


def test_equivalence_check_walks_no_composable_pairs(monkeypatch):
    # the bench counter groupoids.composable_triples is read off
    # validate_groupoid's label walk, once per groupoid; every other check
    # reads integer tables
    e = pair6_equivalence().base
    walked = {"pairs": [], "triples": []}
    for name, kind in (("composable_pairs", "pairs"), ("composable_triples", "triples")):
        original = getattr(groupoids.FiniteGroupoid, name)

        def spy(self, original=original, kind=kind):
            walked[kind].append(self)
            return original(self)

        monkeypatch.setattr(groupoids.FiniteGroupoid, name, spy)
    assert verify_groupoid_equivalence(e).ok
    assert walked["pairs"] == []
    assert len(walked["triples"]) == 2
    assert walked["triples"][0] is e.left_groupoid
    assert walked["triples"][1] is e.right_groupoid


def test_opposite_views_of_one_table_compare_without_iterating(monkeypatch):
    x = make_pair_groupoid(6)
    views = [opposite(x), opposite(x), opposite(opposite(x)), opposite(opposite(x))]

    def no_iteration(self):
        raise AssertionError("compared by iterating")

    monkeypatch.setattr(_Transposed, "__iter__", no_iteration)
    assert views[0].comp == views[1].comp and views[0] == views[1]
    assert views[2].comp == views[3].comp and views[2] == views[3]
    monkeypatch.undo()
    # an edited copy of the table compares unequal, entry by entry
    edited = dict(x.comp)
    key = next(iter(edited))
    edited[key] = (0, 0)
    assert views[0].comp != _Transposed(edited)
    assert views[0] != opposite(replace(x, comp=edited))
    assert views[0].comp == _Transposed(dict(x.comp))


# each linking bundle, and the stride through its products and arrows
LINKING = {"z2z2": (lambda: symmetric_action_equivalence(*symmetric_z2z2_bundle()), 7),
           "pair6": (pair6_equivalence, 150)}


@functools.lru_cache(maxsize=None)
def linking(name):
    return linking_bundle(LINKING[name][0]())


def corrupted_bundles(b, stride):
    """Copies of a bundle with one entry changed: a product deleted, a
    product's comp value moved outside the arrows, a product tensor
    flattened or grown by one row, a star deleted or flattened, and a
    product added on a pair that does not compose (first and last in the
    table); then the bundle itself."""
    g, keys = b.base, list(b.mult)

    def copy(comp=None, mult=None, star=None):
        return FellBundle(g if comp is None else replace(g, comp=comp), b.dim,
                          b.mult if mult is None else mult, b.star if star is None else star)

    for k in keys[::stride]:
        t = b.mult[k]
        yield copy(mult={kk: v for kk, v in b.mult.items() if kk != k})
        yield copy(comp={**g.comp, k: ("nowhere", 0)})
        yield copy(mult={**b.mult, k: t.reshape(-1)})
        yield copy(mult={**b.mult, k: np.zeros((t.shape[0] + 1, *t.shape[1:]))})
    for x in g.arrows[::stride]:
        yield copy(star={kk: v for kk, v in b.star.items() if kk != x})
        yield copy(star={**b.star, x: b.star[x].reshape(-1)})
    pair = next((x, y) for x in g.arrows for y in g.arrows if g.src[x] != g.rng[y])
    yield copy(mult={**b.mult, pair: b.mult[keys[0]]})
    yield copy(mult={pair: b.mult[keys[0]], **b.mult})
    yield b


@pytest.mark.parametrize("name", sorted(LINKING))
def test_bundle_structure_checks_match_the_label_loops(name):
    cases = 0
    for b in corrupted_bundles(linking(name), LINKING[name][1]):
        want = fell_bundle_structure_by_labels(b)
        rep = validate_fell_bundle(b)
        got = [(c.name, c.ok, c.witness) for c in rep.checks]
        assert got[:len(want)] == want
        assert rep.ok == all(ok for _name, ok, _w in want)
        cases += 1
    assert cases > 20


def test_each_check_numbers_its_groupoid_once(monkeypatch):
    numbered = []
    original = groupoids._Ids.__init__

    def spy(self, g):
        numbered.append(g)
        original(self, g)

    monkeypatch.setattr(groupoids._Ids, "__init__", spy)
    b = linking("z2z2")
    assert validate_fell_bundle(b).ok
    assert [g is b.base for g in numbered] == [True]
    numbered.clear()
    ls = linking_system(pair6_equivalence())
    assert sum(g is ls.groupoid for g in numbered) == 1
    _lb, gba, _hba = symmetric_z2z2_bundle()
    numbered.clear()
    assert check_bundle_action(gba).ok
    assert [g is gba.bundle.base for g in numbered] == [True]
    iso = corner_identifications("z2z2")[0]
    numbered.clear()
    assert verify_bundle_iso(iso).ok
    assert len(numbered) == 2
    assert numbered[0] is iso.source.base and numbered[1] is iso.target.base


# each equivalence whose corners are identified, and the stride through the
# entries of an identification
CORNERS = {"z2z2": (lambda: symmetric_action_equivalence(*symmetric_z2z2_bundle()), 1),
           "pair6": (pair6_equivalence, 5)}


@functools.lru_cache(maxsize=None)
def corner_identifications(name):
    """Each corner of the linking bundle onto the equivalence's bundle on
    its side, (tag, x) -> x with identity fiber maps."""
    e = CORNERS[name][0]()
    link = linking_system(e).bundle
    isos = []
    for tag, target in (("p", e.left_bundle), ("q", e.right_bundle)):
        corner = morita._corner_bundle(link, tag, tag)
        isos.append(BundleIso(corner, target, {x: x[1] for x in corner.base.arrows},
                              {x: np.eye(corner.dim[x], dtype=complex)
                               for x in corner.base.arrows}))
    return isos


@functools.lru_cache(maxsize=None)
def principal_z2z2():
    """The principal decomposition of the Z2xZ2 instance's right action, and
    the orbit bundle's module action on the fibers."""
    lb, _gba, hba = symmetric_z2z2_bundle()
    return principal_fell_decomposition(lb, hba), orbit_bundle_action(lb, hba)


def scaled_entry(table, key, factor):
    return {**table, key: factor * table[key]}


def corrupted_isos(iso, stride):
    """Copies of a bundle isomorphism with one entry changed: an image
    redirected to the next target arrow, moved outside the target, or
    deleted; a fiber map, a target product or a target star scaled."""
    src, tgt, amap = iso.source, iso.target, iso.arrow_map
    arrows = list(tgt.base.arrows)
    for x in list(amap)[::stride]:
        yield replace(iso, arrow_map={**amap, x: arrows[(arrows.index(amap[x]) + 1) % len(arrows)]})
        yield replace(iso, arrow_map={**amap, x: "nowhere"})
        yield replace(iso, arrow_map={k: v for k, v in amap.items() if k != x})
        yield replace(iso, fiber_maps=scaled_entry(iso.fiber_maps, x, 2.0))
    for key in list(tgt.mult)[::stride]:
        yield replace(iso, target=replace(tgt, mult=scaled_entry(tgt.mult, key, 1.5)))
    for x in list(tgt.star)[::stride]:
        yield replace(iso, target=replace(tgt, star=scaled_entry(tgt.star, x, -1.0)))
    yield iso


def corrupted_module_actions(m):
    """Copies of a module action with one entry changed: a base image
    redirected to the next point, moved outside the space, or deleted; a
    tensor or a product of the acting bundle scaled."""
    act, points = m.base.act, list(m.base.space)
    for k in act:
        yield replace(m, base=replace(m.base, act={
            **act, k: points[(points.index(act[k]) + 1) % len(points)]}))
        yield replace(m, base=replace(m.base, act={**act, k: "nowhere"}))
        yield replace(m, base=replace(m.base, act={kk: v for kk, v in act.items() if kk != k}))
        yield replace(m, tensors=scaled_entry(m.tensors, k, 2.0))
    for key in m.acting.mult:
        yield replace(m, acting=replace(m.acting, mult=scaled_entry(m.acting.mult, key, 1.5)))
    yield m


@pytest.mark.parametrize("name", sorted(CORNERS))
def test_corner_identification_checks_match_the_label_walks(name):
    cases = failing = 0
    for original in corner_identifications(name):
        assert verify_bundle_iso(original).ok
        for iso in corrupted_isos(original, CORNERS[name][1]):
            want = outcome(verify_bundle_iso_by_labels, iso)
            assert outcome(verify_bundle_iso, iso) == want
            hom = GroupoidHom(iso.source.base, iso.target.base, iso.arrow_map)
            assert outcome(check_homomorphism, hom) == outcome(check_homomorphism_by_labels, hom)
            cases, failing = cases + 1, failing + ("FAIL" in want)
    assert cases > 50 and failing > cases // 2


def test_principal_decomposition_checks_match_the_label_walks():
    # the isomorphism's arrow map is the source chart of the decomposition
    pfd, module = principal_z2z2()
    assert pfd.iso.arrow_map == pfd.base.source_chart
    for iso in corrupted_isos(pfd.iso, 1):
        assert outcome(verify_bundle_iso, iso) == outcome(verify_bundle_iso_by_labels, iso)
        hom = GroupoidHom(iso.source.base, iso.target.base, iso.arrow_map)
        assert outcome(check_homomorphism, hom) == outcome(check_homomorphism_by_labels, hom)
    cases = failing = 0
    for m in corrupted_module_actions(module):
        want = outcome(check_module_action_by_labels, m)
        assert outcome(check_module_action, m) == want
        cases, failing = cases + 1, failing + ("FAIL" in want)
    assert cases > 50 and 0 < failing < cases


def test_morphism_checks_walk_no_composable_pairs(monkeypatch):
    # principal_decomposition walks only the pairs of the quotient, which
    # transformation_groupoid builds its product table from
    pfd, module = principal_z2z2()
    iso = corner_identifications("pair6")[0]
    lb, _gba, hba = symmetric_z2z2_bundle()
    walked = []
    original = groupoids.FiniteGroupoid.composable_pairs

    def spy(self):
        walked.append(self)
        return original(self)

    monkeypatch.setattr(groupoids.FiniteGroupoid, "composable_pairs", spy)
    assert check_homomorphism(GroupoidHom(iso.source.base, iso.target.base, iso.arrow_map)).ok
    assert verify_bundle_iso(iso).ok and verify_bundle_iso(pfd.iso).ok
    assert check_module_action(module).ok
    assert walked == []
    pd = principal_decomposition(lb.base, hba.base_action)
    assert walked == [pd.quotient]
