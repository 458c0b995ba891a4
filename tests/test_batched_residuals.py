"""Batched residual kernels against plain per-tuple reference loops.

The verifiers evaluate each identity on all tuples at once, grouped by
fiber shape.  The loops below evaluate it one tuple at a time in the
enumeration order the verifiers document, keeping the first tuple whose
residual exceeds every earlier one.  On seeded random instances with
injected corruptions both must report the same metric and the same witness.
"""

import numpy as np
import pytest

from groupoidal import (
    BundleAction,
    FiniteGroupoid,
    check_bundle_action,
    group_set_action,
    identity_fiber_maps,
    left_translation_action,
    linking_system,
    one_sided_equivalence,
    opposite,
    quotient_fell_bundle,
    symmetric_action_equivalence,
    trivial_line_bundle,
    validate_fell_bundle,
    validate_groupoid,
    verify_bundle_equivalence,
)
from groupoidal import bundles, groupoids
from groupoidal.bundles import transformation_bundle_action
from groupoidal._util import fmt
from groupoidal.instances import (
    random_free_action_instance,
    random_free_commuting_instance,
    symmetric_z2z2_bundle,
)

from conftest import bracket_by_search, exchange_residual, unverified_linking_system
from test_morita import two_dimensional_fiber_instance
from test_positivity import matrix_fiber_bundle


def test_residual_kernel_matches_each_tuple(monkeypatch):
    # mixed shape classes, tables shared between columns, and (with a small
    # chunk) several chunks per class; every residual lands at its own row
    monkeypatch.setattr(bundles, "_CHUNK", 50)
    rng = np.random.default_rng(7)
    tensors, rows = [], []

    def add(*shape):
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return len(tensors) - 1

    for _ in range(400):
        i, j, m, k, l, c = rng.choice([1, 3], size=6)
        rows.append((add(k, i, j), add(l, k, m), add(c, j, m), add(l, i, c)))
    rows.append(rows[5])  # a repeated tuple reads the same tensors again
    for _ in range(3):  # a zero-width shape class: a fiber of dimension 0 at i
        rows.append((add(3, 0, 1), add(1, 3, 3), add(3, 1, 3), add(1, 0, 3)))
    got = bundles._residuals("kij,lkm->lijm", "kjm,lik->lijm", [tensors] * 4, rows)
    want = [np.max(np.abs(np.einsum("kij,lkm->lijm", tensors[a], tensors[b])
                          - np.einsum("kjm,lik->lijm", tensors[c], tensors[d])), initial=0.0)
            for a, b, c, d in rows]
    assert got.tolist() == want
    # each side through _contracted, bit for bit, the empty results included
    for spec, operands in (("kij,lkm->lijm", [(tensors[a], tensors[b]) for a, b, _c, _d in rows]),
                           ("kjm,lik->lijm", [(tensors[c], tensors[d]) for _a, _b, c, d in rows])):
        results = bundles._contracted(spec, operands)
        assert len(results) == len(operands) and results[-1].size == 0
        for result, ops in zip(results, operands):
            expected = np.einsum(spec, *ops)
            assert result.shape == expected.shape and result.tobytes() == expected.tobytes()


def all_pairs(g):
    return [(x, y) for x in g.arrows for y in g.arrows if g.src[x] == g.rng[y]]


def all_triples(g):
    return [(x, y, z) for (x, y) in all_pairs(g) for z in g.arrows if g.src[y] == g.rng[z]]


def worst_of(items):
    """(max residual, first tuple attaining it) over (tuple, lhs, rhs) items."""
    worst, wit = 0.0, None
    for tup, lhs, rhs in items:
        if lhs.size:
            d = float(np.max(np.abs(lhs - rhs)))
            if d > worst:
                worst, wit = d, tup
    return worst, wit


def reference_fell_bundle(b):
    g, m = b.base, b.mult
    assoc = worst_of(
        ((x, y, z),
         np.einsum("kij,lkm->lijm", m[(x, y)], m[(g.comp[(x, y)], z)]),
         np.einsum("kjm,lik->lijm", m[(y, z)], m[(x, g.comp[(y, z)])]))
        for x, y, z in all_triples(g))
    anti = worst_of(
        ((x, y),
         np.einsum("kl,lij->kij", b.star[g.comp[(x, y)]], np.conjugate(m[(x, y)])),
         np.einsum("kab,aj,bi->kij", m[(g.inv[y], g.inv[x])], b.star[y], b.star[x]))
        for x, y in all_pairs(g))
    return {"associativity": (assoc, "triple ({},{},{})"),
            "antihomomorphism": (anti, "pair ({},{})")}


def reference_equivalence(e):
    base, e_op = e.base, opposite(e)
    lt, rt, li, ri = e.left_tensors, e.right_tensors, e.left_inner, e.right_inner
    step1 = worst_of(
        ((p, z, q),
         np.einsum("lmc,maj->lajc", rt[(base.left_apply(p, z), q)], lt[(p, z)]),
         np.einsum("lam,mjc->lajc", lt[(p, base.right_apply(z, q))], rt[(z, q)]))
        for (p, z) in base.left_action.act
        for q in base.right_groupoid.arrows if base.right_defined(z, q))
    step3, step4 = [], []
    for f, orient in ((e, lambda w: w), (e_op, lambda w: w[::-1])):
        fb = f.base
        step3 += [
            (orient((z1, z2)),
             np.einsum("kl,lij->kij", f.left_bundle.star[bracket_by_search(fb, z1, z2)],
                       np.conjugate(tsr)),
             np.transpose(f.left_inner[(z2, z1)], (0, 2, 1)))
            for (z1, z2), tsr in f.left_inner.items()]
        step4 += [
            (orient((p, z2, z3)),
             np.einsum("lmk,maj->lajk", f.left_inner[(fb.left_apply(p, z2), z3)],
                       f.left_tensors[(p, z2)]),
             np.einsum("laq,qjk->lajk", f.left_bundle.mult[(p, bracket_by_search(fb, z2, z3))],
                       f.left_inner[(z2, z3)]))
            for (p, z2) in fb.left_action.act
            for z3 in fb.space if fb.sigma[z2] == fb.sigma[z3]]
    step5 = worst_of(
        ((z1, z2, z3),
         np.einsum("mlk,lij->mijk", lt[(bracket_by_search(base, z1, z2), z3)], li[(z1, z2)]),
         np.einsum("mil,ljk->mijk", rt[(z1, bracket_by_search(e_op.base, z3, z2))], ri[(z2, z3)]))
        for (z1, z2) in li for z3 in base.space if base.rho[z2] == base.rho[z3])
    return {"step1 commuting": step1,
            "step3 adjoint symmetry": worst_of(step3),
            "step4 module compatibility": worst_of(step4),
            "step5 exchange": step5}


def witness(rep, prefix):
    return next((c.witness for c in rep.failures() if c.name.startswith(prefix)), None)


def corrupt(table, rng, scale):
    """Replace one entry: scaled exactly (ties) or plus complex noise."""
    key = list(table)[int(rng.integers(len(table)))]
    if scale is not None:
        table[key] = scale * table[key]
    else:
        noise = rng.standard_normal(table[key].shape) + 1j * rng.standard_normal(table[key].shape)
        table[key] = table[key] + 0.3 * noise
    return key


def symmetric_equivalence(rng, max_units):
    while True:
        base, gact, hact = random_free_commuting_instance(rng)
        if len(base.units) <= max_units:
            break
    lb = trivial_line_bundle(base)
    gba = BundleAction(gact.group, lb, gact, identity_fiber_maps(lb, gact), "left")
    hba = BundleAction(hact.group, lb, hact, identity_fiber_maps(lb, hact), "right")
    return symmetric_action_equivalence(lb, gba, hba)


CHECKS = {"associativity": "mult associative", "antihomomorphism": "(ab)* == b*a*"}
STEPS = {"step1 commuting": "step 1:", "step3 adjoint symmetry": "step 3:",
         "step4 module compatibility": "step 4:", "step5 exchange": "step 5:"}


def assert_bundle_matches(b):
    rep = validate_fell_bundle(b)
    for metric, ((worst, wit), form) in reference_fell_bundle(b).items():
        assert rep.metrics[metric] == worst
        expected = form.format(*map(fmt, wit)) if worst > 1e-9 else None
        assert witness(rep, CHECKS[metric]) == expected


@pytest.mark.parametrize("seed", range(6))
def test_fell_bundle_kernels_match_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    while True:  # seeds 3-5 draw until the fibers are two-dimensional
        bundle, hba = random_free_action_instance(rng)
        if seed < 3 or max(bundle.dim.values()) > 1:
            break
    quotient, _qm = quotient_fell_bundle(bundle, hba)
    for b in (bundle, quotient, opposite(quotient)):
        b.mult = dict(b.mult)
        corrupt(b.mult, rng, 1.5 if seed % 2 else None)
        assert_bundle_matches(b)


@pytest.mark.parametrize("seed", range(6))
def test_equivalence_kernels_match_reference(seed):
    rng = np.random.default_rng(2000 + seed)
    e = symmetric_equivalence(rng, max_units=6)
    names = ("left_tensors", "right_tensors", "left_inner", "right_inner")
    corrupt(getattr(e, names[seed % 4]), rng, 2.0 if seed % 3 == 0 else None)
    rep = verify_bundle_equivalence(e)
    for metric, (worst, wit) in reference_equivalence(e).items():
        assert rep.metrics[metric] == worst
        expected = fmt(wit) if worst > 1e-9 else None
        assert witness(rep, STEPS[metric]) == expected
    assert exchange_residual(e) == rep.metrics["step5 exchange"]


def two_dimensional_equivalence(rng, kind):
    """An equivalence whose fibers are two-dimensional, or full 2 x 2 matrices."""
    if kind == "one-sided":  # over a two-dimensional draw of a free action
        while True:
            bundle, hba = random_free_action_instance(rng)
            if max(bundle.dim.values()) > 1:
                return one_sided_equivalence(bundle, hba.converted())
    if kind == "symmetric":
        return symmetric_action_equivalence(*two_dimensional_fiber_instance())
    # M2 fibers over Z/2 as a transformation bundle, as the coaction demo builds it
    b = matrix_fiber_bundle(2, 2)
    grp = b.base
    rt = group_set_action(
        grp, grp.elements,
        {(t, u): grp.mul(u, grp.inv_elem(t)) for t in grp.elements for u in grp.elements},
        "left")
    gba = transformation_bundle_action(b, left_translation_action(grp), rt)
    return one_sided_equivalence(gba.bundle, gba)


@pytest.mark.parametrize("kind", ["one-sided", "symmetric", "matrix"])
@pytest.mark.parametrize("seed", range(4))
def test_equivalence_kernels_match_reference_on_wide_fibers(kind, seed):
    # every residual of a fiber wider than 1 is a sum of products
    rng = np.random.default_rng(6000 + seed)
    e = two_dimensional_equivalence(rng, kind)
    assert max(e.dims.values()) > 1
    names = ("left_tensors", "right_tensors", "left_inner", "right_inner")
    corrupt(getattr(e, names[seed]), rng, 2.0 if seed % 2 else None)
    rep = verify_bundle_equivalence(e)
    assert not rep.ok
    for metric, (worst, wit) in reference_equivalence(e).items():
        assert rep.metrics[metric] == worst
        expected = fmt(wit) if worst > 1e-9 else None
        assert witness(rep, STEPS[metric]) == expected
    assert exchange_residual(e) == rep.metrics["step5 exchange"]


def test_strict_linking_system_evaluates_each_tuple_once(monkeypatch):
    # the corners are validated as the left and right bundles and every other
    # tuple of the linking groupoid in one pass, so the kernels see each
    # composable triple and pair once
    e = symmetric_action_equivalence(*symmetric_z2z2_bundle())
    rows = {3: 0, 4: 0}  # by the number of output indices: pairs, triples
    original = bundles._residuals

    def counting(lhs, rhs, tables, ids):
        rows[len(lhs.split("->")[1])] += len(np.asarray(ids).reshape(-1, len(tables)))
        return original(lhs, rhs, tables, ids)

    monkeypatch.setattr(bundles, "_residuals", counting)
    ls = linking_system(e)
    monkeypatch.undo()
    assert rows[4] == len(list(ls.groupoid.composable_triples()))
    assert rows[3] == len(list(ls.groupoid.composable_pairs()))


@pytest.mark.parametrize("seed", range(3))
def test_linking_bundle_kernels_match_reference(seed):
    rng = np.random.default_rng(3000 + seed)
    ls = unverified_linking_system(symmetric_equivalence(rng, max_units=3))
    corrupt(ls.bundle.mult, rng, 1.5 if seed % 2 else None)
    assert_bundle_matches(ls.bundle)


@pytest.mark.parametrize("seed", range(4))
def test_groupoid_associativity_witness_matches_reference(seed):
    rng = np.random.default_rng(4000 + seed)
    g = symmetric_equivalence(rng, max_units=4).left_bundle.base
    keys = list(g.comp)
    key = keys[int(rng.integers(len(keys)))]
    g.comp[key] = g.arrows[int(rng.integers(len(g.arrows)))]
    bad = None
    for x, y, z in all_triples(g):
        lhs = g.comp.get((g.comp[(x, y)], z))
        rhs = g.comp.get((x, g.comp[(y, z)]))
        if lhs is None or rhs is None or lhs != rhs:
            bad = (x, y, z)
            break
    got = witness(validate_groupoid(g), "associativity")
    assert got == (None if bad is None else "triple ({},{},{})".format(*map(fmt, bad)))


def test_enumerations_keep_the_scan_order():
    # the label generators and the id columns of groupoids._Ids list the
    # same tuples in the same order, also where an arrow's source is no
    # arrow's range (src(c) == 2 below, so c starts no pair)
    rng = np.random.default_rng(5000)
    bases = [symmetric_equivalence(rng, max_units=6).right_bundle.base for _ in range(4)]
    loose = FiniteGroupoid(
        units=(0, 1, 2), arrows=("c", "a", "b"),
        src={"a": 0, "b": 1, "c": 2}, rng={"a": 1, "b": 1, "c": 0},
        comp={("a", "c"): "a", ("b", "a"): "a", ("b", "b"): "b"},
        inv={"a": "a", "b": "b", "c": "c"}, unit_arrow={})
    for h in [loose] + bases + [opposite(g) for g in bases]:
        assert list(h.composable_pairs()) == all_pairs(h)
        assert list(h.composable_triples()) == all_triples(h)
        table = groupoids._Ids(h)
        ix = table.ix
        pairs = [(ix[x], ix[y]) for x, y in h.composable_pairs()]
        triples = [(ix[x], ix[y], ix[z]) for x, y, z in h.composable_triples()]
        assert list(zip(*(c.tolist() for c in table.pairs))) == pairs
        assert list(zip(*(c.tolist() for c in table.triples_at(np.arange(table.n_triples))))) \
            == triples
    assert list(loose.composable_triples()) == [("b", "a", "c"), ("b", "b", "a"), ("b", "b", "b")]


def reference_bundle_action(ba, tol=1e-9):
    """The identity, group-law and star-equivariance checks of
    check_bundle_action as per-arrow loops: (metric, witness) each, the
    identity check naming the first arrow that is not within tol."""
    g, b, act, f = ba.group, ba.bundle, ba.base_action, ba.fiber_maps
    arrows = b.base.arrows
    bad = next((x for x in arrows
                if not np.max(np.abs(f[(g.identity, x)] - np.eye(b.dim[x])), initial=0.0) <= tol),
               None)
    law = worst_of(
        ((s, t, x), f[(s, act.act[(t, x)])] @ f[(t, x)],
         f[(g.mul(s, t) if ba.side == "left" else g.mul(t, s), x)])
        for s in g.elements for t in g.elements for x in arrows)
    star = worst_of(
        ((t, x), b.star[act.act[(t, x)]] @ np.conjugate(f[(t, x)]),
         f[(t, b.base.inv[x])] @ b.star[x])
        for t in g.elements for x in arrows)
    return None if bad is None else fmt(bad), law, star


def bundle_actions(rng):
    """Both actions of the Z2xZ2, the two-dimensional-fiber and a seeded
    line-bundle instance."""
    _lb, gba, hba = symmetric_z2z2_bundle()
    _b, g2, h2 = two_dimensional_fiber_instance()
    base, gact, hact = random_free_commuting_instance(rng)
    lb = trivial_line_bundle(base)
    return [gba, hba, g2, h2] + [BundleAction(a.group, lb, a, identity_fiber_maps(lb, a), a.side)
                                 for a in (gact, hact)]


@pytest.mark.parametrize("seed", range(6))
def test_bundle_action_kernels_match_reference(seed):
    rng = np.random.default_rng(7000 + seed)
    for ba in bundle_actions(rng):
        maps = ba.fiber_maps = dict(ba.fiber_maps)
        # two identity maps perturbed, the later arrow more, so that the
        # first arrow outside tol is not the worst; one other map scaled;
        # with seed 5 one entry is NaN, which fails all three checks
        ident = [(ba.group.identity, x) for x in ba.bundle.base.arrows]
        first, later = sorted(rng.choice(len(ident), size=2, replace=False))
        for at, size in ((first, 1e-3), (later, 1.0)):
            key = ident[at]
            maps[key] = maps[key] + size * rng.standard_normal(maps[key].shape)
        others = [k for k in maps if k[0] != ba.group.identity]
        if others:
            key = others[int(rng.integers(len(others)))]
            maps[key] = (1.0 + seed % 3) * maps[key]
        if seed == 5:
            other = list(maps)[int(rng.integers(len(maps)))]
            maps[other] = maps[other].copy()
            maps[other][0, 0] = np.nan
        rep = check_bundle_action(ba)
        ident_wit, (law, law_wit), (star, star_wit) = reference_bundle_action(ba)
        assert witness(rep, "identity acts") == ident_wit
        if seed == 5:
            assert np.isnan(rep.metrics["group law"]) and np.isnan(rep.metrics["star equivariance"])
            continue
        assert ident_wit == fmt(ident[first][1])
        assert rep.metrics["group law"] == pytest.approx(law, rel=1e-12, abs=1e-15)
        assert rep.metrics["star equivariance"] == pytest.approx(star, rel=1e-12, abs=1e-15)
        assert witness(rep, "fiber maps satisfy") == (fmt(law_wit) if law > 1e-9 else None)
        assert witness(rep, "fiber maps preserve the involution") == \
            (fmt(star_wit) if star > 1e-9 else None)
