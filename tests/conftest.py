import dataclasses
import itertools
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
    LinkingSystem,
    SpaceAction,
    StarAlgebra,
    ValidationReport,
    bracket_table,
    check_space_action,
    identity_fiber_maps,
    linking_bundle,
    opposite,
    pullback_bundle,
    quotient_groupoid,
    section_algebra,
    semidirect_fell_bundle,
    semidirect_left,
    semidirect_orbit_bundle_action,
    semidirect_space_action,
    trivial_line_bundle,
    validate_groupoid,
)
from groupoidal import bundles, morita
from groupoidal._util import DEFAULT_TOL, _ranges, canonical_min, deviation, fmt, worst_residual
from groupoidal.algebras import _coo, _coo_residual
from groupoidal.bundles import (
    _codes,
    _left_inner,
    _patterns,
    _Products,
    _semidirect_orbit_bundle_action,
    _tags,
)
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


def subalgebra(a, keep, provenance=None):
    """The restriction of a to the basis labels that ``keep`` accepts;
    requires closure under product and star.  A reference for the corners
    of a linking system."""
    sel = [k for k, lbl in enumerate(a.basis) if keep(lbl)]
    chosen = set(sel)
    other = [k for k in range(a.dimension) if k not in chosen]
    # the coordinates outside the subset of products and stars inside it;
    # a NaN leak is no evidence of closure
    leak, _i = worst_residual([np.max(np.abs(a.struct[np.ix_(other, sel, sel)]), initial=0.0),
                               np.max(np.abs(a.invol[np.ix_(other, sel)]), initial=0.0)])
    if not leak <= DEFAULT_TOL:
        raise InvalidStructureError("basis subset is not a *-subalgebra")
    return StarAlgebra(
        basis=tuple(a.basis[k] for k in sel),
        struct=a.struct[np.ix_(sel, sel, sel)].copy(),
        invol=a.invol[np.ix_(sel, sel)].copy(),
        provenance=provenance or a.provenance,
    )


def exchange_residual(e):
    """Max entrywise deviation of <a,b>_L . c - a . <b,c>_R over all triples.

    The metric of step 5 of verify_bundle_equivalence, computed alone over
    the (z, zb, z) triples of linking_bundle(e).  A pair with no bracket
    raises while the bundle is assembled, and a triple whose two sides lie
    over different points raises from the associativity kernel.  A
    reference for step 5.
    """
    return _exchange_residual(linking_bundle(e))


def triples(kernels, first, second):
    """The triples (x, y, z) of a _Products table with (x, y) among the
    pairs ``first`` and (y, z) among the pairs ``second`` (masks of pair
    numbers), as id columns in composable_triples() order."""
    (px, py), (k, j) = kernels.ids.pairs, (np.flatnonzero(sel) for sel in (first, second))
    row = np.searchsorted(px[j], np.arange(len(kernels.ids.row)))
    owner, at = _ranges(row[py[k]], row[py[k] + 1])
    return px[k[owner]], py[k[owner]], py[j[at]]


def _exchange_residual(link):
    """The worst associativity residual of a linking bundle over its
    (z, zb, z) triples only: the (z, zb) pairs extended by the (zb, z)
    pairs, in linking-groupoid order."""
    kernels = _Products(link)
    pair_class = _patterns(_tags(link.base), *kernels.ids.pairs)
    zb, bz = (pair_class == code for code in _codes("zb", "bz"))
    return worst_residual(kernels.associativity(*triples(kernels, zb, bz)))[0]


def unverified_linking_system(e):
    """linking_system(e) without verify_bundle_equivalence, for negative
    controls on broken data: linking_bundle(e) assembled unchecked, its
    corners and corner projections built as linking_system builds them, and
    a report that carries only the exchange residual, which verify_morita
    reads.  A pair with no bracket raises."""
    link = linking_bundle(e)
    report = ValidationReport(subject="unverified linking system")
    report.record_metric("step5 exchange", _exchange_residual(link))
    return LinkingSystem(e, link.base, link,
                         morita._corner(link, "p", "left corner"),
                         morita._corner(link, "q", "right corner"),
                         morita._corner_projection(link, "pu"),
                         morita._corner_projection(link, "qu"), report)


@dataclasses.dataclass(eq=False)
class AlgebraIso:
    source: StarAlgebra
    target: StarAlgebra
    matrix: np.ndarray


def verify_algebra_iso(iso: AlgebraIso, tol: float = DEFAULT_TOL) -> ValidationReport:
    """An invertible matrix that respects products and stars, checked on a
    basis.  A reference for the identifications made as bundles."""
    rep = ValidationReport(subject="algebra isomorphism")
    n, m = iso.source.dimension, iso.target.dimension
    u = iso.matrix
    # a matrix that is not finite has no rank to compute
    rep.add("square and invertible", n == m and u.shape == (m, n)
            and (n == 0 or (np.isfinite(u).all() and np.linalg.matrix_rank(u) == n)))
    if not rep.ok:
        return rep
    # u (e_i e_j) == (u e_i)(u e_j)
    d = _coo_residual((_coo(iso.source.struct), (u.T, None, None)),
                      (_coo(iso.target.struct), (None, u, u)))
    rep.record_metric("multiplicativity", d)
    rep.add("multiplicative", d <= tol)
    d = deviation(u @ iso.source.invol, iso.target.invol @ np.conjugate(u))
    rep.record_metric("star preservation", d)
    rep.add("star-preserving", d <= tol)
    return rep


def dense_raeburn_side(bundle, outer, inner, b, outer_alg, inner_alg, tol=DEFAULT_TOL):
    """morita._raeburn_side on dense algebras: the induced algebra, b on each
    orbit representative, against the section algebra of the quotient by
    the label-matching matrix theta, and each induced action t against the
    action on sections, theta ind_t == sections_t theta.  The quotient is
    read through morita, as _raeburn_side reads it.  A reference for the
    residual of _raeburn_side."""
    quot = morita._quotient_fell_bundle(bundle, inner)
    qb, qm = quot
    act = morita.induced_quotient_bundle_action(bundle, outer, quot)
    target = section_algebra(qb)
    idx = {lbl: k for k, lbl in enumerate(target.basis)}
    reps, nb = tuple(qb.base.arrows), b.dimension
    n = len(reps) * nb
    block = [slice(k * nb, (k + 1) * nb) for k in range(len(reps))]
    struct, invol = np.zeros((n, n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    for o in block:
        struct[o, o, o], invol[o, o] = b.struct, b.invol
    ind = StarAlgebra(tuple((r, i) for r in reps for i in range(nb)), struct, invol)
    theta = np.zeros((n, n), dtype=complex)
    theta[[idx[lbl] for lbl in ind.basis], range(n)] = 1.0
    iso = verify_algebra_iso(AlgebraIso(ind, target, theta), tol)
    res = [iso.metrics.get(m, np.nan) for m in ("multiplicativity", "star preservation")]
    grp = outer.group
    for t in grp.elements:
        ind_t, sections_t = np.zeros((2, n, n), dtype=complex)
        for ri, r in enumerate(reps):
            # (t.f)(r) = outer_t(f(inv(t).r))
            moved = outer.base_action.act[(grp.inv_elem(t), r)]
            rj = reps.index(qm.base.arrow_map[moved])
            shift = inner_alg.group.inv_elem(qm.base.shift[moved])
            ind_t[block[ri], block[rj]] = outer_alg.matrices[t] @ inner_alg.matrices[shift]
            rows = [idx[(act.base_action.act[(t, r)], k)] for k in range(nb)]
            sections_t[np.ix_(rows, [idx[(r, i)] for i in range(nb)])] = act.fiber_maps[(t, r)]
        res.append(deviation(theta @ ind_t, sections_t @ theta))
    return worst_residual(res)[0]


def product_with_group(x, g):
    """The direct product groupoid x times the group g.  A reference for
    semidirect products by a trivial action."""
    arrows = tuple((a, s) for a in x.arrows for s in g.elements)
    units = tuple((u, g.identity) for u in x.units)
    comp = {}
    for a, b in x.composable_pairs():
        for s in g.elements:
            for t in g.elements:
                comp[((a, s), (b, t))] = (x.comp[(a, b)], g.mul(s, t))
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        src={(a, s): (x.src[a], g.identity) for (a, s) in arrows},
        rng={(a, s): (x.rng[a], g.identity) for (a, s) in arrows},
        comp=comp,
        inv={(a, s): (x.inv[a], g.inv_elem(s)) for (a, s) in arrows},
        unit_arrow={(u, e): (x.unit_arrow[u], g.identity) for (u, e) in units},
    )


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
    left_action = semidirect_space_action(*_orbit_action_data(x, g, h, quotient_groupoid(x, h)))
    x_op, g_op = opposite(x), opposite(g)
    right_data = _orbit_action_data(x_op, opposite(h), g_op, quotient_groupoid(x_op, g_op))
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


# ---------------------------------------------------------------------------
# the action and equivalence checks as label walks, one tuple at a time.
# References for the checks on integer tables: the same checks, names,
# order and witnesses.


def _group_by(items, label):
    groups = {}
    for item in items:
        groups.setdefault(label[item], []).append(item)
    return groups


def _components(points, pairs):
    """The classes of points linked by the pairs, each in point order, in
    the order of their first members."""
    root = {z: z for z in points}

    def find(z):
        while root[z] != z:
            root[z] = root[root[z]]
            z = root[z]
        return z

    for z1, z2 in pairs:
        root[find(z1)] = find(z2)
    return list(_group_by(points, {z: find(z) for z in points}).values())


def check_action_by_labels(a):
    rep = ValidationReport(subject=f"{a.side} group action")
    g, x = a.group, a.target
    if a.side not in ("left", "right"):
        rep.add("side flag valid", False, a.side)
        return rep
    missing = [(t, ar) for t in g.elements for ar in x.arrows if (t, ar) not in a.act]
    rep.add("action total", not missing,
            f"({fmt(missing[0][0])},{fmt(missing[0][1])})" if missing else None)
    if missing:
        return rep

    arrows = set(x.arrows)
    bad = next((t for t in g.elements
                if {a.act[(t, ar)] for ar in x.arrows} != arrows), None)
    rep.add("each element acts bijectively", bad is None,
            fmt(bad) if bad is not None else None)
    if bad is not None:
        return rep

    bad, pairs = None, list(x.composable_pairs())
    for t in g.elements:
        for p, q in pairs:
            tp, tq = a.act[(t, p)], a.act[(t, q)]
            if not x.composable(tp, tq) or x.comp[(tp, tq)] != a.act[(t, x.comp[(p, q)])]:
                bad = (t, p, q)
                break
        if bad:
            break
    rep.add("acts by automorphisms (composition)", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])},{fmt(bad[2])})" if bad else None)

    bad = next(((t, ar) for t in g.elements for ar in x.arrows
                if a.act[(t, x.inv[ar])] != x.inv[a.act[(t, ar)]]), None)
    rep.add("acts by automorphisms (inverse)", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)

    bad = next((ar for ar in x.arrows if a.act[(g.identity, ar)] != ar), None)
    rep.add("identity acts trivially", bad is None, fmt(bad) if bad is not None else None)

    bad = None
    for s, t in itertools.product(g.elements, repeat=2):
        prod = g.mul(s, t) if a.side == "left" else g.mul(t, s)
        for ar in x.arrows:
            if a.act[(s, a.act[(t, ar)])] != a.act[(prod, ar)]:
                bad = (s, t, ar)
                break
        if bad:
            break
    rep.add("group law", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])},{fmt(bad[2])})" if bad else None)

    rep.note("properness: vacuously true (finite discrete space)")
    return rep


def check_space_action_by_labels(a):
    rep = ValidationReport(subject=f"{a.side} groupoid action on a set")
    if a.side not in ("left", "right"):
        rep.add("side flag valid", False, a.side)
        return rep
    if a.side == "right":
        a = opposite(a)
    g = a.groupoid

    bad = [u for u in a.space if a.fibring.get(u) not in set(g.units)]
    rep.add("fibring total with unit values", not bad, fmt(bad[0]) if bad else None)
    if bad:
        return rep

    dom = [(x, u) for x in g.arrows for u in a.space if g.src[x] == a.fibring[u]]
    dom_set = set(dom)
    missing = [k for k in dom if k not in a.act]
    extra = [k for k in a.act if k not in dom_set]
    wit = (missing or extra or [None])[0]
    rep.add("defined iff fibring matches", not missing and not extra,
            f"({fmt(wit[0])},{fmt(wit[1])})" if wit else None)
    if missing:
        return rep

    pos = {}
    for i, u in enumerate(a.space):
        pos.setdefault(u, i)
    bad = next(((x, u) for (x, u), v in a.act.items()
                if v not in pos or a.fibring[v] != g.rng[x]), None)
    rep.add("fibring of the image", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)
    if bad:
        return rep

    acted = {}
    for y, u in sorted((k for k in a.act if k[1] in pos), key=lambda k: pos[k[1]]):
        acted.setdefault(y, []).append(u)
    sentinel = object()
    bad = None
    for x, y in g.composable_pairs():
        xy = g.comp.get((x, y), sentinel)
        for u in acted.get(y, ()):
            step = a.act.get((x, a.act[(y, u)]), sentinel)
            if a.act.get((xy, u), sentinel) is sentinel or step is sentinel \
                    or a.act[(xy, u)] != step:
                bad = (x, y, u)
                break
        if bad:
            break
    rep.add("compatible with composition", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])},{fmt(bad[2])})" if bad else None)

    bad = next((u for u in a.space
                if a.act[(g.unit_arrow[a.fibring[u]], u)] != u), None)
    rep.add("unit arrows act identically", bad is None,
            fmt(bad) if bad is not None else None)
    return rep


def verify_groupoid_equivalence_by_labels(e):
    rep = ValidationReport(subject="groupoid equivalence")
    p_gpd, q_gpd = e.left_groupoid, e.right_groupoid
    z_set = e.space

    rep.merge(validate_groupoid(p_gpd), prefix="left groupoid: ")
    rep.merge(validate_groupoid(q_gpd), prefix="right groupoid: ")
    if not rep.ok:
        return rep
    rep.merge(check_space_action_by_labels(e.left_action), prefix="left action: ")
    rep.merge(check_space_action_by_labels(e.right_action), prefix="right action: ")
    if not rep.ok:
        return rep

    e_op = opposite(e)
    for f, name in ((e, "(i) left action free"), (e_op, "(ii) right action free")):
        bad = next(((p, z) for (p, z), v in f.left_action.act.items()
                    if v == z and not f.left_groupoid.is_unit_arrow(p)), None)
        rep.add(name, bad is None,
                f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)

    bad, fibers = None, _group_by(q_gpd.arrows, q_gpd.rng)
    left, right = e.left_action.act, e.right_action.act
    for (p, z), pz in left.items():
        for q in fibers.get(e.sigma.get(z), ()):
            zq = right.get((q, z))
            if zq is not None and (right.get((q, pz)) is None
                                   or right[(q, pz)] != left.get((p, zq))):
                bad = (p, z, q)
                break
        if bad:
            break
    rep.add("(iii) actions commute", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])},{fmt(bad[2])})" if bad else None)

    for f, invariant, bijective in (
            (e, "(iv) rho invariant under the right action",
             "(iv) rho factors to a bijection onto left units"),
            (e_op, "(v) sigma invariant under the left action",
             "(v) sigma factors to a bijection onto right units")):
        bad = next(((q, z) for (q, z), v in f.right_action.act.items()
                    if f.rho[v] != f.rho[z]), None)
        rep.add(invariant, bad is None,
                f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)
        orbits = _components(z_set, ((z, v) for (q, z), v in f.right_action.act.items()))
        rho_vals = {canonical_min(o): {f.rho[z] for z in o} for o in orbits}
        bad = next((o for o, vals in rho_vals.items() if len(vals) != 1), None)
        single = bad is None
        vals = [next(iter(v)) for v in rho_vals.values()] if single else []
        bij = single and len(set(map(fmt, vals))) == len(vals) and \
            set(map(fmt, vals)) == set(map(fmt, f.left_groupoid.units))
        rep.add(bijective, bij,
                None if bij else (f"orbit of {fmt(bad)}" if bad else "not bijective"))

    if not rep.ok:
        return rep

    bad, seen = None, {"left": set(), "right": set()}
    sides = {"left": (e.sigma, bracket_table(e), False),
             "right": (e.rho, bracket_table(e_op), True)}
    for z1, z2, side in itertools.product(z_set, z_set, sides):
        fiber, table, flip = sides[side]
        if fiber[z1] != fiber[z2]:
            continue
        key = (z2, z1) if flip else (z1, z2)
        if key not in table:
            bad = (side, z1, z2)
            break
        seen[side].add(table[key])
    rep.add("bracket characterizing identities", bad is None,
            f"{bad[0]} pair ({fmt(bad[1])},{fmt(bad[2])})" if bad else None)
    if bad is None:
        rep.add("brackets jointly surjective",
                seen["left"] == set(p_gpd.arrows) and seen["right"] == set(q_gpd.arrows))
    rep.note("properness: vacuously true (finite discrete space)")
    return rep


def fell_bundle_structure_by_labels(b):
    """The structural checks of validate_fell_bundle as label loops, up to
    and including "star matrices present with matching shapes": (name, ok,
    witness) per check, in validate_fell_bundle's order.  A reference for
    the checks that read the numbered pairs."""
    out, g = [], b.base

    def add(name, bad):
        out.append((name, bad is None, bad))
        return bad is not None

    bad = [x for x in g.arrows if b.dim.get(x) is None or b.dim[x] < 0]
    if add("fiber dimensions total and nonnegative", fmt(bad[0]) if bad else None):
        return out
    bad = [x for x in g.arrows if b.dim[x] != b.dim.get(g.inv.get(x))]
    if add("dim(x) == dim(inv x)", fmt(bad[0]) if bad else None):
        return out
    pairs = list(g.composable_pairs())
    pair_set = set(pairs)
    missing = [k for k in pairs if k not in b.mult]
    extra = [k for k in b.mult if k not in pair_set]
    wit = (missing or extra or [None])[0]
    add("mult defined exactly on composable pairs",
        f"({fmt(wit[0])},{fmt(wit[1])})" if wit else None)
    if missing:
        return out
    arrows = set(g.arrows)
    bad = next(((x, y) for (x, y) in pairs if g.comp.get((x, y)) not in arrows
                or b.mult[(x, y)].shape != (b.dim[g.comp[(x, y)]], b.dim[x], b.dim[y])),
               None)
    add("mult tensor shapes", f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)
    bad = next((x for x in g.arrows
                if x not in b.star or b.star[x].shape != (b.dim[g.inv[x]], b.dim[x])),
               None)
    add("star matrices present with matching shapes", fmt(bad) if bad is not None else None)
    return out


def check_homomorphism_by_labels(f):
    """check_homomorphism as the label walk of composable_pairs() it was."""
    rep = ValidationReport(subject="groupoid homomorphism")
    src, tgt, m = f.source, f.target, f.arrow_map
    bad = next((x for x in src.arrows if x not in m), None)
    rep.add("total", bad is None, None if bad is None else f"missing image of {fmt(bad)}")
    if bad is not None:
        return rep
    targets = set(tgt.arrows)
    bad = next((x for x in src.arrows if m[x] not in targets), None)
    rep.add("arrows land in target", bad is None, fmt(bad) if bad is not None else None)
    if bad is not None:
        return rep
    for x, y in src.composable_pairs():
        if not tgt.composable(m[x], m[y]):
            rep.add("preserves composability", False, f"pair ({fmt(x)},{fmt(y)})")
            return rep
        if tgt.comp[(m[x], m[y])] != m[src.comp[(x, y)]]:
            rep.add("preserves composition", False, f"pair ({fmt(x)},{fmt(y)})")
            return rep
    rep.add("preserves composition", True)
    bad = [x for x in src.arrows if m[src.inv[x]] != tgt.inv[m[x]]]
    rep.add("preserves inverses", not bad, fmt(bad[0]) if bad else None)
    return rep


def _numbered(table):
    """The keys of a tensor table numbered in table order, and its tensors."""
    keys = list(table)
    return {k: i for i, k in enumerate(keys)}, [table[k] for k in keys]


def verify_bundle_iso_by_labels(iso, tol=DEFAULT_TOL):
    """verify_bundle_iso as the label walk of composable_pairs() and the
    per-arrow star loop it was, its products batched by bundles._residuals."""
    rep = ValidationReport(subject="bundle isomorphism")
    src, tgt, amap = iso.source, iso.target, iso.arrow_map
    image = {amap.get(x) for x in src.base.arrows}  # None marks a missing image
    rep.add("arrow map bijective", len(image) == len(src.base.arrows)
            and image == set(tgt.base.arrows))
    if not rep.ok:
        return rep
    bad = next((x for x in src.base.arrows
                if x not in iso.fiber_maps
                or iso.fiber_maps[x].shape != (src.dim[x], src.dim[x])
                or tgt.dim[amap[x]] != src.dim[x]
                or np.linalg.matrix_rank(iso.fiber_maps[x]) != src.dim[x]),
               None)
    rep.add("fiber maps are linear isomorphisms", bad is None,
            fmt(bad) if bad is not None else None)
    if not rep.ok:
        return rep
    fid, fms = _numbered(iso.fiber_maps)
    sid, sts = _numbered(src.mult)
    tid, tts = _numbered(tgt.mult)
    pairs, ids = [], []
    for (x, y) in src.base.composable_pairs():
        fx, fy = amap[x], amap[y]
        if not tgt.base.composable(fx, fy) or tgt.base.comp[(fx, fy)] != amap[src.base.comp[(x, y)]]:
            rep.add("arrow map multiplicative", False, f"({fmt(x)},{fmt(y)})")
            return rep
        pairs.append((x, y))
        ids.append((fid[src.base.comp[(x, y)]], sid[(x, y)], tid[(fx, fy)], fid[x], fid[y]))
    worst, i = worst_residual(bundles._residuals(
        "kl,lij->kij", "kab,ai,bj->kij", [fms, sts, tts, fms, fms], ids))
    rep.record_metric("multiplicativity", worst)
    rep.add("fiber maps multiplicative", worst <= tol,
            None if worst <= tol else fmt(pairs[i]))
    worst, i = worst_residual([
        deviation(tgt.star[amap[x]] @ np.conjugate(iso.fiber_maps[x]),
                  iso.fiber_maps[src.base.inv[x]] @ src.star[x])
        for x in src.base.arrows])
    rep.record_metric("star preservation", worst)
    rep.add("fiber maps star-preserving", worst <= tol,
            None if worst <= tol else fmt(src.base.arrows[i]))
    return rep


def check_module_action_by_labels(m, tol=DEFAULT_TOL):
    """check_module_action as the walk of the action table and the acting
    arrows it was, its triples batched by bundles._residuals."""
    rep = ValidationReport(subject="bundle module action")
    rep.merge(check_space_action(m.base), prefix="base: ")
    missing = [k for k in m.base.act if k not in m.tensors]
    rep.add("tensors cover the defined pairs", not missing,
            fmt(missing[0]) if missing else None)
    if not rep.ok:
        return rep
    acting = m.acting
    tid, tts = _numbered(m.tensors)
    mid, mts = _numbered(acting.mult)
    tuples, ids = [], []
    for (q, z), qz in m.base.act.items():
        for p in acting.base.arrows:
            if not acting.base.composable(p, q):
                continue
            tuples.append((p, q, z))
            ids.append((tid[(p, qz)], tid[(q, z)],
                        tid[(acting.base.comp[(p, q)], z)], mid[(p, q)]))
    worst, i = worst_residual(bundles._residuals(
        "lam,mbj->labj", "lcj,cab->labj", [tts, tts, tts, mts], ids))
    rep.record_metric("module associativity", worst)
    rep.add("module action associative", worst <= tol,
            None if worst <= tol else fmt(tuples[i]))
    return rep
