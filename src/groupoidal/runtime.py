"""Build runtime objects from model declarations, and declarations back.

Builders raise ModelError for structural impossibilities (missing tables,
shape mismatches); mathematical axiom violations are left to the validators
so that `validate` can report them with witnesses instead of crashing.
"""

from __future__ import annotations

import numpy as np

from .algebras import AlgebraAction, StarAlgebra
from .bundles import (
    BundleAction,
    FellBundle,
    identity_fiber_maps,
    make_trivial_cbundle,
    trivial_line_bundle,
)
from .groupoids import (
    FiniteGroup,
    FiniteGroupoid,
    GroupAction,
    SpaceAction,
    action_from_unit_map,
    group_set_action,
    make_group,
    make_pair_groupoid,
    make_unit_groupoid,
)
from .instances import cyclic_group, diagonal_algebra, matrix_algebra
from .modelio import (
    ActionDecl,
    AlgebraDecl,
    BundleDecl,
    GroupDecl,
    GroupoidDecl,
    ModelError,
    ModelFile,
    array_to_numbers,
    numbers_to_array,
)
from ._util import fmt


# the model kind of each runtime action class, as error messages name it
_ACTION_KINDS = {GroupAction: "group_on_groupoid",
                 SpaceAction: "group_on_space or groupoid_on_space",
                 BundleAction: "group_on_bundle", AlgebraAction: "group_on_algebra"}

# the constructor of each builder one-liner of modelio.BUILDERS, by the same
# key, called with the runtime model and the one-liner's arguments
_ONE_LINERS = {
    ("group", "cyclic"): lambda rt, n: cyclic_group(n),
    ("groupoid", "pair"): lambda rt, n: make_pair_groupoid(n),
    ("groupoid", "units"): lambda rt, n: make_unit_groupoid(range(1, n + 1)),
    ("algebra", "diag"): lambda rt, n: diagonal_algebra(n),
    ("algebra", "matrix"): lambda rt, n: matrix_algebra(n),
    ("bundle", "line"): lambda rt, g: trivial_line_bundle(rt.groupoid(g)),
    ("bundle", "trivial"): lambda rt, a, s: make_trivial_cbundle(rt.algebra(a), rt.space(s)),
}


class RuntimeModel:
    """Lazily builds and caches the objects declared in a ModelFile."""

    def __init__(self, model: ModelFile):
        self.model = model
        self._cache: dict = {}

    def _get(self, kind: str, name: str, build):
        key = (kind, name)
        if key not in self._cache:
            decl = getattr(self.model, kind + "s").get(name)
            if decl is None:
                raise ModelError(f"unknown {kind} {name!r}")
            builder = getattr(decl, "builder", None)
            self._cache[key] = (_ONE_LINERS[kind, builder[0]](self, *builder[1:])
                                if builder else build(decl, self))
        return self._cache[key]

    def group(self, name: str) -> FiniteGroup:
        return self._get("group", name, _build_group)

    def groupoid(self, name: str) -> FiniteGroupoid:
        if name in self.model.groups:
            return self.group(name)
        return self._get("groupoid", name, _build_groupoid)

    def space(self, name: str) -> tuple:
        return self._get("space", name, lambda decl, rt: decl.points)

    def algebra(self, name: str) -> StarAlgebra:
        return self._get("algebra", name, _build_algebra)

    def bundle(self, name: str) -> FellBundle:
        return self._get("bundle", name, _build_bundle)

    def action(self, name: str, kind: type | None = None, where: str = ""):
        """The action ``name``; with ``kind``, a usage error naming ``where``
        and the action unless it is of that class."""
        action = self._get("action", name, _build_action)
        if kind is not None and not isinstance(action, kind):
            raise ModelError(f"{where} {name!r} is not a {_ACTION_KINDS[kind]} action")
        return action


def _build_group(decl: GroupDecl, rt: RuntimeModel) -> FiniteGroup:
    table = {}
    for (a, b, ab) in decl.table:
        table[(a, b)] = ab
    for a in decl.elements:
        for b in decl.elements:
            if (a, b) not in table:
                raise ModelError(
                    f"group {decl.name!r}: missing product {fmt(a)} {fmt(b)}")
    return make_group(table)


def _build_groupoid(decl: GroupoidDecl, rt: RuntimeModel) -> FiniteGroupoid:
    src, rng, inv = {}, {}, {}
    for (a, s, r, i) in decl.arrow_data:
        src[a], rng[a], inv[a] = s, r, i
    missing = [a for a in decl.arrows if a not in src]
    if missing:
        raise ModelError(
            f"groupoid {decl.name!r}: arrow {fmt(missing[0])} has no arrow line")
    unit_arrow = dict(decl.unit_arrows)
    missing = [u for u in decl.units if u not in unit_arrow]
    if missing:
        raise ModelError(
            f"groupoid {decl.name!r}: unit {fmt(missing[0])} has no unit arrow")
    comp = {(x, y): xy for (x, y, xy) in decl.comp}
    return FiniteGroupoid(decl.units, decl.arrows, src, rng, comp, inv, unit_arrow)


def _build_algebra(decl: AlgebraDecl, rt: RuntimeModel) -> StarAlgebra:
    n = len(decl.basis)
    idx = {b: k for k, b in enumerate(decl.basis)}
    struct = np.zeros((n, n, n), dtype=complex)
    for (x, y, entries) in decl.products:
        if len(entries) != n:
            raise ModelError(
                f"algebra {decl.name!r}: product {fmt(x)} {fmt(y)} needs {n} entries")
        struct[:, idx[x], idx[y]] = numbers_to_array(entries, (n,))
    invol = np.zeros((n, n), dtype=complex)
    for (x, entries) in decl.stars:
        if len(entries) != n:
            raise ModelError(
                f"algebra {decl.name!r}: star {fmt(x)} needs {n} entries")
        invol[:, idx[x]] = numbers_to_array(entries, (n,))
    return StarAlgebra(decl.basis, struct, invol, provenance=decl.name)


def _build_bundle(decl: BundleDecl, rt: RuntimeModel) -> FellBundle:
    base = rt.groupoid(decl.base)
    dim = dict(decl.dims)
    for x in base.arrows:
        if x not in dim:
            raise ModelError(f"bundle {decl.name!r}: no dimension for {fmt(x)}")
    mult = {}
    for (x, y, entries) in decl.mults:
        if (x, y) not in base.comp:
            raise ModelError(
                f"bundle {decl.name!r}: mult over non-composable ({fmt(x)},{fmt(y)})")
        shape = (dim[base.comp[(x, y)]], dim[x], dim[y])
        if len(entries) != shape[0] * shape[1] * shape[2]:
            raise ModelError(
                f"bundle {decl.name!r}: mult {fmt(x)} {fmt(y)} needs "
                f"{shape[0] * shape[1] * shape[2]} entries")
        mult[(x, y)] = numbers_to_array(entries, shape)
    star = {}
    for (x, entries) in decl.stars:
        shape = (dim[base.inv[x]], dim[x])
        if len(entries) != shape[0] * shape[1]:
            raise ModelError(
                f"bundle {decl.name!r}: star {fmt(x)} needs {shape[0] * shape[1]} entries")
        star[x] = numbers_to_array(entries, shape)
    return FellBundle(base, dim, mult, star)


def _build_action(decl: ActionDecl, rt: RuntimeModel):
    build = {"group_on_groupoid": _group_on_groupoid, "group_on_space": _group_on_space,
             "groupoid_on_space": _groupoid_on_space, "group_on_bundle": _group_on_bundle,
             "group_on_algebra": _group_on_algebra}.get(decl.kind)
    if build is None:
        raise ModelError(f"action {decl.name!r} has unknown kind {decl.kind!r}")
    return build(decl, rt)


def _perm_maps(decl: ActionDecl, grp: FiniteGroup, units: tuple) -> dict:
    maps = {grp.identity: {u: u for u in units}}
    for up in decl.unit_perms:
        elem, images = up[0], up[1:]
        if len(images) != len(units):
            raise ModelError(
                f"action {decl.name!r}: unit_perm {fmt(elem)} needs {len(units)} images")
        maps[elem] = dict(zip(units, images))
    for elem, pairs in decl.maps:
        maps[elem] = dict(pairs)
    missing = [t for t in grp.elements if t not in maps]
    if missing:
        raise ModelError(
            f"action {decl.name!r}: no map for element {fmt(missing[0])}")
    return maps


def _group_on_groupoid(decl: ActionDecl, rt: RuntimeModel) -> GroupAction:
    grp = rt.group(decl.group)
    target = rt.groupoid(decl.target)
    if decl.unit_perms:
        maps = _perm_maps(decl, grp, target.units)
        if set(target.arrows) == set(target.units):  # groupoid of units
            act = {(t, u): maps[t][u]
                   for t in grp.elements for u in target.arrows}
            return GroupAction(grp, target, act, decl.side)
        return action_from_unit_map(grp, target, maps, decl.side)
    if decl.maps:
        act = {}
        for elem, pairs in decl.maps:
            for (x, y) in pairs:
                act[(elem, x)] = y
        for x in target.arrows:
            act.setdefault((grp.identity, x), x)
        return GroupAction(grp, target, act, decl.side)
    # no table: the trivial action
    act = {(t, x): x for t in grp.elements for x in target.arrows}
    return GroupAction(grp, target, act, decl.side)


def _group_on_space(decl: ActionDecl, rt: RuntimeModel) -> SpaceAction:
    grp = rt.group(decl.group)
    points = rt.space(decl.space)
    mapping = {(grp.identity, u): u for u in points}
    for elem, pairs in decl.maps:
        for (x, y) in pairs:
            mapping[(elem, x)] = y
    missing = [(t, u) for t in grp.elements for u in points if (t, u) not in mapping]
    if missing:
        raise ModelError(
            f"action {decl.name!r}: no image for ({fmt(missing[0][0])},{fmt(missing[0][1])})")
    return group_set_action(grp, points, mapping, decl.side)


def _groupoid_on_space(decl: ActionDecl, rt: RuntimeModel) -> SpaceAction:
    gpd = rt.groupoid(decl.groupoid)
    points = rt.space(decl.space)
    act, fibring = {}, {}
    for arrow, pairs in decl.maps:
        if arrow not in gpd.src:
            raise ModelError(f"action {decl.name!r}: map {fmt(arrow)} is not an arrow "
                             f"of {decl.groupoid!r}")
        for (u, v) in pairs:
            act[(arrow, u)] = v
            if decl.side == "left":
                fibring[u] = gpd.src[arrow]
            else:
                fibring[u] = gpd.rng[arrow]
    missing = [u for u in points if u not in fibring]
    if missing:
        raise ModelError(
            f"action {decl.name!r}: point {fmt(missing[0])} never acted on; "
            "fibring undetermined")
    return SpaceAction(gpd, points, fibring, act, decl.side)


def _group_on_bundle(decl: ActionDecl, rt: RuntimeModel) -> BundleAction:
    base_action = rt.action(decl.base, GroupAction, f"action {decl.name!r}: base")
    bundle = rt.bundle(decl.bundle)
    if decl.fibers_identity or not decl.fibers:
        fiber = identity_fiber_maps(bundle, base_action)
    else:
        fiber = {}
        for (elem, arrow, entries) in decl.fibers:
            where = f"action {decl.name!r}: fiber {fmt(elem)} {fmt(arrow)}"
            target = base_action.act.get((elem, arrow))
            if arrow not in bundle.dim or target not in bundle.dim:
                raise ModelError(f"{where} is not over an arrow of the base and its image")
            shape = (bundle.dim[target], bundle.dim[arrow])
            if len(entries) != shape[0] * shape[1]:
                raise ModelError(f"{where} needs {shape[0] * shape[1]} entries")
            fiber[(elem, arrow)] = numbers_to_array(entries, shape)
        for t in base_action.group.elements:
            for x in bundle.base.arrows:
                fiber.setdefault((t, x), np.eye(bundle.dim[x], dtype=complex))
    return BundleAction(base_action.group, bundle, base_action, fiber,
                        base_action.side)


def _group_on_algebra(decl: ActionDecl, rt: RuntimeModel) -> AlgebraAction:
    grp = rt.group(decl.group)
    alg = rt.algebra(decl.algebra)
    n = alg.dimension
    mats = {grp.identity: np.eye(n, dtype=complex)}
    for (elem, entries) in decl.matrices:
        if len(entries) != n * n:
            raise ModelError(
                f"action {decl.name!r}: matrix {fmt(elem)} needs {n * n} entries")
        mats[elem] = numbers_to_array(entries, (n, n))
    missing = [t for t in grp.elements if t not in mats]
    if missing:
        raise ModelError(f"action {decl.name!r}: no matrix for {fmt(missing[0])}")
    return AlgebraAction(grp, alg, mats, decl.side)


# ---------------------------------------------------------------------------
# objects back to declarations (used by the build command)


def groupoid_to_decl(name: str, g: FiniteGroupoid) -> GroupoidDecl:
    return GroupoidDecl(
        name=name,
        units=tuple(g.units),
        arrows=tuple(g.arrows),
        arrow_data=tuple((a, g.src[a], g.rng[a], g.inv[a]) for a in g.arrows),
        unit_arrows=tuple((u, g.unit_arrow[u]) for u in g.units),
        comp=tuple((x, y, xy) for (x, y), xy in sorted(
            g.comp.items(), key=lambda kv: (fmt(kv[0][0]), fmt(kv[0][1])))),
    )


def group_to_decl(name: str, g: FiniteGroup) -> GroupDecl:
    return GroupDecl(
        name=name,
        elements=tuple(g.elements),
        table=tuple((a, b, g.mul(a, b)) for a in g.elements for b in g.elements),
    )


def algebra_to_decl(name: str, a: StarAlgebra) -> AlgebraDecl:
    products, stars = [], []
    for i, x in enumerate(a.basis):
        for j, y in enumerate(a.basis):
            col = a.struct[:, i, j]
            if np.any(col != 0):
                products.append((x, y, array_to_numbers(col)))
        stars.append((x, array_to_numbers(a.invol[:, i])))
    return AlgebraDecl(name, basis=tuple(a.basis), products=tuple(products),
                       stars=tuple(stars))


def bundle_to_decl(name: str, b: FellBundle, base_name: str) -> BundleDecl:
    mults = []
    for (x, y), tensor in sorted(b.mult.items(),
                                 key=lambda kv: (fmt(kv[0][0]), fmt(kv[0][1]))):
        mults.append((x, y, array_to_numbers(tensor)))
    stars = [(x, array_to_numbers(b.star[x])) for x in b.base.arrows]
    return BundleDecl(
        name=name, base=base_name,
        dims=tuple((x, b.dim[x]) for x in b.base.arrows),
        mults=tuple(mults), stars=tuple(stars),
    )


def space_action_to_decl(name: str, a: SpaceAction, groupoid_name: str,
                         space_name: str) -> ActionDecl:
    by_arrow: dict = {}
    for (x, u), v in a.act.items():
        by_arrow.setdefault(x, []).append((u, v))
    maps = tuple((x, tuple(sorted(pairs, key=lambda p: fmt(p[0]))))
                 for x, pairs in sorted(by_arrow.items(), key=lambda kv: fmt(kv[0])))
    return ActionDecl(name=name, kind="groupoid_on_space",
                      groupoid=groupoid_name, space=space_name,
                      side=a.side, maps=maps)

