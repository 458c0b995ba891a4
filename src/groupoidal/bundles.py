"""Fell bundles with finite-dimensional fibers over finite groupoids.

Fibers are complex vector spaces with explicit bases; the multiplication
A(x) (x) A(y) -> A(xy) is stored as a structure tensor mult[(x, y)] of shape
(dim(xy), dim(x), dim(y)), and the involution A(x) -> A(inv(x)) as an
antilinear map given by the matrix star[x]: vec* = star[x] @ conj(vec).

All comparisons are entrywise with an absolute tolerance (default 1e-9);
structure constants are exact small rationals in every shipped instance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import _BLOCK, DEFAULT_TOL, _ranges, deviation, fmt, worst_residual
from .groupoids import (
    FiniteGroup,
    FiniteGroupoid,
    GroupAction,
    GroupoidEquivalence,
    GroupoidHom,
    PrincipalDecomposition,
    QuotientMap,
    SpaceAction,
    actions_commute,
    bracket_table,
    check_action,
    check_homomorphism,
    check_space_action,
    is_free,
    make_group,
    make_unit_groupoid,
    opposite,
    orbit_space_action,
    principal_decomposition,
    read_back,
    require_free,
    semidirect_space_action,
    transformation_groupoid,
    trivial_action,
    verify_groupoid_equivalence,
    _Transposed,
    _flip,
    _group_by,
    _orbit_action_data,
    _other_side,
    _quotient_groupoid,
    _require_acting_on,
    _semidirect_left,
    _Ids,
    _UnitShifts,
    _first,
    _group_law_ids,
    _image_table,
    _arrow_images,
    _blocks_of,
    _check_space_action,
    _morphism_failures,
    _MISSING,
)
from .report import (
    InternalConsistencyError,
    InvalidStructureError,
    ValidationReport,
)


# ---------------------------------------------------------------------------
# batched residual kernels
#
# Every batched contraction goes through one evaluator, _evaluated(): rows
# of tensor ids into tables classified once by shape, grouped by the shapes
# of their tensors, and each shape class contracted by one einsum per spec
# and chunk, with optimize off, so that every entry sums in the order of the
# unbatched einsum.  _residuals() lands max |lhs - rhs| of each row, NaN
# propagating, at the row's place, so worst_residual() names the first tuple
# attaining the maximum; _contracted() returns each row's contraction.

_CHUNK = 1 << 16  # output entries per batched einsum: bounds its operands


def _shape_classes(tensors: list) -> tuple:
    """Each tensor's shape class and place in it, and one stack per class."""
    classes: dict = {}  # each shape's positions in tensors
    for i, t in enumerate(tensors):
        classes.setdefault(t.shape, []).append(i)
    cls, pos = np.empty((2, len(tensors)), dtype=np.intp)
    for c, members in enumerate(classes.values()):
        cls[members], pos[members] = c, np.arange(len(members))
    return cls, pos, [np.array([tensors[i] for i in members]) for members in classes.values()]


def _evaluated(specs, tables: list, rows):
    """Chunk by chunk of rows of tensor ids, the chunk's positions and each
    spec's np.einsum over it.  The specs share their output indices and read
    their inputs, in spec order, from ``tables`` (_shape_classes(), or lists
    of tensors classified here) at the ids in the matching column of
    ``rows``.  Rows go by in blocks of at most _BLOCK, which bounds the
    bookkeeping, and a chunk holds at most _CHUNK output entries (or one row).
    """
    inputs = [spec.split("->")[0].split(",") for spec in specs]
    out = specs[0].split("->")[1]
    batched = ["Z" + spec.replace(",", ",Z").replace("->", "->Z") for spec in specs]
    tables = [_shape_classes(t) if isinstance(t, list) else t for t in tables]
    rows = np.asarray(rows, dtype=np.intp).reshape(-1, len(tables))
    for block in _blocks_of(len(rows), 1):
        ids = rows[block]
        # per input: shape class and stack position of each row's tensor
        cols = [(c[ids[:, j]], p[ids[:, j]], stacks) for j, (c, p, stacks) in enumerate(tables)]
        key = np.zeros(len(ids), dtype=np.int64)
        for cls, _pos, stacks in cols:
            key = key * len(stacks) + cls
        order = np.argsort(key, kind="stable") if key.any() else np.arange(len(ids))
        for members in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            stacks = [col[2][col[0][members[0]]] for col in cols]
            dims = {}
            for subs, stack in zip(itertools.chain(*inputs), stacks):
                dims.update(zip(subs, stack.shape[1:]))
            step = max(1, _CHUNK // max(1, math.prod(dims[c] for c in out)))
            for start in range(0, len(members), step):
                chunk = members[start:start + step]
                ops = iter([stack[col[1][chunk]] for stack, col in zip(stacks, cols)])
                yield block.start + chunk, [
                    np.einsum(spec, *itertools.islice(ops, len(subs)))
                    for spec, subs in zip(batched, inputs)]


def _residuals(lhs: str, rhs: str, tables: list, rows) -> np.ndarray:
    """max |lhs - rhs| for each row of tensor ids, in row order, as
    _evaluated() reads them; 0 on a row whose output is empty."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1, len(tables))
    residuals = np.zeros(len(rows))
    for at, (left, right) in _evaluated((lhs, rhs), tables, rows):
        residuals[at] = np.abs(left - right).reshape(len(at), -1).max(axis=1, initial=0.0)
    return residuals


def _contracted(spec: str, rows: list) -> list:
    """np.einsum(spec, *row) for each row of operands, in row order, each
    column of operands read as one table of _evaluated()."""
    out = [None] * len(rows)
    if rows:
        ids = np.repeat(np.arange(len(rows))[:, None], len(rows[0]), axis=1)
        for at, (results,) in _evaluated([spec], [list(c) for c in zip(*rows)], ids):
            for i, result in zip(at.tolist(), results):
                out[i] = result
    return out


@dataclass(eq=False)
class FellBundle:
    base: FiniteGroupoid
    dim: dict
    mult: dict
    star: dict

    def multiply(self, x, y, va, vb) -> np.ndarray:
        return np.einsum("kij,i,j->k", self.mult[(x, y)], va, vb)

    def star_vec(self, x, v) -> np.ndarray:
        return self.star[x] @ np.conjugate(v)

    def total_dimension(self) -> int:
        return sum(self.dim[x] for x in self.base.arrows)

    def __repr__(self) -> str:
        return f"FellBundle({len(self.base.arrows)} fibers, total dim {self.total_dimension()})"


def _swap_inputs(tensor: np.ndarray) -> np.ndarray:
    return tensor.transpose(0, 2, 1)


@opposite.register
def _opposite_bundle(b: FellBundle) -> FellBundle:
    """The bundle over the opposite groupoid, multiplying a.b as b a."""
    return FellBundle(opposite(b.base), b.dim, _Transposed(b.mult, _swap_inputs), b.star)


@read_back.register
def _read_back_bundle(b: FellBundle) -> FellBundle:
    # dims and stars in the base's arrow order, products in composable_pairs() order
    base = read_back(b.base)
    return FellBundle(
        base,
        {x: b.dim[_flip(x)] for x in base.arrows},
        {(x, y): _swap_inputs(b.mult[(_flip(y), _flip(x))]) for x, y in base.composable_pairs()},
        {x: b.star[_flip(x)] for x in base.arrows})


def trivial_line_bundle(base: FiniteGroupoid) -> FellBundle:
    one = np.ones((1, 1, 1), dtype=complex)
    eye = np.eye(1, dtype=complex)
    return FellBundle(
        base=base,
        dim={x: 1 for x in base.arrows},
        mult={pair: one for pair in base.composable_pairs()},
        star={x: eye for x in base.arrows},
    )


def validate_fell_bundle(b: FellBundle, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Associativity, involution, and dimension axioms, checked entrywise.

    The base is numbered once (its _Ids, held by _Products): products are
    matched to the composable pairs, and their shapes checked, on its id
    columns.  Associativity runs over the composable triples and the
    antihomomorphism law over the composable pairs, in the order of
    composable_triples() and composable_pairs(), each batched by fiber-shape
    class.  The triples are evaluated in blocks of at most _BLOCK, and the
    pass keeps only one residual per triple; the witness's arrows are read
    back from its position.  A check's metric is its largest residual, its
    witness the first tuple in that order attaining it, and a NaN residual
    fails.  A triple whose two products lie over different arrows (the base
    is not associative) raises InvalidStructureError naming it.
    """
    rep = ValidationReport(subject="fell bundle")
    kernels = _Products(b)
    g, ids = b.base, kernels.ids

    bad = [x for x in g.arrows if b.dim.get(x) is None or b.dim[x] < 0]
    rep.add("fiber dimensions total and nonnegative", not bad,
            fmt(bad[0]) if bad else None)
    if bad:
        return rep

    bad = [x for x in g.arrows if b.dim[x] != b.dim.get(g.inv.get(x))]
    rep.add("dim(x) == dim(inv x)", not bad, fmt(bad[0]) if bad else None)
    if bad:  # an inverse that is not an arrow has no star shape to compare
        return rep

    (px, py), arrows = ids.pairs, ids.arrows
    missing, extra = ids.coverage(*ids.key_ids(b.mult))
    wit = ((arrows[px[missing]], arrows[py[missing]]) if missing is not None
           else next(itertools.islice(b.mult, extra, None)) if extra is not None else None)
    rep.add("mult defined exactly on composable pairs", wit is None,
            f"({fmt(wit[0])},{fmt(wit[1])})" if wit else None)
    if missing is not None:
        return rep

    # a product that is not an arrow has dimension -1, and a tensor that is
    # not three-dimensional the shape (-2, -2, -2)
    dims, (cls, _pos, stacks) = np.array([b.dim[x] for x in arrows] + [-1]), kernels.mults
    shapes = np.array([s.shape[1:] if s.ndim == 4 else (-2,) * 3 for s in stacks]).reshape(-1, 3)
    k = _first((shapes[cls] != np.stack([dims[ids.prod], dims[px], dims[py]], axis=1)).any(1))
    rep.add("mult tensor shapes", k is None,
            f"({fmt(arrows[px[k]])},{fmt(arrows[py[k]])})" if k is not None else None)

    bad = next((x for x in g.arrows
                if x not in b.star or b.star[x].shape != (b.dim[g.inv[x]], b.dim[x])),
               None)
    rep.add("star matrices present with matching shapes", bad is None,
            fmt(bad) if bad is not None else None)
    if not rep.ok:
        return rep

    assoc = np.zeros(ids.n_triples)
    for block, cols in ids.triple_blocks():
        assoc[block] = kernels.associativity(*cols)
    worst, i = worst_residual(assoc)
    rep.record_metric("associativity", worst)
    rep.add("mult associative", worst <= tol,
            None if worst <= tol else
            f"triple {fmt(tuple(arrows[c[0]] for c in ids.triples_at(np.array([i]))))}")

    worst, i = worst_residual([
        deviation(b.star[g.inv[a]] @ np.conjugate(b.star[a]), np.eye(b.dim[a]))
        for a in g.arrows])
    rep.record_metric("involution", worst)
    rep.add("star involutive", worst <= tol,
            None if worst <= tol else fmt(g.arrows[i]))

    worst, i = worst_residual(kernels.antihomomorphism(px, py))
    rep.record_metric("antihomomorphism", worst)
    rep.add("(ab)* == b*a*", worst <= tol,
            None if worst <= tol else f"pair ({fmt(arrows[px[i]])},{fmt(arrows[py[i]])})")

    rep.note("unit fibers are *-algebras; their C*-certification is a "
             "star_structure_report obligation")
    return rep


class _Products:
    """A bundle's two product laws over composable tuples of its base, as
    numbered by ``ids`` (the base's _Ids, unless given), with the products
    in pair order and the stars classified by shape when first read.

    A law returns one residual per tuple, in the order given, evaluating
    the tuples in blocks of at most _BLOCK; associativity raises on a triple
    whose two products lie over different arrows (the first such triple of
    the first block holding one).
    """

    def __init__(self, b: FellBundle, ids: _Ids | None = None):
        self.bundle, self.ids = b, ids if ids is not None else _Ids(b.base)

    @cached_property
    def mults(self) -> tuple:
        (px, py), arrows = self.ids.pairs, self.ids.arrows
        return _shape_classes([self.bundle.mult[(arrows[x], arrows[y])]
                               for x, y in zip(px.tolist(), py.tolist())])

    @cached_property
    def stars(self) -> tuple:
        return _shape_classes([self.bundle.star[a] for a in self.ids.arrows])

    def associativity(self, x, y, z) -> np.ndarray:
        ids, residuals = self.ids, np.zeros(len(x))
        pair_id, comp = ids.pair_id, ids.table
        for block in _blocks_of(len(x), 1):
            a, b, c = x[block], y[block], z[block]
            rows = np.stack([pair_id[a, b], pair_id[comp[a, b], c],
                             pair_id[b, c], pair_id[a, comp[b, c]]], axis=1)
            _require_products(rows, ids.g, a, b, c)
            bad = np.flatnonzero(ids.prod[rows[:, 1]] != ids.prod[rows[:, 3]])
            if bad.size:
                wit = tuple(ids.arrows[col[bad[0]]] for col in (a, b, c))
                raise InvalidStructureError(f"products of {fmt(wit)} lie over different arrows")
            residuals[block] = _residuals("kij,lkm->lijm", "kjm,lik->lijm", [self.mults] * 4, rows)
        return residuals

    def antihomomorphism(self, x, y) -> np.ndarray:
        ids, stars, residuals = self.ids, self.stars, np.zeros(len(x))
        inv, pair_id, (cls, pos, stacks) = ids.inv, ids.pair_id, self.mults
        conj = cls, pos, [np.conjugate(s) for s in stacks]
        for block in _blocks_of(len(x), 1):
            a, b = x[block], y[block]
            rows = np.stack([ids.table[a, b], pair_id[a, b], pair_id[inv[b], inv[a]], b, a],
                            axis=1)
            _require_products(rows, ids.g, inv[b], inv[a])
            residuals[block] = _residuals("kl,lij->kij", "kab,aj,bi->kij",
                                          [stars, conj, self.mults, stars, stars], rows)
        return residuals


def _fiber_map_residuals(source: _Products, target: _Products, img: np.ndarray,
                         fm: np.ndarray, fms: tuple) -> tuple:
    """The residuals of F(xy) m(x, y) == m'(Fx, Fy)(F_x, F_y), in row then
    composable-pair order, and of star'(Fx) conj(F_x) == F_(inv x) star(x),
    in row then arrow order, for the bundle maps F of ``source`` into
    ``target`` given by the rows of an image table and fiber map ids fm
    (F_x of row t is fms's fm[t, x])."""
    ids, n, (px, py) = source.ids, source.ids.n, source.ids.pairs
    multiplicativity = _residuals(
        "kl,lij->kij", "kab,ai,bj->kij", [fms, source.mults, target.mults, fms, fms], np.stack(
            [fm[:, ids.prod], np.broadcast_to(np.arange(len(px)), (len(img), len(px))),
             target.ids.pair_id[img[:, px], img[:, py]], fm[:, px], fm[:, py]], axis=2))
    cls, pos, stacks = fms
    conj = cls, pos, [np.conjugate(stack) for stack in stacks]
    star = _residuals("ij,jk->ik", "il,lk->ik", [target.stars, conj, fms, source.stars], np.stack(
        [img[:, :n], fm, fm[:, ids.inv], np.broadcast_to(np.arange(n), fm.shape)], axis=2))
    return multiplicativity, star


def _require_products(ids: np.ndarray, g: FiniteGroupoid, *cols) -> None:
    """Raise if a tuple reads a product over a pair that is not composable.

    That happens only when the base's composition table is not a groupoid's;
    the message names the tuple.
    """
    bad = np.flatnonzero((ids < 0).any(axis=1))
    if bad.size:
        wit = tuple(g.arrows[c[bad[0]]] for c in cols)
        raise InvalidStructureError(f"products at {fmt(wit)} are not composable")


# ---------------------------------------------------------------------------
# group actions on bundles


@dataclass(eq=False)
class BundleAction:
    """A finite group acting on a Fell bundle by bundle automorphisms."""

    group: FiniteGroup
    bundle: FellBundle
    base_action: GroupAction
    fiber_maps: dict
    side: str

    def apply(self, t, x, vec) -> np.ndarray:
        return self.fiber_maps[(t, x)] @ vec

    def converted(self) -> "BundleAction":
        """The same orbits viewed from the opposite side (t acts as inv(t))."""
        g = self.group
        fiber = {(t, x): self.fiber_maps[(g.inv_elem(t), x)] for (t, x) in self.fiber_maps}
        base = self.base_action.converted()
        return BundleAction(g, self.bundle, base, fiber, base.side)


@opposite.register
def _opposite_bundle_action(ba: BundleAction) -> BundleAction:
    return BundleAction(opposite(ba.group), opposite(ba.bundle), opposite(ba.base_action),
                        ba.fiber_maps, _other_side(ba.side))


def identity_fiber_maps(bundle: FellBundle, base_action: GroupAction) -> dict:
    return {(t, x): np.eye(bundle.dim[x], dtype=complex)
            for t in base_action.group.elements for x in bundle.base.arrows}


def trivial_bundle_action(group: FiniteGroup, bundle: FellBundle,
                          side: str = "left") -> BundleAction:
    base = trivial_action(group, bundle.base, side)
    return BundleAction(group, bundle, base, identity_fiber_maps(bundle, base), side)


def check_bundle_action(ba: BundleAction, tol: float = DEFAULT_TOL) -> ValidationReport:
    rep = ValidationReport(subject=f"{ba.side} bundle action")
    base = check_action(ba.base_action)
    rep.merge(base, prefix="base: ")
    if ba.base_action.side != ba.side:
        rep.add("side matches base action", False, ba.side)
    if not rep.ok:
        return rep
    g, b, act = ba.group, ba.bundle, ba.base_action
    bad = next(((t, x) for t in g.elements for x in b.base.arrows
                if (t, x) not in ba.fiber_maps
                or ba.fiber_maps[(t, x)].shape != (b.dim[act.act[(t, x)]], b.dim[x])),
               None)
    rep.add("fiber maps cover p-equivariantly with matching shapes", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)
    if bad:
        return rep

    # on the base as check_action numbered it: fiber map (t, x) is number
    # t * n + x (element, then arrow order), star x and the identity on the
    # fiber at x number x, and a product the number of its pair
    ids, elements, img = base.numbered
    kernels = _Products(b, ids)
    n, arrows, (px, py) = ids.n, ids.arrows, ids.pairs
    fm = np.arange(len(elements) * n).reshape(-1, n)
    fms = _shape_classes([ba.fiber_maps[(t, x)] for t in elements for x in arrows])
    res = _residuals("ij->ij", "ij->ij", [fms, [np.eye(b.dim[x]) for x in arrows]],
                     np.stack([fm[elements.index(g.identity)], np.arange(n)], axis=1))
    k = _first(~(res <= tol))
    rep.add("identity acts as the identity map", k is None,
            fmt(arrows[k]) if k is not None else None)

    first, second, prod = _group_law_ids(g, elements, ba.side)
    worst, i = worst_residual(_residuals("ij,jk->ik", "ik->ik", [fms] * 3, np.stack(
        [fm[first[:, None], img[second, :n]], fm[second], fm[prod]], axis=2)))
    rep.record_metric("group law", worst)
    rep.add("fiber maps satisfy the group law", worst <= tol, None if worst <= tol else
            fmt((elements[first[i // n]], elements[second[i // n]], arrows[i % n])))

    multiplicativity, star = _fiber_map_residuals(kernels, kernels, img, fm, fms)
    worst, i = worst_residual(multiplicativity)
    rep.record_metric("multiplicativity", worst)
    rep.add("fiber maps preserve multiplication", worst <= tol, None if worst <= tol else
            fmt((elements[i // len(px)], arrows[px[i % len(px)]], arrows[py[i % len(px)]])))

    worst, i = worst_residual(star)
    rep.record_metric("star equivariance", worst)
    rep.add("fiber maps preserve the involution", worst <= tol,
            None if worst <= tol else fmt((elements[i // n], arrows[i % n])))

    rep.note("isometry: automorphisms of the *-structure are isometric for "
             "the regular-representation norms, so no norm check is stored")
    return rep


def is_free_bundle_action(ba: BundleAction) -> bool:
    """Freeness of a bundle action means freeness of the base action."""
    return is_free(ba.base_action)


# ---------------------------------------------------------------------------
# pullbacks, trivial C*-bundles, transformation bundles


def pullback_bundle(f: GroupoidHom, a: FellBundle) -> FellBundle:
    """Fiber over y is the fiber over f(y); tensors are transported verbatim."""
    check_homomorphism(f).require("pullback_bundle")
    if f.target != a.base:
        raise InvalidStructureError("pullback_bundle: homomorphism must land in the base")
    y = f.source
    return FellBundle(
        base=y,
        dim={p: a.dim[f(p)] for p in y.arrows},
        mult={(p, q): a.mult[(f(p), f(q))] for (p, q) in y.composable_pairs()},
        star={p: a.star[f(p)] for p in y.arrows},
    )


def make_trivial_cbundle(algebra, points) -> FellBundle:
    """The constant bundle with fiber a certified C*-algebra over a unit groupoid."""
    from .algebras import star_structure_report

    cert = star_structure_report(algebra)
    if not cert.is_cstar:
        raise InvalidStructureError(
            "make_trivial_cbundle: fiber algebra is not certified as a C*-algebra"
        )
    base = make_unit_groupoid(points)
    n = algebra.dimension
    return FellBundle(
        base=base,
        dim={x: n for x in base.arrows},
        mult={(x, x): algebra.struct.copy() for x in base.arrows},
        star={x: algebra.invol.copy() for x in base.arrows},
    )


def transformation_fell_bundle(a: FellBundle, act: SpaceAction) -> FellBundle:
    """Bundle over the transformation groupoid, (a, p(b).u)(b, u) = (ab, u)."""
    base = transformation_groupoid(a.base, act)
    dim = {(x, u): a.dim[x] for (x, u) in base.arrows}
    mult = {}
    for ((x, u1), (y, u)) in base.composable_pairs():
        mult[((x, u1), (y, u))] = a.mult[(x, y)]
    star = {(x, u): a.star[x] for (x, u) in base.arrows}
    return FellBundle(base, dim, mult, star)


def transformation_bundle_action(a: FellBundle, act: SpaceAction,
                                 gact: SpaceAction) -> BundleAction:
    """gact lifted to a*Omega by t.(x, u) = (x, t.u), with identity fiber maps."""
    tb = transformation_fell_bundle(a, act)
    grp = gact.groupoid
    base = GroupAction(
        grp, tb.base,
        {(t, (x, u)): (x, gact.act[(t, u)])
         for t in grp.elements for (x, u) in tb.base.arrows},
        "left")
    return BundleAction(grp, tb, base, identity_fiber_maps(tb, base), "left")


# ---------------------------------------------------------------------------
# semidirect-product bundles


def semidirect_fell_bundle(a: FellBundle, ba: BundleAction,
                           tol: float = DEFAULT_TOL) -> FellBundle:
    """Bundle over base x| G with (a, s)(b, t) = (a(s.b), st)."""
    if ba.side != "left" or ba.bundle.base != a.base:
        raise InvalidStructureError("semidirect_fell_bundle needs a left action on a")
    check_bundle_action(ba, tol).require("semidirect_fell_bundle")
    g = ba.group
    act = ba.base_action
    # check_bundle_action has checked act; what semidirect_left adds is its guard
    _require_acting_on(act, a.base, "left", "semidirect_left")
    base = _semidirect_left(a.base, act)
    dim = {(x, s): a.dim[x] for (x, s) in base.arrows}
    pairs = list(base.composable_pairs())
    mult = dict(zip(pairs, _contracted("kib,bj->kij", [
        (a.mult[(x, act.act[(s, y)])], ba.fiber_maps[(s, y)]) for (x, s), (y, _t) in pairs])))
    star = {}
    for (x, s) in base.arrows:
        si = g.inv_elem(s)
        star[(x, s)] = ba.fiber_maps[(si, a.base.inv[x])] @ a.star[x]
    return FellBundle(base, dim, mult, star)


def semidirect_right_fell_bundle(ba: BundleAction, a: FellBundle,
                                 tol: float = DEFAULT_TOL) -> FellBundle:
    """Bundle over H |x base with (h, a)(k, b) = (hk, (a.k)b).

    It is a^op x| H^op, read back.
    """
    if ba.side != "right" or ba.bundle.base != a.base:
        raise InvalidStructureError("semidirect_right_fell_bundle needs a right action on a")
    return read_back(semidirect_fell_bundle(opposite(a), opposite(ba), tol))


# ---------------------------------------------------------------------------
# quotient bundles


@dataclass(eq=False)
class BundleQuotientMap:
    """Quotient data for a free right bundle action.

    base is the orbit data downstairs; fiber_transport[x] carries the fiber
    at x onto the fiber at the canonical representative of its orbit.
    """

    base: QuotientMap
    fiber_transport: dict


def quotient_fell_bundle(a: FellBundle, ba: BundleAction,
                         tol: float = DEFAULT_TOL) -> tuple[FellBundle, BundleQuotientMap]:
    """Orbit bundle of a free right action, (a.H)(b.H) = (ab).H.

    Fibers are identified with the fiber at the canonical orbit
    representative; freeness makes the identification well-defined.
    """
    if ba.side != "right" or ba.bundle.base != a.base:
        raise InvalidStructureError("quotient_fell_bundle needs a right action on a")
    check_bundle_action(ba, tol).require("quotient_fell_bundle")
    # check_bundle_action has checked the base action; what quotient_groupoid
    # adds is its guard and freeness
    _require_acting_on(ba.base_action, a.base, "right", "quotient_groupoid")
    require_free(ba.base_action, "quotient_groupoid")
    return _quotient_fell_bundle(a, ba)


def _quotient_fell_bundle(a: FellBundle, ba: BundleAction) -> tuple[FellBundle, BundleQuotientMap]:
    """quotient_fell_bundle without checking ``ba``, which the caller has
    checked and found free."""
    h = ba.group
    act = ba.base_action
    quot, qmap = _quotient_groupoid(a.base, act)

    transport = {x: ba.fiber_maps[(h.inv_elem(qmap.shift[x]), x)] for x in a.base.arrows}

    dim = {p: a.dim[p] for p in quot.arrows}
    shifts, pairs, rows = _UnitShifts(act), list(quot.composable_pairs()), []
    for (p, q) in pairs:
        t = shifts(a.base.src[p], a.base.rng[q])
        tp = act.act[(t, p)]
        rows.append((transport[a.base.comp[(tp, q)]], a.mult[(tp, q)], ba.fiber_maps[(t, p)]))
    mult = dict(zip(pairs, _contracted("kl,lbj,bi->kij", rows)))
    star = {}
    for p in quot.arrows:
        pi = a.base.inv[p]
        star[p] = transport[pi] @ a.star[p]
    bundle = FellBundle(quot, dim, mult, star)
    return bundle, BundleQuotientMap(qmap, transport)


def induced_quotient_bundle_action(a: FellBundle, g: BundleAction,
                                   quotient: tuple[FellBundle, BundleQuotientMap]) -> BundleAction:
    """An action commuting with the quotiented one descends to the orbit bundle.

    On the left t.(a.H) = (t.a).H on a/H; on the right (G.a).h = G.(a.h) on G\\a.
    """
    qb, qm = quotient
    base_act = GroupAction(
        g.group, qb.base,
        {(t, p): qm.base.arrow_map[g.base_action.act[(t, p)]]
         for t in g.group.elements for p in qb.base.arrows},
        g.side,
    )
    fiber = {}
    for t in g.group.elements:
        for p in qb.base.arrows:
            tp = g.base_action.act[(t, p)]
            fiber[(t, p)] = qm.fiber_transport[tp] @ g.fiber_maps[(t, p)]
    return BundleAction(g.group, qb, base_act, fiber, g.side)


# ---------------------------------------------------------------------------
# module actions of orbit and semidirect-orbit bundles


@dataclass(eq=False)
class BundleModuleAction:
    """A Fell bundle acting on a fibered family of vector spaces.

    tensors[(p, z)] has shape (carrier_dim[base.act(p, z)], acting fiber dim,
    carrier_dim[z]) and is defined exactly where the base action is.  For
    the orbit actions below, ``quotient`` is the map onto the orbit bundle
    that the acting bundle is built on.
    """

    acting: FellBundle
    base: SpaceAction
    carrier_dims: dict
    tensors: dict
    quotient: BundleQuotientMap | None = None


def orbit_bundle_action(a: FellBundle, ba: BundleAction) -> BundleModuleAction:
    """a/H acting on the fibers of a over its own arrow space, (a.H).b = ab."""
    qb, qm = quotient_fell_bundle(a, ba)
    act = ba.base_action
    base = orbit_space_action(a.base, act, _quotient=(qb.base, qm.base))
    shifts, rows = _UnitShifts(act), []
    for (p, z) in base.act:
        t = shifts(a.base.src[p], a.base.rng[z])
        rows.append((a.mult[(act.act[(t, p)], z)], ba.fiber_maps[(t, p)]))
    tensors = dict(zip(base.act, _contracted("kaj,ai->kij", rows)))
    dims = {z: a.dim[z] for z in a.base.arrows}
    return BundleModuleAction(qb, base, dims, tensors, qm)


def semidirect_orbit_bundle_action(a: FellBundle, g: BundleAction, h: BundleAction,
                                   tol: float = DEFAULT_TOL) -> BundleModuleAction:
    """(a/H) x| G acting on the fibers of a, (a.H, t).b = (a.h)(t.b).

    The representative shift h with src(a).h == t.rng(b) realizes the module
    product when sources do not literally match.
    """
    _check_symmetric_bundle_hypotheses(a, g, h, tol)
    return _semidirect_orbit_bundle_action(a, g, h, tol)


def _semidirect_orbit_bundle_action(a: FellBundle, g: BundleAction, h: BundleAction,
                                    tol: float = DEFAULT_TOL) -> BundleModuleAction:
    """semidirect_orbit_bundle_action without checking the symmetric
    hypotheses, which the caller has checked at ``tol``: h is quotiented
    out unchecked, and the action g induces on the quotient is checked."""
    quot = _quotient_fell_bundle(a, h)
    qb, qm = quot
    g_on_quot = induced_quotient_bundle_action(a, g, quot)
    acting = semidirect_fell_bundle(qb, g_on_quot, tol)

    hact, gact = h.base_action, g.base_action
    base = semidirect_space_action(*_orbit_action_data(a.base, gact, hact, (qb.base, qm.base)),
                                   semidirect=acting.base)

    shifts, rows = _UnitShifts(hact), []
    for ((p, t), z) in base.act:
        k = shifts(a.base.src[p], gact.unit_image(t, a.base.rng[z]))
        rows.append((a.mult[(hact.act[(k, p)], gact.act[(t, z)])],
                     h.fiber_maps[(k, p)], g.fiber_maps[(t, z)]))
    tensors = dict(zip(base.act, _contracted("kab,ai,bj->kij", rows)))
    dims = {z: a.dim[z] for z in a.base.arrows}
    return BundleModuleAction(acting, base, dims, tensors, qm)


def check_module_action(m: BundleModuleAction, tol: float = DEFAULT_TOL) -> ValidationReport:
    """(pq).b == p.(q.b) entrywise over all composable module triples:
    (q, z) in action table order, then p in arrow order, on the numbering
    of the action (_SpaceIds), whose groupoid is the acting base."""
    rep = ValidationReport(subject="bundle module action")
    base_rep, num = _check_space_action(m.base)
    rep.merge(base_rep, prefix="base: ")
    missing = [k for k in m.base.act if k not in m.tensors]
    rep.add("tensors cover the defined pairs", not missing,
            fmt(missing[0]) if missing else None)
    if not rep.ok:
        return rep
    kernels = _Products(m.acting, num.ids)
    ids, kx, ku, v = num.ids, num.kx, num.ku, num.v
    # the tensor of each key is numbered by its place in the action table
    key = np.full((ids.n + 1, len(num.points)), -1, dtype=np.intp)
    key[kx, ku] = np.arange(len(kx))
    by_src = np.argsort(ids.s, kind="stable")
    fiber = np.searchsorted(ids.s[by_src], np.arange(len(ids.point) + 1))
    e, at = _ranges(fiber[ids.r[kx]], fiber[ids.r[kx] + 1])
    p, q = by_src[at], kx[e]
    tts = _shape_classes([m.tensors[k] for k in num.keys])
    worst, i = worst_residual(_residuals(
        "lam,mbj->labj", "lcj,cab->labj", [tts, tts, tts, kernels.mults],
        np.stack([key[p, v[e]], e, key[ids.table[p, q], ku[e]], ids.pair_id[p, q]], axis=1)))
    rep.record_metric("module associativity", worst)
    rep.add("module action associative", worst <= tol, None if worst <= tol else
            fmt((ids.arrows[p[i]], ids.arrows[q[i]], num.points[ku[e[i]]])))
    return rep


def _check_symmetric_bundle_hypotheses(a: FellBundle, g: BundleAction, h: BundleAction,
                                       tol: float = DEFAULT_TOL) -> None:
    if g.side != "left" or h.side != "right":
        raise InvalidStructureError("expected a left action g and a right action h")
    if any(ba.bundle.base != a.base or ba.base_action.target != a.base for ba in (g, h)):
        raise InvalidStructureError("both actions must act on the given bundle")
    check_bundle_action(g, tol).require("bundle action g")
    check_bundle_action(h, tol).require("bundle action h")
    require_free(g.base_action, "symmetric hypotheses")
    require_free(h.base_action, "symmetric hypotheses")
    wit = actions_commute(g.base_action, h.base_action)
    if wit is not None:
        raise InvalidStructureError(f"base actions do not commute at {fmt(wit)}")
    # F_h(k, t.x) F_g(t, x) == F_g(t, x.k) F_h(k, x), over (t, k, x) in
    # element and arrow order; fiber map (t, x) is number t * n + x
    ids = _Ids(a.base)
    n, ((g_els, g_img), (h_els, h_img)) = ids.n, (_image_table(ba.base_action, ids)
                                                  for ba in (g, h))
    f_g, f_h = (_shape_classes([ba.fiber_maps[(t, x)] for t in els for x in ids.arrows])
                for ba, els in ((g, g_els), (h, h_els)))
    t, k, x = np.meshgrid(np.arange(len(g_els)), np.arange(len(h_els)), np.arange(n),
                          indexing="ij")
    worst, i = worst_residual(_residuals("ij,jk->ik", "ij,jk->ik", [f_h, f_g, f_g, f_h], np.stack(
        [k * n + g_img[t, x], t * n + x, t * n + h_img[k, x], k * n + x], axis=-1)))
    if not worst <= tol:
        t, k, x = np.unravel_index(i, t.shape)
        raise InvalidStructureError(
            f"fiber actions do not commute at {fmt((g_els[t], h_els[k], ids.arrows[x]))} "
            f"(residual {worst:.3e})")


# ---------------------------------------------------------------------------
# principal decomposition for bundles


@dataclass(eq=False)
class BundleIso:
    """An arrow bijection plus per-fiber matrices between two bundles."""

    source: FellBundle
    target: FellBundle
    arrow_map: dict
    fiber_maps: dict


def verify_bundle_iso(iso: BundleIso, tol: float = DEFAULT_TOL) -> ValidationReport:
    """A bijective functor with square invertible fiber maps that respect
    products and stars: an isomorphism of the section algebras.  Each base
    is numbered once; the arrow map is one row of an image table."""
    rep = ValidationReport(subject="bundle isomorphism")
    src, tgt, amap = iso.source, iso.target, iso.arrow_map
    source, target = _Products(src), _Products(tgt)
    n, arrows, (px, py) = source.ids.n, source.ids.arrows, source.ids.pairs
    img = _arrow_images([[amap.get(x, _MISSING) for x in arrows]], n, target.ids)
    rep.add("arrow map bijective",
            n == target.ids.n and (np.sort(img[0, :n]) == np.arange(n)).all())
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

    comp = _morphism_failures(img, source.ids, target.ids)[0]
    if comp is not None:
        rep.add("arrow map multiplicative", False, fmt((arrows[px[comp[1]]], arrows[py[comp[1]]])))
        return rep
    multiplicativity, star = _fiber_map_residuals(
        source, target, img, np.arange(n)[None, :],
        _shape_classes([iso.fiber_maps[x] for x in arrows]))
    worst, i = worst_residual(multiplicativity)
    rep.record_metric("multiplicativity", worst)
    rep.add("fiber maps multiplicative", worst <= tol,
            None if worst <= tol else fmt((arrows[px[i]], arrows[py[i]])))

    worst, i = worst_residual(star)
    rep.record_metric("star preservation", worst)
    rep.add("fiber maps star-preserving", worst <= tol,
            None if worst <= tol else fmt(arrows[i]))
    return rep


@dataclass(eq=False)
class PrincipalFellDecomposition:
    quotient_bundle: FellBundle
    quotient_map: BundleQuotientMap
    transformation_bundle: FellBundle
    iso: BundleIso
    base: PrincipalDecomposition


def principal_fell_decomposition(a: FellBundle, ba: BundleAction) -> PrincipalFellDecomposition:
    """Realize a free right bundle action as a transformation bundle.

    tau sends a fiber element over x to its orbit representative paired with
    src(x); it is verified multiplicative, star-preserving, and equivariant.
    """
    qb, qm = quotient_fell_bundle(a, ba)
    pd = principal_decomposition(a.base, ba.base_action, _quotient=(qb.base, qm.base))
    trans = transformation_fell_bundle(qb, pd.action)
    arrow_map = dict(pd.source_chart)
    fiber_maps = {x: qm.fiber_transport[x] for x in a.base.arrows}
    iso = BundleIso(a, trans, arrow_map, fiber_maps)
    verify_bundle_iso(iso).require("principal_fell_decomposition")

    # equivariance: tau(a.h) == tau(a).h where H moves the space coordinate;
    # principal_decomposition has checked it on the arrows
    worst, _i = worst_residual([
        deviation(fiber_maps[ba.base_action.act[(t, x)]] @ ba.fiber_maps[(t, x)], fiber_maps[x])
        for t in ba.group.elements for x in a.base.arrows])
    if not worst <= DEFAULT_TOL:
        raise InternalConsistencyError(f"tau fiber maps not equivariant (residual {worst:.3e})")
    return PrincipalFellDecomposition(qb, qm, trans, iso, pd)


# ---------------------------------------------------------------------------
# equivalence bimodules


@dataclass(eq=False)
class BundleEquivalence:
    """A fibered family over an equivalence space with two-sided module data.

    The carrier fibers E(z) sit over the points of base.space; the left
    bundle acts through left_tensors[(p, z)], the right bundle through
    right_tensors[(z, q)], and the two algebra-valued inner products are
    stored as left_inner[(z1, z2)] (linear in the first slot, antilinear in
    the second) and right_inner[(z1, z2)] (antilinear in the first slot).
    """

    base: GroupoidEquivalence
    left_bundle: FellBundle
    right_bundle: FellBundle
    dims: dict
    left_tensors: dict
    right_tensors: dict
    left_inner: dict
    right_inner: dict


@opposite.register
def _opposite_bundle_equivalence(e: BundleEquivalence) -> BundleEquivalence:
    """The (B^op, A^op) bimodule on the same fibers, q.z = z.q.

    The tensors swap sides and the inner products swap with them:
    the new <z1, z2>_L is the old <z2, z1>_R, read in (z1, z2) slot order.
    """
    return BundleEquivalence(
        base=opposite(e.base),
        left_bundle=opposite(e.right_bundle),
        right_bundle=opposite(e.left_bundle),
        dims=e.dims,
        left_tensors=_Transposed(e.right_tensors, _swap_inputs),
        right_tensors=_Transposed(e.left_tensors, _swap_inputs),
        left_inner=_Transposed(e.right_inner, _swap_inputs),
        right_inner=_Transposed(e.left_inner, _swap_inputs),
    )


def _left_inner(a: FellBundle, g: BundleAction, transport: dict, sigma: dict) -> dict:
    """The left inner product of the symmetric equivalence, with ``transport``
    the fiber transport of a onto a/H: <a, b>_L = (a(t.b*).H, t) on the
    pairs with equal ``sigma``, t the unique matching translate."""
    x, gact = a.base, g.base_action
    shifts, fibers = _UnitShifts(gact), _group_by(x.arrows, sigma)
    keys, twists, rows = [], [], []
    for z1 in x.arrows:
        for z2 in fibers[sigma[z1]]:
            t = shifts(x.src[z2], x.src[z1])
            tz2i = gact.act[(t, x.inv[z2])]
            keys.append((z1, z2))
            twists.append((g.fiber_maps[(t, x.inv[z2])], a.star[z2]))
            rows.append((transport[x.comp[(z1, tz2i)]], a.mult[(z1, tz2i)]))
    twists = _contracted("cd,dj->cj", twists)
    return dict(zip(keys, _contracted("lm,mic,cj->lij",
                                      [row + (twist,) for row, twist in zip(rows, twists)])))


def symmetric_action_equivalence(a: FellBundle, g: BundleAction, h: BundleAction,
                                 tol: float = DEFAULT_TOL) -> BundleEquivalence:
    """The fibers of a as an (a/H x| G) - (H |x G\\a) equivalence.

    Structure maps, with t in G and k in H the unique matching translates:
      left action   (a.H, t).b = (a.k)(t.b)
      left inner    <a, b>_L  = (a(t.b*).H, t)
      right action  a.(k, G.b) = (a.k)(t.b)
      right inner   <a, b>_R  = (k, G.((a*.k)b))
    The right half is the left half for a^op under H^op and G^op, read back.
    The symmetric hypotheses are checked once, at ``tol``, on the left half;
    they hold for the opposite data exactly when they hold for the data.
    The base is the pair of the module actions' base actions, so nothing is
    built twice; verify_bundle_equivalence verifies it in full.
    """
    left = semidirect_orbit_bundle_action(a, g, h, tol)
    a_op, h_op, g_op = opposite(a), opposite(h), opposite(g)
    right = _semidirect_orbit_bundle_action(a_op, h_op, g_op, tol)
    right_bundle = read_back(right.acting)
    base = GroupoidEquivalence(left.base, read_back(right.base, right_bundle.base))
    left_inner = _left_inner(a, g, left.quotient.fiber_transport, base.sigma)
    right_inner = _left_inner(a_op, h_op, right.quotient.fiber_transport, base.rho)
    x = a.base
    return BundleEquivalence(
        base=base,
        left_bundle=left.acting,
        right_bundle=right_bundle,
        dims={z: a.dim[z] for z in x.arrows},
        left_tensors=dict(left.tensors),
        right_tensors={(z, q): _swap_inputs(right.tensors[(_flip(q), z)])
                       for (q, z) in base.right_action.act},
        left_inner=left_inner,
        right_inner={(z1, z2): _swap_inputs(right_inner[(z2, z1)])
                     for z1 in x.arrows for z2 in x.arrows if (z2, z1) in right_inner},
    )


def one_sided_equivalence(a: FellBundle, g: BundleAction,
                          tol: float = DEFAULT_TOL) -> BundleEquivalence:
    """The H-trivial case: fibers of a as an (a x| G) - (G\\a) equivalence."""
    if g.side != "left":
        raise InvalidStructureError("one_sided_equivalence needs a left action")
    triv = make_group({("e", "e"): "e"})
    h = trivial_bundle_action(triv, a, side="right")
    return symmetric_action_equivalence(a, g, h, tol)


def one_sided_transformation_equivalence(b: FellBundle, act: SpaceAction, gact: SpaceAction,
                                         tol: float = DEFAULT_TOL) -> BundleEquivalence:
    """Transformation-bundle equivalence between (b*Omega) x| G and b.

    ``act`` is the left action of the base groupoid on Omega, ``gact`` a free
    left action of a group G on Omega whose orbits are exactly the fibers of
    the fibring map, and the two actions commute.  The equivalence is the
    one-sided equivalence of b*Omega under G lifted to it, (x, u) -> (x, t.u);
    its right bundle G\\(b*Omega) lives on the arrows ('e', (y, u)) with u an
    orbit representative, which is b under ('e', (y, u)) -> y.
    """
    if act.side != "left" or act.groupoid != b.base:
        raise InvalidStructureError("needs a left action of the base groupoid")
    if gact.side != "left" or not isinstance(gact.groupoid, FiniteGroup):
        raise InvalidStructureError("needs a left group action on the space")
    if tuple(gact.space) != tuple(act.space):
        raise InvalidStructureError("the two actions must share the space")
    check_space_action(gact).require("one_sided_transformation_equivalence")
    g_on_tb = transformation_bundle_action(b, act, gact)
    e = one_sided_equivalence(g_on_tb.bundle, g_on_tb, tol)

    # principal-bundle hypothesis, past the freeness check: orbits = fibers
    for u in act.space:
        orbit = {gact.act[(t, u)] for t in gact.groupoid.elements}
        fiber = {v for v in act.space if act.fibring[v] == act.fibring[u]}
        if orbit != fiber:
            raise InvalidStructureError(
                f"orbits differ from fibring fibers at point {fmt(u)}"
            )
    return e


# ---------------------------------------------------------------------------
# the linking bundle


def linking_bundle(e: BundleEquivalence) -> FellBundle:
    """The linking bundle of e over its linking groupoid, assembled unchecked.

    Arrows are tagged: ("p", .) and ("q", .) are the two corners, ("z", .)
    the equivalence space, ("zb", .) its formal adjoint copy.  Both corners
    and both halves of the Z rows come from one left-handed pass over e (tag
    "p") and opposite(e) (tag "q"), read back with src and rng swapped and
    products reversed.  Products are listed corner by corner, then the Z rows
    of e, then of opposite(e).  A pair with no bracket raises; only a direct
    call can meet one, since verify_bundle_equivalence checks the brackets
    before it assembles the bundle.
    """
    base = e.base
    sides = ((e, "p", False), (opposite(e), "q", True))
    src, rng, inv, unit_arrow, dim, star, comp, mult = {}, {}, {}, {}, {}, {}, {}, {}
    corners = []

    def put(key, value, tensor, from_op):
        # a product of the opposite bimodule, read back in this one's order
        if from_op:
            key, tensor = key[::-1], tensor.transpose(0, 2, 1)
        comp[key], mult[key] = value, tensor

    for f, tag, from_op in sides:
        gpd, bun, unit = f.base.left_groupoid, f.left_bundle, tag + "u"
        s, r = (gpd.rng, gpd.src) if from_op else (gpd.src, gpd.rng)
        for x in gpd.arrows:
            src[(tag, x)], rng[(tag, x)] = (unit, s[x]), (unit, r[x])
            inv[(tag, x)] = (tag, gpd.inv[x])
            dim[(tag, x)], star[(tag, x)] = bun.dim[x], bun.star[x]
        unit_arrow.update({(unit, u): (tag, gpd.unit_arrow[u]) for u in gpd.units})
        corners.append(tuple((tag, x) for x in gpd.arrows))
        for (x, y), v in gpd.comp.items():
            put(((tag, x), (tag, y)), (tag, v), bun.mult[(x, y)], from_op)

    for z in base.space:
        src[("z", z)] = rng[("zb", z)] = ("qu", base.sigma[z])
        rng[("z", z)] = src[("zb", z)] = ("pu", base.rho[z])
        inv[("z", z)], inv[("zb", z)] = ("zb", z), ("z", z)
        dim[("z", z)] = dim[("zb", z)] = e.dims[z]
        star[("z", z)] = star[("zb", z)] = np.eye(e.dims[z], dtype=complex)

    for f, tag, from_op in sides:
        brackets = bracket_table(f.base)
        for (p, z), v in f.base.left_action.act.items():
            put(((tag, p), ("z", z)), ("z", v), f.left_tensors[(p, z)], from_op)
            # adjoint row: zbar . inv(p) = (p . z)bar
            pi = f.base.left_groupoid.inv[p]
            put((("zb", z), (tag, pi)), ("zb", v), np.conjugate(np.einsum(
                "lai,ag->lig", f.left_tensors[(p, z)], f.left_bundle.star[pi])), from_op)
        for (z1, z2), tensor in f.left_inner.items():
            if (z1, z2) not in brackets:  # a direct call only: the verifier checks the keys first
                raise InvalidStructureError(f"no bracket at ({fmt(z1)},{fmt(z2)})")
            put((("z", z1), ("zb", z2)), (tag, brackets[(z1, z2)]), tensor, from_op)

    arrows = (corners[0] + tuple(("z", z) for z in base.space)
              + tuple(("zb", z) for z in base.space) + corners[1])
    # the units are the keys of unit_arrow: the left corner's, then the right's
    groupoid = FiniteGroupoid(tuple(unit_arrow), arrows, src, rng, comp, inv, unit_arrow)
    return FellBundle(groupoid, dim, mult, star)


# a tag pattern: one letter per linking arrow, "b" for "zb" ("pzb" is (p,z,zb)), in base 4
_DIGITS = str.maketrans("pzbq", "0123")


def _codes(*patterns: str) -> list:
    return [int(p.translate(_DIGITS), 4) for p in patterns]


def _tags(g: FiniteGroupoid) -> np.ndarray:
    """The tag of each linking arrow, as a base-4 digit."""
    return np.array([int(a[0][-1].translate(_DIGITS)) for a in g.arrows], dtype=np.uint8)


def _patterns(tag: np.ndarray, *cols) -> np.ndarray:
    """The code of each tuple of linking arrows, given as id columns; a
    triple's code fits one byte."""
    return sum(tag[c] * np.uint8(4 ** k) for k, c in enumerate(reversed(cols)))


# ---------------------------------------------------------------------------
# equivalence verification


@dataclass(eq=False)
class EquivalenceReport(ValidationReport):
    """A report with the linking bundle it checked and that bundle's product
    laws, whose ``ids`` number the linking groupoid (both None if it stopped
    early); neither is part of the report's text."""

    linking: FellBundle | None = None
    products: _Products | None = field(default=None, repr=False)


def verify_bundle_equivalence(e: BundleEquivalence,
                              tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """The six verification steps for an equivalence bimodule, entrywise.

    Step 1 commuting module actions; Step 2 inner products defined on the
    correct pairs and landing over the bracket arrows; Step 3 adjoint
    symmetry; Step 4 module compatibility; Step 5 the exchange identity;
    Step 6 per-fiber fullness and positivity of both inner products.

    Steps 1 and 3-5 are laws of linking_bundle(e), a Fell bundle exactly
    when e is an equivalence (Muhly-Williams).  After step 2 it is assembled,
    kept as the report's ``linking``, and checked in one pass: its corners
    are the left and right bundles, validated first, and every other
    composable triple (associativity) and pair ((ab)* == b*a*) is evaluated
    once.  The triples go by in blocks of at most _BLOCK, and the pass keeps
    only a residual and a one-byte tag class per triple; the arrows of a
    witness, and of the (zb,z,q) triples, are read back from positions.
    Step 1 reads the tag class (p,z,q), step 3 (z,zb) then (zb,z),
    step 4 (p,z,zb) then (zb,z,q), step 5 (z,zb,z); the other classes are
    the two "linking bundle:" checks, reported once steps 1-5 pass.  A
    check's metric is its largest residual, a NaN fails, and its witness is
    the first tuple attaining it in linking-groupoid order ((zb,z,q) in right
    action table order), named without tags by the steps.
    """
    rep = EquivalenceReport(subject="bundle equivalence")
    base = e.base
    rep.merge(verify_groupoid_equivalence(base), prefix="base: ")
    rep.merge(validate_fell_bundle(e.left_bundle, tol), prefix="left bundle: ")
    rep.merge(validate_fell_bundle(e.right_bundle, tol), prefix="right bundle: ")
    if not rep.ok:
        return rep

    # The right half of each check through step 2 is its left half run on the
    # opposite bimodule; orient() turns its witnesses back into e's order.
    e_op = opposite(e)
    sides = ((e, "left", lambda w: w), (e_op, "right", lambda w: w[::-1]))

    # structural coverage
    for f, side, orient in sides:
        missing = [k for k in f.base.left_action.act if k not in f.left_tensors]
        rep.add(f"{side} tensors cover the action", not missing,
                fmt(orient(missing[0])) if missing else None)
    index = {z: k for k, z in enumerate(base.space)}
    for name, table, fiber in (
            ("left inner product defined on sigma pairs", e.left_inner, base.sigma),
            ("right inner product defined on rho pairs", e.right_inner, base.rho)):
        pairs = [(z1, z2) for z1 in base.space for z2 in base.space if fiber[z1] == fiber[z2]]
        missing = [k for k in pairs if k not in table]
        extra = sorted(set(table) - set(pairs),
                       key=lambda k: ([index.get(z, len(index)) for z in k], fmt(k)))
        wit = (missing or extra or [None])[0]
        rep.add(name, wit is None, None if wit is None else fmt(wit))
    if not rep.ok:
        return rep

    for f, side, orient in sides:
        bad = next(((p, z) for (p, z), tsr in f.left_tensors.items()
                    if tsr.shape != (e.dims[f.base.left_apply(p, z)],
                                     f.left_bundle.dim[p], e.dims[z])), None)
        rep.add(f"{side} tensor shapes", bad is None, fmt(orient(bad)) if bad else None)
    if not rep.ok:
        return rep

    # Step 2: inner products land over the bracket arrows.  The base passed
    # its bracket check, so each side's table has every inner-product pair.
    for f, side, orient in sides:
        br = bracket_table(f.base)
        bad = next((pair for pair, tsr in f.left_inner.items()
                    if tsr.shape != (f.left_bundle.dim[br[pair]],
                                     e.dims[pair[0]], e.dims[pair[1]])), None)
        rep.add(f"step 2: {side} inner product lands over the {side} bracket",
                bad is None, fmt(orient(bad)) if bad else None)
    if not rep.ok:
        return rep

    # Steps 1 and 3-5 and the other classes: one pass outside the corners,
    # block by block, keeping each triple's tag class and residual (0 on
    # the corners); the steps read their triples' ids back from positions
    link = linking_bundle(e)
    g = link.base
    kernels, tag = _Products(link), _tags(g)
    ids = kernels.ids
    triple_class = np.empty(ids.n_triples, dtype=np.uint8)
    assoc = np.zeros(ids.n_triples)
    for block, (x, y, w) in ids.triple_blocks():
        code = triple_class[block] = _patterns(tag, x, y, w)
        keep = ~np.isin(code, _codes("ppp", "qqq"))
        assoc[block][keep] = kernels.associativity(x[keep], y[keep], w[keep])
    pair_class = _patterns(tag, *ids.pairs)
    keep = ~np.isin(pair_class, _codes("pp", "qq"))
    px, py, pair_class = ids.pairs[0][keep], ids.pairs[1][keep], pair_class[keep]
    anti = kernels.antihomomorphism(px, py)

    def classes(*patterns):  # a table over codes: is the class among the patterns
        table = np.zeros(4 ** 3, dtype=bool)
        table[_codes(*patterns)] = True
        return table

    def scan(residuals, codes, member):
        # the worst residual and its position in each block, over the tuples
        # of the member classes; no array as long as the tuples is built
        found = []
        for block in _blocks_of(len(codes), 1):
            worst, i = worst_residual(np.where(member[codes[block]], residuals[block], 0.0))
            found.append((worst, block.start + i))
        return found

    def record(name, metric, found, witness):
        # the first (residual, position) attaining the maximum, NaN above all
        worst, r = 0.0, None
        for value, at in found:
            if np.isnan(value) and not np.isnan(worst) or value > worst:
                worst, r = value, at
        rep.record_metric(metric, worst)
        rep.add(name, worst <= tol, None if worst <= tol else witness(r))

    def triple(r):
        return tuple(g.arrows[c[0]] for c in ids.triples_at(np.array([r])))

    def untagged(arrows):  # a step names its tuple without the tags
        return fmt(tuple(a[1] for a in arrows))

    record("step 1: module actions commute", "step1 commuting",
           scan(assoc, triple_class, classes("pzq")), lambda r: untagged(triple(r)))
    record("step 3: inner products adjoint-symmetric", "step3 adjoint symmetry",
           scan(anti, pair_class, classes("zb")) + scan(anti, pair_class, classes("bz")),
           lambda r: untagged((g.arrows[px[r]], g.arrows[py[r]])))
    # the right class of step 4 in the order of the right action table at
    # (q, z2): each key numbered by the linking ids of its arrows, q then z
    right = np.flatnonzero(triple_class == _codes("bzq")[0])
    n, ix = ids.n, ids.ix
    code = np.array([ix[("q", q)] * n + ix[("z", z)] for q, z in base.right_action.act],
                    dtype=np.int64)
    rank = np.argsort(code, kind="stable")
    rx, ry, rw = ids.triples_at(right)
    right = right[np.lexsort((rx, rank[np.searchsorted(code[rank], rw * n + ry)]))]
    worst, i = worst_residual(assoc[right])
    record("step 4: inner products compatible with the module actions",
           "step4 module compatibility",
           scan(assoc, triple_class, classes("pzb")) + ([(worst, right[i])] if right.size else []),
           lambda r: untagged(triple(r)))
    record("step 5: exchange identity", "step5 exchange",
           scan(assoc, triple_class, classes("zbz")), lambda r: untagged(triple(r)))
    if rep.ok:  # the other classes, once the named steps hold
        record("linking bundle: mult associative", "linking bundle: associativity",
               scan(assoc, triple_class, ~classes("ppp", "qqq", "pzq", "pzb", "bzq", "zbz")),
               lambda r: f"triple {fmt(triple(r))}")
        record("linking bundle: (ab)* == b*a*", "linking bundle: antihomomorphism",
               scan(anti, pair_class, ~classes("zb", "bz")),
               lambda r: f"pair {fmt((g.arrows[px[r]], g.arrows[py[r]]))}")

    # Step 6: per-fiber imprimitivity (fullness and positivity), on the unit
    # fibers of the linking bundle, with one representation per distinct
    # fiber algebra: equal constants give the same representation
    from .algebras import fiber_algebra, regular_representation

    reps = {}

    def representation(unit):
        alg = fiber_algebra(link, unit)
        key = (alg.struct.shape, alg.struct.tobytes(), alg.invol.tobytes())
        if key not in reps:
            reps[key] = regular_representation(alg)
        return reps[key]

    bad, worst_pos = None, 0.0
    for z in base.space:
        d = e.dims[z]
        sides = (("left", e.left_inner[(z, z)], g.unit_arrow[("pu", base.rho[z])]),
                 ("right", e.right_inner[(z, z)], g.unit_arrow[("qu", base.sigma[z])]))
        for side, inner, unit in sides:
            # a non-finite inner product has no rank: it fails here, with its z
            if not np.isfinite(inner).all():
                bad = (f"{side} inner product not finite", z)
            elif np.linalg.matrix_rank(inner.reshape(link.dim[unit], d * d),
                                       tol=1e-7) != link.dim[unit]:
                bad = (f"{side} fullness", z)
            if bad:
                break
        if bad:
            break
        for _side, inner, unit in sides:
            worst_pos = min(worst_pos, representation(unit).gram_margin(inner.transpose(1, 2, 0)))
    rep.add("step 6: inner products full on unit fibers", bad is None,
            f"{bad[0]} at {fmt(bad[1])}" if bad else None)
    rep.record_metric("step6 positivity margin", worst_pos)
    rep.add("step 6: inner products positive", worst_pos >= -tol,
            None if worst_pos >= -tol else f"min eigenvalue {worst_pos:.3e}")
    rep.linking, rep.products = link, kernels
    return rep
