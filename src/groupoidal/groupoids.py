"""Finite groupoids, group actions by automorphisms, and orbit constructions.

Conventions.  An arrow x runs src(x) -> rng(x), and comp[(x, y)] is defined
exactly when src(x) == rng(y) (x is applied after y).  A left group action
satisfies act(s, act(t, x)) == act(s*t, x); a right action, written x.h, is
stored as act(h, x) and satisfies act(k, act(h, x)) == act(h*k, x).

The opposite of a groupoid swaps src and rng and reads comp[(y, x)] as
comp[(x, y)]; a right action of H is a left action of H^op with the same
table.  Every right-handed construction here is its left-handed twin applied
to opposite() data, built once and turned right-handed by read_back(): the
opposite of the result, each label (a, h) read as (h, a), listed h-major.

Haar systems are fixed to counting measures on range fibers; they exist for
every finite groupoid and are invariant under any action by automorphisms,
so no measure data is stored.  Properness checks are vacuous for finite
discrete spaces and are reported as notes.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import singledispatch

import numpy as np

from ._util import _BLOCK, _ranges, canonical_min, fmt, sort_key
from .report import (
    InternalConsistencyError,
    InvalidStructureError,
    NonFreeActionError,
    ValidationReport,
)


def _group_by(items, label) -> dict:
    """The items grouped by ``label[item]``, each group in item order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(label[item], []).append(item)
    return groups


def _components(points, pairs) -> list:
    """The classes of points linked by the pairs, each in point order.

    Classes come in the order of their first members.
    """
    root = {z: z for z in points}

    def find(z):
        while root[z] != z:
            root[z] = root[root[z]]
            z = root[z]
        return z

    for z1, z2 in pairs:
        root[find(z1)] = find(z2)
    return list(_group_by(points, {z: find(z) for z in points}).values())


@dataclass
class FiniteGroupoid:
    """A finite groupoid given by explicit source/range/composition tables."""

    units: tuple
    arrows: tuple
    src: dict
    rng: dict
    comp: dict
    inv: dict
    unit_arrow: dict

    def composable(self, x, y) -> bool:
        return self.src[x] == self.rng[y]

    def is_unit_arrow(self, x) -> bool:
        u = self.rng[x]
        return self.src[x] == u and self.unit_arrow[u] == x

    def composable_pairs(self):
        """(x, y) with src(x) == rng(y): x in arrow order, then y in arrow order."""
        fibers = _group_by(self.arrows, self.rng)
        for x in self.arrows:
            for y in fibers.get(self.src[x], ()):
                yield (x, y)

    def composable_triples(self):
        """(x, y, z) with (x, y) and (y, z) composable, in the order of pairs."""
        fibers = _group_by(self.arrows, self.rng)
        for x in self.arrows:
            for y in fibers.get(self.src[x], ()):
                for z in fibers.get(self.src[y], ()):
                    yield (x, y, z)

    def range_fiber(self, u):
        return [x for x in self.arrows if self.rng[x] == u]

    def __repr__(self) -> str:
        return f"FiniteGroupoid({len(self.units)} units, {len(self.arrows)} arrows)"


@dataclass
class FiniteGroup(FiniteGroupoid):
    """A one-unit groupoid; arrows are the group elements."""

    identity: object = None

    @property
    def elements(self) -> tuple:
        return self.arrows

    def mul(self, a, b):
        return self.comp[(a, b)]

    def inv_elem(self, a):
        return self.inv[a]

    def __repr__(self) -> str:
        return f"FiniteGroup(order {len(self.arrows)})"


@dataclass
class GroupoidHom:
    """A map of arrows that intertwines all structure tables."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    arrow_map: dict

    def __call__(self, x):
        return self.arrow_map[x]


def check_homomorphism(f: GroupoidHom) -> ValidationReport:
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


# ---------------------------------------------------------------------------
# opposites


class _Transposed(Mapping):
    """A view of a pair-keyed table that reads key (x, y) as (y, x).

    ``value``, when given, is applied to each entry read.  Edits to the
    table show through the view.
    """

    def __init__(self, table, value=None):
        self.table, self.value = table, value

    def __getitem__(self, key):
        v = self.table[(key[1], key[0])]
        return v if self.value is None else self.value(v)

    def __iter__(self):
        return ((y, x) for (x, y) in self.table)

    def __len__(self):
        return len(self.table)


def _other_side(side: str) -> str:
    return {"left": "right", "right": "left"}.get(side, side)


@singledispatch
def opposite(obj):
    """The opposite of a groupoid, bundle, action or equivalence, as a view.

    Every table is shared with ``obj``, so the call is O(1) and edits to
    ``obj`` show through; opposite(opposite(obj)) has the tables of ``obj``.
    """
    raise TypeError(f"no opposite for {type(obj).__name__}")


@opposite.register
def _opposite_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    # replace() keeps a FiniteGroup a FiniteGroup, with the same identity
    return replace(g, src=g.rng, rng=g.src, comp=_Transposed(g.comp))


def _flip(label):
    return (label[1], label[0])


@singledispatch
def read_back(obj):
    """The right-handed object that ``obj``, built left-handed on opposite()
    data with labels (a, h), stands for: opposite(obj) with each label read
    as (h, a), listed h-major (each h in the place it first takes in ``obj``)
    as semidirect_right lists its arrows."""
    raise TypeError(f"no read-back for {type(obj).__name__}")


@read_back.register
def _read_back_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    # products in the order of g.comp, each pair (x, y) read as (y, x)
    rank = {h: i for i, h in enumerate(dict.fromkeys(h for _a, h in g.arrows))}
    arrows = tuple(sorted(map(_flip, g.arrows), key=lambda q: rank[q[0]]))
    units = tuple(map(_flip, g.units))
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        src={x: _flip(g.rng[_flip(x)]) for x in arrows},
        rng={x: _flip(g.src[_flip(x)]) for x in arrows},
        comp={(_flip(y), _flip(x)): _flip(xy) for (x, y), xy in g.comp.items()},
        inv={x: _flip(g.inv[_flip(x)]) for x in arrows},
        unit_arrow={u: _flip(g.unit_arrow[_flip(u)]) for u in units},
    )


# ---------------------------------------------------------------------------
# basic constructors


def make_pair_groupoid(n: int) -> FiniteGroupoid:
    """Pair groupoid on units 1..n; arrow (i, j) runs j -> i."""
    if n < 1:
        raise InvalidStructureError("pair groupoid needs at least one point")
    units = tuple(range(1, n + 1))
    arrows = tuple((i, j) for i in units for j in units)
    comp = {}
    for i, j in arrows:
        for k in units:
            comp[((i, j), (j, k))] = (i, k)
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        src={(i, j): j for (i, j) in arrows},
        rng={(i, j): i for (i, j) in arrows},
        comp=comp,
        inv={(i, j): (j, i) for (i, j) in arrows},
        unit_arrow={u: (u, u) for u in units},
    )


def make_unit_groupoid(points) -> FiniteGroupoid:
    """Groupoid with only unit arrows; arrow ids coincide with the points."""
    pts = tuple(points)
    return FiniteGroupoid(
        units=pts,
        arrows=pts,
        src={p: p for p in pts},
        rng={p: p for p in pts},
        comp={(p, p): p for p in pts},
        inv={p: p for p in pts},
        unit_arrow={p: p for p in pts},
    )


def make_group(table: dict) -> FiniteGroup:
    """Build a group from a multiplication table {(a, b): ab}.

    Rejects non-associative or non-invertible tables with a witness triple.
    """
    elements = tuple(sorted({a for a, _ in table} | {b for _, b in table}, key=sort_key))
    for a, b in itertools.product(elements, repeat=2):
        if (a, b) not in table:
            raise InvalidStructureError(f"multiplication table missing ({fmt(a)},{fmt(b)})")
        if table[(a, b)] not in elements:
            raise InvalidStructureError(f"product of ({fmt(a)},{fmt(b)}) leaves the element set")
    for a, b, c in itertools.product(elements, repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            raise InvalidStructureError(
                f"not associative at triple ({fmt(a)},{fmt(b)},{fmt(c)})"
            )
    identity = None
    for e in elements:
        if all(table[(e, a)] == a and table[(a, e)] == a for a in elements):
            identity = e
            break
    if identity is None:
        raise InvalidStructureError("no two-sided identity element")
    inv = {}
    for a in elements:
        inverses = [b for b in elements if table[(a, b)] == identity and table[(b, a)] == identity]
        if not inverses:
            raise InvalidStructureError(f"element {fmt(a)} has no inverse")
        inv[a] = inverses[0]
    unit = ("u",)
    return FiniteGroup(
        units=(unit,),
        arrows=elements,
        src={a: unit for a in elements},
        rng={a: unit for a in elements},
        comp=dict(table),
        inv=inv,
        unit_arrow={unit: identity},
        identity=identity,
    )


# ---------------------------------------------------------------------------
# validation


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustively check every groupoid axiom; failures carry witnesses.

    Associativity walks composable_triples() by label, _BLOCK triples at a
    time, up to the first block with a bad one.
    """
    def triples(ix):
        walk = g.composable_triples()
        while True:
            x, y, z = np.fromiter(map(ix.__getitem__, itertools.chain.from_iterable(
                itertools.islice(walk, _BLOCK))), dtype=np.intp).reshape(-1, 3).T
            if not x.size:
                return
            yield x, y, z

    return _groupoid_axioms(g, None, triples)


def _pair_ids(s: np.ndarray, r: np.ndarray, n_points: int) -> tuple:
    """The composable pairs (x, y), src(x) == rng(y), as arrow-id columns in
    composable_pairs() order (x in arrow order, then y in arrow order), from
    the integer source and range ids of the arrows."""
    by_rng = np.argsort(r, kind="stable")
    fiber = np.searchsorted(r[by_rng], np.arange(n_points + 1))
    px, at = _ranges(fiber[s], fiber[s + 1])
    return px, by_rng[at]


def _groupoid_axioms(g: FiniteGroupoid, pairs, triples) -> ValidationReport:
    """The groupoid axioms of g, in validate_groupoid's order, names and
    witnesses.

    The checks over arrows and units read g's labels until they are known
    to be total; the rest read integer columns.  ``pairs`` holds the
    composable pairs as arrow-id columns (px, py, prod) in
    composable_pairs() order, prod the id of each pair's product, or is
    None to number them here from the labels.  ``triples(ix)``, given the
    arrow ids by label, yields the composable triples as blocks of id
    columns (x, y, z) in composable_triples() order; only the blocks up to
    the first bad triple are read.  A witness that the id columns cannot
    name in the order of g.comp is searched for by label, and only when the
    check fails.
    """
    rep = ValidationReport(subject="groupoid")
    arrows, units = set(g.arrows), set(g.units)

    bad = [x for x in g.arrows if g.src.get(x) not in units or g.rng.get(x) not in units]
    rep.add("src/rng total with unit values", not bad, fmt(bad[0]) if bad else None)
    if bad:
        return rep

    bad = [x for x in g.arrows if g.inv.get(x) not in arrows]
    rep.add("inverse total", not bad, fmt(bad[0]) if bad else None)
    if bad:
        return rep

    bad = [u for u in g.units if g.unit_arrow.get(u) not in arrows]
    rep.add("unit arrows present", not bad, fmt(bad[0]) if bad else None)
    if bad:
        return rep

    ix = {x: i for i, x in enumerate(g.arrows)}
    point = {u: i for i, u in enumerate(g.units)}
    n = len(ix)
    every, at = (np.array([ids[a] for a in labels], dtype=np.intp)
                 for ids, labels in ((ix, g.arrows), (point, g.units)))
    s, r = (np.array([point[end[x]] for x in g.arrows], dtype=np.intp)
            for end in (g.src, g.rng))
    inv = np.array([ix[g.inv[x]] for x in g.arrows], dtype=np.intp)
    unit = np.array([ix[g.unit_arrow[u]] for u in g.units], dtype=np.intp)
    if pairs is None:
        px, py = _pair_ids(s, r, len(point))
        # -1 for a missing product, n for one that is not an arrow
        prod = np.array([ix.get(g.comp[k], n) if k in g.comp else -1 for k in zip(
            (g.arrows[a] for a in px.tolist()), (g.arrows[b] for b in py.tolist()))],
            dtype=np.intp)
    else:
        px, py, prod = pairs

    missing = np.flatnonzero(prod < 0)
    extra = ([k for k in g.comp if g.src[k[0]] != g.rng[k[1]]]
             if len(g.comp) != len(prod) - len(missing) else [])
    wit = ((g.arrows[px[missing[0]]], g.arrows[py[missing[0]]]) if missing.size
           else extra[0] if extra else None)
    rep.add("comp defined iff src(x)=rng(y)", wit is None,
            f"pair ({fmt(wit[0])},{fmt(wit[1])})" if wit else None)
    if missing.size:
        return rep

    # an id past the arrows has no source or range
    s_, r_ = np.append(s, -1), np.append(r, -1)
    bad = []
    if extra or np.any((r_[prod] != r[px]) | (s_[prod] != s[py])):
        bad = [(x, y) for (x, y), z in g.comp.items()
               if z not in arrows or g.rng[z] != g.rng[x] or g.src[z] != g.src[y]]
    rep.add("rng(xy)=rng(x), src(xy)=src(y)", not bad,
            f"pair ({fmt(bad[0][0])},{fmt(bad[0][1])})" if bad else None)

    # associativity on an integer product table; index n stands for a
    # product that is missing or not an arrow, and counts as a mismatch.
    # Ids are 32-bit: the (n + 1)^2 table caps n far below 2^31.
    table = np.full((n + 1, n + 1), n, dtype=np.int32)
    table[px, py] = prod
    for x, y in extra:
        if x in ix and y in ix:
            table[ix[x], ix[y]] = ix.get(g.comp[(x, y)], n)
    wit = None
    for x, y, z in triples(ix):
        lhs, rhs = table[table[x, y], z], table[x, table[y, z]]
        bad = np.flatnonzero((lhs == n) | (lhs != rhs))
        if bad.size:
            wit = tuple(g.arrows[k[bad[0]]] for k in (x, y, z))
            break
    rep.add("associativity", wit is None,
            f"triple ({fmt(wit[0])},{fmt(wit[1])},{fmt(wit[2])})" if wit else None)

    def first(mask, labels):
        bad = np.flatnonzero(mask)
        return fmt(labels[bad[0]]) if bad.size else None

    wit = first(inv[inv] != every, g.arrows)
    rep.add("inv involutive", wit is None, wit)

    wit = first((table[every, inv] != unit[r]) | (table[inv, every] != unit[s]), g.arrows)
    rep.add("x.inv(x) and inv(x).x are units", wit is None, wit)

    wit = first((s[unit] != at) | (r[unit] != at), g.units)
    rep.add("unit arrows sit at their unit", wit is None, wit)

    wit = first((table[every, unit[s]] != every) | (table[unit[r], every] != every), g.arrows)
    rep.add("unit arrows are two-sided identities", wit is None, wit)
    return rep


# ---------------------------------------------------------------------------
# group actions on groupoids


@dataclass
class GroupAction:
    """A finite group acting on a groupoid by automorphisms."""

    group: FiniteGroup
    target: FiniteGroupoid
    act: dict
    side: str  # "left" or "right"

    def apply(self, t, x):
        return self.act[(t, x)]

    def unit_image(self, t, u):
        return self.target.rng[self.act[(t, self.target.unit_arrow[u])]]

    def converted(self) -> "GroupAction":
        """The same orbits viewed from the opposite side (t acts as inv(t))."""
        flipped = {(t, x): self.act[(self.group.inv_elem(t), x)]
                   for (t, x) in self.act}
        return GroupAction(self.group, self.target, flipped, _other_side(self.side))


@opposite.register
def _opposite_group_action(a: GroupAction) -> GroupAction:
    # a right action of H on x is a left action of H^op on x^op
    return replace(a, group=opposite(a.group), target=opposite(a.target),
                   side=_other_side(a.side))


def trivial_action(group: FiniteGroup, target: FiniteGroupoid, side: str = "left") -> GroupAction:
    act = {(t, x): x for t in group.elements for x in target.arrows}
    return GroupAction(group, target, act, side)


def action_from_unit_map(group: FiniteGroup, target: FiniteGroupoid,
                         unit_maps: dict, side: str) -> GroupAction:
    """Lift permutations of the units of a pair groupoid to both coordinates."""
    act = {}
    for t in group.elements:
        perm = unit_maps[t]
        for (i, j) in target.arrows:
            act[(t, (i, j))] = (perm[i], perm[j])
    return GroupAction(group, target, act, side)


def check_action(a: GroupAction) -> ValidationReport:
    """Automorphism and group-law axioms; properness is noted as vacuous."""
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
    if bad is not None:  # an image outside the arrows has no composites to check
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


def is_free(a: GroupAction) -> bool:
    """True iff act(t, x) == x implies t == identity, over all pairs."""
    e = a.group.identity
    return all(a.act[(t, x)] != x
               for t in a.group.elements if t != e
               for x in a.target.arrows)


def require_free(a: GroupAction, context: str) -> None:
    e = a.group.identity
    for t in a.group.elements:
        if t == e:
            continue
        for x in a.target.arrows:
            if a.act[(t, x)] == x:
                raise NonFreeActionError(
                    f"{context}: action not free, element {fmt(t)} fixes arrow {fmt(x)}"
                )


def actions_commute(left: GroupAction, right: GroupAction):
    """Witness (t, k, x) with (t.x).k != t.(x.k), or None if they commute."""
    for t in left.group.elements:
        for k in right.group.elements:
            for x in left.target.arrows:
                if right.act[(k, left.act[(t, x)])] != left.act[(t, right.act[(k, x)])]:
                    return (t, k, x)
    return None


# ---------------------------------------------------------------------------
# groupoid actions on finite sets


@dataclass
class SpaceAction:
    """A groupoid acting on a finite set along a fibring map.

    Left actions: act[(x, u)] defined iff src(x) == fibring(u), and
    fibring(x.u) == rng(x).  Right actions: act[(x, u)] (meaning u.x) defined
    iff fibring(u) == rng(x), and fibring(u.x) == src(x).
    """

    groupoid: FiniteGroupoid
    space: tuple
    fibring: dict
    act: dict
    side: str

    def apply(self, x, u):
        return self.act[(x, u)]


@opposite.register
def _opposite_space_action(a: SpaceAction) -> SpaceAction:
    return replace(a, groupoid=opposite(a.groupoid), side=_other_side(a.side))


@read_back.register
def _read_back_space_action(a: SpaceAction,
                            groupoid: FiniteGroupoid | None = None) -> SpaceAction:
    """Arrows in the order of the read-back groupoid, ``groupoid`` when
    given, then points in space order."""
    g = groupoid if groupoid is not None else read_back(a.groupoid)
    act = {(q, u): a.act[(_flip(q), u)]
           for q in g.arrows for u in a.space if (_flip(q), u) in a.act}
    return SpaceAction(g, a.space, {u: _flip(v) for u, v in a.fibring.items()},
                       act, _other_side(a.side))


def check_space_action(a: SpaceAction) -> ValidationReport:
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

    pos = {}  # each point's first place in the space
    for i, u in enumerate(a.space):
        pos.setdefault(u, i)
    bad = next(((x, u) for (x, u), v in a.act.items()
                if v not in pos
                or a.fibring[v] != g.rng[x]), None)
    rep.add("fibring of the image", bad is None,
            f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)
    if bad:
        return rep

    # per arrow y, the points u of the space with (y, u) defined, in space order
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


def left_translation_action(g: FiniteGroupoid) -> SpaceAction:
    """g acting on its own arrow set by composition on the left."""
    act = {(x, y): g.comp[(x, y)] for x, y in g.composable_pairs()}
    return SpaceAction(g, tuple(g.arrows), dict(g.rng), act, "left")


def group_set_action(group: FiniteGroup, points, mapping: dict, side: str) -> SpaceAction:
    """A group acting on a finite set, viewed as a one-unit groupoid action."""
    pts = tuple(points)
    unit = group.units[0]
    act = {(t, u): mapping[(t, u)] for t in group.elements for u in pts}
    return SpaceAction(group, pts, {u: unit for u in pts}, act, side)


# ---------------------------------------------------------------------------
# transformation groupoids


def transformation_groupoid(x: FiniteGroupoid, a: SpaceAction) -> FiniteGroupoid:
    """Pairs (arrow, point) with (x, y.u)(y, u) = (xy, u).

    Units are the pairs (fibring(u), u), one for each point of the space.
    """
    if a.side != "left" or a.groupoid != x:
        raise InvalidStructureError("transformation groupoid needs a left action of x")
    check_space_action(a).require("transformation_groupoid")

    arrows = tuple((ar, u) for ar in x.arrows for u in a.space if (ar, u) in a.act)
    units = tuple((a.fibring[u], u) for u in a.space)
    src = {(ar, u): (x.src[ar], u) for (ar, u) in arrows}
    rng = {(ar, u): (x.rng[ar], a.act[(ar, u)]) for (ar, u) in arrows}
    comp = {}
    for p, q in x.composable_pairs():
        for u in a.space:
            if (q, u) in a.act:
                comp[((p, a.act[(q, u)]), (q, u))] = (x.comp[(p, q)], u)
    inv = {(ar, u): (x.inv[ar], a.act[(ar, u)]) for (ar, u) in arrows}
    unit_arrow = {(v, u): (x.unit_arrow[v], u) for (v, u) in units}
    return FiniteGroupoid(units, arrows, src, rng, comp, inv, unit_arrow)


# ---------------------------------------------------------------------------
# semidirect products


def _require_acting_on(a: GroupAction, x: FiniteGroupoid, side: str, construction: str) -> None:
    if a.side != side or a.target != x:
        raise InvalidStructureError(f"{construction} needs a {side} action on x")


def semidirect_left(x: FiniteGroupoid, a: GroupAction) -> FiniteGroupoid:
    """Arrows (x, s) with (x, s)(y, t) = (x(s.y), st); units (u, e)."""
    _require_acting_on(a, x, "left", "semidirect_left")
    check_action(a).require("semidirect_left")
    return _semidirect_left(x, a)


def _semidirect_left(x: FiniteGroupoid, a: GroupAction) -> FiniteGroupoid:
    """semidirect_left without checking ``a``, which the caller has checked."""
    g = a.group
    e = g.identity
    arrows = tuple((ar, s) for ar in x.arrows for s in g.elements)
    units = tuple((u, e) for u in x.units)
    src = {(ar, s): (a.unit_image(g.inv_elem(s), x.src[ar]), e) for (ar, s) in arrows}
    rng = {(ar, s): (x.rng[ar], e) for (ar, s) in arrows}
    comp = {}
    for (p, s) in arrows:
        for (q, t) in arrows:
            sq = a.act[(s, q)]
            if x.composable(p, sq):
                comp[((p, s), (q, t))] = (x.comp[(p, sq)], g.mul(s, t))
    inv = {(ar, s): (a.act[(g.inv_elem(s), x.inv[ar])], g.inv_elem(s))
           for (ar, s) in arrows}
    unit_arrow = {(u, _e): (x.unit_arrow[u], e) for (u, _e) in units}
    return FiniteGroupoid(units, arrows, src, rng, comp, inv, unit_arrow)


def semidirect_right(a: GroupAction, x: FiniteGroupoid) -> FiniteGroupoid:
    """Arrows (s, x) with (s, x)(t, y) = (st, (x.t)y); units (e, u).

    It is x^op x| H^op, read back.
    """
    _require_acting_on(a, x, "right", "semidirect_right")
    return read_back(semidirect_left(opposite(x), opposite(a)))


# ---------------------------------------------------------------------------
# quotients by free actions


@dataclass
class QuotientMap:
    """Orbit data of a free right action: canonical representatives and shifts.

    arrow_map[x] is the minimal arrow in the orbit of x; shift[x] is the
    unique group element with act(shift[x], arrow_map[x]) == x.  unit_map
    and unit_shift are the induced data on units.
    """

    action: GroupAction
    arrow_map: dict
    shift: dict
    unit_map: dict
    unit_shift: dict


def quotient_groupoid(x: FiniteGroupoid, a: GroupAction) -> tuple[FiniteGroupoid, QuotientMap]:
    """Orbit groupoid of a free right action, (x.H)(y.H) = (xy).H.

    The composite is computed on representatives after the unique shift that
    matches sources, which exists exactly because the action is free.
    """
    _require_acting_on(a, x, "right", "quotient_groupoid")
    check_action(a).require("quotient_groupoid")
    require_free(a, "quotient_groupoid")
    return _quotient_groupoid(x, a)


def _quotient_groupoid(x: FiniteGroupoid, a: GroupAction) -> tuple[FiniteGroupoid, QuotientMap]:
    """quotient_groupoid without checking ``a``, which the caller has checked
    and found free."""
    h = a.group

    arrow_map, shift = {}, {}
    for ar in x.arrows:
        orbit = {a.act[(t, ar)]: t for t in h.elements}
        rep = canonical_min(orbit.keys())
        arrow_map[ar] = rep
        # shift satisfies act(shift[ar], rep) == ar
        for t in h.elements:
            if a.act[(t, rep)] == ar:
                shift[ar] = t
                break
    unit_map, unit_shift = {}, {}
    for u in x.units:
        orbit = {a.unit_image(t, u) for t in h.elements}
        rep = canonical_min(orbit)
        unit_map[u] = rep
        unit_shift[u] = _unique_unit_shift(a, rep, u)

    q_arrows = tuple(sorted(set(arrow_map.values()), key=sort_key))
    q_units = tuple(sorted(set(unit_map.values()), key=sort_key))
    src = {p: unit_map[x.src[p]] for p in q_arrows}
    rng = {p: unit_map[x.rng[p]] for p in q_arrows}
    comp = {}
    for p in q_arrows:
        for q in q_arrows:
            if src[p] == rng[q]:
                t = _unique_unit_shift(a, x.src[p], x.rng[q])
                comp[(p, q)] = arrow_map[x.comp[(a.act[(t, p)], q)]]
    inv = {p: arrow_map[x.inv[p]] for p in q_arrows}
    unit_arrow = {u: arrow_map[x.unit_arrow[u]] for u in q_units}
    quot = FiniteGroupoid(q_units, q_arrows, src, rng, comp, inv, unit_arrow)
    return quot, QuotientMap(a, arrow_map, shift, unit_map, unit_shift)


def _unique_unit_shift(a: GroupAction, u_from, u_to):
    """The unique t with unit_image(t, u_from) == u_to (action pre-checked free)."""
    hits = [t for t in a.group.elements if a.unit_image(t, u_from) == u_to]
    if len(hits) != 1:
        raise InternalConsistencyError(
            f"expected a unique shift from {fmt(u_from)} to {fmt(u_to)}, found {len(hits)}"
        )
    return hits[0]


def orbit_space_action(x: FiniteGroupoid, a: GroupAction,
                       _quotient: tuple | None = None) -> SpaceAction:
    """x/H acting on the arrow set of x by (x.H).y = xy when sources match."""
    quot, qmap = _quotient if _quotient is not None else quotient_groupoid(x, a)
    act = {}
    for p in quot.arrows:
        for z in x.arrows:
            if qmap.unit_map[x.rng[z]] == quot.src[p]:
                t = _unique_unit_shift(a, x.src[p], x.rng[z])
                act[(p, z)] = x.comp[(a.act[(t, p)], z)]
    fibring = {z: qmap.unit_map[x.rng[z]] for z in x.arrows}
    return SpaceAction(quot, tuple(x.arrows), fibring, act, "left")


# ---------------------------------------------------------------------------
# covariant pairs and semidirect-product actions


def check_covariant(g: GroupAction, s1: SpaceAction, s2: SpaceAction) -> bool:
    """True iff s.(x.u) == (s.x).(s.u) for all defined pairs, both sides.

    ``g`` is the group action on the groupoid, ``s1`` the group action on the
    set, ``s2`` the groupoid action on the set; all on the same side.
    """
    return _covariance_witness(g, s1, s2) is None


def _covariance_witness(g: GroupAction, s1: SpaceAction, s2: SpaceAction):
    grp = g.group
    for t in grp.elements:
        for u in s2.space:
            if s2.fibring[s1.act[(t, u)]] != g.unit_image(t, s2.fibring[u]):
                return (None, t, u)
    for t in grp.elements:
        for (x, u) in s2.act:
            lhs = s1.act[(t, s2.act[(x, u)])]
            tx, tu = g.act[(t, x)], s1.act[(t, u)]
            if (tx, tu) not in s2.act or lhs != s2.act[(tx, tu)]:
                return (x, t, u)
    return None


def semidirect_space_action(g: GroupAction, s1: SpaceAction, s2: SpaceAction,
                            semidirect: FiniteGroupoid | None = None) -> SpaceAction:
    """Left action of x|xG on the set, (x, t).u = x.(t.u) when defined."""
    if g.side != "left" or s1.side != "left" or s2.side != "left":
        raise InvalidStructureError("semidirect_space_action needs left-sided data")
    wit = _covariance_witness(g, s1, s2)
    if wit is not None:
        raise InvalidStructureError(
            f"actions not covariant at (x,t,u)=({fmt(wit[0])},{fmt(wit[1])},{fmt(wit[2])})"
        )
    sd = semidirect if semidirect is not None else semidirect_left(g.target, g)
    e = g.group.identity
    act = {}
    for (x, t) in sd.arrows:
        for u in s2.space:
            tu = s1.act[(t, u)]
            if (x, tu) in s2.act:
                act[((x, t), u)] = s2.act[(x, tu)]
    fibring = {u: (s2.fibring[u], e) for u in s2.space}
    return SpaceAction(sd, tuple(s2.space), fibring, act, "left")


def semidirect_right_space_action(h: GroupAction, s1: SpaceAction, s2: SpaceAction) -> SpaceAction:
    """Right action of H|xx on the set, u.(h, x) = (u.h).x when defined.

    It is the left action of x^op x| H^op, read back.
    """
    if h.side != "right" or s1.side != "right" or s2.side != "right":
        raise InvalidStructureError("semidirect_right_space_action needs right-sided data")
    return read_back(semidirect_space_action(opposite(h), opposite(s1), opposite(s2)))


# ---------------------------------------------------------------------------
# two-sided equivalences


@dataclass
class GroupoidEquivalence:
    """A finite set with commuting free left/right groupoid actions.

    The actions determine the brackets: see bracket_table.
    """

    left_action: SpaceAction
    right_action: SpaceAction

    @property
    def left_groupoid(self) -> FiniteGroupoid:
        return self.left_action.groupoid

    @property
    def right_groupoid(self) -> FiniteGroupoid:
        return self.right_action.groupoid

    @property
    def space(self) -> tuple:
        return self.left_action.space

    @property
    def rho(self) -> dict:
        return self.left_action.fibring

    @property
    def sigma(self) -> dict:
        return self.right_action.fibring

    def left_apply(self, p, z):
        return self.left_action.act[(p, z)]

    def right_apply(self, z, q):
        return self.right_action.act[(q, z)]

    def left_defined(self, p, z) -> bool:
        return (p, z) in self.left_action.act

    def right_defined(self, z, q) -> bool:
        return (q, z) in self.right_action.act


@opposite.register
def _opposite_equivalence(e: GroupoidEquivalence) -> GroupoidEquivalence:
    """The (Q^op, P^op) equivalence on the same space and action tables."""
    return GroupoidEquivalence(opposite(e.right_action), opposite(e.left_action))


def _orbit_action_data(x: FiniteGroupoid, g: GroupAction, h: GroupAction, quotient: tuple):
    """The inputs of semidirect_space_action for x/H x| G acting on x.

    Returns g on x/H, g on the arrow set, and x/H acting on the arrow set;
    ``quotient`` is quotient_groupoid(x, h), already built.
    """
    quot, qmap = quotient
    g_on_quot = GroupAction(
        g.group, quot,
        {(t, p): qmap.arrow_map[g.act[(t, p)]] for t in g.group.elements for p in quot.arrows},
        g.side,
    )
    g_on_space = group_set_action(
        g.group, x.arrows,
        {(t, z): g.act[(t, z)] for t in g.group.elements for z in x.arrows}, g.side)
    base = orbit_space_action(x, h, _quotient=(quot, qmap))
    return g_on_quot, g_on_space, base


def symmetric_groupoid_equivalence(x: FiniteGroupoid, g: GroupAction,
                                   h: GroupAction) -> GroupoidEquivalence:
    """The arrow set of x as an (x/H x| G) - (H |x G\\x) equivalence.

    Requires free commuting actions on x: g on the left, h on the right.
    Once they are checked, each side quotients x unchecked.  Only the two
    actions are kept; the brackets are read from them as for any other
    equivalence.
    """
    if g.side != "left" or h.side != "right":
        raise InvalidStructureError("expected a left action g and a right action h")
    if g.target != x or h.target != x:
        raise InvalidStructureError("both actions must act on x")
    check_action(g).require("symmetric_groupoid_equivalence")
    check_action(h).require("symmetric_groupoid_equivalence")
    require_free(g, "symmetric_groupoid_equivalence")
    require_free(h, "symmetric_groupoid_equivalence")
    wit = actions_commute(g, h)
    if wit is not None:
        raise InvalidStructureError(
            f"actions do not commute at (t,h,x)=({fmt(wit[0])},{fmt(wit[1])},{fmt(wit[2])})"
        )

    left_action = semidirect_space_action(*_orbit_action_data(x, g, h, _quotient_groupoid(x, h)))
    # the right side is the left side of (x^op, H^op, G^op), read back
    x_op, g_op = opposite(x), opposite(g)
    right_data = _orbit_action_data(x_op, opposite(h), g_op, _quotient_groupoid(x_op, g_op))
    right_action = semidirect_right_space_action(*map(opposite, right_data))
    return GroupoidEquivalence(left_action, right_action)


def bracket_table(e: GroupoidEquivalence) -> dict:
    """Every left bracket at once: {(p.z, z): p} over the left action table.

    When the left action is free, the entry at (z1, z2) is the bracket
    [z1, z2], the unique left arrow p with p.z2 == z1, and a pair has a key
    exactly when it lies in one sigma fiber.  The table of opposite(e)
    holds the right brackets: its entry at (z2, z1) is the unique right
    arrow q with z1.q == z2.
    """
    return {(pz, z): p for (p, z), pz in e.left_action.act.items()}


def verify_groupoid_equivalence(e: GroupoidEquivalence) -> ValidationReport:
    """Exhaustive check of the equivalence axioms plus bracket identities.

    The brackets are read from bracket_table(e) and bracket_table(opposite(e)):
    a same-fiber pair with no key has no bracket and fails.  Once items
    (i), (iv) and (v) pass, every same-fiber pair has exactly one.
    """
    rep = ValidationReport(subject="groupoid equivalence")
    p_gpd, q_gpd = e.left_groupoid, e.right_groupoid
    z_set = e.space

    rep.merge(validate_groupoid(p_gpd), prefix="left groupoid: ")
    rep.merge(validate_groupoid(q_gpd), prefix="right groupoid: ")
    if not rep.ok:
        return rep
    rep.merge(check_space_action(e.left_action), prefix="left action: ")
    rep.merge(check_space_action(e.right_action), prefix="right action: ")
    if not rep.ok:
        return rep

    # items (ii) and (v) are items (i) and (iv) of the opposite equivalence
    e_op = opposite(e)
    for f, name in ((e, "(i) left action free"), (e_op, "(ii) right action free")):
        bad = next(((p, z) for (p, z), v in f.left_action.act.items()
                    if v == z and not f.left_groupoid.is_unit_arrow(p)), None)
        rep.add(name, bad is None,
                f"({fmt(bad[0])},{fmt(bad[1])})" if bad else None)

    # both actions passed "defined iff fibring matches": z.q needs rng(q) == sigma(z)
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

    # (iv) rho is right-invariant and induces a bijection Z/Q -> left units
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

    # the left bracket at (z1, z2) is the key (z1, z2) of the left table,
    # the right one the key (z2, z1) of the opposite's table
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


# ---------------------------------------------------------------------------
# principal decomposition of a free action


@dataclass
class PrincipalDecomposition:
    """A free right action realized as a transformation groupoid.

    ``source_chart`` maps each arrow x to (orbit of x, src(x)); it is a
    groupoid isomorphism onto ``transformation`` that intertwines the group
    action (which acts on the second coordinate downstairs).
    """

    quotient: FiniteGroupoid
    quotient_map: QuotientMap
    action: SpaceAction
    transformation: FiniteGroupoid
    source_chart: dict


def principal_decomposition(x: FiniteGroupoid, h: GroupAction,
                            _quotient: tuple | None = None) -> PrincipalDecomposition:
    _require_acting_on(h, x, "right", "principal_decomposition")
    y, qmap = _quotient if _quotient is not None else quotient_groupoid(x, h)

    # y acts on the units of x: (orbit of w).u = rng(w') for the unique
    # orbit member w' with src(w') == u
    act = {}
    for p in y.arrows:
        for u in x.units:
            if qmap.unit_map[u] == y.src[p]:
                hits = [h.act[(t, p)] for t in h.group.elements
                        if x.src[h.act[(t, p)]] == u]
                if len(hits) != 1:
                    raise InternalConsistencyError(
                        f"orbit of {fmt(p)} meets src fiber of {fmt(u)} {len(hits)} times"
                    )
                act[(p, u)] = x.rng[hits[0]]
    action = SpaceAction(y, tuple(x.units), dict(qmap.unit_map), act, "left")
    trans = transformation_groupoid(y, action)
    chart = {ar: (qmap.arrow_map[ar], x.src[ar]) for ar in x.arrows}

    image = set(chart.values())
    if len(image) != len(x.arrows) or image != set(trans.arrows):
        raise InternalConsistencyError("source chart is not a bijection")
    for a, b in x.composable_pairs():
        if trans.comp[(chart[a], chart[b])] != chart[x.comp[(a, b)]]:
            raise InternalConsistencyError(
                f"source chart not multiplicative at ({fmt(a)},{fmt(b)})"
            )
    for ar in x.arrows:
        for t in h.group.elements:
            p, u = chart[ar]
            if chart[h.act[(t, ar)]] != (p, h.unit_image(t, u)):
                raise InternalConsistencyError(
                    f"source chart not equivariant at ({fmt(t)},{fmt(ar)})"
                )
    return PrincipalDecomposition(y, qmap, action, trans, chart)
