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

A groupoid is numbered in one place, _Ids: its arrows, units, composable
pairs and triples and its product table, in the order of composable_pairs()
and composable_triples().  Every check and construction that reads a
groupoid as integers reads it there, once per call; actions and arrow maps
add an image table (_arrow_images) or id columns of their table (_SpaceIds).
The morphism checks, check_homomorphism, check_action's automorphism laws,
the principal chart and bundles.verify_bundle_iso, read one law on image
tables, _morphism_failures.  Nothing is cached on the labelled objects:
tables may be edited in place between two checks, and the second must see
the edit.  A witness is the first failing tuple in the order of the label
walk each check replaced.  validate_groupoid keeps its label walk of
composable_triples(), which the benchmark counts.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, singledispatch

import numpy as np

from ._util import _BLOCK, _ranges, canonical_min, first_repeat, fmt, sort_key
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
    """Totality, then the morphism laws on one image row (_morphism_failures);
    a witness is the first failing arrow, or composable pair, in order."""
    rep = ValidationReport(subject="groupoid homomorphism")
    source, target = _Ids(f.source), _Ids(f.target)
    n, arrows, (px, py) = source.n, source.arrows, source.pairs
    img = _arrow_images([[f.arrow_map.get(x, _MISSING) for x in arrows]], n, target)
    for name, k, form in (("total", _first(img[0, :n] < 0), "missing image of {}"),
                          ("arrows land in target", _first(img[0, :n] == target.n), "{}")):
        rep.add(name, k is None, None if k is None else form.format(fmt(arrows[k])))
        if k is not None:
            return rep
    comp, inv = _morphism_failures(img, source, target)
    if comp is not None:
        _row, i, composable = comp
        rep.add("preserves composition" if composable else "preserves composability", False,
                f"pair ({fmt(arrows[px[i]])},{fmt(arrows[py[i]])})")
        return rep
    rep.add("preserves composition", True)
    rep.add("preserves inverses", inv is None, fmt(arrows[inv]) if inv is not None else None)
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

    def __eq__(self, other):
        # two views of one table through one value function are equal at once
        if isinstance(other, _Transposed) and other.value is self.value and (
                other.table is self.table
                or isinstance(self.table, _Transposed) and self.table == other.table):
            return True
        return super().__eq__(other)


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
    ids, walk = _Ids(g), g.composable_triples()

    def triples():
        while True:
            x, y, z = np.fromiter(map(ids.ix.__getitem__, itertools.chain.from_iterable(
                itertools.islice(walk, _BLOCK))), dtype=np.intp).reshape(-1, 3).T
            if not x.size:
                return
            yield x, y, z

    return _groupoid_axioms(ids, triples())


def _groupoid_axioms(ids: _Ids, triples) -> ValidationReport:
    """The groupoid axioms of ids.g, in validate_groupoid's order, names and
    witnesses.

    The checks read the columns of ``ids``.  ``triples`` yields
    the composable triples as blocks of id columns (x, y, z) in
    composable_triples() order; only the blocks up to the first bad triple
    are read.  A witness that the id columns cannot name in the order of
    g.comp is searched for by label, and only when the check fails.
    """
    rep = ValidationReport(subject="groupoid")
    g, n, m, s, r = ids.g, ids.n, len(ids.g.units), ids.s, ids.r
    for name, bad, labels in (("src/rng total with unit values", (s >= m) | (r >= m), g.arrows),
                              ("inverse total", ids.inv == n, g.arrows),
                              ("unit arrows present", ids.unit[:m] == n, g.units)):
        k = _first(bad)
        rep.add(name, k is None, fmt(labels[k]) if k is not None else None)
        if k is not None:
            return rep

    (px, py), prod, inv, unit, table = ids.pairs, ids.prod, ids.inv, ids.unit, ids.table
    every, at, arrows = np.arange(n), np.arange(m), set(g.arrows)
    missing, extra = ids.coverage(*ids.comp[:2])
    extra = [k for k in g.comp if g.src[k[0]] != g.rng[k[1]]] if extra is not None else []
    wit = ((g.arrows[px[missing]], g.arrows[py[missing]]) if missing is not None
           else extra[0] if extra else None)
    rep.add("comp defined iff src(x)=rng(y)", wit is None,
            f"pair ({fmt(wit[0])},{fmt(wit[1])})" if wit else None)
    if missing is not None:
        return rep

    # an id past the arrows has no source or range
    s_, r_ = np.append(s, -1), np.append(r, -1)
    bad = []
    if extra or np.any((r_[prod] != r[px]) | (s_[prod] != s[py])):
        bad = [(x, y) for (x, y), z in g.comp.items()
               if z not in arrows or g.rng[z] != g.rng[x] or g.src[z] != g.src[y]]
    rep.add("rng(xy)=rng(x), src(xy)=src(y)", not bad,
            f"pair ({fmt(bad[0][0])},{fmt(bad[0][1])})" if bad else None)

    # associativity on the product table; id n stands for a product that is
    # missing or not an arrow, and counts as a mismatch
    wit = None
    for x, y, z in triples:
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
# integer numbering
#
# _Ids is the one numbering of a groupoid.  A check or construction numbers
# what it reads once per call and works on integer columns from then on; an
# entry the columns cannot name (a label outside the arrows or the points)
# is read by label, and only when it may be the witness.


def _numbering(labels) -> dict:
    """Each distinct label's id, in order of first appearance."""
    return {x: i for i, x in enumerate(dict.fromkeys(labels))}


def _ids_of(labels, ids: dict, missing: int) -> np.ndarray:
    """The id of each label, ``missing`` for a label that ``ids`` lacks."""
    return np.fromiter(map(ids.get, labels, itertools.repeat(missing)), dtype=np.intp)


def _first(mask) -> int | None:
    """The first position that ``mask`` marks, or None."""
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else None


def _first_failure(bad, unnamed, failing) -> int | None:
    """The first failing position: ``bad`` marks the failures among the
    entries the id columns name, and ``failing(k)`` tests by label the
    entries at the positions ``unnamed``, in order, up to the first marked
    failure."""
    stop = _first(bad)
    for k in unnamed.tolist():
        if stop is not None and k > stop:
            break
        if failing(k):
            return k
    return stop


def _blocks_of(n: int, width: int):
    """range(n) as consecutive slices, each covering at most _BLOCK entries
    of ``width`` each (at least one)."""
    step = max(1, _BLOCK // max(width, 1))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


class _Ids:
    """A groupoid numbered once for one call; one that lists an arrow or a
    unit twice raises InvalidStructureError naming the first repeat.

    ``ix`` numbers the arrows in arrow order, n of them.  ``point`` numbers
    the units, then every other src or rng value (None where there is none);
    s and r are the arrows' src and rng ids.  inv, unit (of each point) and
    the product ``table``, (n + 1) x (n + 1) and read from ``comp`` (id
    columns x, y, xy of comp's entries), hold arrow ids, n for a missing
    entry or a label that is not an arrow.  ``pairs`` are the composable
    pairs (x, y) as id columns in composable_pairs() order, numbered by
    pair_id (-1 off them), prod their products.  The triples extend each
    pair (x, y) by the pairs (y, .), which are rows row[y] to row[y + 1];
    pair k's triples are positions offset[k] to offset[k + 1].
    """

    def __init__(self, g: FiniteGroupoid):
        self.g = g
        self.ix = _numbering(g.arrows)
        for kind, labels, distinct in (("arrow", g.arrows, self.ix),
                                       ("unit", g.units, set(g.units))):
            if len(distinct) != len(labels):
                raise InvalidStructureError(
                    f"groupoid lists {kind} {fmt(first_repeat(labels))} twice")
        self.arrows = tuple(self.ix)
        self.n = len(self.arrows)

    @cached_property
    def _ends(self) -> tuple:
        g, point = self.g, _numbering(self.g.units)
        s, r = (np.array([point.setdefault(end.get(x), len(point)) for x in self.arrows],
                         dtype=np.intp) for end in (g.src, g.rng))
        return point, s, r

    point = property(lambda self: self._ends[0])
    s = property(lambda self: self._ends[1])
    r = property(lambda self: self._ends[2])

    @cached_property
    def inv(self) -> np.ndarray:
        return np.array([self.ix.get(self.g.inv.get(x), self.n) for x in self.arrows],
                        dtype=np.intp)

    @cached_property
    def unit(self) -> np.ndarray:
        """The unit arrow of each point (n past the units)."""
        unit = np.full(len(self.point), self.n, dtype=np.intp)
        unit[:len(self.g.units)] = [self.ix.get(self.g.unit_arrow.get(u), self.n)
                                    for u in self.g.units]
        return unit

    @cached_property
    def is_unit(self) -> np.ndarray:
        """is_unit_arrow() of each arrow."""
        return (self.s == self.r) & (self.unit[self.r] == np.arange(self.n))

    def key_ids(self, keys) -> tuple:
        """The arrow ids (x, y) of the keys of a table keyed by pairs of
        arrows, as columns in table order (n for a label that is not an
        arrow)."""
        columns = list(zip(*keys)) or [(), ()]
        return tuple(_ids_of(labels, self.ix, self.n) for labels in columns)

    @cached_property
    def comp(self) -> tuple:
        """comp's entries as id columns (x, y, xy) in table order."""
        comp, swap = self.g.comp, False
        while isinstance(comp, _Transposed) and comp.value is None:
            comp, swap = comp.table, not swap  # an opposite reads its table transposed
        x, y = self.key_ids(comp)[::-1 if swap else 1]
        return x, y, _ids_of(comp.values(), self.ix, self.n)

    @cached_property
    def table(self) -> np.ndarray:
        n, (x, y, xy) = self.n, self.comp
        # Ids are 32-bit: the (n + 1)^2 table caps n far below 2^31.
        table = np.full((n + 1, n + 1), n, dtype=np.int32)
        table[x, y] = xy
        table[n], table[:, n] = n, n
        return table

    @cached_property
    def pairs(self) -> tuple:
        s, r = self.s, self.r
        by_rng = np.argsort(r, kind="stable")
        fiber = np.searchsorted(r[by_rng], np.arange(len(self.point) + 1))
        px, at = _ranges(fiber[s], fiber[s + 1])
        return px, by_rng[at]

    @cached_property
    def pair_id(self) -> np.ndarray:
        pair_id = np.full((self.n + 1, self.n + 1), -1, dtype=np.intp)
        pair_id[self.pairs] = np.arange(len(self.pairs[0]))
        return pair_id

    @cached_property
    def prod(self) -> np.ndarray:
        return self.table[self.pairs]

    def coverage(self, x, y) -> tuple:
        """Of a table keyed by the arrow ids (x, y), in table order: the
        number of the first composable pair without a key, and the position
        of the first key that is not a composable pair; None where there is
        none."""
        hit = self.pair_id[x, y]
        keyed = np.zeros(len(self.prod) + 1, dtype=bool)
        keyed[hit] = True  # a key off the pairs marks the spare last entry
        return _first(~keyed[:-1]), _first(hit < 0)

    @cached_property
    def row(self) -> np.ndarray:
        return np.searchsorted(self.pairs[0], np.arange(self.n + 1))

    @cached_property
    def offset(self) -> np.ndarray:
        row, py = self.row, self.pairs[1]
        return np.concatenate([[0], np.cumsum(row[py + 1] - row[py])]).astype(np.intp)

    @property
    def n_triples(self) -> int:
        return int(self.offset[-1])

    def triples_at(self, at) -> tuple:
        """The triples at positions ``at`` of the enumeration, as id columns."""
        (px, py), offset = self.pairs, self.offset
        k = np.searchsorted(offset, at, side="right") - 1
        return px[k], py[k], py[self.row[py[k]] + at - offset[k]]

    def triple_blocks(self):
        """The triples block by block, in composable_triples() order: for
        each block its slice of positions and its id columns."""
        for block in _blocks_of(self.n_triples, 1):
            yield block, self.triples_at(np.arange(block.start, block.stop))


_MISSING = object()  # the image of an arrow that a map has no entry for


def _arrow_images(rows, n: int, target: _Ids) -> np.ndarray:
    """An image table: rows of the images of n arrows, as arrow ids over
    ``target`` (-1 for _MISSING, target.n for a label that is not an
    arrow), and a column n holding target.n, the image of no product."""
    lookup = {**target.ix, _MISSING: -1}
    return np.array([[lookup.get(y, target.n) for y in row] + [target.n] for row in rows],
                    dtype=np.intp).reshape(len(rows), n + 1)


def _image_table(a: GroupAction, ids: _Ids) -> tuple:
    """The group's elements numbered, and the action as a |G| x (n + 1)
    image table over ``ids`` (_arrow_images): row t holds act(t, .)."""
    elements = _numbering(a.group.elements)
    return tuple(elements), _arrow_images(
        [[a.act.get((t, x), _MISSING) for x in ids.arrows] for t in elements], ids.n, ids)


def _morphism_failures(img: np.ndarray, source: _Ids, target: _Ids) -> tuple:
    """Where an image table from ``source`` to ``target`` first breaks the
    morphism laws, or None: the (row, pair, composable), in row then pair
    order, whose images do not compose to the image of the product, and the
    row * n + x with img(inv x) != inv(img x)."""
    (px, py), pq, table = source.pairs, source.prod, target.table
    s, r, comp = np.append(target.s, -1), np.append(target.r, -2), None  # none past the arrows
    for block in _blocks_of(len(img) * len(px), 1):
        t, k = np.divmod(np.arange(block.start, block.stop), len(px))
        tp, tq = img[t, px[k]], img[t, py[k]]
        apart = s[tp] != r[tq]
        i = _first(apart | (table[tp, tq] != img[t, pq[k]]))
        if i is not None:
            comp = (t[i], k[i], not apart[i])
            break
    inv = _first(img[:, source.inv] != np.append(target.inv, target.n)[img[:, :source.n]])
    return comp, inv


class _UnitShifts:
    """The unit-shift table of a group action on a groupoid, built once per
    construction: called with units u and v of the target, it returns the
    unique element t with unit_image(t, u) == v, which a free action has,
    and raises InternalConsistencyError when there is none or more than
    one."""

    def __init__(self, a: GroupAction):
        self.hits: dict = {}
        for t in a.group.elements:
            for u in a.target.units:
                self.hits.setdefault((u, a.unit_image(t, u)), []).append(t)

    def __call__(self, u_from, u_to):
        hits = self.hits.get((u_from, u_to), ())
        if len(hits) != 1:
            raise InternalConsistencyError(
                f"expected a unique shift from {fmt(u_from)} to {fmt(u_to)}, found {len(hits)}")
        return hits[0]


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


@dataclass(eq=False)
class _ActionReport(ValidationReport):
    """A report with what check_action read (not part of its text): the
    target's _Ids, the elements and the image table, or None."""

    numbered: tuple | None = field(default=None, repr=False)


def check_action(a: GroupAction) -> ValidationReport:
    """Automorphism and group-law axioms; properness is noted as vacuous.

    Each law reads one |G| x arrows image table (``_image_table``); a
    witness is the first failing tuple in element, then arrow (or
    composable-pair) order.
    """
    rep = _ActionReport(subject=f"{a.side} group action")
    g = a.group
    if a.side not in ("left", "right"):
        rep.add("side flag valid", False, a.side)
        return rep
    ids = _Ids(a.target)
    n, arrows = ids.n, ids.arrows
    elements, img = _image_table(a, ids)
    rep.numbered = ids, elements, img

    k = _first(img[:, :n] < 0)
    rep.add("action total", k is None,
            None if k is None else f"({fmt(elements[k // n])},{fmt(arrows[k % n])})")
    if k is not None:
        return rep

    # each element's images are exactly the arrows
    k = _first((np.sort(img[:, :n], axis=1) != np.arange(n)).any(axis=1))
    rep.add("each element acts bijectively", k is None,
            fmt(elements[k]) if k is not None else None)
    if k is not None:  # an image outside the arrows has no composites to check
        return rep

    (px, py), (comp, k) = ids.pairs, _morphism_failures(img, ids, ids)
    rep.add("acts by automorphisms (composition)", comp is None, None if comp is None else
            fmt((elements[comp[0]], arrows[px[comp[1]]], arrows[py[comp[1]]])))
    rep.add("acts by automorphisms (inverse)", k is None,
            None if k is None else f"({fmt(elements[k // n])},{fmt(arrows[k % n])})")

    k = _first(img[elements.index(g.identity), :n] != np.arange(n))
    rep.add("identity acts trivially", k is None, fmt(arrows[k]) if k is not None else None)

    # s.(t.x) == (st).x on the left, (ts).x on the right
    first, second, prod = _group_law_ids(g, elements, a.side)
    wit = None
    for block in _blocks_of(len(prod), n):
        k = _first(img[first[block, None], img[second[block], :n]] != img[prod[block], :n])
        if k is not None:
            i = block.start + k // n
            wit = (elements[first[i]], elements[second[i]], arrows[k % n])
            break
    rep.add("group law", wit is None,
            f"({fmt(wit[0])},{fmt(wit[1])},{fmt(wit[2])})" if wit else None)

    rep.note("properness: vacuously true (finite discrete space)")
    return rep


def _group_law_ids(g: FiniteGroup, elements: tuple, side: str) -> tuple:
    """The pairs (s, t) of element ids in product order, and the id of the
    element acting as s after t: st on the left, ts on the right."""
    first, second = np.divmod(np.arange(len(elements) ** 2), len(elements))
    at = {t: i for i, t in enumerate(elements)}
    prod = np.array([at[g.mul(elements[i], elements[j]) if side == "left"
                        else g.mul(elements[j], elements[i])]
                     for i, j in zip(first.tolist(), second.tolist())], dtype=np.intp)
    return first, second, prod


def _fixed_arrow(a: GroupAction) -> tuple | None:
    """The first (t, x), in element then arrow order, with t not the
    identity and act(t, x) == x; None if there is none."""
    ids = _Ids(a.target)
    elements, img = _image_table(a, ids)
    fixed = img[:, :ids.n] == np.arange(ids.n)
    fixed[[t == a.group.identity for t in elements]] = False
    k = _first(fixed)
    return None if k is None else (elements[k // ids.n], ids.arrows[k % ids.n])


def is_free(a: GroupAction) -> bool:
    """True iff act(t, x) == x implies t == identity, over all pairs."""
    return _fixed_arrow(a) is None


def require_free(a: GroupAction, context: str) -> None:
    fixed = _fixed_arrow(a)
    if fixed is not None:
        raise NonFreeActionError(
            f"{context}: action not free, element {fmt(fixed[0])} fixes arrow {fmt(fixed[1])}"
        )


def actions_commute(left: GroupAction, right: GroupAction):
    """Witness (t, k, x) with (t.x).k != t.(x.k), or None if they commute,
    the first in (t, k, x) order over the arrows of left.target."""
    ids = _Ids(left.target)
    (lefts, l_img), (rights, r_img) = (_image_table(a, ids) for a in (left, right))
    n = ids.n
    for t in range(len(lefts)):
        k = _first(r_img[:, l_img[t, :n]] != l_img[t, r_img[:, :n]])
        if k is not None:
            return (lefts[t], rights[k // n], ids.arrows[k % n])
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


class _SpaceIds:
    """A left space action numbered once: its groupoid's ``_Ids``, the
    points of the space by first place (``points``, numbered by ``pt``),
    and the action table as columns in table order: the keys, and the ids
    of each key's arrow (kx) and point (ku) and of its image (v), -1 for a
    label that the numbering does not hold.  ``fibring`` holds the unit id
    of each point, once the fibring is known to take unit values."""

    def __init__(self, a: SpaceAction):
        self.ids, self.pt = _Ids(a.groupoid), _numbering(a.space)
        self.points = tuple(self.pt)
        self.keys = list(a.act)
        ix, pt = self.ids.ix, self.pt
        columns = list(zip(*self.keys)) or [(), ()]
        self.kx, self.ku = _ids_of(columns[0], ix, -1), _ids_of(columns[1], pt, -1)
        self.v = _ids_of(a.act.values(), pt, -1)
        self.fibring = np.array([self.ids.point[a.fibring[u]] for u in self.points],
                                dtype=np.intp)

    @cached_property
    def image(self) -> np.ndarray:
        """The (n + 1) x points table of image ids over the named keys, -1
        where the action is not defined (everywhere on row n)."""
        img = np.full((self.ids.n + 1, len(self.points)), -1, dtype=np.intp)
        named = (self.kx >= 0) & (self.ku >= 0)
        img[self.kx[named], self.ku[named]] = self.v[named]
        return img


def check_space_action(a: SpaceAction) -> ValidationReport:
    """The axioms of a groupoid action on a set, with witnesses.

    The action is numbered once (``_SpaceIds``) and each check reads its
    columns: a witness is the first failing entry in the order of the
    action table, of the arrows then the points, or of the composable pairs
    then the points, as the check goes.
    """
    return _check_space_action(a)[0]


def _check_space_action(a: SpaceAction) -> tuple:
    """check_space_action's report, and the numbering of the action in left
    form that the checks read (None if they stopped before numbering it)."""
    rep = ValidationReport(subject=f"{a.side} groupoid action on a set")
    if a.side not in ("left", "right"):
        rep.add("side flag valid", False, a.side)
        return rep, None
    if a.side == "right":
        a = opposite(a)
    g = a.groupoid

    units = set(g.units)
    bad = [u for u in a.space if a.fibring.get(u) not in units]
    rep.add("fibring total with unit values", not bad, fmt(bad[0]) if bad else None)
    if bad:
        return rep, None

    num = _SpaceIds(a)
    ids, points, keys, kx, ku, v, f = (num.ids, num.points, num.keys, num.kx, num.ku, num.v,
                                       num.fibring)
    n, m = ids.n, len(points)

    # defined exactly on the (x, u) with src(x) == fibring(u): the first
    # missing pair in arrow then point order, else the first extra key
    domain = ids.s[:, None] == f[None, :]
    named = (kx >= 0) & (ku >= 0)
    defined = np.zeros_like(domain)
    defined[kx[named], ku[named]] = True
    missing = _first(domain & ~defined)
    extra = _first(~named | ~domain[kx, ku])
    wit = ((ids.arrows[missing // m], points[missing % m]) if missing is not None
           else keys[extra] if extra is not None else None)
    rep.add("defined iff fibring matches", wit is None,
            f"({fmt(wit[0])},{fmt(wit[1])})" if wit else None)
    if missing is not None:
        return rep, num

    # an arrow outside the groupoid has no range id: its entry is read by label
    k = _first_failure(
        (kx >= 0) & ((v < 0) | (f[v] != ids.r[kx])), np.flatnonzero(kx < 0),
        lambda k: a.act[keys[k]] not in num.pt or a.fibring[a.act[keys[k]]] != g.rng[keys[k][0]])
    rep.add("fibring of the image", k is None,
            f"({fmt(keys[k][0])},{fmt(keys[k][1])})" if k is not None else None)
    if k is not None:
        return rep, num

    # (xy).u == x.(y.u) wherever y.u is defined, pair by pair in
    # composable_pairs() order, points in space order; a product that is
    # missing or not an arrow reads row n, where nothing is defined
    img, (px, py), prod, wit = num.image, ids.pairs, ids.prod, None
    for block in _blocks_of(len(px), m):
        yu = img[py[block]]
        lhs, rhs = img[prod[block]], img[px[block, None], np.maximum(yu, 0)]
        k = _first((yu >= 0) & ((lhs < 0) | (rhs < 0) | (lhs != rhs)))
        if k is not None:
            i = block.start + k // m
            wit = (ids.arrows[px[i]], ids.arrows[py[i]], points[k % m])
            break
    rep.add("compatible with composition", wit is None,
            f"({fmt(wit[0])},{fmt(wit[1])},{fmt(wit[2])})" if wit else None)

    unit = ids.unit[f]
    fixed = img[unit, np.arange(m)]
    named = (unit < n) & (fixed >= 0)
    k = _first_failure(named & (fixed != np.arange(m)), np.flatnonzero(~named),
                       lambda k: a.act[(g.unit_arrow[a.fibring[points[k]]], points[k])]
                       != points[k])
    rep.add("unit arrows act identically", k is None,
            fmt(points[k]) if k is not None else None)
    return rep, num


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
    # (p, s)(q, t) is defined when p and s.q compose, in the order of p, s,
    # q, t; arrow (ar, s) is number ar * |G| + s on x's ids
    ids = _Ids(x)
    elements, img = _image_table(a, ids)
    m = len(elements)
    p, s, q = np.nonzero(ids.s[:, None, None] == np.append(ids.r, -1)[img[None, :, :ids.n]])
    sq, t = img[s, q], np.tile(np.arange(m), len(p))
    p, s, q, sq = (np.repeat(c, m) for c in (p, s, q, sq))
    labels = tuple((ar, u) for ar in ids.arrows for u in elements)
    comp = {(labels[i], labels[j]): labels[k] for i, j, k in zip(
        (p * m + s).tolist(), (q * m + t).tolist(),
        (ids.table[p, sq] * m + _group_law_ids(g, elements, "left")[2][s * m + t]).tolist())}
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
    h, shifts = a.group, _UnitShifts(a)

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
        unit_shift[u] = shifts(rep, u)

    q_arrows = tuple(sorted(set(arrow_map.values()), key=sort_key))
    q_units = tuple(sorted(set(unit_map.values()), key=sort_key))
    src = {p: unit_map[x.src[p]] for p in q_arrows}
    rng = {p: unit_map[x.rng[p]] for p in q_arrows}
    comp = {}
    for p in q_arrows:
        for q in q_arrows:
            if src[p] == rng[q]:
                t = shifts(x.src[p], x.rng[q])
                comp[(p, q)] = arrow_map[x.comp[(a.act[(t, p)], q)]]
    inv = {p: arrow_map[x.inv[p]] for p in q_arrows}
    unit_arrow = {u: arrow_map[x.unit_arrow[u]] for u in q_units}
    quot = FiniteGroupoid(q_units, q_arrows, src, rng, comp, inv, unit_arrow)
    return quot, QuotientMap(a, arrow_map, shift, unit_map, unit_shift)


def orbit_space_action(x: FiniteGroupoid, a: GroupAction,
                       _quotient: tuple | None = None) -> SpaceAction:
    """x/H acting on the arrow set of x by (x.H).y = xy when sources match."""
    quot, qmap = _quotient if _quotient is not None else quotient_groupoid(x, a)
    act, shifts = {}, _UnitShifts(a)
    for p in quot.arrows:
        for z in x.arrows:
            if qmap.unit_map[x.rng[z]] == quot.src[p]:
                t = shifts(x.src[p], x.rng[z])
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

    The groupoids are validated by validate_groupoid, and the actions by
    check_space_action, each numbered once (``_SpaceIds``); items (i)-(v)
    and the brackets then read those id columns.  A witness is the first
    failing entry in the order of the action table it comes from (then the
    right arrows in arrow order for item (iii)), and a pair of points is
    taken in space order, the left bracket before the right.  The bracket
    [z1, z2] is the key (z1, z2) of bracket_table(e), the right one the key
    (z2, z1) of bracket_table(opposite(e)): a same-fiber pair with no key
    has no bracket and fails.  Once items (i), (iv) and (v) pass, every
    same-fiber pair has exactly one.
    """
    rep = ValidationReport(subject="groupoid equivalence")
    rep.merge(validate_groupoid(e.left_groupoid), prefix="left groupoid: ")
    rep.merge(validate_groupoid(e.right_groupoid), prefix="right groupoid: ")
    if not rep.ok:
        return rep
    (left_rep, left), (right_rep, right) = map(_check_space_action,
                                               (e.left_action, e.right_action))
    rep.merge(left_rep, prefix="left action: ")
    rep.merge(right_rep, prefix="right action: ")
    if not rep.ok:
        return rep

    # Both actions are valid, so every key and image has an id.  The right
    # action is read in left form: its arrows act through Q^op.  Its points
    # are renumbered in the order of the left action's space.
    points, m = left.points, len(left.points)
    if right.points != points:
        if set(right.points) != set(points):
            raise InvalidStructureError("the two actions of an equivalence must share the space")
        at = np.array([left.pt[z] for z in right.points], dtype=np.intp)
        right.ku, right.v = at[right.ku], at[right.v]
        right.fibring = right.fibring[np.argsort(at)]
        right.__dict__.pop("image", None)
    rho, sigma = left.fibring, right.fibring

    # items (ii) and (v) are items (i) and (iv) of the opposite equivalence
    for num, name in ((left, "(i) left action free"), (right, "(ii) right action free")):
        k = _first((num.v == num.ku) & ~num.ids.is_unit[num.kx])
        rep.add(name, k is None,
                f"({fmt(num.keys[k][0])},{fmt(num.keys[k][1])})" if k is not None else None)

    # (iii) (p.z).q == p.(z.q), over the left table and, for each entry, the
    # right arrows q with rng(q) == sigma(z) in arrow order (their src in
    # the left form); both actions passed "defined iff fibring matches"
    by_rng = np.argsort(right.ids.s, kind="stable")
    fiber = np.searchsorted(right.ids.s[by_rng], np.arange(len(right.ids.point) + 1))
    l_img, r_img = left.image, right.image
    width, wit = int(np.max(np.diff(fiber), initial=1)), None
    for block in _blocks_of(len(left.keys), width):
        z = left.ku[block]
        owner, at = _ranges(fiber[sigma[z]], fiber[sigma[z] + 1])
        q, z, pz = by_rng[at], z[owner], left.v[block][owner]
        zq = r_img[q, z]
        pzq, p_zq = r_img[q, pz], l_img[left.kx[block][owner], np.maximum(zq, 0)]
        k = _first((zq >= 0) & ((pzq < 0) | (pzq != p_zq)))
        if k is not None:
            p, z = left.keys[block.start + owner[k]]
            wit = (p, z, right.ids.arrows[q[k]])
            break
    rep.add("(iii) actions commute", wit is None,
            f"({fmt(wit[0])},{fmt(wit[1])},{fmt(wit[2])})" if wit else None)

    # (iv) rho is right-invariant and induces a bijection Z/Q -> left units;
    # an orbit is named by its least point, and orbits go in that order
    for num, values, ids, invariant, bijective in (
            (right, rho, left.ids, "(iv) rho invariant under the right action",
             "(iv) rho factors to a bijection onto left units"),
            (left, sigma, right.ids, "(v) sigma invariant under the left action",
             "(v) sigma factors to a bijection onto right units")):
        k = _first(values[num.v] != values[num.ku])
        rep.add(invariant, k is None,
                f"({fmt(num.keys[k][0])},{fmt(num.keys[k][1])})" if k is not None else None)
        orbit = _orbit_roots(m, num.ku, num.v)
        mixed = orbit[values != values[orbit]]
        units, labels = ids.g.units, tuple(ids.point)
        vals = [] if mixed.size else [labels[u] for u in values[np.unique(orbit)]]
        bij = not mixed.size and len(set(map(fmt, vals))) == len(vals) and \
            set(map(fmt, vals)) == set(map(fmt, units))
        members = np.flatnonzero(orbit == mixed.min()) if mixed.size else ()
        rep.add(bijective, bij, None if bij else
                f"orbit of {fmt(canonical_min(points[z] for z in members))}" if mixed.size
                else "not bijective")

    if not rep.ok:
        return rep

    # the left bracket at (z1, z2) is a key (p.z2, z2) of the left table,
    # the right one a key (z1, z1.q) of the right table
    keys = left.v * m + left.ku, right.ku * m + right.v
    wit = None
    for block in _blocks_of(m, 2 * m):
        z1 = np.arange(block.start, block.stop)[:, None]
        z2 = np.arange(m)[None, :]
        bad = np.stack([(sigma[z1] == sigma[z2]) & ~np.isin(z1 * m + z2, keys[0]),
                        (rho[z1] == rho[z2]) & ~np.isin(z1 * m + z2, keys[1])], axis=2)
        k = _first(bad)
        if k is not None:
            wit = (("left", "right")[k % 2], points[block.start + k // (2 * m)],
                   points[k // 2 % m])
            break
    rep.add("bracket characterizing identities", wit is None,
            f"{wit[0]} pair ({fmt(wit[1])},{fmt(wit[2])})" if wit else None)
    if wit is None:
        # each bracket is the arrow of an entry, and freeness makes it unique
        rep.add("brackets jointly surjective",
                all(np.isin(np.arange(num.ids.n), num.kx).all() for num in (left, right)))
    rep.note("properness: vacuously true (finite discrete space)")
    return rep


def _orbit_roots(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each of m points, the least point linked to it through the pairs
    (a[k], b[k]): each class of linked points is named by its first member,
    so the classes go in the order of their first members."""
    root = np.arange(m)
    while True:
        low = root.copy()
        np.minimum.at(low, a, root[b])
        np.minimum.at(low, b, root[a])
        low = low[low]
        if np.array_equal(low, root):
            return root
        root = low


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

    source, target = _Ids(x), _Ids(trans)
    img = _arrow_images([[chart[ar] for ar in source.arrows]], source.n, target)
    if source.n != target.n or (np.sort(img[0, :-1]) != np.arange(target.n)).any():
        raise InternalConsistencyError("source chart is not a bijection")
    comp = _morphism_failures(img, source, target)[0]
    if comp is not None:
        a, b = (source.arrows[c[comp[1]]] for c in source.pairs)
        raise InternalConsistencyError(f"source chart not multiplicative at ({fmt(a)},{fmt(b)})")
    for ar in x.arrows:
        for t in h.group.elements:
            p, u = chart[ar]
            if chart[h.act[(t, ar)]] != (p, h.unit_image(t, u)):
                raise InternalConsistencyError(f"source chart not equivariant at {fmt((t, ar))}")
    return PrincipalDecomposition(y, qmap, action, trans, chart)
