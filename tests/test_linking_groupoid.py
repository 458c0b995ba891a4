"""The linking groupoid is validated on the tuple table of its bundle.

linking_system, which builds only verified linking systems, checks the
groupoid axioms of the linking groupoid on the integer tuple table
(``bundles._Products``) that verify_bundle_equivalence numbered for the
linking bundle, so its composable triples are enumerated once.  The table's report must be
validate_groupoid's, check for check: names, pass or fail, and witnesses,
on the intact groupoid and on corrupted copies of its composition,
inverse and unit arrows.
"""

import numpy as np
import pytest

from groupoidal import (
    InvalidStructureError,
    linking_bundle,
    linking_system,
    symmetric_action_equivalence,
    validate_groupoid,
    verify_bundle_equivalence,
)
from groupoidal import bundles, groupoids
from groupoidal._util import fmt
from groupoidal.instances import symmetric_z2z2_bundle

from test_batched_residuals import symmetric_equivalence
from test_blocked_kernels import pair6_equivalence


def _checks(rep):
    return [(c.name, c.ok, c.witness) for c in rep.checks]


def reference_validate_groupoid(g):
    """The groupoid axioms as label loops, one tuple at a time: (name, ok,
    witness) per check, in validate_groupoid's order."""
    out, arrows, units = [], set(g.arrows), set(g.units)

    def add(name, bad, show=fmt):
        out.append((name, not bad, show(bad[0]) if bad else None))
        return bool(bad)

    if add("src/rng total with unit values",
           [x for x in g.arrows if g.src.get(x) not in units or g.rng.get(x) not in units]):
        return out
    if add("inverse total", [x for x in g.arrows if g.inv.get(x) not in arrows]):
        return out
    if add("unit arrows present", [u for u in g.units if g.unit_arrow.get(u) not in arrows]):
        return out
    pair = lambda k: f"pair ({fmt(k[0])},{fmt(k[1])})"  # noqa: E731
    missing = [(x, y) for x in g.arrows for y in g.arrows
               if g.src[x] == g.rng[y] and (x, y) not in g.comp]
    add("comp defined iff src(x)=rng(y)",
        missing + [k for k in g.comp if g.src[k[0]] != g.rng[k[1]]], pair)
    if missing:
        return out
    add("rng(xy)=rng(x), src(xy)=src(y)",
        [k for k, z in g.comp.items()
         if z not in arrows or g.rng[z] != g.rng[k[0]] or g.src[z] != g.src[k[1]]], pair)
    c = g.comp.get
    add("associativity", [t for t in g.composable_triples()
                          if c((c(t[:2]), t[2])) not in arrows
                          or c((c(t[:2]), t[2])) != c((t[0], c(t[1:])))],
        lambda t: f"triple ({fmt(t[0])},{fmt(t[1])},{fmt(t[2])})")
    add("inv involutive", [x for x in g.arrows if g.inv[g.inv[x]] != x])
    add("x.inv(x) and inv(x).x are units",
        [x for x in g.arrows if c((x, g.inv[x])) != g.unit_arrow[g.rng[x]]
         or c((g.inv[x], x)) != g.unit_arrow[g.src[x]]])
    add("unit arrows sit at their unit",
        [u for u in g.units
         if g.src[g.unit_arrow[u]] != u or g.rng[g.unit_arrow[u]] != u])
    add("unit arrows are two-sided identities",
        [x for x in g.arrows if c((x, g.unit_arrow[g.src[x]])) != x
         or c((g.unit_arrow[g.rng[x]], x)) != x])
    return out


def _other(g, rng, keep):
    """A random arrow of g other than ``keep``."""
    while True:
        x = g.arrows[int(rng.integers(len(g.arrows)))]
        if x != keep:
            return x


def _wrong_product(g, rng):
    key = list(g.comp)[int(rng.integers(len(g.comp)))]
    g.comp[key] = _other(g, rng, g.comp[key])


def _product_with_the_same_ends(g, rng):
    # a product moved to another arrow between the same units fails
    # associativity only, unless no such arrow exists
    keys = [k for k in g.comp
            if any(a != g.comp[k] and g.src[a] == g.src[g.comp[k]]
                   and g.rng[a] == g.rng[g.comp[k]] for a in g.arrows)]
    key = keys[int(rng.integers(len(keys)))]
    z = g.comp[key]
    g.comp[key] = next(a for a in g.arrows
                       if a != z and g.src[a] == g.src[z] and g.rng[a] == g.rng[z])


def _extra_product(g, rng):
    # a product on a pair that is not composable
    while True:
        x, y = (g.arrows[int(i)] for i in rng.integers(len(g.arrows), size=2))
        if g.src[x] != g.rng[y]:
            g.comp[(x, y)] = x
            return


def _wrong_inverse(g, rng):
    x = g.arrows[int(rng.integers(len(g.arrows)))]
    g.inv[x] = _other(g, rng, g.inv[x])


def _wrong_unit_arrow(g, rng):
    u = g.units[int(rng.integers(len(g.units)))]
    g.unit_arrow[u] = _other(g, rng, g.unit_arrow[u])


CORRUPTIONS = {
    "none": lambda g, rng: None,
    "product": _wrong_product,
    "product_same_ends": _product_with_the_same_ends,
    "extra_product": _extra_product,
    "inverse": _wrong_inverse,
    "unit_arrow": _wrong_unit_arrow,
}


def _equivalence(make, seed):
    if make == "z2z2":
        return symmetric_action_equivalence(*symmetric_z2z2_bundle())
    return symmetric_equivalence(np.random.default_rng(seed), max_units=3)


# the seeded line bundles have at most one linking arrow between two units,
# so only the Z2xZ2 instance can move a product to an arrow with its ends
CASES = [(make, corruption) for make in ("z2z2", "seeded") for corruption in sorted(CORRUPTIONS)
         if (make, corruption) != ("seeded", "product_same_ends")]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make,corruption", CASES)
def test_table_report_equals_validate_groupoid(make, corruption, seed):
    link = linking_bundle(_equivalence(make, 300 + seed))
    CORRUPTIONS[corruption](link.base, np.random.default_rng(seed))
    reference = validate_groupoid(link.base)
    table = bundles._Products(link).validate_base()
    assert _checks(table) == _checks(reference) == reference_validate_groupoid(link.base)
    assert table.subject == reference.subject
    assert table.ok == (corruption == "none")


def test_table_report_reads_the_associativity_witness_in_triple_order(monkeypatch):
    # small blocks: the first bad triple is found past the first block
    link = linking_bundle(_equivalence("z2z2", None))
    _product_with_the_same_ends(link.base, np.random.default_rng(8))
    reference = _checks(validate_groupoid(link.base))
    monkeypatch.setattr(bundles, "_BLOCK", 5)
    monkeypatch.setattr(groupoids, "_BLOCK", 5)
    assert _checks(bundles._Products(link).validate_base()) == reference
    assert ("associativity", False) in [(n, ok) for n, ok, _w in reference]


def test_strict_linking_system_never_walks_the_linking_triples(monkeypatch):
    walked = []
    original = groupoids.FiniteGroupoid.composable_triples

    def spy(self):
        walked.append(self)
        return original(self)

    monkeypatch.setattr(groupoids.FiniteGroupoid, "composable_triples", spy)
    ls = linking_system(pair6_equivalence())
    assert not any(g is ls.groupoid for g in walked)
    # the left and right groupoids are still validated by label
    assert len(walked) == 2
    assert ls.verification.products.base is ls.groupoid


def test_strict_linking_system_requires_the_linking_groupoid(monkeypatch):
    # a report that fails names the linking groupoid, as validate_groupoid's did
    def failing(self):
        rep = groupoids.ValidationReport(subject="groupoid")
        rep.add("associativity", False, "triple (a,b,c)")
        return rep

    monkeypatch.setattr(bundles._Products, "validate_base", failing)
    with pytest.raises(InvalidStructureError,
                       match=r"^linking groupoid: associativity failed \[triple \(a,b,c\)\]$"):
        linking_system(pair6_equivalence())


def test_report_carries_the_table_it_checked():
    rep = verify_bundle_equivalence(pair6_equivalence())
    assert rep.products.base is rep.linking.base
    assert rep.products.n_triples == 135_000


@pytest.mark.parametrize("seed", range(3))
def test_label_report_equals_the_reference_where_no_table_can_be_built(seed):
    # a missing product, or one that is not an arrow, cannot be numbered in
    # a _Products table; the label path reports it as the loops do
    rng = np.random.default_rng(seed)
    for corruption in ("missing", "not_an_arrow"):
        g = linking_bundle(_equivalence("seeded", 300 + seed)).base
        key = list(g.comp)[int(rng.integers(len(g.comp)))]
        if corruption == "missing":
            del g.comp[key]
        else:
            g.comp[key] = ("nowhere", 0)
        assert _checks(validate_groupoid(g)) == reference_validate_groupoid(g)
        assert not validate_groupoid(g).ok
