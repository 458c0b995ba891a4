"""Shipped example instances and seeded random instance generators."""

from __future__ import annotations

import numpy as np

from .algebras import AlgebraAction, StarAlgebra
from .bundles import BundleAction, FellBundle, identity_fiber_maps, trivial_line_bundle
from .groupoids import (
    FiniteGroup,
    FiniteGroupoid,
    GroupAction,
    action_from_unit_map,
    group_set_action,
    make_group,
    make_pair_groupoid,
)


def cyclic_group(n: int) -> FiniteGroup:
    return make_group({(a, b): (a + b) % n for a in range(n) for b in range(n)})


def trivial_group() -> FiniteGroup:
    return make_group({("e", "e"): "e"})


def diagonal_algebra(n: int) -> StarAlgebra:
    """C^n with pointwise operations."""
    struct = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        struct[i, i, i] = 1.0
    return StarAlgebra(tuple(f"d{i}" for i in range(n)), struct,
                       np.eye(n, dtype=complex), provenance="diagonal")


def matrix_algebra(n: int) -> StarAlgebra:
    """Full n x n matrix algebra on the matrix-unit basis."""
    basis = tuple((i, j) for i in range(n) for j in range(n))
    idx = {b: k for k, b in enumerate(basis)}
    d = n * n
    struct = np.zeros((d, d, d), dtype=complex)
    for (i, j) in basis:
        for (k, l) in basis:
            if j == k:
                struct[idx[(i, l)], idx[(i, j)], idx[(k, l)]] = 1.0
    invol = np.zeros((d, d), dtype=complex)
    for (i, j) in basis:
        invol[idx[(j, i)], idx[(i, j)]] = 1.0
    return StarAlgebra(basis, struct, invol, provenance="matrix algebra")


def symmetric_z2z2_actions() -> tuple[FiniteGroupoid, GroupAction, GroupAction]:
    """Pair groupoid on four points with the commuting free Z/2 pair.

    The left group swaps units as (13)(24), the right group as (12)(34).
    """
    z2 = cyclic_group(2)
    g4 = make_pair_groupoid(4)
    ident = {1: 1, 2: 2, 3: 3, 4: 4}
    gact = action_from_unit_map(z2, g4, {0: ident, 1: {1: 3, 2: 4, 3: 1, 4: 2}}, "left")
    hact = action_from_unit_map(z2, g4, {0: ident, 1: {1: 2, 2: 1, 3: 4, 4: 3}}, "right")
    return g4, gact, hact


def symmetric_z2z2_bundle() -> tuple[FellBundle, BundleAction, BundleAction]:
    g4, gact, hact = symmetric_z2z2_actions()
    bundle = trivial_line_bundle(g4)
    gba = BundleAction(gact.group, bundle, gact,
                       identity_fiber_maps(bundle, gact), "left")
    hba = BundleAction(hact.group, bundle, hact,
                       identity_fiber_maps(bundle, hact), "right")
    return bundle, gba, hba


def _random_unit_perm_action(group: FiniteGroup, base: FiniteGroupoid,
                             base_perm: dict, relabel: dict,
                             side: str) -> GroupAction:
    """Conjugate a translation permutation by a random relabeling."""
    inv_relabel = {v: k for k, v in relabel.items()}
    maps = {}
    for t in group.elements:
        maps[t] = {u: relabel[base_perm[t][inv_relabel[u]]] for u in base.units}
    return action_from_unit_map(group, base, maps, side)


def random_free_commuting_instance(rng: np.random.Generator):
    """A pair groupoid (at most six units) with free commuting Z/n actions.

    The unit set is G x H x K with the groups translating their own
    coordinate, conjugated by a random relabeling so the tables look
    arbitrary while freeness and commutation are guaranteed.
    """
    choices = [(1, 1, k) for k in (2, 3, 4, 5, 6)] + \
        [(2, 1, k) for k in (1, 2, 3)] + [(1, 2, k) for k in (1, 2, 3)] + \
        [(2, 2, 1), (3, 1, 2), (1, 3, 2), (2, 3, 1), (3, 2, 1), (3, 1, 1), (1, 3, 1)]
    ng, nh, nk = choices[int(rng.integers(len(choices)))]
    g_grp, h_grp = cyclic_group(ng), cyclic_group(nh)
    raw_units = [(a, b, c) for a in range(ng) for b in range(nh) for c in range(nk)]
    n = len(raw_units)
    base = make_pair_groupoid(n)
    perm = [int(v) + 1 for v in rng.permutation(n)]
    relabel = {raw: perm[i] for i, raw in enumerate(raw_units)}

    g_perms = {t: {(a, b, c): ((a + t) % ng, b, c) for (a, b, c) in raw_units}
               for t in g_grp.elements}
    h_perms = {t: {(a, b, c): (a, (b + t) % nh, c) for (a, b, c) in raw_units}
               for t in h_grp.elements}
    gact = _random_unit_perm_action(g_grp, base, g_perms, relabel, "left")
    hact = _random_unit_perm_action(h_grp, base, h_perms, relabel, "right")
    return base, gact, hact


def random_free_action_instance(rng: np.random.Generator):
    """A free right action on a pair groupoid, with a bundle on top.

    Half of the instances carry the trivial line bundle; the rest use a
    two-dimensional diagonal fiber with a swapping fiber action, so the
    fiber maps are genuinely nontrivial.
    """
    nh = int(rng.choice([2, 2, 3, 4]))
    nk = int(rng.integers(1, 3))
    h_grp = cyclic_group(nh)
    raw_units = [(a, c) for a in range(nh) for c in range(nk)]
    n = len(raw_units)
    base = make_pair_groupoid(n)
    perm = [int(v) + 1 for v in rng.permutation(n)]
    relabel = {raw: perm[i] for i, raw in enumerate(raw_units)}
    h_perms = {t: {(a, c): ((a + t) % nh, c) for (a, c) in raw_units}
               for t in h_grp.elements}
    hact = _random_unit_perm_action(h_grp, base, h_perms, relabel, "right")

    if rng.random() < 0.5 or nh != 2:
        bundle = trivial_line_bundle(base)
        hba = BundleAction(h_grp, bundle, hact,
                           identity_fiber_maps(bundle, hact), "right")
        return bundle, hba

    # two-dimensional fibers with a coordinate swap along the group
    dim = {x: 2 for x in base.arrows}
    mult = {}
    for (x, y) in base.composable_pairs():
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 1.0
        t[1, 1, 1] = 1.0
        mult[(x, y)] = t
    star = {x: np.eye(2, dtype=complex) for x in base.arrows}
    bundle = FellBundle(base, dim, mult, star)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    fiber = {}
    for t in h_grp.elements:
        mat = np.eye(2, dtype=complex) if t == 0 else swap
        for x in base.arrows:
            fiber[(t, x)] = mat
    hba = BundleAction(h_grp, bundle, hact, fiber, "right")
    return bundle, hba


def swap_tau_on_diagonal(group: FiniteGroup) -> AlgebraAction:
    """Order-two coordinate swap on the two-dimensional diagonal algebra."""
    alg = diagonal_algebra(2)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    mats = {t: (np.eye(2, dtype=complex) if t == group.identity else swap)
            for t in group.elements}
    return AlgebraAction(group, alg, mats, "left")


def group_translation_space(group: FiniteGroup, side: str):
    """The group acting on itself by translation, as a set action."""
    if side == "left":
        mapping = {(t, u): group.mul(t, u) for t in group.elements for u in group.elements}
    else:
        mapping = {(t, u): group.mul(u, t) for t in group.elements for u in group.elements}
    return group_set_action(group, group.elements, mapping, side)


def raeburn_two_points() -> tuple:
    """The smallest raeburn case: Z/2 translating two points, trivial H, C fiber.

    Returns the arguments of ``morita.raeburn``: the points, the G and H
    actions on them, the fiber algebra, and sigma and tau.
    """
    z2, triv = cyclic_group(2), trivial_group()
    b = diagonal_algebra(1)
    sigma = AlgebraAction(z2, b, {t: np.eye(1, dtype=complex) for t in z2.elements}, "left")
    tau = AlgebraAction(triv, b, {"e": np.eye(1, dtype=complex)}, "left")
    hsp = group_set_action(triv, (0, 1), {("e", u): u for u in (0, 1)}, "right")
    return (0, 1), group_translation_space(z2, "left"), hsp, b, sigma, tau


def raeburn_four_points() -> tuple:
    """The two-sided raeburn case on Z/2 x Z/2, the arguments of ``morita.raeburn``.

    G = Z/2 translates the first coordinate and swaps the two entries of the
    diagonal fiber C^2; H = Z/2 translates the second coordinate and acts
    trivially on the fiber.
    """
    z2 = cyclic_group(2)
    points = tuple((i, j) for i in range(2) for j in range(2))
    gsp = group_set_action(z2, points, {(t, (i, j)): ((t + i) % 2, j)
                                        for t in z2.elements for (i, j) in points}, "left")
    hsp = group_set_action(z2, points, {(t, (i, j)): (i, (j + t) % 2)
                                        for t in z2.elements for (i, j) in points}, "right")
    b = diagonal_algebra(2)
    tau = AlgebraAction(z2, b, {t: np.eye(2, dtype=complex) for t in z2.elements}, "left")
    return points, gsp, hsp, b, swap_tau_on_diagonal(z2), tau
