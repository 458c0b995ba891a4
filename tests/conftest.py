import dataclasses
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
)
from groupoidal import morita
from groupoidal._util import DEFAULT_TOL, deviation, fmt, worst_residual
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


def _exchange_residual(link):
    """The worst associativity residual of a linking bundle over its
    (z, zb, z) triples only: the (z, zb) pairs extended by the (zb, z)
    pairs, in linking-groupoid order."""
    kernels = _Products(link)
    pair_class = _patterns(_tags(link.base), kernels.px, kernels.py)
    zb, bz = (pair_class == code for code in _codes("zb", "bz"))
    return worst_residual(kernels.associativity(*kernels.triples(zb, bz)))[0]


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
