"""Linking algebras and machine-checked Morita-equivalence certificates.

A BundleEquivalence is assembled into a single linking Fell bundle over the
linking groupoid (corner arrows, the equivalence space, its formal adjoint
copy, and the opposite corner), which verify_bundle_equivalence checks once,
each step reading its own tag classes.  Its section algebra is the linking
algebra.  A linking system is built only from a bundle that check passed,
and keeps the check's report, from which the certificate reads the exchange
residual.  The certificate reads only its two corners, the section algebras
of the linking bundle restricted to one tag each, the inner products in
corner coordinates, and the products of the linking bundle that involve a
unit arrow; it never builds the dense linking algebra.  The certificate
checks corner fullness, positivity of the inner products under the regular
representations of the corners, the exchange residual, that the corner
projections sum to the unit, and matching Wedderburn invariants of the two
corners; each of them enters the verdict.  Scenarios identify corners
with crossed products, and induced algebras with quotient bundles, as
bundles, never as dense algebras; crossed-product duality (coaction_demo)
is the transformation scenario with H = G.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import DEFAULT_TOL, deviation, fmt, worst_residual
from .bundles import (
    BundleAction,
    BundleEquivalence,
    BundleIso,
    FellBundle,
    _quotient_fell_bundle,
    induced_quotient_bundle_action,
    make_trivial_cbundle,
    one_sided_equivalence,
    one_sided_transformation_equivalence,
    semidirect_fell_bundle,
    semidirect_right_fell_bundle,
    symmetric_action_equivalence,
    transformation_bundle_action,
    verify_bundle_equivalence,
    verify_bundle_iso,
)
from .algebras import (
    AlgebraAction,
    Representation,
    StarAlgebra,
    StarStructureReport,
    _section_fibers,
    check_algebra_action,
    fiber_algebra,
    regular_representation,
    section_algebra,
    star_structure_report,
)
from .groupoids import (
    FiniteGroup,
    FiniteGroupoid,
    GroupAction,
    SpaceAction,
    _components,
    group_set_action,
    left_translation_action,
)
from .report import InvalidStructureError, ValidationReport


@dataclass(eq=False)
class LinkingSystem:
    """The linking groupoid and bundle of an equivalence, and its corners.

    Arrows are tagged as in bundles.linking_bundle.  Each corner is the
    section algebra of the linking bundle restricted to the arrows of one
    tag, "p" on the left and "q" on the right: the linking algebra's basis,
    constants and involution on the corner's coordinates.  The corner
    projections, in linking-algebra coordinates, sum the units of the
    unit-fiber algebras.  ``algebra``, the dense linking algebra, is built
    on first read; no certificate check reads it.  ``verification`` is
    the verify_bundle_equivalence report that checked ``bundle``.
    """

    equivalence: BundleEquivalence
    groupoid: FiniteGroupoid
    bundle: FellBundle
    corner_left: StarAlgebra
    corner_right: StarAlgebra
    projection_left: np.ndarray
    projection_right: np.ndarray
    verification: ValidationReport

    @cached_property
    def algebra(self) -> StarAlgebra:
        algebra = section_algebra(self.bundle)
        algebra.provenance = "linking algebra"
        return algebra


def linking_system(e: BundleEquivalence, tol: float = DEFAULT_TOL) -> LinkingSystem:
    """The linking groupoid, bundle and corners of a verified equivalence.

    The bundle is the one verify_bundle_equivalence checked, which raises
    unless every step passes, and the linking groupoid is validated on the
    tuple table that check numbered (``_Products.validate_base``), so that
    its composable triples are enumerated once.  Each corner is built from
    the linking bundle restricted to its tag, and the linking algebra is
    left to ``LinkingSystem.algebra``.
    """
    verification = verify_bundle_equivalence(e, tol).require("linking_system")
    bundle = verification.linking
    verification.products.validate_base().require("linking groupoid")
    return LinkingSystem(e, bundle.base, bundle,
                         _corner(bundle, "p", "left corner"),
                         _corner(bundle, "q", "right corner"),
                         _corner_projection(bundle, "pu"), _corner_projection(bundle, "qu"),
                         verification)


def _corner(bundle: FellBundle, tag: str, provenance: str) -> StarAlgebra:
    """The section algebra of ``_corner_bundle``: the linking algebra's basis,
    constants and involution on the corner's coordinates."""
    algebra = section_algebra(_corner_bundle(bundle, tag, provenance))
    algebra.provenance = provenance
    return algebra


def _corner_bundle(bundle: FellBundle, tag: str, provenance: str) -> FellBundle:
    """The linking bundle over the arrows tagged ``tag``, in linking order."""
    return _restricted_bundle(bundle, tuple(x for x in bundle.base.arrows if x[0] == tag),
                              provenance)


def _restricted_bundle(bundle: FellBundle, arrows: tuple, provenance: str) -> FellBundle:
    """``bundle`` over ``arrows``, in that order, and the units whose unit
    arrows they hold; the first product or inverse of them outside them raises."""
    g = bundle.base
    inside = set(arrows)
    pairs = [p for p in bundle.mult if p[0] in inside and p[1] in inside]
    bad = next((p for p in pairs if g.comp[p] not in inside), None)
    if bad is not None:
        raise InvalidStructureError(
            f"{provenance} not closed: product at {fmt(bad)} lies over {fmt(g.comp[bad])}")
    bad = next((x for x in arrows if g.inv[x] not in inside), None)
    if bad is not None:
        raise InvalidStructureError(
            f"{provenance} not closed: inverse of {fmt(bad)} is {fmt(g.inv[bad])}")
    units = tuple(u for u in g.units if g.unit_arrow[u] in inside)
    base = FiniteGroupoid(units, arrows, {x: g.src[x] for x in arrows},
                          {x: g.rng[x] for x in arrows}, {p: g.comp[p] for p in pairs},
                          {x: g.inv[x] for x in arrows}, {u: g.unit_arrow[u] for u in units})
    return FellBundle(base, {x: bundle.dim[x] for x in arrows},
                      {p: bundle.mult[p] for p in pairs}, {x: bundle.star[x] for x in arrows})


def _corner_projection(bundle: FellBundle, unit_tag: str) -> np.ndarray:
    """Sum of the unit-fiber algebra units over one corner's units, in the
    coordinates of the linking algebra."""
    fibers, n = _section_fibers(bundle)
    vec = np.zeros(n, dtype=complex)
    for u in bundle.base.units:
        if u[0] != unit_tag:
            continue
        ua = bundle.base.unit_arrow[u]
        unit = fiber_algebra(bundle, ua).unit()
        if unit is None:
            raise InvalidStructureError(
                f"unit fiber at {fmt(u)} has no multiplicative unit"
            )
        first = fibers[ua][0]
        vec[first:first + len(unit)] = unit
    return vec


def _unit_defect(bundle: FellBundle, p: np.ndarray) -> float:
    """max |p e_j - e_j| and |e_j p - e_j| over the basis elements e_j of the
    linking algebra, p a vector supported on the unit arrows.

    Only the products of the linking bundle with a unit arrow on the left
    (for p e_j) or on the right (for e_j p) meet p's support; each fills one
    block of the n x n matrix of multiplication by p, and both matrices are
    compared with the identity.  An empty bundle, or a linking product that
    is not finite, has no unit to compare with and gives NaN.  Entries
    beyond a fiber's dimension are dropped, as in section_algebra.
    """
    g = bundle.base
    fibers, n = _section_fibers(bundle)
    values = np.concatenate([np.zeros(0)] + [t.ravel() for t in bundle.mult.values()])
    if n == 0 or not np.isfinite(values).all():
        return float("nan")
    units = {g.unit_arrow[u] for u in g.units}
    left, right = np.zeros((2, n, n), dtype=complex)
    for (x, y), t in bundle.mult.items():
        if x not in units and y not in units:
            continue
        (k0, dk), (i0, di), (j0, dj) = fibers[g.comp[(x, y)]], fibers[x], fibers[y]
        t = t[:dk, :di, :dj]
        dk, di, dj = t.shape
        if x in units:
            left[k0:k0 + dk, j0:j0 + dj] += np.einsum("kij,i->kj", t, p[i0:i0 + di])
        if y in units:
            right[k0:k0 + dk, i0:i0 + di] += np.einsum("kij,j->ki", t, p[j0:j0 + dj])
    eye = np.eye(n)
    return max(deviation(left, eye), deviation(right, eye))


# ---------------------------------------------------------------------------
# certificates


@dataclass
class MoritaCertificate:
    verdict: str  # "equivalent" | "not-certified" | "indeterminate"
    left_dimension: int
    right_dimension: int
    fullness_rank_left: int
    fullness_rank_right: int
    positivity_margin_left: float
    positivity_margin_right: float
    exchange_residual: float
    left_report: StarStructureReport
    right_report: StarStructureReport
    tol: float
    seed: int
    notes: list = field(default_factory=list)

    @property
    def corners_full(self) -> bool:
        return (self.fullness_rank_left == self.left_dimension
                and self.fullness_rank_right == self.right_dimension)

    @property
    def centers_match(self) -> bool:
        return (self.left_report.center_dimension
                == self.right_report.center_dimension)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "left": self.left_report.to_dict(),
            "right": self.right_report.to_dict(),
            "fullness": {
                "left_rank": self.fullness_rank_left,
                "left_dimension": self.left_dimension,
                "right_rank": self.fullness_rank_right,
                "right_dimension": self.right_dimension,
            },
            "positivity_margin_left": float(self.positivity_margin_left),
            "positivity_margin_right": float(self.positivity_margin_right),
            "exchange_residual": float(self.exchange_residual),
            "tol": self.tol,
            "seed": self.seed,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"left corner:  dim {self.left_dimension}, blocks "
            f"{sorted(self.left_report.blocks)}, center {self.left_report.center_dimension}",
            f"right corner: dim {self.right_dimension}, blocks "
            f"{sorted(self.right_report.blocks)}, center {self.right_report.center_dimension}",
            f"fullness: left {self.fullness_rank_left}/{self.left_dimension}, "
            f"right {self.fullness_rank_right}/{self.right_dimension}",
            f"positivity margins: left {self.positivity_margin_left:.3e}, "
            f"right {self.positivity_margin_right:.3e}",
            f"exchange residual: {self.exchange_residual:.3e}",
            f"tol: {self.tol:g}  seed: {self.seed}",
        ]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def verify_morita(ls: LinkingSystem, tol: float = DEFAULT_TOL,
                  seed: int = 0) -> MoritaCertificate:
    """Fullness, positivity, exchange residual, and corner invariants.

    Each corner's regular representation is computed once and serves both
    its structure report and its positivity margin, which is computed after
    the report and reads its Wedderburn block bases.  The positivity margin
    of a side is the minimum, over the components of its inner-product table
    (sections linked by a defined inner product) and over the blocks of the
    corner, of the eigenvalues of each component's Gram compressed to each
    block: the same number, up to roundoff, as for one Gram over all
    sections in the whole representation.  An inner product that is not
    finite makes the certificate not-certified, with a note naming it.

    Fullness and positivity read one table of each side's inner products
    in corner coordinates (``_inner_table``).  The exchange residual is the
    step 5 metric of ``ls.verification``.  That the corner projections sum
    to the unit is checked on the products of ``ls.bundle`` with a unit
    arrow (``_unit_defect``); a defect that is not finite means the linking
    algebra has no unit.  A defect above max(tol, 1e-8), or not finite,
    fails the verdict, with a note.  No check builds the dense
    ``ls.algebra``.
    """
    e = ls.equivalence
    notes = []
    for side, inner in (("left", e.left_inner), ("right", e.right_inner)):
        bad = next((key for key, t in inner.items() if not np.isfinite(t).all()), None)
        if bad is not None:
            notes.append(f"{side} inner product not finite at {fmt(bad)}")
    finite = not notes

    # per corner: its invariants, then fullness (the ideal generated by the
    # finite inner products) and positivity of the corner-valued Gram
    # matrices over all Z sections block by block, from one representation
    # and one inner-product table; neither is held through the other
    # corner's structure report
    sides = []
    for side, corner in (("left", ls.corner_left), ("right", ls.corner_right)):
        pi = regular_representation(corner, tol)
        report = star_structure_report(corner, tol=tol, seed=seed, representation=pi)
        table = _inner_table(ls, side)
        sides.append((_fullness_rank(ls, side, table), report,
                      _positivity_margin(ls, side, table, pi, report, tol)))
        del pi, table
    (full_l, rep_l, pos_l), (full_r, rep_r, pos_r) = sides

    ex_res = ls.verification.metrics["step5 exchange"]

    # the corner projections should sum to the unit: p e_j == e_j p == e_j
    # on the linking bundle's unit products
    defect = _unit_defect(ls.bundle, ls.projection_left + ls.projection_right)
    unital = defect <= max(tol, 1e-8)  # False for NaN
    if finite and not np.isfinite(defect):
        notes.append("linking algebra has no unit")
    elif finite and not unital:
        notes.append(f"corner projections do not sum to the unit (defect {defect:.3e})")

    if rep_l.status == "indeterminate" or rep_r.status == "indeterminate":
        verdict = "indeterminate"
    else:
        ok = (finite and full_l == ls.corner_left.dimension
              and full_r == ls.corner_right.dimension
              and pos_l >= -tol and pos_r >= -tol
              and ex_res <= tol and unital
              and rep_l.center_dimension == rep_r.center_dimension)
        verdict = "equivalent" if ok else "not-certified"
        if verdict == "not-certified":
            if full_l != ls.corner_left.dimension:
                notes.append(f"left corner not full (rank {full_l} of {ls.corner_left.dimension})")
            if full_r != ls.corner_right.dimension:
                notes.append(f"right corner not full (rank {full_r} of {ls.corner_right.dimension})")
            if not (pos_l >= -tol and pos_r >= -tol):
                notes.append("an inner product fails positivity")
            if not ex_res <= tol:
                notes.append(f"exchange residual {ex_res:.3e} above tolerance")
            if rep_l.center_dimension != rep_r.center_dimension:
                notes.append("corner center dimensions differ")

    return MoritaCertificate(
        verdict=verdict,
        left_dimension=ls.corner_left.dimension,
        right_dimension=ls.corner_right.dimension,
        fullness_rank_left=full_l,
        fullness_rank_right=full_r,
        positivity_margin_left=pos_l,
        positivity_margin_right=pos_r,
        exchange_residual=ex_res,
        left_report=rep_l,
        right_report=rep_r,
        tol=tol,
        seed=seed,
        notes=notes,
    )


def _inner_table(ls: LinkingSystem, side: str) -> list:
    """One side's inner products in corner coordinates, per component.

    <z1, z2> is defined only for the keys (z1, z2) of the inner-product
    table (sigma(z1) == sigma(z2) on the left, rho on the right), so the
    table splits over the components of the points linked by those keys.
    <z1, z2> lies over the corner arrow that the linking groupoid composes
    from ("z", z1) and ("zb", z2) on the left, ("zb", z1) and ("z", z2) on
    the right.  A component whose points carry m > 0 section coordinates
    gives a pair (coeffs, finite): coeffs[a, b], of shape (m, m, dim), holds
    the corner coordinates of the inner product of sections a and b, and
    the (m, m) mask ``finite`` marks the entries read from a finite inner
    product.
    """
    e = ls.equivalence
    corner = ls.corner_left if side == "left" else ls.corner_right
    idx = {lbl: k for k, lbl in enumerate(corner.basis)}
    inner, tags = (e.left_inner, ("z", "zb")) if side == "left" else (e.right_inner, ("zb", "z"))
    table = []
    for points in _components(e.base.space, inner):
        offset, m = {}, 0
        for z in points:
            offset[z], m = m, m + e.dims[z]
        if m == 0:
            continue
        coeffs = np.zeros((m, m, corner.dimension), dtype=complex)
        finite = np.zeros((m, m), dtype=bool)
        for z1 in points:
            for z2 in points:
                tensor = inner.get((z1, z2))
                if tensor is None:
                    continue
                arrow = ls.groupoid.comp[((tags[0], z1), (tags[1], z2))]
                cols = [idx[(arrow, k)] for k in range(tensor.shape[0])]
                a = slice(offset[z1], offset[z1] + e.dims[z1])
                b = slice(offset[z2], offset[z2] + e.dims[z2])
                coeffs[a, b, cols] = tensor.transpose(1, 2, 0)
                finite[a, b] = np.isfinite(tensor).all()
        table.append((coeffs, finite))
    return table


def _fullness_rank(ls: LinkingSystem, side: str, table: list) -> int:
    """Rank of the ideal generated by the finite inner products inside a corner.

    ``table`` is the side's ``_inner_table``; an inner product that is not
    finite contributes no rank (verify_morita notes it).
    """
    corner = ls.corner_left if side == "left" else ls.corner_right
    n = corner.dimension
    span = _span_basis(np.concatenate(
        [np.zeros((0, n), dtype=complex)] + [coeffs[finite] for coeffs, finite in table]))
    # close under multiplication by the corner on both sides
    while span.shape[0] < n:
        grown = list(span)
        for v in span:
            for k in range(n):
                grown.append(corner.struct[:, k, :] @ v)  # e_k . v
                grown.append(corner.struct[:, :, k] @ v)  # v . e_k
        new_span = _span_basis(np.array(grown))
        if new_span.shape[0] == span.shape[0]:
            break
        span = new_span
    return int(span.shape[0])


def _span_basis(vectors: np.ndarray) -> np.ndarray:
    if vectors.size == 0:
        return vectors.reshape(0, 0)
    _u, s, vh = np.linalg.svd(vectors, full_matrices=False)
    keep = s > 1e-9 * max(1.0, float(s[0]))
    return vh[: len(s)][keep]


def _positivity_margin(ls: LinkingSystem, side: str, table: list, pi: Representation,
                       report: StarStructureReport, tol: float = DEFAULT_TOL) -> float:
    """Min eigenvalue of [pi(<e_i, e_j>)] over all equivalence sections.

    The block Gram matrix collects the corner-valued inner products of all
    basis sections supported on the equivalence space; its positivity under
    a faithful representation pi of the corner certifies <f, f> >= 0.
    ``table``, the side's ``_inner_table`` read from ``ls``, splits it into
    one Gram per component of the inner-product keys.  pi is also split
    into the corner's Wedderburn blocks, the invariant subspaces whose
    bases ``report`` (the structure report made from pi) keeps, and each
    component gets one Gram and eigensolve per block.  The margin is the
    minimum over components and blocks: the smallest eigenvalue of the
    whole Gram, which is unitarily similar to their direct sum.  On a block
    of size d, pi is d copies of one irreducible, so its Gram is unitarily
    the Gram on one copy tensored with the d x d identity: the block is
    compressed to the copy the report keeps in ``irreducible_bases``, if
    it is invariant to max(tol, 1e-8), and its eigensolve shrinks by d^3.
    Without usable bases (indeterminate report, radical, a subspace not
    invariant to max(tol, 1e-8), bases not covering the space) the whole
    of pi is the single block.  A Gram that is not finite, or a corner
    whose trace form is not finite, gives NaN.
    """
    if not np.isfinite(pi.gram_min_eig):
        return float("nan")
    blocks = pi.block_stacks(report.block_bases, tol, report.irreducible_bases)
    margins = [pi.gram_margin(coeffs, blocks) for coeffs, _finite in table]
    return float(np.min(margins)) if margins else 0.0


# ---------------------------------------------------------------------------
# headline scenarios


def symmetric_morita(a: FellBundle, g: BundleAction, h: BundleAction,
                     tol: float = DEFAULT_TOL, seed: int = 0) -> MoritaCertificate:
    """Certificate for sections(a/H) x| G  ~  sections(G\\a) |x H.

    Each corner is also identified with a crossed-product bundle: on the
    left the one the equivalence holds, on the right one built independently
    from the quotient by the converted G action.
    """
    e = symmetric_action_equivalence(a, g, h, tol)
    ls = linking_system(e, tol=tol)
    cert = verify_morita(ls, tol=tol, seed=seed)

    # e.left_bundle is the crossed-product bundle (a/H) x| G itself
    res_l = _identify_corner(ls, "p", e.left_bundle, tol)
    # g, seen from the right, was checked with the hypotheses
    g_quot = _quotient_fell_bundle(a, g.converted())
    h_on_gquot = induced_quotient_bundle_action(a, h, g_quot)
    res_r = _identify_corner(
        ls, "q", semidirect_right_fell_bundle(h_on_gquot, g_quot[0], tol), tol)

    cert.notes.append(f"left corner identified with the crossed product "
                      f"(residual {res_l:.3e})")
    cert.notes.append(f"right corner identified with the opposite crossed product "
                      f"(residual {res_r:.3e})")
    _identified(cert, tol, res_l, res_r)
    return cert


def _identify_corner(ls: LinkingSystem, tag: str, target: FellBundle, tol: float) -> float:
    """Residual of (tag, x) -> x, identity on fibers, from the corner bundle
    onto ``target``: <= tol identifies the corner algebra with the section
    algebra of ``target`` on these bases, which is never built."""
    corner = _corner_bundle(ls.bundle, tag, "left corner" if tag == "p" else "right corner")
    return _iso_residual(corner, target, {x: x[1] for x in corner.base.arrows}, tol)


def _iso_residual(source: FellBundle, target: FellBundle, arrow_map: dict, tol: float) -> float:
    """verify_bundle_iso's worst residual for arrow_map with identity fiber
    maps, NaN if one of its structural checks fails."""
    rep = verify_bundle_iso(BundleIso(source, target, arrow_map, {
        x: np.eye(source.dim[x], dtype=complex) for x in source.base.arrows}), tol)
    return worst_residual([rep.metrics.get(m, np.nan)
                           for m in ("multiplicativity", "star preservation")])[0]


def _identified(cert: MoritaCertificate, tol: float, *residuals: float,
                failure: str = "corner identification failed") -> bool:
    """Whether every residual is <= tol; if not (NaN included), the
    certificate is not-certified, with the note ``failure``."""
    if all(r <= tol for r in residuals):
        return True
    cert.verdict = "not-certified"
    cert.notes.append(failure)
    return False


def one_sided_morita(a: FellBundle, g: BundleAction,
                     tol: float = DEFAULT_TOL, seed: int = 0) -> MoritaCertificate:
    """Certificate for sections(a) x| G ~ sections(G\\a) (trivial H)."""
    e = one_sided_equivalence(a, g, tol)
    ls = linking_system(e, tol=tol)
    cert = verify_morita(ls, tol=tol, seed=seed)
    cert.notes.append("one-sided scenario (right group trivial)")
    return cert


def one_sided_transformation_morita(b: FellBundle, act: SpaceAction, gact: SpaceAction,
                                    tol: float = DEFAULT_TOL, seed: int = 0) -> MoritaCertificate:
    """Certificate for sections(b*Omega) x| G ~ sections(b).

    The equivalence is the one-sided equivalence of b*Omega under G.  The
    left corner is identified as a bundle with the crossed-product bundle;
    the right corner with the orbit bundle G\\(b*Omega), and that with b on
    the orbit representatives, ('e', (y, u)) -> y.
    """
    e = one_sided_transformation_equivalence(b, act, gact, tol)
    ls = linking_system(e, tol=tol)
    cert = verify_morita(ls, tol=tol, seed=seed)
    orbits = e.right_bundle
    res = worst_residual([
        _identify_corner(ls, "q", orbits, tol),
        _iso_residual(orbits, b, {x: x[1][0] for x in orbits.base.arrows}, tol)])[0]
    cert.notes.append(f"right corner identified with the base sections "
                      f"(residual {res:.3e})")
    g_on_tb = transformation_bundle_action(b, act, gact)
    res_l = _identify_corner(ls, "p", semidirect_fell_bundle(g_on_tb.bundle, g_on_tb), tol)
    cert.notes.append(f"left corner identified with the transformation crossed "
                      f"product (residual {res_l:.3e})")
    _identified(cert, tol, res, res_l)
    return cert


def cstar_bundle_morita(a: FellBundle, g: BundleAction,
                        tol: float = DEFAULT_TOL, seed: int = 0) -> MoritaCertificate:
    """One-sided certificate specialized to bundles over a unit groupoid."""
    base = a.base
    if any(base.src[x] != base.rng[x] for x in base.arrows) or \
       set(base.arrows) != {base.unit_arrow[u] for u in base.units}:
        raise InvalidStructureError("cstar_bundle_morita needs a groupoid of units")
    cert = one_sided_morita(a, g, tol=tol, seed=seed)
    cert.notes.append("bundle over a space: sections act pointwise")
    return cert


def raeburn(points, g_space: SpaceAction, h_space: SpaceAction,
            b: StarAlgebra, sigma: AlgebraAction, tau: AlgebraAction,
            tol: float = DEFAULT_TOL, seed: int = 0) -> MoritaCertificate:
    """Symmetric certificate for commuting free group actions on a space.

    The two groups act diagonally on the constant bundle b x points, the
    right action through tau inverses; symmetric_morita checks that they
    commute.  The induced-algebra realizations of both corners and the
    matching of the induced actions are verified as bundles (_raeburn_side).
    """
    pts = tuple(points)
    groups = all(isinstance(sp.groupoid, FiniteGroup) for sp in (g_space, h_space))
    if not groups or g_space.side != "left" or h_space.side != "right":
        raise InvalidStructureError("raeburn needs a left G-space and a right H-space")
    if tuple(g_space.space) != pts or tuple(h_space.space) != pts:
        raise InvalidStructureError("both actions must act on the given point set")
    check_algebra_action(sigma, tol).require("raeburn sigma")
    check_algebra_action(tau, tol).require("raeburn tau")
    grp_g: FiniteGroup = g_space.groupoid
    grp_h: FiniteGroup = h_space.groupoid

    bundle = make_trivial_cbundle(b, pts)
    gba = BundleAction(
        grp_g, bundle,
        GroupAction(grp_g, bundle.base,
                    {(s, u): g_space.act[(s, u)]
                     for s in grp_g.elements for u in pts}, "left"),
        {(s, u): sigma.matrices[s] for s in grp_g.elements for u in pts},
        "left")
    hba = BundleAction(
        grp_h, bundle,
        GroupAction(grp_h, bundle.base,
                    {(t, u): h_space.act[(t, u)]
                     for t in grp_h.elements for u in pts}, "right"),
        {(t, u): tau.matrices[grp_h.inv_elem(t)] for t in grp_h.elements for u in pts},
        "right")

    cert = symmetric_morita(bundle, gba, hba, tol=tol, seed=seed)

    # induced-algebra identifications with matching induced actions; over G
    # the two groups trade places, each seen from the other side
    res_h = _raeburn_side(bundle, gba, hba, sigma, tau, tol)
    res_g = _raeburn_side(bundle, hba.converted(), gba.converted(), tau, sigma, tol)
    cert.notes.append(f"induced algebra over H identified equivariantly "
                      f"(residual {res_h:.3e})")
    cert.notes.append(f"induced algebra over G identified equivariantly "
                      f"(residual {res_g:.3e})")
    _identified(cert, tol, res_h, res_g, failure="induced-algebra identification failed")
    return cert


def _raeburn_side(bundle: FellBundle, outer: BundleAction, inner: BundleAction,
                  outer_alg: AlgebraAction, inner_alg: AlgebraAction, tol: float) -> float:
    """Verify Ind ~ quotient sections and the matching of induced actions.

    ``inner`` is the free right action quotiented out, ``outer`` the left
    action that descends to the quotient, both checked by symmetric_morita;
    ``*_alg`` act on the fiber b.  The induced algebra is the constant
    bundle b over the orbit representatives, ``bundle`` restricted to them,
    identified as a bundle with the quotient (r -> r, identity on fibers).
    On equivariant functions (t.f)(r) = outer_t(f(inv(t).r)), and inv(t).r
    is the representative r' of its orbit moved by shift, so t carries the
    fiber at r' to the fiber at r by outer_t inner(inv(shift)): the action
    induced on the quotient should do the same.  The residual is the worst
    of the identification's and the actions', NaN if one is not finite, the
    quotient action carries r' elsewhere, or the identification fails a
    structural check.
    """
    quot = _quotient_fell_bundle(bundle, inner)
    qb, qm = quot
    act_on_quot = induced_quotient_bundle_action(bundle, outer, quot)
    reps = qb.base.arrows
    res = [_iso_residual(_restricted_bundle(bundle, reps, "induced algebra"), qb,
                         {r: r for r in reps}, tol)]
    grp, inner_inv = outer.group, inner_alg.group.inv_elem
    for t in grp.elements:
        for r in reps:
            moved = outer.base_action.act[(grp.inv_elem(t), r)]
            rep, shift = qm.base.arrow_map[moved], qm.base.shift[moved]
            if act_on_quot.base_action.act[(t, rep)] != r:
                return float("nan")
            res.append(deviation(outer_alg.matrices[t] @ inner_alg.matrices[inner_inv(shift)],
                                 act_on_quot.fiber_maps[(t, rep)]))
    return worst_residual(res)[0]


def coaction_demo(b: FellBundle, tol: float = DEFAULT_TOL,
                  seed: int = 0) -> MoritaCertificate:
    """Finite crossed-product duality for a bundle b over a group G: the
    transformation certificate of b over left translation, with G acting by
    right translation t.u = u inv(t) (the H = G case)."""
    grp = b.base
    if len(grp.units) != 1 or not isinstance(grp, FiniteGroup):
        raise InvalidStructureError("coaction_demo needs a bundle over a group")
    rt = group_set_action(
        grp, grp.elements,
        {(t, u): grp.mul(u, grp.inv_elem(t)) for t in grp.elements for u in grp.elements},
        "left")
    cert = one_sided_transformation_morita(b, left_translation_action(grp), rt, tol, seed)
    cert.notes.append(f"left dimension {cert.left_dimension}, "
                      f"right dimension {cert.right_dimension}")
    return cert
