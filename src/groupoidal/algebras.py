"""Section *-algebras of finite Fell bundles and their structure reports.

The section algebra carries the convolution product with counting Haar
weights, (f*g)(x) = sum over y with rng(y) == rng(x) of f(y)g(inv(y)x), and
the involution f*(x) = (f(inv x))*.  struct[k, i, j] is the k-th coordinate
of e_i e_j, and invol[:, i] holds the coordinates of e_i* (the involution
acts antilinearly, v* = invol @ conj(v)); both are dense arrays, filled one
scatter per fiber-shape class.  A section algebra has few nonzero structure
constants (one fiber product per composable pair), and every law is checked
from the nonzeros only: associativity and the multiplicativity of the
regular representation by one join of nonzero entries, in chunks of at most
``bundles._CHUNK`` terms; the involution law and actions by contracting the
nonzeros of the tensor with those of the matrices.

C*-certification is numerical: the trace form of the left regular
representation must be positive definite (no radical) and the induced
representation faithful, multiplicative, and star-preserving to tolerance.
The trace form is diagonalized per component of its nonzero pattern, within
one arrow's fiber for a section algebra, so pi(e_k) is zero outside the blocks
the nonzero constants reach and is filled block by block.  The structure
report splits that representation into its Wedderburn blocks (the simple
matrix-algebra summands) and keeps an orthonormal basis of each block's
subspace, and of one irreducible subspace inside it, so that Gram matrices
can be diagonalized block by block, each on one irreducible copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bundles
from ._util import DEFAULT_TOL, _ranges, deviation, fmt, worst_residual
from .bundles import BundleAction, FellBundle, semidirect_fell_bundle
from .report import InvalidStructureError, ValidationReport


@dataclass(eq=False)
class StarAlgebra:
    basis: tuple
    struct: np.ndarray
    invol: np.ndarray
    provenance: str | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index(self, label) -> int:
        return self.basis.index(label)

    def multiply(self, v, w) -> np.ndarray:
        return np.einsum("kij,i,j->k", self.struct, v, w)

    def star_vec(self, v) -> np.ndarray:
        return self.invol @ np.conjugate(v)

    def unit(self, tol: float = DEFAULT_TOL) -> np.ndarray | None:
        """Coordinates of the multiplicative unit, or None if there is none
        (also when a structure constant is not finite)."""
        n = self.dimension
        if n == 0 or not np.isfinite(self.struct).all():
            return None
        # solve u with u e_j == e_j and e_j u == e_j for all j
        lhs = np.concatenate(
            [self.struct[:, :, j] for j in range(n)]
            + [self.struct[:, j, :] for j in range(n)], axis=0)
        eye = np.eye(n)
        rhs = np.concatenate([eye[:, j] for j in range(n)] * 2)
        sol, _res, _rank, _sv = np.linalg.lstsq(lhs, rhs, rcond=None)
        if float(np.max(np.abs(lhs @ sol - rhs))) > max(tol, 1e-8):
            return None
        return sol

    def __repr__(self) -> str:
        tag = f", {self.provenance}" if self.provenance else ""
        return f"StarAlgebra(dim {self.dimension}{tag})"


def check_star_algebra(a: StarAlgebra, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Associativity and involution laws of the structure constants."""
    rep = ValidationReport(subject="star algebra")
    n = a.dimension
    struct, invol = a.struct, a.invol
    rep.add("tensor shapes", struct.shape == (n, n, n) and invol.shape == (n, n))
    if not rep.ok:
        return rep

    worst = _associativity_residual(struct)
    rep.record_metric("associativity", worst)
    rep.add("associative", worst <= tol)

    d = deviation(invol @ np.conjugate(invol), np.eye(n))
    rep.record_metric("involution", d)
    rep.add("involution involutive", d <= tol)

    # (ab)* == b*a*, compared with i and j swapped on both sides:
    # sum_l invol[k,l] conj(s[l,j,i]) against sum_ab s[k,a,b] invol[a,i] invol[b,j]
    d = _coo_residual((_coo_adjoints(struct), (invol.T, None, None)),
                      (_coo(struct), (None, invol, invol)))
    rep.record_metric("antihomomorphism", d)
    rep.add("(ab)* == b*a*", d <= tol)
    return rep


def _nonzeros(struct: np.ndarray) -> tuple:
    """The nonzero structure constants as arrays (k, i, j, value), ordered by
    (i, j, k): struct[k, i, j] == value is the k-th coordinate of e_i e_j."""
    i, j, k = np.nonzero(struct.transpose(1, 2, 0))
    return k, i, j, struct[k, i, j]


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple:
    """The distinct keys, sorted, and the sum of the values at each."""
    distinct, where = np.unique(keys, return_inverse=True)
    return distinct, (np.bincount(where, weights=values.real, minlength=len(distinct))
                      + 1j * np.bincount(where, weights=values.imag, minlength=len(distinct)))


def _associativity_residual(struct: np.ndarray) -> float:
    """max |(e_i e_j) e_b - e_i (e_j e_b)| over all basis triples and coordinates:
    the join of the nonzero constants with themselves (see ``_join_residual``).
    A non-finite constant gives NaN, as it does in the dense products (NaN
    times the zeros of the other factor).
    """
    if not np.isfinite(struct).all():
        return float("nan")
    nonzeros = _nonzeros(struct)
    n = struct.shape[0]
    return _join_residual(nonzeros, nonzeros, n, n)


def _multiplicativity_residual(struct: np.ndarray, stack: np.ndarray) -> float:
    """max |pi(e_i) pi(e_j) - sum_k struct[k,i,j] pi(e_k)| over i, j and all
    matrix entries: the join of the nonzero constants with the nonzero
    entries p[a,k,b] = pi(e_k)[a,b] (see ``_join_residual``).  A non-finite
    constant or matrix entry gives NaN.
    """
    if not (np.isfinite(struct).all() and np.isfinite(stack).all()):
        return float("nan")
    k, b, a = np.nonzero(stack.transpose(0, 2, 1))
    return _join_residual(_nonzeros(struct), (a, k, b, stack[k, a, b]), *stack.shape[:2])


def _join_residual(s: tuple, p: tuple, n: int, r: int) -> float:
    """max over i, j, a, b of |sum_k s[k,i,j] p[a,k,b] - sum_c p[a,i,c] p[c,j,b]|.

    ``s`` holds the nonzero structure constants as ``_nonzeros`` returns them,
    over n basis elements; ``p`` the nonzero entries of a tensor p[a, k, b]
    with a, b < r, as arrays (a, k, b, value) ordered by (k, b).  With p the
    constants themselves this is the associativity residual
    (e_i e_j) e_b - e_i (e_j e_b); with p[a,k,b] = pi(e_k)[a,b] it is the
    multiplicativity residual pi(e_i e_j) - pi(e_i) pi(e_j).  Each entry is a
    sum over pairs of nonzeros joined on k (or c).  The pairs are generated in
    chunks of consecutive (i, j), each of at most ``bundles._CHUNK`` terms
    unless a single (i, j) has more, and summed per entry.  An entry no pair
    reaches is zero on both sides.
    """
    k, i, j, v = s
    pa, pk, pb, pv = p
    if not len(pv):
        return 0.0
    ij = i * n + j  # nondecreasing
    # the entries of p with middle m are by_middle[m]:by_middle[m + 1]
    by_middle = np.searchsorted(pk, np.arange(n + 1))
    fm_order = np.lexsort((pk, pa))  # entries of p ordered by (first, middle)
    fm_keys = (pa * n + pk)[fm_order]

    # terms per (i, j): left side sum over (k,i,j) of the entries of p with
    # middle k; right side sum over c of #p[.,i,c] times #p[c,j,.]
    lhs_terms = np.bincount(ij, weights=np.diff(by_middle)[k], minlength=n * n)
    rows_ml = np.bincount(pk * r + pb, minlength=n * r).reshape(n, r).astype(float)
    rows_fm = np.bincount(pa * n + pk, minlength=r * n).reshape(r, n).astype(float)
    cum = np.cumsum(lhs_terms + (rows_ml @ rows_fm).ravel())

    worst, p0 = 0.0, 0
    while p0 < n * n:
        done = cum[p0 - 1] if p0 else 0.0
        p1 = max(p0 + 1, int(np.searchsorted(cum, done + bundles._CHUNK, side="right")))
        p1 = min(p1, n * n)
        # sum_k s[k,i,j] p[a,k,b]: constants t = (k,i,j) with p0 <= (i,j) < p1,
        # each joined with the entries u = (a,k,b)
        t = np.arange(*np.searchsorted(ij, [p0, p1]))
        owner, u = _ranges(by_middle[k[t]], by_middle[k[t] + 1])
        t = t[owner]
        coords = [((ij[t] - p0) * r + pa[u]) * r + pb[u]]
        terms = [v[t] * pv[u]]
        # sum_c p[a,i,c] p[c,j,b]: entries t = (a,i,c), each joined with the
        # entries u = (c,j,b) whose (i, j) lies in the chunk
        i0, i1 = p0 // n, (p1 - 1) // n
        t = np.arange(by_middle[i0], by_middle[i1 + 1])
        j_lo = np.where(pk[t] == i0, p0 - i0 * n, 0)
        j_hi = np.where(pk[t] == i1, p1 - i1 * n, n)
        owner, pos = _ranges(np.searchsorted(fm_keys, pb[t] * n + j_lo),
                             np.searchsorted(fm_keys, pb[t] * n + j_hi))
        t, u = t[owner], fm_order[pos]
        coords.append(((pk[t] * n + pk[u] - p0) * r + pa[t]) * r + pb[u])
        terms.append(-pv[t] * pv[u])
        coords, terms = np.concatenate(coords), np.concatenate(terms)
        if len(terms):
            worst = max(worst, float(np.max(np.abs(_summed(coords, terms)[1]))))
        p0 = p1
    return worst


def _coo(t: np.ndarray) -> tuple:
    """The nonzero entries of a dense array: (flat coordinates, values, shape)."""
    where = np.nonzero(t)
    return np.ravel_multi_index(where, t.shape), t[where], t.shape


def _coo_adjoints(t: np.ndarray) -> tuple:
    """The nonzero entries of the stack of adjoints, conj(t[k, b, a]) at
    (k, a, b), as ``_coo`` gives them."""
    keys, vals, shape = _coo(t.transpose(0, 2, 1))
    return keys, np.conjugate(vals), shape


def _contract(coo: tuple, mats) -> tuple:
    """out[I0, I1, I2] = sum t[x0, x1, x2] m0[x0, I0] m1[x1, I1] m2[x2, I2],
    over the nonzeros of t and of the matrices.

    ``coo`` is t as ``_coo`` gives it, ``mats`` one matrix per axis (None
    leaves the axis as it is); the result is in the same form, each
    coordinate once.  Every entry of t is joined with the nonzeros of the
    matching row of the axis's matrix, at most ``bundles._CHUNK`` products
    at a time unless one entry alone has more.
    """
    keys, vals, shape = coo
    for axis, m in enumerate(mats):
        if m is None:
            continue
        rows, cols = np.nonzero(m)
        row_start = np.searchsorted(rows, np.arange(m.shape[0] + 1))
        where = np.unravel_index(keys, shape)
        x = where[axis]
        shape = shape[:axis] + (m.shape[1],) + shape[axis + 1:]
        cum = np.cumsum(row_start[x + 1] - row_start[x])
        parts, lo = [], 0
        while lo < len(x):
            done = cum[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cum, done + bundles._CHUNK, side="right")))
            owner, pos = _ranges(row_start[x[lo:hi]], row_start[x[lo:hi] + 1])
            owner += lo
            out = [w[owner] for w in where]
            out[axis] = cols[pos]
            parts.append(_summed(np.ravel_multi_index(out, shape),
                                 vals[owner] * m[rows[pos], cols[pos]]))
            lo = hi
        keys, vals = (_summed(np.concatenate([q[0] for q in parts]),
                              np.concatenate([q[1] for q in parts]))
                      if parts else (keys[:0], vals[:0]))
    return keys, vals, shape


def _coo_residual(lhs: tuple, rhs: tuple) -> float:
    """max |L - R| over all entries of two tensors of one shape, each given
    as (coo, mats) for ``_contract``; 0.0 where neither side has a nonzero.

    A non-finite value or matrix entry gives NaN, as in the dense products
    (NaN times the zeros of the other factors).
    """
    keys, vals = [], []
    for sign, (coo, mats) in ((1.0, lhs), (-1.0, rhs)):
        if not (np.isfinite(coo[1]).all()
                and all(m is None or np.isfinite(m).all() for m in mats)):
            return float("nan")
        out = _contract(coo, mats)
        keys.append(out[0])
        vals.append(sign * out[1])
    _keys, sums = _summed(np.concatenate(keys), np.concatenate(vals))
    return float(np.max(np.abs(sums))) if len(sums) else 0.0


# ---------------------------------------------------------------------------
# section algebras


def section_algebra(b: FellBundle) -> StarAlgebra:
    """Convolution *-algebra of all sections of a finite Fell bundle.

    The constants of e_(x,i) e_(y,j) are the fiber product b.mult[(x, y)],
    and e_(x,i)* is the column b.star[x][:, i] over inv(x); each is written
    in one scatter per shape class of those tensors, nonzero entries only.
    """
    g = b.base
    basis = tuple((x, i) for x in g.arrows for i in range(b.dim[x]))
    fiber, n = _section_fibers(b)
    struct = np.zeros((n, n, n), dtype=complex)
    _scatter(struct, list(b.mult.values()), [(g.comp[p], *p) for p in b.mult], fiber)
    invol = np.zeros((n, n), dtype=complex)
    _scatter(invol, [b.star[x] for x in g.arrows], [(g.inv[x], x) for x in g.arrows], fiber)
    return StarAlgebra(basis, struct, invol, provenance="sections")


def _section_fibers(b: FellBundle) -> tuple[dict, int]:
    """Each arrow's (first coordinate, dimension) in the basis of
    section_algebra(b), and the dimension of that algebra."""
    fiber, n = {}, 0
    for x in b.base.arrows:
        fiber[x], n = (n, b.dim[x]), n + b.dim[x]
    return fiber, n


def _scatter(out: np.ndarray, tensors: list, arrows: list, fiber: dict) -> None:
    """Write the nonzero entries of each tensor t into ``out``, its axis m at
    the coordinates of the fiber over arrows[t][m], up to that fiber's
    dimension."""
    if not tensors:
        return
    cls, _pos, stacks = bundles._shape_classes(tensors)
    at = np.array([fiber[x] for axes in arrows for x in axes]).reshape(len(arrows), -1, 2)
    for c, stack in enumerate(stacks):
        t, *entry = np.nonzero(stack)
        m = np.flatnonzero(cls == c)[t]
        inside = np.all([e < at[m, axis, 1] for axis, e in enumerate(entry)], axis=0)
        out[tuple(at[m, axis, 0][inside] + e[inside] for axis, e in enumerate(entry))] = \
            stack[(t, *entry)][inside]


def fiber_algebra(b: FellBundle, unit_arrow) -> StarAlgebra:
    """The *-algebra structure of a single unit fiber."""
    g = b.base
    if g.src[unit_arrow] != g.rng[unit_arrow]:
        raise InvalidStructureError(f"{fmt(unit_arrow)} is not a unit arrow")
    n = b.dim[unit_arrow]
    return StarAlgebra(
        basis=tuple(range(n)),
        struct=np.asarray(b.mult[(unit_arrow, unit_arrow)], dtype=complex),
        invol=np.asarray(b.star[unit_arrow], dtype=complex),
        provenance="unit fiber",
    )


# ---------------------------------------------------------------------------
# regular representation and structure reports


@dataclass(eq=False)
class Representation:
    """Matrices of the basis elements in a GNS-style orthonormal basis."""

    size: int
    matrices: np.ndarray  # (dimension, size, size): pi(e_k) for each basis element
    faithful: bool
    gram_rank: int
    gram_min_eig: float
    mult_residual: float
    star_residual: float
    notes: list = field(default_factory=list)
    # orthonormal basis of the representation space (columns, in algebra
    # coordinates) and the projection onto its coordinates
    _basis: np.ndarray = field(default=None, repr=False)
    _proj: np.ndarray = field(default=None, repr=False)

    def stack(self) -> np.ndarray:
        return self.matrices

    def of_vec(self, v) -> np.ndarray:
        return np.tensordot(np.asarray(v), self.stack(), axes=(0, 0))

    def gram_margin(self, coeffs, blocks=None) -> float:
        """Min eigenvalue of the block Gram matrix [pi(c_ab)].

        ``coeffs[a, b]`` holds the algebra coordinates of the (a, b) entry,
        so ``coeffs`` has shape (m, m, dim) and the Gram is (m*r) x (m*r).
        The hermitian part is diagonalized; a Gram that is not finite gives
        NaN without an eigensolve, and an empty one gives 0.0.

        ``blocks``, from :meth:`block_stacks`, compress pi to invariant
        subspaces that together cover the space.  The Gram is then unitarily
        similar to the direct sum of one (m*d) x (m*d) Gram per block, and the
        margin is the minimum over those: the same number up to roundoff.
        """
        if blocks is None:
            blocks = [self.stack()]
        return float(np.min([_gram_margin(coeffs, stack) for stack in blocks]))

    def block_stacks(self, bases, tol: float = DEFAULT_TOL, copies=()) -> list:
        """pi compressed to the subspaces spanned by ``bases``: for each
        orthonormal column basis Q the stack of Q* pi(e_k) Q.

        The bases are meant to be a structure report's ``block_bases`` for
        this representation.  If they do not cover the space, or some pi(e_k)
        moves a subspace off itself (|pi(e_k) Q - Q Q* pi(e_k) Q| above
        max(tol, 1e-8)), the whole stack is the single block.

        ``copies``, the report's ``irreducible_bases``, holds for each basis
        an orthonormal basis W of one irreducible subspace inside it, or
        None.  A block is compressed to its W instead, when W passes the same
        invariance test; its subspace is then neither compressed nor tested
        itself.  On a block's subspace pi is d copies of one irreducible of
        dimension d, so W, of dimension d, carries the whole spectrum of the
        block.
        """
        stack = self.stack()
        if not bases or sum(q.shape[1] for q in bases) != self.size:
            return [stack]
        # pi(e_k) Q is computed from the nonzero entries of the stack only
        entries = np.nonzero(stack)
        entries += (stack[entries],)
        blocks = []
        for q, w in itertools.zip_longest(bases, copies[:len(bases)]):
            block = None if w is None else _compressed(stack.shape, entries, w, tol)
            if block is None:
                block = _compressed(stack.shape, entries, q, tol)
            if block is None:
                return [stack]
            blocks.append(block)
        return blocks


def _compressed(shape: tuple, entries: tuple, q: np.ndarray, tol: float) -> np.ndarray | None:
    """The stack of Q* pi(e_k) Q, or None if some pi(e_k) moves the span of
    Q off itself: |pi(e_k) Q - Q Q* pi(e_k) Q| above max(tol, 1e-8).

    The stack has ``shape`` (n, r, r) and its nonzero entries are
    ``entries``, (k, a, b, value) in index order; pi(e_k) Q is summed from
    them, row by row and at most ``bundles._CHUNK`` products at a time,
    into an r x (n d) matrix [pi(e_1) Q, ..., pi(e_n) Q], so that each
    product with Q is a single matrix product.
    """
    k, a, b, value = entries
    (n, r, _r), d = shape, q.shape[1]
    moved = np.zeros((r, n, d), dtype=complex)
    step = max(1, bundles._CHUNK // max(d, 1))
    for lo in range(0, len(value), step):
        kc, ac, at = k[lo:lo + step], a[lo:lo + step], slice(lo, lo + step)
        # a row split between two chunks gets both partial sums
        starts = np.flatnonzero(np.r_[True, (kc[1:] != kc[:-1]) | (ac[1:] != ac[:-1])])
        moved[ac[starts], kc[starts]] += np.add.reduceat(
            value[at, None] * q[b[at]], starts, axis=0)
    moved = moved.reshape(r, n * d)
    block = q.conj().T @ moved
    if not deviation(moved, q @ block) <= max(tol, 1e-8):
        return None
    return np.ascontiguousarray(block.reshape(d, n, d).transpose(1, 0, 2))


def _gram_margin(coeffs: np.ndarray, stack: np.ndarray) -> float:
    """Min eigenvalue of the hermitian part of [sum_k coeffs[a, b, k] stack[k]]."""
    m, r = coeffs.shape[0], stack.shape[1]
    if m * r == 0:
        return 0.0
    gram = np.tensordot(coeffs, stack, axes=(2, 0))
    gram = gram.transpose(0, 2, 1, 3).reshape(m * r, m * r)
    if not np.isfinite(gram).all():
        return float("nan")
    return float(np.min(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))))


def regular_representation(a: StarAlgebra, tol: float = DEFAULT_TOL) -> Representation:
    """Left multiplication in the inner product tau(f* g), tau = Tr of L.

    The trace functional of the left regular representation positivizes the
    section pairing; a degenerate or indefinite Gram form flags the
    representation as non-faithful.  A trace form that is not finite (a
    non-finite structure constant) has no spectrum: the representation is
    then empty and non-faithful, with NaN residuals.

    The trace form is diagonalized once per connected component of its
    nonzero pattern, batched over the components of one size.  For a section
    algebra tau(e_i* e_j) vanishes unless e_i and e_j lie over one arrow, so
    each component lies in one fiber (all of it, unless tau is already
    diagonal there); a form with no zero pattern is a single component.  The orthonormal basis lists the kept eigenvectors in
    ascending order of eigenvalue, ties in component order, as one
    eigensolve of the whole form would.  pi(e_k) is filled block by block
    from the nonzero constants (``_block_stack``), and the multiplicativity
    and star residuals are computed from the nonzeros of pi and of the
    constants.
    """
    n = a.dimension
    gram = _trace_form(a)
    if not np.isfinite(gram).all():
        nan, empty = float("nan"), np.zeros((n, 0, 0), dtype=complex)
        return Representation(
            size=0, matrices=empty, faithful=False, gram_rank=0,
            gram_min_eig=nan, mult_residual=nan, star_residual=nan,
            notes=["trace form not finite"],
            _basis=np.zeros((n, 0), dtype=complex), _proj=np.zeros((0, n), dtype=complex))
    herm_defect = deviation(gram, gram.conj().T)
    gram = 0.5 * (gram + gram.conj().T)

    # one eigensolve per component, batched over the components of one size;
    # the eigenpairs of a component take its slots, members[start:start+size]
    comp = _pattern_components(gram != 0)
    members, start, size = _grouped(comp, int(comp.max(initial=-1)) + 1)
    eigvals, eigvecs = np.zeros(n), np.zeros((n, n), dtype=complex)
    for s in np.unique(size):
        slots = start[size == s, None] + np.arange(s)
        idx = members[slots]
        vals, vecs = np.linalg.eigh(gram[idx[:, :, None], idx[:, None, :]])
        eigvals[slots] = vals
        eigvecs[idx[:, :, None], slots[:, None, :]] = vecs
    scale = max(1.0, float(np.max(np.abs(eigvals))) if n else 1.0)
    order = np.argsort(eigvals, kind="stable")
    keep = order[eigvals[order] > tol * scale]
    rank = len(keep)
    min_eig = float(np.min(eigvals)) if n else 0.0

    basis_t = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    proj = basis_t.conj().T @ gram  # coordinates in the orthonormal basis
    stack = _block_stack(a.struct, proj, basis_t, comp, comp[members[keep]])

    mult_res, star_res = 0.0, 0.0
    if stack.size:
        mult_res = _multiplicativity_residual(a.struct, stack)
        # pi(e_k)* == pi(e_k*) == sum_l invol[l, k] pi(e_l)
        star_res = _coo_residual((_coo_adjoints(stack), (None, None, None)),
                                 (_coo(stack), (a.invol, None, None)))

    notes = []
    if herm_defect > tol:
        notes.append(f"trace form not hermitian (defect {herm_defect:.3e})")
    if min_eig < -tol * scale:
        notes.append(f"trace form indefinite (min eigenvalue {min_eig:.3e})")
    if rank < n:
        notes.append(f"trace form degenerate (rank {rank} < {n})")
    faithful = rank == n and min_eig >= -tol * scale and herm_defect <= tol
    return Representation(
        size=int(rank),
        matrices=stack,
        faithful=faithful,
        gram_rank=rank,
        gram_min_eig=min_eig,
        mult_residual=mult_res,
        star_residual=star_res,
        notes=notes,
        _basis=basis_t,
        _proj=proj,
    )


def _trace_form(a: StarAlgebra) -> np.ndarray:
    """gram[i, j] = tau(e_i* e_j), tau the trace of left multiplication."""
    lstack = np.transpose(a.struct, (1, 0, 2))
    tr = np.array([np.trace(lstack[k]) for k in range(a.dimension)])
    prod_tr = np.einsum("kaj,k->aj", a.struct, tr)
    return np.einsum("ai,aj->ij", a.invol, prod_tr)


def _pattern_components(pattern: np.ndarray) -> np.ndarray:
    """The connected component of each index in the graph of a symmetric
    boolean matrix, numbered 0, 1, ... in order of smallest index."""
    n = pattern.shape[0]
    label = np.arange(n)
    rows, cols = np.nonzero(pattern)  # rows nondecreasing
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]]) if len(rows) else rows
    while True:
        # each index takes the smallest label among its neighbours, then the
        # label of its label
        new = label.copy()
        if len(rows):
            new[rows[starts]] = np.minimum(label[rows[starts]],
                                           np.minimum.reduceat(label[cols], starts))
        new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def _grouped(labels: np.ndarray, count: int) -> tuple:
    """The positions grouped by label, ascending within a group, and the start
    and size of each of the ``count`` groups in that order."""
    size = np.bincount(labels, minlength=count)
    return np.argsort(labels, kind="stable"), np.cumsum(size) - size, size


def _block_stack(struct: np.ndarray, proj: np.ndarray, basis_t: np.ndarray,
                 comp: np.ndarray, col_comp: np.ndarray) -> np.ndarray:
    """The stack of pi(e_k) = proj L_k basis_t, L_k = struct[:, k, :], from
    the nonzero constants.

    ``comp`` gives the trace-form component of each algebra index and
    ``col_comp`` that of each column of ``basis_t``; ``proj`` and
    ``basis_t`` vanish off the diagonal blocks of component A's columns and
    indices.  So pi(e_k) maps component B's columns into A's only through
    the constants struct[A, k, B], by P_A struct[A, k, B] T_B, where P_A and
    T_B are those blocks of ``proj`` and ``basis_t``.  The products are
    batched per shape class of blocks; every other entry is exactly zero.
    """
    n, r = basis_t.shape
    n_comp = int(comp.max(initial=-1)) + 1
    rows_of, row_start, row_size = _grouped(comp, n_comp)
    cols_of, col_start, col_size = _grouped(col_comp, n_comp)
    local = np.empty(n, dtype=np.intp)
    local[rows_of] = np.arange(n) - row_start[comp[rows_of]]

    stack = np.zeros((n, r, r), dtype=complex)
    first, k, last, v = _nonzeros(struct)
    blocks, where = np.unique((k * n_comp + comp[first]) * n_comp + comp[last],
                              return_inverse=True)
    gen, src, dst = blocks // n_comp ** 2, blocks // n_comp % n_comp, blocks % n_comp
    # blocks of one kind have the same row and column counts on both sides
    comp_kind = row_size * (r + 1) + col_size
    kind = comp_kind[src] * (n + 1) * (r + 1) + comp_kind[dst]
    for q in np.unique(kind):
        these = np.flatnonzero(kind == q)
        s_a, w_a = row_size[src[these[0]]], col_size[src[these[0]]]
        s_b, w_b = row_size[dst[these[0]]], col_size[dst[these[0]]]
        if not (w_a and w_b):
            continue
        at = np.full(len(blocks), -1)
        at[these] = np.arange(len(these))
        nz = np.flatnonzero(at[where] >= 0)
        block = np.zeros((len(these), s_a, s_b), dtype=complex)
        block[at[where[nz]], local[first[nz]], local[last[nz]]] = v[nz]
        a_row = rows_of[row_start[src[these], None] + np.arange(s_a)]
        b_row = rows_of[row_start[dst[these], None] + np.arange(s_b)]
        a_col = cols_of[col_start[src[these], None] + np.arange(w_a)]
        b_col = cols_of[col_start[dst[these], None] + np.arange(w_b)]
        stack[gen[these, None, None], a_col[:, :, None], b_col[:, None, :]] = (
            proj[a_col[:, :, None], a_row[:, None, :]] @ block
            @ basis_t[b_row[:, :, None], b_col[:, None, :]])
    return stack


@dataclass
class StarStructureReport:
    dimension: int
    radical_dimension: int
    center_dimension: int
    blocks: tuple
    is_cstar: bool
    status: str  # "ok" or "indeterminate"
    seed: int
    attempts: int
    generator_norms: tuple
    notes: list = field(default_factory=list)
    # orthonormal column bases, in the coordinates of the regular
    # representation, of the central spectral subspaces the blocks were
    # measured on; empty unless the split was made there (status "ok", no
    # radical).  Not part of the report's text, JSON or equality.
    block_bases: tuple = field(default=(), repr=False, compare=False)
    # for each of block_bases, an orthonormal basis of one irreducible
    # subspace inside it, or None (blocks of size 1, and splits that failed
    # their checks); likewise not part of the report's text, JSON or equality
    irreducible_bases: tuple = field(default=(), repr=False, compare=False)

    def consistent(self) -> bool:
        return sum(b * b for b in self.blocks) + self.radical_dimension == self.dimension

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "radical_dimension": self.radical_dimension,
            "center_dimension": self.center_dimension,
            "blocks": sorted(self.blocks),
            "is_cstar": self.is_cstar,
            "status": self.status,
            "seed": self.seed,
            "attempts": self.attempts,
            "generator_norms": [round(x, 9) for x in self.generator_norms],
            "notes": list(self.notes),
        }


def _center_basis(a: StarAlgebra, tol: float) -> np.ndarray:
    """Rows span the commutant {c : c e_j == e_j c for all j}."""
    n = a.dimension
    if n == 0:
        return np.zeros((0, 0))
    # the stack of the commutators with each e_j, without its zero rows,
    # which change neither its singular values nor its null space; zero
    # rows pad it to n rows, so that vh is n x n
    rows = [m[m.any(axis=1)] for m in (a.struct[:, :, j] - a.struct[:, j, :]
                                         for j in range(n))]
    rows.append(np.zeros((max(0, n - sum(len(m) for m in rows)), n)))
    _u, s, vh = np.linalg.svd(np.concatenate(rows, axis=0), full_matrices=False)
    null = s <= tol * max(1.0, s[0])
    return vh[null].conj()


def star_structure_report(a: StarAlgebra, tol: float = DEFAULT_TOL,
                          seed: int = 0, max_attempts: int = 8, *,
                          representation: Representation | None = None
                          ) -> StarStructureReport:
    """Wedderburn-style invariants via spectral splitting of the center.

    Blocks come from the eigenspace decomposition of a random hermitian
    central element in a faithful representation; the random combination is
    drawn from a seeded generator and retried if the spectrum is too
    clustered to split reliably.  A block's size is read from the rank of
    the representation compressed to its eigenspace, Q* pi(e_k) Q for an
    orthonormal basis Q; with no radical the bases are kept as
    ``block_bases``, each beside one irreducible subspace inside it
    (``_irreducible_copies``).  ``representation``, if given, is
    ``regular_representation(a, tol)`` already computed; it is read, never
    changed.
    """
    n = a.dimension
    law_rep = check_star_algebra(a, max(tol, 1e-8))
    notes = [f"algebra law violation: {c.name}" for c in law_rep.failures()]

    rep = representation if representation is not None else regular_representation(a, tol)
    radical = n - rep.gram_rank
    notes += rep.notes
    norms = _generator_norms(rep.stack())

    # split blocks in the (semisimple) faithful quotient image
    if radical == 0:
        work = a
        work_rep = rep
    else:
        if rep.gram_rank == 0:
            return StarStructureReport(n, radical, 0, (), False,
                                       "ok", seed, 0, norms, notes)
        # quotient by the kernel of the trace form, then split there
        work = _quotient_algebra(a, rep)
        work_rep = regular_representation(work, tol)
        notes.append(f"blocks computed on the semisimple quotient (dim {work.dimension})")

    m = work.dimension
    center = _center_basis(work, max(tol, 1e-8))
    center_dim = center.shape[0]
    if m == 0:
        return StarStructureReport(n, radical, 0, (), radical == 0 and rep.faithful,
                                   "ok", seed, 0, norms, notes)

    # hermitian basis of the center
    herm = []
    for row in center:
        v = row
        vs = work.star_vec(v)
        herm.append(v + vs)
        herm.append(1j * (v - vs))
    herm_mat = np.array(herm)
    rng_attempts = 0
    blocks = None
    for attempt in range(max_attempts):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.standard_normal(len(herm))
        z = coeffs @ herm_mat
        zmat = work_rep.of_vec(z)
        zmat = 0.5 * (zmat + zmat.conj().T)
        # eigenvalues ascending; a gap wider than the tolerance starts a new
        # cluster, and each cluster's eigenvectors span one central subspace
        eigvals, eigvecs = np.linalg.eigh(zmat)
        gap = 1e-6 * max(1.0, float(np.max(np.abs(eigvals))))
        bases = np.split(eigvecs, np.flatnonzero(np.diff(eigvals) > gap) + 1, axis=1)
        rng_attempts = attempt + 1
        if len(bases) != center_dim:
            continue
        sizes = []
        for q in bases:
            span = (q.conj().T @ work_rep.stack() @ q).reshape(m, -1)
            d = int(np.linalg.matrix_rank(span, tol=1e-7))
            r = int(round(d ** 0.5))
            if r * r != d:
                break
            sizes.append(r)
        if len(sizes) != len(bases) or sum(s * s for s in sizes) != m:
            continue
        blocks = tuple(sorted(sizes))
        break

    if blocks is None:
        return StarStructureReport(n, radical, center_dim, (), False,
                                   "indeterminate", seed, rng_attempts, norms,
                                   notes + ["block splitting did not stabilize"])
    is_cstar = (radical == 0 and rep.faithful and law_rep.ok
                and rep.mult_residual <= max(tol, 1e-8)
                and rep.star_residual <= max(tol, 1e-8))
    if radical:
        return StarStructureReport(n, radical, center_dim, blocks, is_cstar,
                                   "ok", seed, rng_attempts, norms, notes)
    return StarStructureReport(n, radical, center_dim, blocks, is_cstar,
                               "ok", seed, rng_attempts, norms, notes,
                               block_bases=tuple(bases),
                               irreducible_bases=_irreducible_copies(a, rep, bases, sizes, seed))


def _irreducible_copies(a: StarAlgebra, rep: Representation, bases: list,
                        sizes: list, seed: int) -> tuple:
    """For each block subspace V (basis Q, block size d) an orthonormal
    basis of one irreducible subspace inside it, or None.

    Right multiplication commutes with the left regular representation, and
    for a hermitian h it is self-adjoint in the trace inner product
    tau(f* g), tau being a trace: rho(h) = proj R_h basis.  On V, the d x d
    matrix summand, its eigenvalues are those of h's component there, each
    d times, and the eigenvectors of the smallest eigenvalue span one
    irreducible copy, of dimension d.  h is drawn from a seeded stream of
    its own.  A block keeps None when its size is 1, or when the lowest
    cluster of Q* rho(h) Q (clusters split at the structure report's gap)
    does not hold exactly d eigenvalues.
    """
    if all(d == 1 for d in sizes):
        return tuple(None for _ in bases)
    h = _hermitian_probe(a, seed)
    rho = rep._proj @ np.tensordot(a.struct, h, axes=(2, 0)) @ rep._basis
    copies = []
    for q, d in zip(bases, sizes):
        if d == 1:
            copies.append(None)
            continue
        local = q.conj().T @ rho @ q
        eigvals, eigvecs = np.linalg.eigh(0.5 * (local + local.conj().T))
        gap = 1e-6 * max(1.0, float(np.max(np.abs(eigvals))))
        splits = np.flatnonzero(np.diff(eigvals) > gap)
        copies.append(q @ eigvecs[:, :d] if splits.size and splits[0] == d - 1 else None)
    return tuple(copies)


def _hermitian_probe(a: StarAlgebra, seed: int) -> np.ndarray:
    """A random hermitian element v + v*, from the stream [seed, 1], apart
    from the streams seed + attempt that split the center."""
    rng = np.random.default_rng([seed, 1])
    v = rng.standard_normal(a.dimension) + 1j * rng.standard_normal(a.dimension)
    return v + a.star_vec(v)


def _generator_norms(stack: np.ndarray) -> tuple:
    """The operator norm of each pi(e_k), from the rows and columns it
    touches: deleting zero rows and columns keeps the singular values."""
    norms = []
    for m in stack:
        rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
        norms.append(float(np.linalg.norm(m[np.ix_(rows, cols)], 2)) if len(rows) else 0.0)
    return tuple(norms)


def _quotient_algebra(a: StarAlgebra, rep: Representation) -> StarAlgebra:
    """The image of a in its GNS representation, as an abstract algebra."""
    t_mat, proj = rep._basis, rep._proj
    r = t_mat.shape[1]
    struct = np.zeros((r, r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            prod = a.multiply(t_mat[:, i], t_mat[:, j])
            struct[:, i, j] = proj @ prod
    invol = np.zeros((r, r), dtype=complex)
    for i in range(r):
        invol[:, i] = proj @ a.star_vec(t_mat[:, i])
    return StarAlgebra(tuple(range(r)), struct, invol, provenance="semisimple quotient")


# ---------------------------------------------------------------------------
# crossed products and algebra actions


def crossed_product(a: FellBundle, g: BundleAction) -> StarAlgebra:
    """Sections of the semidirect-product bundle: the crossed product by g."""
    alg = section_algebra(semidirect_fell_bundle(a, g))
    alg.provenance = "crossed product"
    return alg


@dataclass(eq=False)
class AlgebraAction:
    """A group acting on a *-algebra by *-automorphism matrices."""

    group: object
    algebra: StarAlgebra
    matrices: dict
    side: str = "left"

    def apply(self, t, v) -> np.ndarray:
        return self.matrices[t] @ v


def check_algebra_action(act: AlgebraAction, tol: float = DEFAULT_TOL) -> ValidationReport:
    rep = ValidationReport(subject="group action on a *-algebra")
    g, a = act.group, act.algebra
    n = a.dimension
    bad = next((t for t in g.elements
                if t not in act.matrices or act.matrices[t].shape != (n, n)), None)
    rep.add("matrices present with matching shapes", bad is None,
            fmt(bad) if bad is not None else None)
    if bad is not None:
        return rep
    d = deviation(act.matrices[g.identity], np.eye(n))
    rep.add("identity acts trivially", d <= tol)
    worst, _i = worst_residual([
        deviation(act.matrices[s] @ act.matrices[t],
                  act.matrices[g.mul(s, t) if act.side == "left" else g.mul(t, s)])
        for s in g.elements for t in g.elements])
    rep.record_metric("group law", worst)
    rep.add("group law", worst <= tol)
    res = []
    struct = _coo(a.struct)
    for t in g.elements:
        u = act.matrices[t]
        res.append(_coo_residual((struct, (u.T, None, None)), (struct, (None, u, u))))
        res.append(deviation(u @ a.invol, a.invol @ np.conjugate(u)))
    worst, _i = worst_residual(res)
    rep.record_metric("automorphism", worst)
    rep.add("acts by *-automorphisms", worst <= tol)
    return rep
