"""Section *-algebras of finite Fell bundles and their structure reports.

The section algebra carries the convolution product with counting Haar
weights, (f*g)(x) = sum over y with rng(y) == rng(x) of f(y)g(inv(y)x), and
the involution f*(x) = (f(inv x))*.  Structure constants are stored densely:
struct[k, i, j] is the k-th coordinate of e_i e_j, and invol[:, i] holds the
coordinates of e_i* (the involution acts antilinearly, v* = invol @ conj(v)).
A section algebra has few nonzero structure constants (one fiber product per
composable pair), so the associativity law and the multiplicativity of the
regular representation are checked by joining the nonzero constants, in
chunks of at most ``bundles._CHUNK`` terms, rather than on dense n^4 tensors.

C*-certification is numerical: the trace form of the left regular
representation must be positive definite (no radical) and the induced
representation faithful, multiplicative, and star-preserving to tolerance.
The structure report splits that representation into its Wedderburn blocks
(the simple matrix-algebra summands) and keeps an orthonormal basis of each
block's subspace, so that Gram matrices can be diagonalized block by block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bundles
from ._util import deviation, fmt, worst_residual
from .bundles import (
    BundleAction,
    FellBundle,
    make_trivial_cbundle,
    quotient_fell_bundle,
    semidirect_fell_bundle,
)
from .groupoids import FiniteGroup, GroupAction, SpaceAction
from .report import InvalidStructureError, ValidationReport

DEFAULT_TOL = 1e-9


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

    def left_matrix(self, v) -> np.ndarray:
        return np.einsum("kij,i->kj", self.struct, v)

    def right_matrix(self, v) -> np.ndarray:
        return np.einsum("kij,j->ki", self.struct, v)

    def unit(self, tol: float = DEFAULT_TOL) -> np.ndarray | None:
        """Coordinates of the multiplicative unit, or None if there is none."""
        n = self.dimension
        if n == 0:
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

    lhs = np.einsum("kl,lij->kij", invol, np.conjugate(struct))
    rhs = np.einsum("kab,aj,bi->kij", struct, invol, invol, optimize=True)
    d = deviation(lhs, rhs)
    rep.record_metric("antihomomorphism", d)
    rep.add("(ab)* == b*a*", d <= tol)
    return rep


def _nonzeros(struct: np.ndarray) -> tuple:
    """The nonzero structure constants as arrays (k, i, j, value), ordered by
    (i, j, k): struct[k, i, j] == value is the k-th coordinate of e_i e_j."""
    i, j, k = np.nonzero(struct.transpose(1, 2, 0))
    return k, i, j, struct[k, i, j]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The positions in the ranges [lo, hi), concatenated, and for each the
    index of the range it came from."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(int(counts.sum())) - first[owner] + lo[owner]


def _associativity_residual(struct: np.ndarray) -> float:
    """max |(e_i e_j) e_b - e_i (e_j e_b)| over all basis triples and coordinates.

    The coordinate a of the residual at (i, j, b) is
    sum_k s[k,i,j] s[a,k,b] - sum_c s[a,i,c] s[c,j,b], a sum over pairs of
    nonzero constants joined on k (or c).  The pairs are generated in chunks of
    consecutive (i, j), each of at most ``bundles._CHUNK`` terms unless a single
    (i, j) has more, and summed per coordinate.  A coordinate no pair reaches is
    zero on both sides.  A non-finite constant gives NaN, as it does in the dense
    products (NaN times the zeros of the other factor).
    """
    n = struct.shape[0]
    if not np.isfinite(struct).all():
        return float("nan")
    k, i, j, v = _nonzeros(struct)
    if not len(v):
        return 0.0
    ij = i * n + j  # nondecreasing
    # the rows with i == m are by_middle[m]:by_middle[m + 1]
    by_middle = np.searchsorted(i, np.arange(n + 1))
    fm_order = np.lexsort((i, k))  # rows ordered by (k, i)
    fm_keys = (k * n + i)[fm_order]
    count_mid = np.diff(by_middle)

    # terms per (i, j): left side sum over rows (k,i,j) of the rows with middle k;
    # right side sum over c of #rows (a,i,c) times #rows (c,j,b)
    lhs_terms = np.bincount(ij, weights=count_mid[k], minlength=n * n)
    rows_ml = np.bincount(ij, minlength=n * n).reshape(n, n).astype(float)
    rows_fm = np.bincount(k * n + i, minlength=n * n).reshape(n, n).astype(float)
    cum = np.cumsum(lhs_terms + (rows_ml @ rows_fm).ravel())

    worst, p0 = 0.0, 0
    while p0 < n * n:
        done = cum[p0 - 1] if p0 else 0.0
        p1 = max(p0 + 1, int(np.searchsorted(cum, done + bundles._CHUNK, side="right")))
        p1 = min(p1, n * n)
        # (e_i e_j) e_b: rows t = (k,i,j) with p0 <= (i,j) < p1, each joined
        # with the rows u = (a,k,b)
        t = np.arange(*np.searchsorted(ij, [p0, p1]))
        owner, u = _ranges(by_middle[k[t]], by_middle[k[t] + 1])
        t = t[owner]
        coords = [((ij[t] - p0) * n + k[u]) * n + j[u]]
        terms = [v[t] * v[u]]
        # e_i (e_j e_b): rows t = (a,i,c), each joined with the rows u = (c,j,b)
        # whose (i, j) lies in the chunk
        i0, i1 = p0 // n, (p1 - 1) // n
        t = np.arange(by_middle[i0], by_middle[i1 + 1])
        j_lo = np.where(i[t] == i0, p0 - i0 * n, 0)
        j_hi = np.where(i[t] == i1, p1 - i1 * n, n)
        owner, pos = _ranges(np.searchsorted(fm_keys, j[t] * n + j_lo),
                             np.searchsorted(fm_keys, j[t] * n + j_hi))
        t, u = t[owner], fm_order[pos]
        coords.append(((i[t] * n + i[u] - p0) * n + k[t]) * n + j[u])
        terms.append(-v[t] * v[u])
        coords, terms = np.concatenate(coords), np.concatenate(terms)
        if len(terms):
            _keys, where = np.unique(coords, return_inverse=True)
            sums = (np.bincount(where, weights=terms.real)
                    + 1j * np.bincount(where, weights=terms.imag))
            worst = max(worst, float(np.max(np.abs(sums))))
        p0 = p1
    return worst


# ---------------------------------------------------------------------------
# section algebras


def section_algebra(b: FellBundle) -> StarAlgebra:
    """Convolution *-algebra of all sections of a finite Fell bundle."""
    g = b.base
    basis = tuple((x, i) for x in g.arrows for i in range(b.dim[x]))
    idx = {lbl: k for k, lbl in enumerate(basis)}
    n = len(basis)
    struct = np.zeros((n, n, n), dtype=complex)
    for (x, y), tensor in b.mult.items():
        xy = g.comp[(x, y)]
        for i in range(b.dim[x]):
            for j in range(b.dim[y]):
                col = tensor[:, i, j]
                for k in range(b.dim[xy]):
                    if col[k] != 0:
                        struct[idx[(xy, k)], idx[(x, i)], idx[(y, j)]] += col[k]
    invol = np.zeros((n, n), dtype=complex)
    for x in g.arrows:
        xi = g.inv[x]
        for i in range(b.dim[x]):
            for k in range(b.dim[xi]):
                if b.star[x][k, i] != 0:
                    invol[idx[(xi, k)], idx[(x, i)]] = b.star[x][k, i]
    return StarAlgebra(basis, struct, invol, provenance="sections")


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


def subalgebra(a: StarAlgebra, keep, provenance: str | None = None) -> StarAlgebra:
    """Restrict to a basis subset; requires closure under product and star."""
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


# ---------------------------------------------------------------------------
# regular representation and structure reports


@dataclass(eq=False)
class Representation:
    """Matrices of the basis elements in a GNS-style orthonormal basis."""

    size: int
    matrices: list
    faithful: bool
    gram_rank: int
    gram_min_eig: float
    mult_residual: float
    star_residual: float
    notes: list = field(default_factory=list)
    _stack: np.ndarray = field(default=None, repr=False)
    # orthonormal basis of the representation space (columns, in algebra
    # coordinates) and the projection onto its coordinates
    _basis: np.ndarray = field(default=None, repr=False)
    _proj: np.ndarray = field(default=None, repr=False)

    def stack(self) -> np.ndarray:
        if self._stack is None:
            self._stack = np.array(self.matrices)
        return self._stack

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

    def block_stacks(self, bases, tol: float = DEFAULT_TOL) -> list:
        """pi compressed to the subspaces spanned by ``bases``: for each
        orthonormal column basis Q the stack of Q* pi(e_k) Q.

        The bases are meant to be a structure report's ``block_bases`` for
        this representation.  If they do not cover the space, or some pi(e_k)
        moves a subspace off itself (|pi(e_k) Q - Q Q* pi(e_k) Q| above
        max(tol, 1e-8)), the whole stack is the single block.
        """
        stack = self.stack()
        if not bases or sum(q.shape[1] for q in bases) != self.size:
            return [stack]
        blocks = []
        for q in bases:
            moved = stack @ q
            block = q.conj().T @ moved
            if not deviation(moved, q @ block) <= max(tol, 1e-8):
                return [stack]
            blocks.append(block)
        return blocks


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

    The multiplicativity residual compares pi(e_i) pi(e_j), one product with
    the (r, n*r) stack of all pi(e_j) per i, against pi(e_i e_j), summed
    from the nonzero constants struct[k, i, j].
    """
    n = a.dimension
    lstack = np.transpose(a.struct, (1, 0, 2))
    tr = np.array([np.trace(lstack[k]) for k in range(n)])
    # gram[i, j] = tau(e_i* e_j)
    prod_tr = np.einsum("kaj,k->aj", a.struct, tr)
    gram = np.einsum("ai,aj->ij", a.invol, prod_tr)
    if not np.isfinite(gram).all():
        nan, empty = float("nan"), np.zeros((n, 0, 0), dtype=complex)
        return Representation(
            size=0, matrices=list(empty), faithful=False, gram_rank=0,
            gram_min_eig=nan, mult_residual=nan, star_residual=nan,
            notes=["trace form not finite"], _stack=empty,
            _basis=np.zeros((n, 0), dtype=complex), _proj=np.zeros((0, n), dtype=complex))
    herm_defect = deviation(gram, gram.conj().T)
    gram = 0.5 * (gram + gram.conj().T)
    eigvals, eigvecs = np.linalg.eigh(gram) if n else (np.zeros(0), np.zeros((0, 0)))
    scale = max(1.0, float(np.max(np.abs(eigvals))) if n else 1.0)
    keep = eigvals > tol * scale
    rank = int(np.count_nonzero(keep))
    min_eig = float(np.min(eigvals)) if n else 0.0

    basis_t = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    proj = basis_t.conj().T @ gram  # coordinates in the orthonormal basis
    mats = [proj @ lstack[k] @ basis_t for k in range(n)]
    stack = np.array(mats) if n else np.zeros((0, 0, 0), dtype=complex)

    mult_res, star_res = 0.0, 0.0
    if stack.size:
        mult_res = _multiplicativity_residual(a.struct, stack)
        adj = np.conjugate(np.transpose(stack, (0, 2, 1)))
        star_res = deviation(adj, np.tensordot(a.invol.T, stack, axes=(1, 0)))

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
        matrices=mats,
        faithful=faithful,
        gram_rank=rank,
        gram_min_eig=min_eig,
        mult_residual=mult_res,
        star_residual=star_res,
        notes=notes,
        _stack=stack,
        _basis=basis_t,
        _proj=proj,
    )


def _multiplicativity_residual(struct: np.ndarray, stack: np.ndarray) -> float:
    """max |pi(e_i) pi(e_j) - sum_k struct[k,i,j] pi(e_k)| over i, j, NaN propagating.

    For each i the products with every pi(e_j) come from one GEMM against
    the (r, n*r) stack; the nonzero constants of e_i e_j are then subtracted,
    at most ``bundles._CHUNK`` matrix entries at a time (or one matrix).
    """
    n, r = stack.shape[0], stack.shape[1]
    wide = stack.transpose(1, 0, 2).reshape(r, n * r)
    k, i, j, v = _nonzeros(struct)
    by_middle = np.searchsorted(i, np.arange(n + 1))
    step = max(1, bundles._CHUNK // (r * r))
    worst = []
    for m in range(n):
        prod = stack[m] @ wide
        diff = prod.reshape(r, n, r).transpose(1, 0, 2)  # diff[j] is a view into prod
        for lo in range(by_middle[m], by_middle[m + 1], step):
            t = np.arange(lo, min(lo + step, by_middle[m + 1]))
            # rows are ordered by j within i: sum each run of equal j
            starts = np.flatnonzero(np.r_[True, j[t][1:] != j[t][:-1]])
            diff[j[t][starts]] -= np.add.reduceat(v[t, None, None] * stack[k[t]], starts)
        worst.append(np.max(np.abs(prod)))
    return worst_residual(worst)[0]


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"dimension {self.dimension}, radical {self.radical_dimension}, "
            f"center {self.center_dimension}",
            f"blocks {sorted(self.blocks)}",
            f"C* certified: {self.is_cstar}  status: {self.status}  "
            f"seed: {self.seed}",
        ]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def _center_basis(a: StarAlgebra, tol: float) -> np.ndarray:
    """Rows span the commutant {c : c e_j == e_j c for all j}."""
    n = a.dimension
    if n == 0:
        return np.zeros((0, 0))
    mats = np.concatenate([(a.struct[:, :, j] - a.struct[:, j, :])
                           for j in range(n)], axis=0)
    # the stack has n*n >= n rows, so vh is n x n
    _u, s, vh = np.linalg.svd(mats, full_matrices=False)
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
    ``block_bases``.  ``representation``, if given, is
    ``regular_representation(a, tol)`` already computed; it is read, never
    changed.
    """
    n = a.dimension
    law_rep = check_star_algebra(a, max(tol, 1e-8))
    notes = [f"algebra law violation: {c.name}" for c in law_rep.failures()]

    rep = representation if representation is not None else regular_representation(a, tol)
    radical = n - rep.gram_rank
    notes += rep.notes
    norms = tuple(float(np.linalg.norm(m, 2)) if m.size else 0.0 for m in rep.matrices)

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
    return StarStructureReport(n, radical, center_dim, blocks, is_cstar,
                               "ok", seed, rng_attempts, norms, notes,
                               block_bases=tuple(bases) if radical == 0 else ())


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
# crossed products and induced algebras


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
    for t in g.elements:
        u = act.matrices[t]
        res.append(deviation(np.einsum("kl,lij->kij", u, a.struct),
                             np.einsum("kab,ai,bj->kij", a.struct, u, u)))
        res.append(deviation(u @ a.invol, a.invol @ np.conjugate(u)))
    worst, _i = worst_residual(res)
    rep.record_metric("automorphism", worst)
    rep.add("acts by *-automorphisms", worst <= tol)
    return rep


@dataclass(eq=False)
class AlgebraIso:
    source: StarAlgebra
    target: StarAlgebra
    matrix: np.ndarray


def verify_algebra_iso(iso: AlgebraIso, tol: float = DEFAULT_TOL) -> ValidationReport:
    rep = ValidationReport(subject="algebra isomorphism")
    n, m = iso.source.dimension, iso.target.dimension
    u = iso.matrix
    rep.add("square and invertible", n == m and u.shape == (m, n)
            and (n == 0 or np.linalg.matrix_rank(u) == n))
    if not rep.ok:
        return rep
    lhs = np.einsum("kl,lij->kij", u, iso.source.struct)
    rhs = np.einsum("kab,ai,bj->kij", iso.target.struct, u, u, optimize=True)
    d = float(np.max(np.abs(lhs - rhs))) if n else 0.0
    rep.record_metric("multiplicativity", d)
    rep.add("multiplicative", d <= tol)
    lhs = u @ iso.source.invol
    rhs = iso.target.invol @ np.conjugate(u)
    d = float(np.max(np.abs(lhs - rhs))) if n else 0.0
    rep.record_metric("star preservation", d)
    rep.add("star-preserving", d <= tol)
    return rep


def section_action(ba: BundleAction) -> AlgebraAction:
    """The action on sections induced by a bundle action, (t.f)(x) = t.f(inv t . x)."""
    alg = section_algebra(ba.bundle)
    idx = {lbl: k for k, lbl in enumerate(alg.basis)}
    g = ba.group
    n = alg.dimension
    mats = {}
    for t in g.elements:
        u = np.zeros((n, n), dtype=complex)
        for x in ba.bundle.base.arrows:
            tx = ba.base_action.act[(t, x)]
            fm = ba.fiber_maps[(t, x)]
            for i in range(ba.bundle.dim[x]):
                u[[idx[(tx, k)] for k in range(fm.shape[0])], idx[(x, i)]] = fm[:, i]
        mats[t] = u
    return AlgebraAction(g, alg, mats, side=ba.side)


def induced_algebra(b: StarAlgebra, x_action: SpaceAction,
                    tau: AlgebraAction) -> tuple[StarAlgebra, AlgebraIso]:
    """Equivariant b-valued functions on a free right group-set action.

    Returns the induced algebra together with the isomorphism theta onto the
    sections of the quotient of the constant bundle, theta(f)(orbit of x) =
    the value f(x) at the canonical representative.
    """
    grp = x_action.groupoid
    if x_action.side != "right" or not isinstance(grp, FiniteGroup):
        raise InvalidStructureError("induced_algebra needs a right group action on the set")
    check_algebra_action(tau).require("induced_algebra")
    for t in grp.elements:
        if t == grp.identity:
            continue
        for u in x_action.space:
            if x_action.act[(t, u)] == u:
                raise InvalidStructureError(
                    f"induced_algebra: action not free, {fmt(t)} fixes {fmt(u)}"
                )

    bundle = make_trivial_cbundle(b, x_action.space)
    base_act = GroupAction(
        grp, bundle.base,
        {(t, u): x_action.act[(t, u)] for t in grp.elements for u in x_action.space},
        "right",
    )
    fiber = {(t, u): tau.matrices[grp.inv_elem(t)]
             for t in grp.elements for u in x_action.space}
    diag = BundleAction(grp, bundle, base_act, fiber, "right")
    quot, _qm = quotient_fell_bundle(bundle, diag)
    target = section_algebra(quot)

    reps = tuple(quot.base.arrows)
    basis = tuple((r, i) for r in reps for i in range(b.dimension))
    n = len(basis)
    nb = b.dimension
    struct = np.zeros((n, n, n), dtype=complex)
    invol = np.zeros((n, n), dtype=complex)
    for ri, r in enumerate(reps):
        o = ri * nb
        struct[o:o + nb, o:o + nb, o:o + nb] = b.struct
        invol[o:o + nb, o:o + nb] = b.invol
    ind = StarAlgebra(basis, struct, invol, provenance="induced algebra")

    # theta matches basis labels one for one
    u = np.zeros((n, n), dtype=complex)
    for k, lbl in enumerate(basis):
        u[target.basis.index(lbl), k] = 1.0
    iso = AlgebraIso(ind, target, u)
    verify_algebra_iso(iso).require("induced_algebra")
    return ind, iso
