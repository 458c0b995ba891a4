"""The sparse law kernels of algebras.py against dense reference loops.

``dense_associativity`` and ``dense_multiplicativity`` are the dense
computations the kernels replaced: one n x n x n product per basis element
for associativity, and pi(e_i) pi(e_j) against sum_k struct[k,i,j] pi(e_k)
over every k for the regular representation.  ``dense_antihomomorphism``
and ``dense_transport`` contract the dense tensor with two n x n matrices,
as the involution law, the isomorphism check and the automorphism check
did, and ``dense_representation`` is the regular representation from one
eigensolve of the whole trace form.  The kernels sum the same products over
the nonzero structure constants only, in another order, so finite metrics
agree to a tolerance set by double-precision roundoff and a non-finite
input reads NaN on both sides.
"""

import numpy as np
import pytest

import groupoidal.algebras as algebras
from groupoidal import (
    AlgebraAction,
    FellBundle,
    check_algebra_action,
    check_star_algebra,
    opposite,
    quotient_fell_bundle,
    regular_representation,
    section_algebra,
    StarAlgebra,
    validate_fell_bundle,
)
from groupoidal import bundles
from groupoidal._util import deviation
from groupoidal.instances import cyclic_group, matrix_algebra, random_free_action_instance

from conftest import AlgebraIso, verify_algebra_iso
from test_algebras import _conjugate_basis, _unit_plus_nilpotent

AGREE = 1e-12  # relative to max(1, reference)


def dense_associativity(struct: np.ndarray) -> float:
    """max |(e_i e_j) e_b - e_i (e_j e_b)| with one dense product per i."""
    n = struct.shape[0]
    lstack = np.transpose(struct, (1, 0, 2))  # lstack[i] = left mult by e_i
    worst = [np.max(np.abs(np.tensordot(struct[:, i, :].T, lstack, axes=([1], [0]))
                           - lstack[i] @ lstack))
             for i in range(n)]
    return float(np.max(worst)) if worst else 0.0


def dense_multiplicativity(struct: np.ndarray, stack: np.ndarray) -> float:
    """max |pi(e_i) pi(e_j) - pi(e_i e_j)|, pi(e_i e_j) summed over every k."""
    worst = [np.max(np.abs(stack[i] @ stack
                           - np.tensordot(struct[:, i, :], stack, axes=(0, 0))))
             for i in range(struct.shape[0])]
    return float(np.max(worst)) if worst else 0.0


def dense_antihomomorphism(alg: StarAlgebra) -> float:
    """max |(e_i e_j)* - e_j* e_i*| from the dense tensor."""
    lhs = np.einsum("kl,lij->kij", alg.invol, np.conjugate(alg.struct))
    rhs = np.einsum("kab,aj,bi->kij", alg.struct, alg.invol, alg.invol, optimize=True)
    return deviation(lhs, rhs)


def dense_transport(source: np.ndarray, target: np.ndarray, u: np.ndarray) -> float:
    """max |u (e_i e_j) - (u e_i)(u e_j)| from the dense tensors."""
    lhs = np.einsum("kl,lij->kij", u, source)
    rhs = np.einsum("kab,ai,bj->kij", target, u, u, optimize=True)
    return deviation(lhs, rhs)


def transported(alg: StarAlgebra, u: np.ndarray) -> StarAlgebra:
    """The algebra on the images u e_k of a unitary u, so that u is an
    isomorphism onto it."""
    ui = u.conj().T
    struct = np.einsum("Kk,kij,iI,jJ->KIJ", u, alg.struct, ui, ui, optimize=True)
    return StarAlgebra(alg.basis, struct, u @ alg.invol @ np.conjugate(ui))


def agree(value, reference):
    if np.isnan(reference):
        return np.isnan(value)
    return abs(value - reference) <= AGREE * max(1.0, abs(reference))


def section_algebras(seed: int, fiber_dim: int) -> list:
    """Sections of a seeded random bundle with fibers of the given dimension,
    of its quotient by a free action, and of the opposite quotient."""
    rng = np.random.default_rng(2000 + seed)
    while True:
        bundle, hba = random_free_action_instance(rng)
        if max(bundle.dim.values()) == fiber_dim:
            break
    quotient, _qm = quotient_fell_bundle(bundle, hba)
    return [section_algebra(b) for b in (bundle, quotient, opposite(quotient))]


def corrupted(alg: StarAlgebra, kind: str, rng) -> StarAlgebra:
    """A copy with one nonzero structure constant changed.

    "noise" adds complex noise, "scaled" multiplies by 1.5 (the residual it
    causes is attained at several places at once), "nan" writes NaN.
    """
    struct = alg.struct.copy()
    nonzero = np.argwhere(struct != 0)
    at = tuple(nonzero[int(rng.integers(len(nonzero)))])
    if kind == "noise":
        struct[at] += 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
    elif kind == "scaled":
        struct[at] *= 1.5
    else:
        struct[at] = np.nan
    return StarAlgebra(alg.basis, struct, alg.invol.copy())


def algebras_under_test():
    # dimensions 2 to 32; the dense references cost n^5
    cases = []
    for seed in range(3):
        for fiber_dim in (1, 2):
            cases += [(f"sections{fiber_dim}_seed{seed}_{k}", alg)
                      for k, alg in enumerate(section_algebras(seed, fiber_dim))
                      if alg.dimension <= 32]
    rng = np.random.default_rng(17)
    cases.append(("m3_random_basis", _conjugate_basis(matrix_algebra(3), rng)))
    return cases


CASES = algebras_under_test()


@pytest.mark.parametrize("name,alg", CASES, ids=[name for name, _ in CASES])
@pytest.mark.parametrize("kind", ["clean", "noise", "scaled", "nan"])
def test_associativity_kernel_matches_dense_reference(name, alg, kind):
    if kind != "clean":
        alg = corrupted(alg, kind, np.random.default_rng(len(name)))
    reference = dense_associativity(alg.struct)
    metric = check_star_algebra(alg).metrics["associativity"]
    assert agree(metric, reference), (metric, reference)
    assert agree(algebras._associativity_residual(alg.struct), reference)
    if kind in ("noise", "nan"):
        assert not check_star_algebra(alg).ok


@pytest.mark.parametrize("name,alg", CASES, ids=[name for name, _ in CASES])
@pytest.mark.parametrize("kind", ["clean", "noise", "scaled", "nan"])
def test_multiplicativity_kernel_matches_dense_reference(name, alg, kind):
    # the representation of the clean algebra, checked against the
    # (possibly corrupted) structure constants
    stack = regular_representation(alg).stack()
    struct = alg.struct
    if kind != "clean":
        struct = corrupted(alg, kind, np.random.default_rng(len(name))).struct
    reference = dense_multiplicativity(struct, stack)
    metric = algebras._multiplicativity_residual(struct, stack)
    assert agree(metric, reference), (metric, reference)


@pytest.mark.parametrize("kind", ["clean", "noise", "scaled"])
def test_regular_representation_residual_matches_dense_reference(kind):
    for name, alg in CASES:
        if kind != "clean":
            alg = corrupted(alg, kind, np.random.default_rng(len(name)))
        rep = regular_representation(alg)
        reference = dense_multiplicativity(alg.struct, rep.stack())
        assert agree(rep.mult_residual, reference), (name, rep.mult_residual, reference)


@pytest.mark.parametrize("chunk", [1, 7, 64, 500])
def test_kernels_span_several_chunks(chunk, monkeypatch):
    # small chunks start and end inside the row of one i, and split the
    # constants of one pi(e_i), runs of equal j included, across chunks; the
    # metrics must not change
    rng = np.random.default_rng(5)
    cases = [alg for _name, alg in CASES if 8 <= alg.dimension <= 16]
    cases += [corrupted(alg, "noise", rng) for alg in cases]
    expected = []
    for alg in cases:
        stack = regular_representation(alg).stack()
        expected.append((dense_associativity(alg.struct),
                         dense_multiplicativity(alg.struct, stack), stack))
    monkeypatch.setattr(bundles, "_CHUNK", chunk)
    for alg, (assoc, mult, stack) in zip(cases, expected):
        assert agree(algebras._associativity_residual(alg.struct), assoc)
        assert agree(algebras._multiplicativity_residual(alg.struct, stack), mult)


def test_empty_algebra_has_zero_residuals():
    empty = StarAlgebra((), np.zeros((0, 0, 0), dtype=complex), np.zeros((0, 0), dtype=complex))
    assert check_star_algebra(empty).metrics["associativity"] == 0.0
    rep = regular_representation(empty)
    assert rep.mult_residual == 0.0 and rep.size == 0


KINDS = ["clean", "noise", "scaled", "nan"]


@pytest.mark.parametrize("chunk", [1, 7, 64, 500])
@pytest.mark.parametrize("kind", KINDS)
def test_contraction_helper_matches_dense_references(kind, chunk, monkeypatch):
    # the involution law, the isomorphism check (a permutation, as in the
    # corner identification, and a random unitary) and the automorphism
    # check, each on a copy that may be corrupted; the chunks split the
    # joins of one entry with a row of a matrix across several chunks
    monkeypatch.setattr(bundles, "_CHUNK", chunk)
    for name, clean in CASES:
        rng = np.random.default_rng(len(name))
        alg = clean if kind == "clean" else corrupted(clean, kind, rng)
        n = alg.dimension
        metric = check_star_algebra(alg).metrics["antihomomorphism"]
        assert agree(metric, dense_antihomomorphism(alg)), (name, metric)

        # a permuted copy is the image of the permutation; the image of the
        # unitary would be dense, so the unitary maps into the clean algebra
        perm = np.eye(n, dtype=complex)[:, rng.permutation(n)]
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for u, target in ((perm, transported(clean, perm)), (np.linalg.qr(z)[0], clean)):
            metric = verify_algebra_iso(AlgebraIso(alg, target, u)).metrics["multiplicativity"]
            reference = dense_transport(alg.struct, target.struct, u)
            assert agree(metric, reference), (name, metric, reference)

            act = AlgebraAction(cyclic_group(2), alg, {0: np.eye(n, dtype=complex), 1: u})
            metric = check_algebra_action(act).metrics["automorphism"]
            reference = float(np.max([dense_transport(alg.struct, alg.struct, m)
                                      for m in act.matrices.values()]
                                     + [deviation(u @ alg.invol, alg.invol @ np.conjugate(u))]))
            assert agree(metric, reference), (name, metric, reference)


def test_star_residual_matches_dense_reference():
    for name, alg in CASES:
        rep = regular_representation(alg)
        stack = rep.stack()
        reference = deviation(np.conjugate(stack.transpose(0, 2, 1)),
                              np.tensordot(alg.invol.T, stack, axes=(1, 0)))
        assert agree(rep.star_residual, reference), (name, rep.star_residual, reference)


def test_trace_form_of_sections_splits_per_arrow():
    # tau(e_i* e_j) vanishes unless e_i and e_j lie over one arrow, so each
    # component of its pattern lies over one arrow; with 1-dim fibers, and
    # with 2-dim fibers whose own trace form is not diagonal, each arrow is
    # one component
    def components(alg):
        comp = algebras._pattern_components(algebras._trace_form(alg) != 0)
        by_comp = {}
        for (x, _i), c in zip(alg.basis, comp):
            by_comp.setdefault(c, set()).add(x)
        assert all(len(arrows) == 1 for arrows in by_comp.values())
        # each basis vector of the representation lives over one arrow
        for column in regular_representation(alg)._basis.T:
            assert len({alg.basis[i][0] for i in np.flatnonzero(column)}) == 1
        return len(by_comp), len({x for x, _i in alg.basis})

    for seed in range(3):
        for alg in section_algebras(seed, 1):
            n_comp, n_arrows = components(alg)
            assert n_comp == n_arrows
        for alg in section_algebras(seed, 2):
            components(alg)
    bundle = unit_and_projection_bundle(3)
    assert validate_fell_bundle(bundle).ok
    n_comp, n_arrows = components(section_algebra(bundle))
    assert n_comp == n_arrows == 3


def unit_and_projection_bundle(order: int) -> FellBundle:
    """The bundle over Z/order whose fibers are C^2 in the basis (1, p), p a
    rank-one projection: sections are C[Z/order] (x) C^2, and the trace form
    of a fiber, [[tau(1), tau(p)], [tau(p), tau(p)]], is not diagonal."""
    struct = np.zeros((2, 2, 2), dtype=complex)
    struct[0, 0, 0] = struct[1, 0, 1] = struct[1, 1, 0] = struct[1, 1, 1] = 1.0
    grp = cyclic_group(order)
    return FellBundle(grp, {x: 2 for x in grp.arrows},
                      {pair: struct.copy() for pair in grp.composable_pairs()},
                      {x: np.eye(2, dtype=complex) for x in grp.arrows})


def test_dense_trace_forms_are_one_component():
    # a random basis, and the semisimple image of an algebra with a radical
    # in a random basis, have trace forms with no zero pattern
    rng = np.random.default_rng(23)
    m3 = dict(CASES)["m3_random_basis"]
    mixed = _conjugate_basis(direct_sum(matrix_algebra(2), _unit_plus_nilpotent()), rng)
    rep = regular_representation(mixed)
    assert rep.gram_rank == mixed.dimension - 1
    image = algebras._quotient_algebra(mixed, rep)
    for alg in (m3, image):
        comp = algebras._pattern_components(algebras._trace_form(alg) != 0)
        assert set(comp) == {0}


def direct_sum(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    n, m = a.dimension, b.dimension
    struct = np.zeros((n + m,) * 3, dtype=complex)
    struct[:n, :n, :n], struct[n:, n:, n:] = a.struct, b.struct
    invol = np.zeros((n + m,) * 2, dtype=complex)
    invol[:n, :n], invol[n:, n:] = a.invol, b.invol
    return StarAlgebra(tuple(range(n + m)), struct, invol)


@pytest.mark.parametrize("name,alg", CASES, ids=[name for name, _ in CASES])
def test_representation_matches_one_eigensolve(name, alg):
    # per-component eigensolves give the representation of one eigensolve
    # of the whole trace form up to a unitary change of basis, so the
    # invariants the certificates read agree: the spectrum of each pi(e_k)
    # pi(e_k)*, the spectrum of the Gram of all pi(e_k), and the rank
    rep = regular_representation(alg)
    stack = rep.stack()
    reference = dense_representation(alg)
    assert stack.shape == reference.shape
    for m, ref in zip(stack, reference):
        assert np.allclose(np.linalg.eigvalsh(m @ m.conj().T),
                           np.linalg.eigvalsh(ref @ ref.conj().T), atol=1e-10)
    flat, ref_flat = stack.reshape(len(stack), -1), reference.reshape(len(stack), -1)
    assert np.allclose(flat @ flat.conj().T, ref_flat @ ref_flat.conj().T, atol=1e-10)


def dense_representation(alg: StarAlgebra, tol: float = 1e-9) -> np.ndarray:
    """pi(e_k) = proj L_k basis from one eigensolve of the whole trace form."""
    gram = algebras._trace_form(alg)
    gram = 0.5 * (gram + gram.conj().T)
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > tol * max(1.0, float(np.max(np.abs(vals))))
    basis = vecs[:, keep] / np.sqrt(vals[keep])
    proj = basis.conj().T @ gram
    return np.array([proj @ alg.struct[:, k, :] @ basis for k in range(alg.dimension)])


@pytest.mark.parametrize("name,alg", CASES, ids=[name for name, _ in CASES])
def test_generator_norms_match_dense_norms(name, alg):
    stack = regular_representation(alg).stack()
    norms = algebras._generator_norms(stack)
    for value, m in zip(norms, stack):
        assert abs(value - np.linalg.norm(m, 2)) <= AGREE * max(1.0, np.linalg.norm(m, 2))


def reference_section_algebra(b) -> StarAlgebra:
    """Sections by the loop over every fiber product and star entry."""
    basis = tuple((x, i) for x in b.base.arrows for i in range(b.dim[x]))
    idx = {lbl: k for k, lbl in enumerate(basis)}
    n = len(basis)
    struct = np.zeros((n, n, n), dtype=complex)
    for (x, y), tensor in b.mult.items():
        xy = b.base.comp[(x, y)]
        for i in range(b.dim[x]):
            for j in range(b.dim[y]):
                for k in range(b.dim[xy]):
                    if tensor[k, i, j] != 0:
                        struct[idx[(xy, k)], idx[(x, i)], idx[(y, j)]] = tensor[k, i, j]
    invol = np.zeros((n, n), dtype=complex)
    for x in b.base.arrows:
        for i in range(b.dim[x]):
            for k in range(b.dim[b.base.inv[x]]):
                if b.star[x][k, i] != 0:
                    invol[idx[(b.base.inv[x], k)], idx[(x, i)]] = b.star[x][k, i]
    return StarAlgebra(basis, struct, invol)


@pytest.mark.parametrize("seed", range(6))
def test_section_algebra_matches_loop_reference(seed):
    rng = np.random.default_rng(3000 + seed)
    bundle, hba = random_free_action_instance(rng)
    quotient, _qm = quotient_fell_bundle(bundle, hba)
    for b in (bundle, quotient, opposite(quotient)):
        alg, ref = section_algebra(b), reference_section_algebra(b)
        assert alg.basis == ref.basis
        assert np.array_equal(alg.struct, ref.struct)
        assert np.array_equal(alg.invol, ref.invol)
