"""The sparse law kernels of algebras.py against dense reference loops.

``dense_associativity`` and ``dense_multiplicativity`` are the dense
computations the kernels replaced: one n x n x n product per basis element
for associativity, and pi(e_i) pi(e_j) against sum_k struct[k,i,j] pi(e_k)
over every k for the regular representation.  The kernels sum the same
products over the nonzero structure constants only, in another order, so
finite metrics agree to a tolerance set by double-precision roundoff and a
non-finite input reads NaN on both sides.
"""

import numpy as np
import pytest

import groupoidal.algebras as algebras
from groupoidal import (
    check_star_algebra,
    opposite,
    quotient_fell_bundle,
    regular_representation,
    section_algebra,
    StarAlgebra,
)
from groupoidal import bundles
from groupoidal.instances import matrix_algebra, random_free_action_instance

from test_algebras import _conjugate_basis

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
