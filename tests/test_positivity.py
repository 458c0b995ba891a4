"""Positivity margins of equivalence bimodules against a dense reference.

``dense_positivity_margin`` assembles one Gram matrix over all equivalence
sections, inner products between unrelated sections included as zero
blocks, and takes its smallest eigenvalue.  The certificate's margin must
agree with it.
"""

import numpy as np
import pytest

import groupoidal.morita as morita
from groupoidal import (
    BundleAction,
    FellBundle,
    action_from_unit_map,
    coaction_demo,
    identity_fiber_maps,
    linking_system,
    make_pair_groupoid,
    opposite,
    regular_representation,
    star_structure_report,
    symmetric_action_equivalence,
    trivial_line_bundle,
    verify_morita,
)
from groupoidal._util import deviation, fmt
from groupoidal.instances import cyclic_group, matrix_algebra, symmetric_z2z2_bundle

from conftest import bracket_by_search, unverified_linking_system
from test_algebras import _conjugate_basis, _direct_sum_blocks, _unit_plus_nilpotent
from test_morita import _phase_twisted_z2z2, two_dimensional_fiber_instance

AGREE = 1e-12


def dense_positivity_margin(ls, side: str) -> float:
    """Min eigenvalue of the whole-space Gram [pi(<e_i, e_j>)], one dense eigensolve."""
    e = ls.equivalence
    corner = ls.corner_left if side == "left" else ls.corner_right
    pi = regular_representation(corner)
    r = pi.size
    idx = {lbl: k for k, lbl in enumerate(corner.basis)}
    tag = "p" if side == "left" else "q"
    base, base_op = e.base, opposite(e.base)
    z_basis = [(z, i) for z in base.space for i in range(e.dims[z])]
    m = len(z_basis)
    gram = np.zeros((m * r, m * r), dtype=complex)
    inner = e.left_inner if side == "left" else e.right_inner
    for a, (z1, i) in enumerate(z_basis):
        for b, (z2, j) in enumerate(z_basis):
            key = (z1, z2)
            if key not in inner:
                continue
            tensor = inner[key]
            arrow = (bracket_by_search(base, z1, z2) if side == "left"
                     else bracket_by_search(base_op, z2, z1))
            vec = np.zeros(corner.dimension, dtype=complex)
            for k, c in enumerate(tensor[:, i, j]):
                if c != 0:
                    vec[idx[((tag, arrow), k)]] = c
            gram[a * r:(a + 1) * r, b * r:(b + 1) * r] = pi.of_vec(vec)
    if gram.size == 0:
        return 0.0
    herm = 0.5 * (gram + gram.conj().T)
    return float(np.min(np.linalg.eigvalsh(herm)))


def translation_instance(ng: int, nh: int, seed=None):
    """Line bundle on the pair groupoid over Z/ng x Z/nh, each group translating
    its own coordinate (left and right).  With a seed the units are relabeled
    by a random permutation; without one they are numbered in order."""
    units = [(a, b) for a in range(ng) for b in range(nh)]
    order = (np.random.default_rng(seed).permutation(len(units))
             if seed is not None else range(len(units)))
    relabel = {u: int(k) + 1 for u, k in zip(units, order)}
    g, h = cyclic_group(ng), cyclic_group(nh)
    gmaps = {t: {relabel[(a, b)]: relabel[((a + t) % ng, b)] for (a, b) in units}
             for t in g.elements}
    hmaps = {t: {relabel[(a, b)]: relabel[(a, (b + t) % nh)] for (a, b) in units}
             for t in h.elements}
    base = make_pair_groupoid(len(units))
    gact = action_from_unit_map(g, base, gmaps, "left")
    hact = action_from_unit_map(h, base, hmaps, "right")
    lb = trivial_line_bundle(base)
    return (lb, BundleAction(g, lb, gact, identity_fiber_maps(lb, gact), "left"),
            BundleAction(h, lb, hact, identity_fiber_maps(lb, hact), "right"))


def negated_diagonal_z2z2():
    """The Z2xZ2 equivalence with one diagonal left inner product negated."""
    e = symmetric_action_equivalence(*symmetric_z2z2_bundle())
    key = next(k for k in e.left_inner if k[0] == k[1])
    e.left_inner[key] = -e.left_inner[key]
    return e


def noisy_two_dimensional_fibers():
    """Two-dimensional fibers with one off-diagonal inner product on each side
    replaced by seeded complex noise, so every Gram block is generic."""
    e = symmetric_action_equivalence(*two_dimensional_fiber_instance())
    rng = np.random.default_rng(7)
    for inner in (e.left_inner, e.right_inner):
        key = next(k for k in inner if k[0] != k[1])
        shape = inner[key].shape
        inner[key] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return e


def matrix_fiber_bundle(order: int, k: int) -> FellBundle:
    """The bundle over Z/order whose fibers are all the full k x k matrices."""
    grp, mat = cyclic_group(order), matrix_algebra(k)
    return FellBundle(grp, {x: k * k for x in grp.arrows},
                      {pair: mat.struct.copy() for pair in grp.composable_pairs()},
                      {x: mat.invol.copy() for x in grp.arrows})


def margins_seen(monkeypatch, run):
    """Run a certificate and return (ls, side, margin) for each positivity call."""
    calls = []
    original = morita._positivity_margin

    def spy(*args, **kwargs):
        margin = original(*args, **kwargs)
        calls.append((args[0], kwargs.get("side", args[1] if len(args) > 1 else None),
                      margin))
        return margin

    monkeypatch.setattr(morita, "_positivity_margin", spy)
    cert = run()
    monkeypatch.undo()
    assert [side for _ls, side, _m in calls] == ["left", "right"]
    assert (cert.positivity_margin_left, cert.positivity_margin_right) == \
        tuple(m for _ls, _side, m in calls)
    return calls


def _symmetric(instance):
    return lambda: verify_morita(linking_system(symmetric_action_equivalence(*instance())))


CASES = {
    "z2z2": _symmetric(symmetric_z2z2_bundle),
    "mixed_group_orders": _symmetric(lambda: translation_instance(3, 2)),
    "coaction_z3": lambda: coaction_demo(trivial_line_bundle(cyclic_group(3))),
    **{f"pair6_seed{s}": _symmetric(lambda s=s: translation_instance(2, 3, seed=s))
       for s in (1, 2, 3)},
    # the report seed picks the central element whose eigenspaces give the blocks
    **{f"pair6_report_seed{r}": lambda r=r: verify_morita(linking_system(
        symmetric_action_equivalence(*translation_instance(2, 3, seed=1))), seed=r)
       for r in (1, 5)},
    "coaction_m2_fibers": lambda: coaction_demo(matrix_fiber_bundle(2, 2)),
    "negated_diagonal": lambda: verify_morita(unverified_linking_system(negated_diagonal_z2z2())),
    "phase_twisted": _symmetric(_phase_twisted_z2z2),
    "two_dim_fibers": _symmetric(two_dimensional_fiber_instance),
    "two_dim_fibers_noisy": lambda: verify_morita(unverified_linking_system(
        noisy_two_dimensional_fibers())),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_positivity_margin_matches_dense_reference(name, monkeypatch):
    for ls, side, margin in margins_seen(monkeypatch, CASES[name]):
        reference = dense_positivity_margin(ls, side)
        assert abs(margin - reference) <= AGREE, (side, margin, reference)
        if name == "negated_diagonal" and side == "left":
            assert reference == pytest.approx(-1.795831523312721, abs=1e-9)


def test_components_follow_the_inner_product_keys():
    e = symmetric_action_equivalence(*symmetric_z2z2_bundle())
    base = e.base
    fibers = {}
    for z in base.space:
        fibers.setdefault(base.sigma[z], []).append(z)
    assert morita._components(base.space, e.left_inner) == list(fibers.values())
    # a synthetic key between two sigma-fibers joins them, in point order
    first, second, *rest = fibers.values()
    keys = [*e.left_inner, (second[0], first[-1])]
    assert morita._components(base.space, keys) == \
        [sorted(first + second, key=base.space.index), *rest]


def test_one_regular_representation_per_corner(monkeypatch):
    import groupoidal.algebras as algebras

    ls = linking_system(symmetric_action_equivalence(*symmetric_z2z2_bundle()))
    counts = {}
    original = algebras.regular_representation

    def counting(a, *args, **kwargs):
        counts[id(a)] = counts.get(id(a), 0) + 1
        return original(a, *args, **kwargs)

    for module in (morita, algebras):
        monkeypatch.setattr(module, "regular_representation", counting)
    assert verify_morita(ls).verdict == "equivalent"
    assert counts[id(ls.corner_left)] == 1
    assert counts[id(ls.corner_right)] == 1


def test_nan_inner_product_is_not_certified():
    # an off-diagonal NaN has no rank and no spectrum: the certificate says
    # so instead of raising from an SVD
    e = symmetric_action_equivalence(*symmetric_z2z2_bundle())
    key = next(k for k in e.left_inner if k[0] != k[1])
    e.left_inner[key] = e.left_inner[key] * np.nan
    cert = verify_morita(unverified_linking_system(e))
    assert cert.verdict == "not-certified"
    assert np.isnan(cert.positivity_margin_left)
    assert f"left inner product not finite at {fmt(key)}" in cert.notes
    assert "an inner product fails positivity" in cert.notes


def test_nan_module_product_is_not_certified():
    # a NaN product that is no inner product leaves every inner product
    # finite; the unit check reports it instead of raising from lstsq
    e = symmetric_action_equivalence(*symmetric_z2z2_bundle())
    key = next(iter(e.left_tensors))
    e.left_tensors[key] = e.left_tensors[key] * np.nan
    cert = verify_morita(unverified_linking_system(e))
    assert cert.verdict == "not-certified"
    assert "linking algebra has no unit" in cert.notes


# ---------------------------------------------------------------------------
# Wedderburn block split


def _pair6_right_corner():
    ls = linking_system(symmetric_action_equivalence(*translation_instance(2, 3, seed=1)))
    return ls.corner_right


BLOCK_CASES = {
    "pair6_right_corner": _pair6_right_corner,
    "blocks_1_2_random_basis": lambda: _conjugate_basis(
        _direct_sum_blocks((1, 2)), np.random.default_rng(3)),
    "blocks_1_1_3": lambda: _direct_sum_blocks((1, 1, 3)),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_bases_cover_the_space_and_are_invariant(name):
    alg = BLOCK_CASES[name]()
    pi = regular_representation(alg, 1e-8)
    report = star_structure_report(alg, tol=1e-8, representation=pi)
    bases = report.block_bases
    assert report.status == "ok" and report.radical_dimension == 0
    assert sorted(q.shape[1] for q in bases) == sorted(b * b for b in report.blocks)
    whole = np.hstack(bases)
    assert whole.shape == (pi.size, pi.size)
    assert deviation(whole.conj().T @ whole, np.eye(pi.size)) <= 1e-10
    stack = pi.stack()
    for q in bases:
        assert deviation(stack @ q, q @ (q.conj().T @ stack @ q)) <= 1e-8
    blocks = pi.block_stacks(bases, 1e-8)
    assert [b.shape[1:] for b in blocks] == [(q.shape[1], q.shape[1]) for q in bases]


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_grams_give_the_whole_gram_margin(name):
    # generic coefficients, unlike the symmetric instances above, give each
    # block its own smallest eigenvalue
    alg = BLOCK_CASES[name]()
    pi = regular_representation(alg, 1e-8)
    bases = star_structure_report(alg, tol=1e-8, representation=pi).block_bases
    blocks = pi.block_stacks(bases, 1e-8)
    rng = np.random.default_rng(11)
    for m in (1, 3):
        coeffs = rng.standard_normal((m, m, alg.dimension)) \
            + 1j * rng.standard_normal((m, m, alg.dimension))
        per_block = [pi.gram_margin(coeffs, [b]) for b in blocks]
        assert len(set(np.round(per_block, 6))) > 1
        whole = pi.gram_margin(coeffs)
        assert abs(pi.gram_margin(coeffs, blocks) - whole) <= AGREE * max(1.0, abs(whole))


@pytest.mark.parametrize("case", ["radical", "indeterminate"])
def test_reports_without_a_split_give_the_single_block(case):
    # the radical's report splits the semisimple quotient, not pi; the
    # indeterminate one never splits
    alg = _unit_plus_nilpotent() if case == "radical" else _direct_sum_blocks((1, 2))
    pi = regular_representation(alg)
    report = star_structure_report(alg, representation=pi,
                                   max_attempts=0 if case == "indeterminate" else 8)
    if case == "radical":
        assert report.radical_dimension == 1 and report.blocks == (1,)
    else:
        assert report.status == "indeterminate"
    assert report.block_bases == ()
    (block,) = pi.block_stacks(report.block_bases)
    assert block is pi.stack()


def test_bases_that_are_not_invariant_give_the_single_block():
    alg = _direct_sum_blocks((1, 2))
    pi = regular_representation(alg)
    q, _r = np.linalg.qr(np.random.default_rng(0).standard_normal((pi.size, pi.size)))
    (block,) = pi.block_stacks((q[:, :1], q[:, 1:]))
    assert block is pi.stack()
    # bases that leave part of the space out are not used either
    report = star_structure_report(alg, representation=pi)
    (block,) = pi.block_stacks(report.block_bases[:-1])
    assert block is pi.stack()


# ---------------------------------------------------------------------------
# one irreducible copy per Wedderburn block


def positivity_args_seen(monkeypatch, run):
    """Run a certificate and return the arguments of each positivity call."""
    calls = []
    original = morita._positivity_margin

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(morita, "_positivity_margin", spy)
    run()
    monkeypatch.undo()
    return calls


def _margin(table, pi, blocks) -> float:
    margins = [pi.gram_margin(coeffs, blocks) for coeffs, _finite in table]
    return float(np.min(margins)) if margins else 0.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_irreducible_and_isotypic_block_margins_agree(name, monkeypatch):
    for _ls, _side, table, pi, report, tol in positivity_args_seen(monkeypatch, CASES[name]):
        copies = report.irreducible_bases
        assert len(copies) == len(report.block_bases)
        for q, w in zip(report.block_bases, copies):
            # every block of size d > 1 of these corners gets its copy
            assert (w is None) == (q.shape[1] == 1)
            assert w is None or w.shape[1] ** 2 == q.shape[1]
        isotypic = _margin(table, pi, pi.block_stacks(report.block_bases, tol))
        irreducible = _margin(table, pi, pi.block_stacks(report.block_bases, tol, copies))
        assert abs(irreducible - isotypic) <= AGREE, (isotypic, irreducible)


def test_degenerate_probe_keeps_the_isotypic_blocks(monkeypatch):
    import groupoidal.algebras as algebras

    alg = _pair6_right_corner()
    pi = regular_representation(alg)
    report = star_structure_report(alg, representation=pi)
    assert all(w is not None for w in report.irreducible_bases)
    # h = 0 leaves one eigenvalue cluster per block: no copy passes
    monkeypatch.setattr(algebras, "_hermitian_probe", lambda a, seed: np.zeros(a.dimension))
    flat = star_structure_report(alg, representation=pi)
    assert flat == report
    assert flat.irreducible_bases == (None,) * len(report.block_bases)
    blocks = pi.block_stacks(flat.block_bases, 1e-9, flat.irreducible_bases)
    assert [b.shape for b in blocks] == \
        [b.shape for b in pi.block_stacks(report.block_bases, 1e-9)]
    assert [b.shape[1] for b in blocks] == [9] * 6


def test_copy_that_is_not_invariant_falls_back_to_its_block():
    alg = _pair6_right_corner()
    pi = regular_representation(alg)
    report = star_structure_report(alg, representation=pi)
    copies = list(report.irreducible_bases)
    q = report.block_bases[0]
    # three orthonormal columns of the first block's subspace in general
    # position: not an invariant subspace
    w, _r = np.linalg.qr(q @ np.random.default_rng(0).standard_normal((q.shape[1], 3)))
    copies[0] = w
    blocks = pi.block_stacks(report.block_bases, 1e-9, tuple(copies))
    assert blocks[0].shape[1:] == (9, 9)
    assert all(b.shape[1:] == (3, 3) for b in blocks[1:])
    assert deviation(blocks[0], pi.block_stacks(report.block_bases, 1e-9)[0]) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_probe_leaves_the_report_unchanged(seed, monkeypatch):
    import groupoidal.algebras as algebras

    for alg in (_pair6_right_corner(), BLOCK_CASES["blocks_1_2_random_basis"]()):
        report = star_structure_report(alg, seed=seed)
        monkeypatch.setattr(algebras, "_hermitian_probe",
                            lambda a, seed: np.zeros(a.dimension))
        flat = star_structure_report(alg, seed=seed)
        monkeypatch.undo()
        assert report.to_dict() == flat.to_dict()
        assert (report.attempts, report.blocks, report.center_dimension) == \
            (flat.attempts, flat.blocks, flat.center_dimension)
        assert all(np.array_equal(a, b) for a, b in zip(report.block_bases, flat.block_bases))


@pytest.mark.parametrize("name", ["z2z2", "coaction_m2_fibers"])
def test_chunked_compression_gives_the_same_blocks(name, monkeypatch):
    # the M2 fibers put several nonzeros in a row of pi(e_k), so tiny
    # chunks split rows between chunks
    from groupoidal import bundles

    for _ls, _side, _table, pi, report, tol in positivity_args_seen(monkeypatch, CASES[name]):
        whole = [pi.block_stacks(report.block_bases, tol, copies)
                 for copies in ((), report.irreducible_bases)]
        monkeypatch.setattr(bundles, "_CHUNK", 7)
        chunked = [pi.block_stacks(report.block_bases, tol, copies)
                   for copies in ((), report.irreducible_bases)]
        monkeypatch.undo()
        for blocks, again in zip(whole, chunked):
            assert [b.shape for b in blocks] == [b.shape for b in again]
            assert all(deviation(b, c) <= AGREE for b, c in zip(blocks, again))
