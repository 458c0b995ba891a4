"""The product-law kernels evaluate their tuples in blocks of bundles._BLOCK,
and the composable triples are enumerated (groupoids._Ids.triple_blocks)
and walked by validate_groupoid in blocks of groupoids._BLOCK.

The block size bounds the memory of a pass and nothing else: every metric,
witness and residual must be the same, bit for bit, whatever it is.  And the
single pass of verify_bundle_equivalence must stay within a fixed memory
budget on the 6-point pair groupoid with Z2 acting on the left and Z3 on the
right, the instance of the benchmark's certificate.
"""

import tracemalloc

import numpy as np
import pytest

from groupoidal import (
    BundleAction,
    action_from_unit_map,
    identity_fiber_maps,
    linking_bundle,
    make_pair_groupoid,
    symmetric_action_equivalence,
    trivial_line_bundle,
    validate_fell_bundle,
    validate_groupoid,
    verify_bundle_equivalence,
)
from groupoidal import bundles, groupoids
from groupoidal._util import fmt
from groupoidal.instances import cyclic_group, symmetric_z2z2_bundle

from conftest import exchange_residual
from test_batched_residuals import (
    STEPS,
    corrupt,
    reference_equivalence,
    symmetric_equivalence,
    witness,
)
from test_golden import linking_mult_corruption_failures, right_tensor_corruption_failures


def outcome(rep):
    return ([(c.name, c.ok, c.witness) for c in rep.checks], rep.notes, rep.metrics)


def z2z2(corrupted):
    e = symmetric_action_equivalence(*symmetric_z2z2_bundle())
    if corrupted:
        corrupt(e.right_inner, np.random.default_rng(11), None)
    return e


def seeded(corrupted):
    rng = np.random.default_rng(2002)
    e = symmetric_equivalence(rng, max_units=3)
    if corrupted:
        corrupt(e.left_tensors, rng, None)
    return e


def results(make):
    """Everything the blocked kernels decide about the instances of make."""
    out = []
    for corrupted in (False, True):
        e = make(corrupted)
        out += [outcome(verify_bundle_equivalence(e)), exchange_residual(e)]
    link = linking_bundle(make(False))
    rng = np.random.default_rng(5)
    for _ in range(3):
        corrupt(link.mult, rng, None)
    out.append(outcome(validate_fell_bundle(link)))
    return out


@pytest.mark.parametrize("make", [z2z2, seeded])
def test_block_size_does_not_change_any_result(make, monkeypatch):
    default = results(make)
    monkeypatch.setattr(bundles, "_BLOCK", 7)
    monkeypatch.setattr(groupoids, "_BLOCK", 7)
    assert results(make) == default
    # a shift that does not depend on the block size shows against the loops
    e = make(True)
    rep = verify_bundle_equivalence(e)
    for metric, (worst, wit) in reference_equivalence(e).items():
        assert rep.metrics[metric] == worst
        assert witness(rep, STEPS[metric]) == (fmt(wit) if worst > 1e-9 else None)


def test_block_size_does_not_change_the_corruption_goldens(monkeypatch):
    default = (right_tensor_corruption_failures(), linking_mult_corruption_failures())
    monkeypatch.setattr(bundles, "_BLOCK", 7)
    monkeypatch.setattr(groupoids, "_BLOCK", 7)
    assert (right_tensor_corruption_failures(), linking_mult_corruption_failures()) == default


def pair6_actions():
    """The pair groupoid of six points (a, b), with Z2 translating a on the
    left and Z3 translating b on the right."""
    points = [(a, b) for a in range(2) for b in range(3)]
    unit = {p: i + 1 for i, p in enumerate(points)}
    left = {t: {unit[(a, b)]: unit[((a + t) % 2, b)] for a, b in points} for t in range(2)}
    right = {t: {unit[(a, b)]: unit[(a, (b + t) % 3)] for a, b in points} for t in range(3)}
    x = make_pair_groupoid(len(points))
    return (x, action_from_unit_map(cyclic_group(2), x, left, "left"),
            action_from_unit_map(cyclic_group(3), x, right, "right"))


def pair6_equivalence():
    """Trivial line bundle on pair6_actions()."""
    x, gact, hact = pair6_actions()
    lb = trivial_line_bundle(x)
    return symmetric_action_equivalence(
        lb, BundleAction(gact.group, lb, gact, identity_fiber_maps(lb, gact), "left"),
        BundleAction(hact.group, lb, hact, identity_fiber_maps(lb, hact), "right"))


def test_linking_pass_memory_is_bounded():
    e = pair6_equivalence()
    tracemalloc.start()
    try:
        rep = verify_bundle_equivalence(e)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert len(list(rep.linking.base.composable_triples())) == 135_000
    assert peak < 10e6


def test_groupoid_validation_memory_is_bounded():
    link = verify_bundle_equivalence(pair6_equivalence()).linking.base
    tracemalloc.start()
    try:
        rep = validate_groupoid(link)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 1e6


@pytest.mark.parametrize("seed", range(4))
def test_groupoid_block_size_does_not_change_the_witness(seed, monkeypatch):
    # the corrupted groupoids of test_groupoid_associativity_witness_matches_reference
    rng = np.random.default_rng(4000 + seed)
    g = symmetric_equivalence(rng, max_units=4).left_bundle.base
    keys = list(g.comp)
    key = keys[int(rng.integers(len(keys)))]
    g.comp[key] = g.arrows[int(rng.integers(len(g.arrows)))]
    default = outcome(validate_groupoid(g))
    monkeypatch.setattr(groupoids, "_BLOCK", 7)
    assert outcome(validate_groupoid(g)) == default
