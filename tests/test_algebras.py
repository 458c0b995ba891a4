import numpy as np
import pytest

from groupoidal import (
    BundleAction,
    InvalidStructureError,
    StarAlgebra,
    action_from_unit_map,
    check_star_algebra,
    crossed_product,
    fiber_algebra,
    group_set_action,
    identity_fiber_maps,
    make_pair_groupoid,
    make_unit_groupoid,
    regular_representation,
    section_algebra,
    semidirect_fell_bundle,
    star_structure_report,
    transformation_fell_bundle,
    trivial_bundle_action,
    trivial_line_bundle,
)
from groupoidal.instances import (
    cyclic_group,
    diagonal_algebra,
    matrix_algebra,
)

from conftest import (
    AlgebraIso,
    assert_close,
    line_bundle_action,
    subalgebra,
    verify_algebra_iso,
)


# ---------------------------------------------------------------------------
# section algebras


def test_section_algebra_of_point_is_scalars():
    alg = section_algebra(trivial_line_bundle(make_pair_groupoid(1)))
    assert alg.dimension == 1
    assert_close(alg.multiply([1.0], [1.0]), [1.0])


@pytest.mark.parametrize("n", [2, 3])
def test_pair_groupoid_sections_are_matrix_units(n):
    # oracle: the direct matrix-unit table e_ij e_kl = delta_jk e_il
    alg = section_algebra(trivial_line_bundle(make_pair_groupoid(n)))
    assert alg.dimension == n * n
    idx = {lbl[0]: k for k, lbl in enumerate(alg.basis)}
    for (i, j) in idx:
        for (k, l) in idx:
            prod = alg.struct[:, idx[(i, j)], idx[(k, l)]]
            expected = np.zeros(n * n)
            if j == k:
                expected[idx[(i, l)]] = 1.0
            assert_close(prod, expected)
    # star: e_ij* = e_ji
    for (i, j) in idx:
        expected = np.zeros(n * n)
        expected[idx[(j, i)]] = 1.0
        assert_close(alg.invol[:, idx[(i, j)]], expected)


def test_group_algebra_z2_commutative():
    z2 = cyclic_group(2)
    alg = section_algebra(trivial_line_bundle(z2))
    assert alg.dimension == 2
    # convolution table of the group algebra
    e, g = alg.basis.index((0, 0)), alg.basis.index((1, 0))
    got = alg.struct[:, g, g]
    expected = np.zeros(2)
    expected[e] = 1.0
    assert_close(got, expected)
    assert check_star_algebra(alg).ok


def test_star_antihomomorphism_on_section_algebras():
    # (f*g)* == g* * f* over every basis pair
    alg = section_algebra(trivial_line_bundle(make_pair_groupoid(3)))
    n = alg.dimension
    for i in range(n):
        for j in range(n):
            ei, ej = np.eye(n)[i], np.eye(n)[j]
            lhs = alg.star_vec(alg.multiply(ei, ej))
            rhs = alg.multiply(alg.star_vec(ej), alg.star_vec(ei))
            assert_close(lhs, rhs)


def test_fiber_algebra_requires_unit_arrow():
    lb = trivial_line_bundle(make_pair_groupoid(2))
    assert fiber_algebra(lb, (1, 1)).dimension == 1
    with pytest.raises(InvalidStructureError):
        fiber_algebra(lb, (1, 2))


def test_subalgebra_closure_guard():
    alg = section_algebra(trivial_line_bundle(make_pair_groupoid(2)))
    diag = subalgebra(alg, lambda lbl: lbl[0][0] == lbl[0][1])
    assert diag.dimension == 2
    with pytest.raises(InvalidStructureError):
        subalgebra(alg, lambda lbl: lbl[0] == (1, 2))


def test_subalgebra_rejects_nan_leak():
    # NaN is no evidence of closure: the coordinate e_01 of e_00 e_00 is unknown
    alg = matrix_algebra(2)
    alg.struct[1, 0, 0] = np.nan
    with pytest.raises(InvalidStructureError):
        subalgebra(alg, lambda lbl: lbl == (0, 0))


def test_subalgebra_of_nothing_is_zero_dimensional():
    sub = subalgebra(matrix_algebra(2), lambda lbl: False)
    assert sub.dimension == 0
    assert sub.struct.shape == (0, 0, 0) and sub.invol.shape == (0, 0)


# ---------------------------------------------------------------------------
# regular representation


def test_regular_representation_scalars():
    alg = diagonal_algebra(1)
    rep = regular_representation(alg)
    assert rep.size == 1 and rep.faithful
    assert_close(rep.matrices[0], np.eye(1))


def test_regular_representation_pair_groupoid_norms():
    alg = section_algebra(trivial_line_bundle(make_pair_groupoid(2)))
    rep = regular_representation(alg)
    assert rep.faithful and rep.size == 4
    assert rep.mult_residual <= 1e-9 and rep.star_residual <= 1e-9
    # operator norms of matrix units equal 1
    for m in rep.matrices:
        assert abs(np.linalg.norm(m, 2) - 1.0) <= 1e-9


def test_nilpotent_radical_flagged():
    # span{u, x} with u the unit, x^2 = 0, x* = x: not a C*-algebra
    struct = np.zeros((2, 2, 2), dtype=complex)
    struct[0, 0, 0] = 1.0  # u u = u
    struct[1, 0, 1] = 1.0  # u x = x
    struct[1, 1, 0] = 1.0  # x u = x
    alg = StarAlgebra(("u", "x"), struct, np.eye(2, dtype=complex))
    assert check_star_algebra(alg).ok
    rep = regular_representation(alg)
    assert not rep.faithful
    sr = star_structure_report(alg)
    assert sr.radical_dimension == 1
    assert not sr.is_cstar
    assert sr.blocks == (1,)
    assert sr.consistent()


def test_nan_structure_constant_gives_a_non_finite_trace_form():
    alg = matrix_algebra(2)
    alg.struct[1, 1, 2] = np.nan
    assert np.isnan(check_star_algebra(alg).metrics["associativity"])
    rep = regular_representation(alg)
    assert not rep.faithful and rep.size == 0
    assert rep.notes == ["trace form not finite"]
    assert np.isnan(rep.mult_residual) and np.isnan(rep.star_residual)
    sr = star_structure_report(alg)
    assert (sr.status, sr.is_cstar, sr.blocks) == ("ok", False, ())
    assert "trace form not finite" in sr.notes


# ---------------------------------------------------------------------------
# structure reports


def _unit_plus_nilpotent():
    # span{u, x}, x^2 = 0: the report splits its semisimple quotient
    struct = np.zeros((2, 2, 2), dtype=complex)
    struct[0, 0, 0] = struct[1, 0, 1] = struct[1, 1, 0] = 1.0
    return StarAlgebra(("u", "x"), struct, np.eye(2, dtype=complex))


@pytest.mark.parametrize("make", [
    lambda: diagonal_algebra(3),
    lambda: matrix_algebra(2),
    lambda: section_algebra(trivial_line_bundle(make_pair_groupoid(3))),
    _unit_plus_nilpotent,
], ids=["diagonal", "matrix", "pair3", "nilpotent"])
def test_report_with_precomputed_representation(make):
    # a representation passed in gives the report computed from scratch, and
    # is left as it was
    alg = make()
    rep = regular_representation(alg, 1e-9)
    before = (rep.size, list(rep.notes), rep.stack().copy())
    assert star_structure_report(alg, representation=rep).to_dict() == \
        star_structure_report(alg).to_dict()
    assert (rep.size, rep.notes) == before[:2]
    assert np.array_equal(rep.stack(), before[2])


def test_report_scalars():
    sr = star_structure_report(diagonal_algebra(1))
    assert sr.blocks == (1,) and sr.center_dimension == 1 and sr.is_cstar


def test_report_pair_groupoid_3_with_matrix_oracle():
    # independent oracle: an explicit isomorphism onto numpy matrix units
    alg = section_algebra(trivial_line_bundle(make_pair_groupoid(3)))
    mats = {}
    for k, ((i, j), _fi) in enumerate(alg.basis):
        m = np.zeros((3, 3), dtype=complex)
        m[i - 1, j - 1] = 1.0
        mats[k] = m
    for a in range(9):
        for b in range(9):
            prod = sum(alg.struct[c, a, b] * mats[c] for c in range(9))
            assert_close(mats[a] @ mats[b], prod)
    sr = star_structure_report(alg)
    assert sr.blocks == (3,)
    assert sr.center_dimension == 1
    assert sr.radical_dimension == 0
    assert sr.is_cstar
    assert sr.consistent()


def test_report_group_algebra_z3_with_fourier_oracle():
    # oracle: the discrete Fourier matrix diagonalizes the regular
    # representation of the cyclic group algebra simultaneously
    z3 = cyclic_group(3)
    alg = section_algebra(trivial_line_bundle(z3))
    omega = np.exp(2j * np.pi / 3)
    dft = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    order = [alg.basis.index((g, 0)) for g in (0, 1, 2)]
    for a in range(3):
        lmat = np.zeros((3, 3), dtype=complex)
        for b in range(3):
            col = alg.struct[:, order[a], order[b]]
            for c in range(3):
                lmat[c, b] = col[order[c]]
        diag = dft.conj().T @ lmat @ dft
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) <= 1e-9
    sr = star_structure_report(alg)
    assert sr.blocks == (1, 1, 1)
    assert sr.center_dimension == 3
    assert sr.is_cstar


def test_report_matrix_algebra_blocks():
    sr = star_structure_report(matrix_algebra(2))
    assert sr.blocks == (2,) and sr.center_dimension == 1 and sr.is_cstar


def test_report_deterministic_given_seed():
    alg = section_algebra(trivial_line_bundle(cyclic_group(3)))
    a = star_structure_report(alg, seed=7)
    b = star_structure_report(alg, seed=7)
    assert a.to_dict() == b.to_dict()


def test_wedderburn_consistency_mixed_blocks():
    # direct sum C + M2 assembled by hand
    d = 1 + 4
    m2 = matrix_algebra(2)
    struct = np.zeros((d, d, d), dtype=complex)
    struct[0, 0, 0] = 1.0
    struct[1:, 1:, 1:] = m2.struct
    invol = np.zeros((d, d), dtype=complex)
    invol[0, 0] = 1.0
    invol[1:, 1:] = m2.invol
    alg = StarAlgebra(("c",) + m2.basis, struct, invol)
    sr = star_structure_report(alg)
    assert sr.blocks == (1, 2)
    assert sr.center_dimension == 2
    assert sr.consistent()


# ---------------------------------------------------------------------------
# crossed products


def test_crossed_product_trivial_group_is_section_algebra(triv):
    lb = trivial_line_bundle(make_pair_groupoid(2))
    cp = crossed_product(lb, trivial_bundle_action(triv, lb, "left"))
    plain = section_algebra(lb)
    assert cp.dimension == plain.dimension
    # identification on the matching basis labels
    perm = np.zeros((4, 4), dtype=complex)
    for k, ((x, _e), i) in enumerate(cp.basis):
        perm[plain.basis.index((x, i)), k] = 1.0
    assert verify_algebra_iso(AlgebraIso(cp, plain, perm)).ok


def test_crossed_product_c2_by_swap(z2):
    two = make_unit_groupoid(("p", "q"))
    lb = trivial_line_bundle(two)
    from groupoidal import GroupAction
    swap = GroupAction(z2, two, {(0, "p"): "p", (0, "q"): "q",
                                 (1, "p"): "q", (1, "q"): "p"}, "left")
    cp = crossed_product(lb, BundleAction(z2, lb, swap,
                                          identity_fiber_maps(lb, swap), "left"))
    assert cp.dimension == 4
    sr = star_structure_report(cp)
    assert sr.blocks == (2,)
    # oracle: the transformation groupoid of a free transitive action is a
    # pair groupoid, whose algebra is the full matrix algebra
    pair = section_algebra(trivial_line_bundle(make_pair_groupoid(2)))
    assert star_structure_report(pair).blocks == (2,)


def test_crossed_product_trivial_action_characters(z2):
    one = make_unit_groupoid(("*",))
    lb = trivial_line_bundle(one)
    cp = crossed_product(lb, trivial_bundle_action(z2, lb, "left"))
    sr = star_structure_report(cp)
    assert sr.blocks == (1, 1)


# ---------------------------------------------------------------------------
# convolution-formula fidelity (specialized formulas, implemented afresh)


def transformation_convolution(b, act, f1, g1):
    """(f*g)(x,u) = sum over y in r^-1(r(x)) of f(y, inv(y)x.u) g(inv(y)x, u)."""
    base = b.base
    out = {}
    for (x, u) in ((x, u) for x in base.arrows for u in act.space
                   if (x, u) in act.act):
        acc = np.zeros(b.dim[x], dtype=complex)
        for y in base.range_fiber(base.rng[x]):
            z = base.comp[(base.inv[y], x)]
            fv = f1.get((y, act.apply(z, u)))
            gv = g1.get((z, u))
            if fv is not None and gv is not None:
                acc = acc + np.einsum("kij,i,j->k", b.mult[(y, z)], fv, gv)
        out[(x, u)] = acc
    return out


def transformation_involution(b, act, f1):
    """f*(x,u) = f(inv(x), x.u)* as transformation-bundle sections."""
    base = b.base
    out = {}
    for (x, u) in f1:
        xi = base.inv[x]
        out[(x, u)] = b.star[xi] @ np.conjugate(f1[(xi, act.apply(x, u))])
    return out


def semidirect_convolution(b, ba, f1, g1):
    """(f*g)(x,s) = sum over y, t of f(y,t) (t . g(inv(t).(inv(y)x), inv(t)s))."""
    base = b.base
    grp = ba.group
    act = ba.base_action
    out = {}
    for x in base.arrows:
        for s in grp.elements:
            acc = np.zeros(b.dim[x], dtype=complex)
            for y in base.range_fiber(base.rng[x]):
                for t in grp.elements:
                    ti = grp.inv_elem(t)
                    arg = act.act[(ti, base.comp[(base.inv[y], x)])]
                    fv = f1.get((y, t))
                    gv = g1.get((arg, grp.mul(ti, s)))
                    if fv is not None and gv is not None:
                        acc = acc + np.einsum(
                            "kij,i,j->k", b.mult[(y, act.act[(t, arg)])],
                            fv, ba.fiber_maps[(t, arg)] @ gv)
            out[(x, s)] = acc
    return out


def test_transformation_convolution_matches_generic(z2):
    act = group_set_action(
        z2, ("a", "b"),
        {(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"}, "left")
    lb = trivial_line_bundle(z2)
    tb = transformation_fell_bundle(lb, act)
    alg = section_algebra(tb)
    rng = np.random.default_rng(5)
    for _ in range(4):
        fc = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
        gc = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
        f1 = {lbl[0]: np.array([fc[k]]) for k, lbl in enumerate(alg.basis)}
        g1 = {lbl[0]: np.array([gc[k]]) for k, lbl in enumerate(alg.basis)}
        generic = alg.multiply(fc, gc)
        direct = transformation_convolution(lb, act, f1, g1)
        for k, lbl in enumerate(alg.basis):
            assert abs(generic[k] - direct[lbl[0]][0]) <= 1e-12
        # involution comparison
        st = alg.star_vec(fc)
        direct_star = transformation_involution(lb, act, f1)
        for k, lbl in enumerate(alg.basis):
            assert abs(st[k] - direct_star[lbl[0]][0]) <= 1e-12


def test_semidirect_convolution_matches_generic(z2):
    g = make_pair_groupoid(2)
    act = action_from_unit_map(z2, g, {0: {1: 1, 2: 2}, 1: {1: 2, 2: 1}}, "left")
    lb, ba = line_bundle_action(act)
    sd = semidirect_fell_bundle(lb, ba)
    alg = section_algebra(sd)
    rng = np.random.default_rng(6)
    for _ in range(4):
        fc = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
        gc = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
        f1 = {lbl[0]: np.array([fc[k]]) for k, lbl in enumerate(alg.basis)}
        g1 = {lbl[0]: np.array([gc[k]]) for k, lbl in enumerate(alg.basis)}
        generic = alg.multiply(fc, gc)
        direct = semidirect_convolution(lb, ba, f1, g1)
        for k, lbl in enumerate(alg.basis):
            assert abs(generic[k] - direct[lbl[0]][0]) <= 1e-12
        # involution: f*(x,s) = s.(f(inv(s).inv(x), inv(s))*)
        st = alg.star_vec(fc)
        for k, ((x, s), _i) in enumerate(alg.basis):
            si = z2.inv_elem(s)
            v = f1[(act.act[(si, g.inv[x])], si)]
            expected = ba.fiber_maps[(s, g.inv[act.act[(si, g.inv[x])]])] @ \
                lb.star[act.act[(si, g.inv[x])]] @ np.conjugate(v)
            assert abs(st[k] - expected[0]) <= 1e-12


def test_group_algebra_is_commutative():
    z3 = cyclic_group(3)
    alg = section_algebra(trivial_line_bundle(z3))
    assert_close(alg.struct, np.transpose(alg.struct, (0, 2, 1)))


def _direct_sum_blocks(blocks):
    dims = [b * b for b in blocks]
    n = sum(dims)
    struct = np.zeros((n, n, n), dtype=complex)
    invol = np.zeros((n, n), dtype=complex)
    offset = 0
    for b in blocks:
        m = matrix_algebra(b)
        struct[offset:offset + b * b, offset:offset + b * b,
               offset:offset + b * b] = m.struct
        invol[offset:offset + b * b, offset:offset + b * b] = m.invol
        offset += b * b
    return StarAlgebra(tuple(range(n)), struct, invol)


def _conjugate_basis(alg, rng):
    n = alg.dimension
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    ui = u.conj().T
    struct = np.einsum("kl,lab,ai,bj->kij", ui, alg.struct, u, u, optimize=True)
    invol = ui @ alg.invol @ np.conjugate(u)
    return StarAlgebra(alg.basis, struct, invol)


@pytest.mark.parametrize("blocks", [(1, 2), (2, 2), (1, 1, 3), (3,), (1, 1, 1, 2)])
def test_report_recovers_blocks_in_random_basis(blocks):
    # oracle: a known direct sum of matrix algebras hidden behind a random
    # unitary change of basis must be split back into the same multiset
    rng = np.random.default_rng(sum(blocks) * 1000 + len(blocks))
    alg = _conjugate_basis(_direct_sum_blocks(blocks), rng)
    assert check_star_algebra(alg, 1e-8).ok
    sr = star_structure_report(alg, tol=1e-8)
    assert sr.status == "ok"
    assert sr.blocks == tuple(sorted(blocks))
    assert sr.center_dimension == len(blocks)
    assert sr.is_cstar


def test_iso_with_non_finite_matrix_fails_its_report():
    # a matrix that is not finite has no rank: the report fails instead of
    # raising from an SVD
    a = matrix_algebra(2)
    u = np.eye(4, dtype=complex)
    u[0, 0] = np.nan
    rep = verify_algebra_iso(AlgebraIso(a, a, u))
    assert [c.name for c in rep.failures()] == ["square and invertible"]


def test_non_finite_constants_have_no_unit():
    a = matrix_algebra(2)
    struct = a.struct.copy()
    struct[1, 0, 1] = np.nan
    assert StarAlgebra(a.basis, struct, a.invol).unit() is None
    assert a.unit() is not None
