"""Numerical regular-representation oracle vs the exact character route."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from corpus import (
    INDEX_TABLE_SUBGROUPS,
    SPEC_Q8,
    central_product_q8,
    index_table_subgroup,
    spec_product,
    spec_symmetric,
)
from groupvna import vn_spectrum
from groupvna.characters import class_data
from groupvna.errors import DegenerateSpectrumError, DomainMismatchError, ParameterError
from groupvna.groups import Subgroup, as_subgroup, construct_group
from groupvna.vn_spectrum import (
    ORACLE_MAX_ATTEMPTS,
    RegularRep,
    _projection_residual,
    factor_spectrum,
    numerical_decomposition,
)


def test_oracle_s3_blocks():
    nd = numerical_decomposition(construct_group(spec_symmetric(3)), seed=0)
    assert nd.dim_measure_multiset() == [
        (1, Fraction(1, 6)), (1, Fraction(1, 6)), (2, Fraction(2, 3))]


def test_oracle_trivial_group():
    nd = numerical_decomposition(construct_group({"family": "cyclic", "n": 1}), seed=0)
    assert nd.dim_measure_multiset() == [(1, Fraction(1, 1))]


def test_oracle_s3xs3_dimension_multiset():
    nd = numerical_decomposition(construct_group(spec_product(spec_symmetric(3), spec_symmetric(3))))
    dims = sorted(d for d, _ in nd.dim_measure_multiset())
    assert dims == [1, 1, 1, 1, 2, 2, 2, 2, 4]


@pytest.mark.parametrize("spec", [
    spec_symmetric(3),
    SPEC_Q8,
    {"family": "dihedral", "n": 4},
    {"family": "heisenberg", "p": 3},
    {"family": "cyclic", "n": 6},
])
def test_oracle_agrees_with_characters(spec):
    handle = construct_group(spec)
    exact = factor_spectrum(handle).dim_measure_multiset()
    nd = numerical_decomposition(handle, seed=0)
    got = nd.dim_measure_multiset()
    assert [d for d, _ in got] == [d for d, _ in exact]
    for (_, m1), (_, m2) in zip(got, exact):
        assert abs(float(m1 - m2)) <= 1e-6


def test_oracle_central_product():
    spec, _, _ = central_product_q8()
    handle = construct_group(spec)
    nd = numerical_decomposition(handle, seed=0)
    assert nd.dim_measure_multiset() == factor_spectrum(handle).dim_measure_multiset()


@pytest.mark.parametrize("n", [3, 5])  # S5 has blocks of dimension 4, 5 and 6
def test_oracle_matrix_unit_invariants(n):
    handle = construct_group(spec_symmetric(n))
    nd = numerical_decomposition(handle, seed=0)
    for block in nd.blocks:
        assert block.max_residual() <= 1e-6
        units, d = block.units, block.dimension
        n = nd.subgroup_order
        assert units.shape == (d, d, n, n)
        # spot-check the relations on the full-size matrices as well
        for j in range(d):
            for k in range(d):
                u = units[j, k]
                assert np.linalg.norm(u.conj().T - units[k, j]) < 1e-8
                for l in range(d):
                    expect = units[j, 0] if k == l else np.zeros((n, n))
                    assert np.linalg.norm(u @ units[l, 0] - expect) < 1e-8
        total = sum(units[j, j] for j in range(d))
        assert np.linalg.norm(total - block.projection) < 1e-8


def _full_space_residuals(block):
    # the four relations of `NumericalBlock.residuals` on the (d, d, n, n) units
    def fro(stack):
        return float(np.linalg.norm(stack, axis=(-2, -1)).max())

    units = block.units
    d = len(units)
    adj = units.conj().swapaxes(-1, -2)
    diag = units[np.arange(d), np.arange(d)]
    product = 0.0
    for j in range(d):
        for k in range(d):
            prod = units[j, k] @ units  # e_jk e_lm, which is e_jm when k == l, else 0
            prod[k] -= units[j]
            product = max(product, fro(prod))
    return {
        "product": product,
        "adjoint": fro(adj - units.swapaxes(0, 1)),
        "murray_von_neumann": max(fro(adj @ units - diag[None]),
                                  fro(units @ adj - diag[:, None])),
        "sum_vs_projection": float(np.linalg.norm(diag.sum(axis=0) - block.projection)),
    }


def test_core_residuals_equal_the_full_space_relations():
    # S5 has blocks of dimension 1, 4, 5 and 6
    nd = numerical_decomposition(construct_group(spec_symmetric(5)), seed=0)
    assert sorted({b.dimension for b in nd.blocks}) == [1, 4, 5, 6]
    for block in nd.blocks:
        stored, full = block.residuals, _full_space_residuals(block)
        assert stored.keys() == full.keys()
        for name in full:
            assert abs(stored[name] - full[name]) <= 1e-12, (block.dimension, name)


@pytest.mark.parametrize("spec", [SPEC_Q8, spec_symmetric(4), spec_symmetric(5)],
                         ids=["Q8", "S4", "S5"])
def test_a_scaled_core_fails_certification(spec):
    nd = numerical_decomposition(construct_group(spec), seed=0)
    eps = 1e-3
    for block in (b for b in nd.blocks if b.dimension >= 2):
        d = block.dimension
        assert [block.residuals] == vn_spectrum._core_residuals(block.cores[None])
        assert block.max_residual() <= 1e-6
        for j in range(d):
            scaled = block.cores.copy()
            scaled[j] *= 1 + eps
            [residuals] = vn_spectrum._core_residuals(scaled[None])
            bad = dataclasses.replace(block, cores=scaled, residuals=residuals)
            # e_ij e_ji = (1 + eps)^2 e_ii for i != j, and e_ji^dagger e_ji likewise;
            # |e_ii| = sqrt(d)
            floor = ((1 + eps) ** 2 - 1) * np.sqrt(d) * (1 - 1e-6)
            assert bad.residuals["product"] >= floor, (d, j)
            assert bad.residuals["murray_von_neumann"] >= floor, (d, j)
            assert bad.max_residual() > 1e-6, (d, j)
            assert _full_space_residuals(bad)["product"] >= floor, (d, j)


def _cluster(values, gap):
    # the loop that split the centre's sorted eigenvalues before `_gaps`
    slices = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            slices.append(slice(start, i))
            start = i
    slices.append(slice(start, len(values)))
    return slices


def _near_gaps(radius):
    # sorted values whose steps are just above, just below and exactly at the
    # tolerance, each between steps far above it
    gap = vn_spectrum.ORACLE_GAP_TOLERANCE * max(1.0, radius)
    values = np.array([-radius, -2e-6, -2e-6 + gap * (1 + 1e-9), -1e-6, -1e-6 + gap * (1 - 1e-9),
                       0.0, gap, 1e-6])
    steps = np.diff(values)
    assert (steps > gap).tolist() == [True, True, True, False, True, False, True]
    assert steps[5] == gap and steps[3] < gap
    return values, gap


@pytest.mark.parametrize("radius", [0.5, 3.0])
def test_gaps_split_as_the_cluster_loop(radius):
    values, gap = _near_gaps(radius)
    parts = np.split(values, np.flatnonzero(vn_spectrum._gaps(values)) + 1)
    want = [values[sl] for sl in _cluster(values, gap)]
    assert [p.tolist() for p in parts] == [w.tolist() for w in want]
    assert [len(p) for p in parts] == [1, 1, 1, 2, 2, 1]


def test_gaps_scale_each_row_by_its_own_radius():
    rows = np.stack([_near_gaps(0.5)[0], _near_gaps(3.0)[0]])
    got = vn_spectrum._gaps(rows)
    assert got.tolist() == [vn_spectrum._gaps(row).tolist() for row in rows]


def test_indexed_commutator_matches_dense_permutation_product():
    H = as_subgroup(construct_group(spec_symmetric(3)))
    rep = RegularRep(H)
    rng = np.random.default_rng(0)
    p = rng.random((6, 6)) + 1j * rng.random((6, 6))  # not central
    assert any(np.abs(p @ rep.matrix(g) - rep.matrix(g) @ p).max() > 1e-6 for g in H.elements)
    for g, perm in zip(H.elements, rep._perms):
        rho = rep.matrix(g)
        np.testing.assert_allclose(p[:, perm] - p[np.argsort(perm), :], p @ rho - rho @ p,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", [
    spec_symmetric(4),
    {"family": "dihedral", "n": 10},
    {"family": "heisenberg", "p": 3},
    spec_product({"family": "cyclic", "n": 10}, {"family": "cyclic", "n": 12}),
], ids=["S4", "D10", "Heis3", "C10xC12"])
def test_regular_rep_from_generators_matches_all_products(spec):
    # r_g is built as r_g'[r_s] along a BFS over the generators; it must be
    # the permutation x -> x g^-1 read off all n^2 products
    H = as_subgroup(construct_group(spec))
    fam, index = H.handle._family, H._index
    rep = RegularRep(H)
    assert rep._perms.shape == (H.order, H.order)
    for g, perm in zip(H.elements, rep._perms):
        ginv = fam.inv(g.form)
        direct = [index[fam.mul(x.form, ginv)] for x in H.elements]
        np.testing.assert_array_equal(perm, direct)


def _letter_matrices(rep):
    H = rep.subgroup
    return [rep.matrix(H.handle.element(t)) for t in H.table.letters]


def _dense_projection_residual(rep, projections):
    # the earlier full-space formula: the largest entry of p p - p, of
    # p rho(t) - rho(t) p over the letters t, and of sum p - I
    n = rep.dimension
    return max([float(np.abs(p @ p - p).max()) for p in projections]
               + [float(np.abs(p @ rho - rho @ p).max())
                  for p in projections for rho in _letter_matrices(rep)]
               + [float(np.abs(sum(projections) - np.eye(n)).max())])


def _full_space_residual(rep, projections):
    # the stacked-basis residual carried to the full space: with P = sum p_b
    # (= W W^dagger), |P - I| and, per letter, |P rho P - sum_b p_b rho p_b|
    # (= |W off(M) W^dagger|), in Frobenius norm; when P = I the second term
    # is |rho - sum_b p_b rho p_b|
    total = sum(projections)
    terms = [np.linalg.norm(total - np.eye(rep.dimension))]
    for rho in _letter_matrices(rep):
        terms.append(np.linalg.norm(total @ rho @ total - sum(p @ rho @ p for p in projections)))
    return float(max(terms))


def test_projection_residual_sees_a_noncentral_projection():
    H = as_subgroup(construct_group(spec_symmetric(3)))
    nd = numerical_decomposition(H, seed=0)
    rep = RegularRep(H)
    block = next(b for b in nd.blocks if b.dimension == 2)
    e = block.units[0, 0]  # a minimal projection: idempotent, not central
    w, u = np.linalg.eigh(e)
    blocks = [dataclasses.replace(block, basis=u[:, w > 0.5]),
              dataclasses.replace(block, basis=u[:, w < 0.5])]  # the ranges of e and I - e
    projections = [b.projection for b in blocks]
    got = _projection_residual(rep, blocks)
    assert got > 1e-6
    assert abs(got - _full_space_residual(rep, projections)) < 1e-12
    assert got >= _dense_projection_residual(rep, projections) / 2


def test_projection_residual_sees_a_nonidempotent_projection():
    # a basis scaled off the unit sphere keeps p central, so the W^dagger W - I
    # term must show
    H = as_subgroup(construct_group(spec_symmetric(3)))
    nd = numerical_decomposition(H, seed=0)
    rep = RegularRep(H)
    i = next(i for i, b in enumerate(nd.blocks) if b.dimension == 1)
    blocks = list(nd.blocks)
    blocks[i] = dataclasses.replace(blocks[i], basis=blocks[i].basis * (1 + 1e-3))
    projections = [b.projection for b in blocks]
    got = _projection_residual(rep, blocks)
    assert got > 1e-6
    assert abs(got - _full_space_residual(rep, projections)) < 1e-12
    assert got >= _dense_projection_residual(rep, projections) / 2


@pytest.mark.parametrize("spec", [
    spec_symmetric(4),
    spec_product({"family": "cyclic", "n": 10}, {"family": "cyclic", "n": 12}),
], ids=["S4", "C10xC12"])
def test_letter_action_on_the_stacked_basis_is_a_row_permutation(spec):
    # the residual reads rho(t_a) W as W[right[a]]
    H = as_subgroup(construct_group(spec))
    nd = numerical_decomposition(H, seed=0)
    rep = RegularRep(H)
    w = np.concatenate([b.basis for b in nd.blocks], axis=1)
    assert w.shape == (H.order, H.order)
    for rho, row in zip(_letter_matrices(rep), H.table.right):
        assert np.array_equal(rho @ w, w[row])


def test_projection_residual_fails_without_one_block():
    H = as_subgroup(construct_group(spec_symmetric(4)))
    nd = numerical_decomposition(H, seed=0)
    rep = RegularRep(H)
    assert _projection_residual(rep, nd.blocks) <= 1e-8
    for i in range(len(nd.blocks)):
        assert not _projection_residual(rep, nd.blocks[:i] + nd.blocks[i + 1:]) <= 1e-6


@pytest.mark.parametrize("name", INDEX_TABLE_SUBGROUPS)
def test_oracle_on_index_table_subgroups(name):
    H = index_table_subgroup(name)
    nd = numerical_decomposition(H, seed=0)
    assert nd.center_dimension == len(class_data(H).classes)
    assert nd.dim_measure_multiset() == factor_spectrum(H).dim_measure_multiset()
    assert nd.projection_residual <= 1e-8


def test_regular_rep_matrix_refuses_an_element_it_does_not_own():
    H = index_table_subgroup("s3-in-s4-elements")
    rep = RegularRep(H)
    outside = next(e for e in H.handle.all_elements() if e not in H)
    twin = construct_group(spec_symmetric(4)).element(H.elements[1].form)  # same form, other handle
    for g in (outside, twin):
        with pytest.raises(DomainMismatchError, match=re.escape(g.describe())):
            rep.matrix(g)
    assert rep.matrix(H.elements[1]).shape == (H.order, H.order)


@pytest.mark.parametrize("spec", [
    spec_symmetric(4),
    spec_product({"family": "cyclic", "n": 10}, {"family": "cyclic", "n": 12}),
], ids=["S4", "C10xC12"])
def test_accumulate_matches_the_sum_of_permutation_matrices(spec):
    H = as_subgroup(construct_group(spec))
    rep = RegularRep(H)
    rng = np.random.default_rng(0)
    c = rng.random(H.order) + 1j * rng.random(H.order)
    want = sum(ci * rep.matrix(g) for ci, g in zip(c, H.elements))
    np.testing.assert_array_equal(rep._accumulate(c), want)


def test_oracle_blocks_hold_no_full_space_arrays():
    # each block keeps its n x d^2 basis and d^3 cores: n^2 + sum d^3 <= 2 n^2
    # entries in all, where one n x n array per block would be 120 n^2
    nd = numerical_decomposition(construct_group(
        spec_product({"family": "cyclic", "n": 10}, {"family": "cyclic", "n": 12})))
    n = nd.subgroup_order
    arrays = {}
    for block in nd.blocks:
        for f in dataclasses.fields(block):
            value = getattr(block, f.name)
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value
    assert len(nd.blocks) == n
    assert sum(a.nbytes for a in arrays.values()) <= 2 * n * n * 16


@pytest.mark.parametrize("spec", [{"family": "cyclic", "n": 10**7}, spec_symmetric(8)],
                         ids=["C10^7", "S8"])
def test_oracle_refuses_a_large_handle_before_enumerating_it(spec, monkeypatch):
    def enumerate_whole_group(handle):
        raise AssertionError("the oracle enumerated a group above its order limit")

    monkeypatch.setattr(Subgroup, "whole_group", staticmethod(enumerate_whole_group))
    with pytest.raises(ParameterError, match="200"):
        numerical_decomposition(construct_group(spec))


def test_oracle_murray_von_neumann_residual():
    nd = numerical_decomposition(construct_group(SPEC_Q8), seed=0)
    for block in nd.blocks:
        assert block.residuals["murray_von_neumann"] <= 1e-6


def test_oracle_result_is_seed_independent():
    handle = construct_group(spec_product(spec_symmetric(3), spec_symmetric(3)))
    multisets = {tuple(numerical_decomposition(handle, seed=s).dim_measure_multiset())
                 for s in (0, 1, 2)}
    assert len(multisets) == 1


def test_oracle_deterministic_given_seed():
    handle = construct_group(spec_symmetric(4))
    a = numerical_decomposition(handle, seed=7)
    b = numerical_decomposition(handle, seed=7)
    assert a.dim_measure_multiset() == b.dim_measure_multiset()
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.projection, bb.projection)
        assert np.array_equal(ba.units, bb.units)


def test_oracle_rank_data_gives_dimensions():
    nd = numerical_decomposition(construct_group(SPEC_Q8), seed=0)
    for block in nd.blocks:
        assert block.multiplicity == block.dimension**2
        rank = int(round(np.trace(block.projection).real))
        assert rank == block.multiplicity


def test_oracle_order_limit():
    s3sum = construct_group({"family": "restricted_sum", "factor": spec_symmetric(3)})
    from groupvna.groups import coordinate_subgroup, generate_closure
    big = generate_closure([g for i in range(3) for g in coordinate_subgroup(s3sum, i).generators])
    assert big.order == 216
    with pytest.raises(ParameterError, match="200"):
        numerical_decomposition(big)


# Each attempt draws, in this order, the central element z and, when some
# block has dimension >= 2, the self-adjoint y and then a: z and y through
# _random_selfadjoint (calls 1 and 2 of an attempt), all three through
# RegularRep._accumulate (calls 1, 2 and 3).  Replacing one draw by the
# identity makes it degenerate on every block: a scalar y has one eigenvalue
# cluster, and E_j 1 E_1 = 0 for j != 1.
def _spoil(monkeypatch, owner, name, every, spoiled):
    """owner.name returns the identity on its calls at the (attempt, position)
    pairs in `spoiled`: attempts count from 0, and positions from 1 within an
    attempt of `every` calls."""
    original, calls = getattr(owner, name), []

    def draw(*args):
        calls.append(None)
        out = original(*args)
        attempt, position = divmod(len(calls) - 1, every)
        return np.eye(len(out)) if (attempt, position + 1) in spoiled else out
    monkeypatch.setattr(owner, name, draw)


DEGENERATE_DRAWS = pytest.mark.parametrize("owner,name,every,position,failure", [
    # y: one cluster where d are needed
    (vn_spectrum, "_random_selfadjoint", 2, 2, "could not isolate 2 minimal projections"),
    # a: every partial isometry E_j a E_1 vanishes
    (RegularRep, "_accumulate", 3, 3, "E_2 a E_1 vanishes"),
], ids=["y-clusters", "vanishing-isometry"])


@DEGENERATE_DRAWS
def test_a_degenerate_first_draw_reseeds_once(monkeypatch, owner, name, every, position,
                                              failure):
    handle = construct_group(SPEC_Q8)
    want = numerical_decomposition(handle).dim_measure_multiset()
    _spoil(monkeypatch, owner, name, every, {(0, position)})
    nd = numerical_decomposition(handle)
    assert nd.attempts == 2
    assert nd.dim_measure_multiset() == want
    assert nd.max_unit_residual() <= 1e-6 and nd.projection_residual <= 1e-6


@DEGENERATE_DRAWS
def test_degenerate_draws_on_every_attempt_raise(monkeypatch, owner, name, every, position,
                                                 failure):
    _spoil(monkeypatch, owner, name, every, {(t, position) for t in range(ORACLE_MAX_ATTEMPTS)})
    with pytest.raises(DegenerateSpectrumError,
                       match=f"after {ORACLE_MAX_ATTEMPTS} seeds .last failure: {failure}"):
        numerical_decomposition(construct_group(SPEC_Q8))


def test_an_abelian_group_draws_only_the_central_element(monkeypatch):
    calls = []
    original = vn_spectrum._random_selfadjoint
    monkeypatch.setattr(vn_spectrum, "_random_selfadjoint",
                        lambda *args: calls.append(None) or original(*args))
    nd = numerical_decomposition(construct_group(
        spec_product({"family": "cyclic", "n": 10}, {"family": "cyclic", "n": 12})))
    assert nd.attempts == 1 and len(calls) == 1
    assert len({id(block.cores) for block in nd.blocks}) == len(nd.blocks)
