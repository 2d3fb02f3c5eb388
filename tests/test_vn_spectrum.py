"""Group algebra trace, central projections, spectra, and lemma verifiers."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from corpus import (
    SPEC_Q8,
    SPEC_Q8SUM,
    SPEC_S3SUM,
    central_product_handle_and_subgroups,
    spec_cyclic,
    spec_dihedral,
    spec_product,
    spec_symmetric,
)
from groupvna import cli, vn_spectrum
from groupvna.characters import character_table, class_data
from groupvna.errors import (
    BudgetExceededError,
    ConsistencyError,
    ParameterError,
    PreconditionError,
    RequiresFiniteError,
)
from groupvna.groups import (
    as_subgroup,
    construct_group,
    coordinate_subgroup,
    factor_subgroup,
    generate_closure,
)
from groupvna.jsonutil import canonical_dumps
from groupvna.vn_spectrum import (
    AlgebraElement,
    RegularRep,
    central_projection,
    factor_spectrum,
    growth_search,
    icc_orthonormality_check,
    nonabelian_measure,
    product_projection_spectrum,
    tau_inner_product,
    tower_spectra,
    trace,
    trace_of_product,
    unitary,
)


@pytest.fixture(scope="module")
def s3():
    return construct_group(spec_symmetric(3))


# ---------------------------------------------------------------------------
# trace and inner product


def test_trace_examples(s3):
    g = s3.element((1, 0, 2))
    assert trace(unitary(s3.identity)) == 1
    assert trace(unitary(g)) == 0
    assert trace(3 * unitary(s3.identity) + 2 * unitary(g)) == 3


def test_trace_is_tracial_on_random_pairs(s3):
    rng = random.Random(11)
    pool = list(s3.iter_elements(6))
    for _ in range(200):
        a = AlgebraElement(s3, {rng.choice(pool): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                for _ in range(3)})
        b = AlgebraElement(s3, {rng.choice(pool): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                for _ in range(3)})
        assert trace(a * b) == trace(b * a)


def test_inner_product_orthonormal_unitaries(s3):
    els = list(s3.iter_elements(6))
    for g in els:
        for h in els:
            want = 1 if g == h else 0
            assert tau_inner_product(unitary(g), unitary(h)) == want


def test_noncommuting_difference_has_norm_two(s3):
    g = s3.element((1, 0, 2))
    h = s3.element((1, 2, 0))
    gh = unitary(g * h)
    hg = unitary(h * g)
    assert tau_inner_product(gh, hg) == 0
    assert tau_inner_product(gh - hg, gh - hg) == 2


def test_faithfulness(s3):
    g = s3.element((1, 0, 2))
    a = unitary(g) - unitary(s3.identity)
    assert tau_inner_product(a, a) == 2
    zero = a - a
    assert tau_inner_product(zero, zero) == 0 and zero.is_zero()


def test_star_is_involution_and_antimultiplicative(s3):
    rng = random.Random(3)
    pool = list(s3.iter_elements(6))
    for _ in range(100):
        a = AlgebraElement(s3, {rng.choice(pool): Fraction(rng.randint(-2, 2))
                                for _ in range(3)})
        b = AlgebraElement(s3, {rng.choice(pool): Fraction(rng.randint(-2, 2))
                                for _ in range(3)})
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()


def test_lemma3_orthogonality_infinite_dihedral():
    # exhaustive over all supports of size <= 8 inside the first 8 translations
    import itertools
    dinf = construct_group({"family": "dihedral_infinite"})
    translations = [dinf.element((n, 0)) for n in range(-4, 4)]
    reflections = [dinf.element((n, 1)) for n in range(-3, 4)]
    for size in range(1, 9):
        for support in itertools.combinations(translations, size):
            a = AlgebraElement(dinf, {g: Fraction(i + 1, 2) for i, g in enumerate(support)})
            for h in reflections:
                assert tau_inner_product(a, unitary(h)) == 0


# ---------------------------------------------------------------------------
# central projections


def test_averaging_projection(s3):
    table = character_table(class_data(s3))
    trivial = next(r for r in table.rows if r.degree == 1
                   and all(v == 1 for v in r.values))
    p = central_projection(s3, trivial)
    assert all(c == Fraction(1, 6) for c in p.terms.values())
    assert p * p == p


def test_sign_character_projection(s3):
    table = character_table(class_data(s3))
    sign = next(r for r in table.rows if r.degree == 1
                and any(v == -1 for v in r.values))
    p = central_projection(s3, sign)
    assert trace(p) == Fraction(1, 6)
    for g, c in p.terms.items():
        is_transposition = sum(1 for i in range(3) if g.form[i] != i) == 2
        assert c == (Fraction(-1, 6) if is_transposition else Fraction(1, 6))
    assert p * p == p and p.star() == p


def test_degree2_projection_trace(s3):
    table = character_table(class_data(s3))
    deg2 = next(r for r in table.rows if r.degree == 2)
    p = central_projection(s3, deg2)
    assert trace(p) == Fraction(4, 6)
    assert p * p == p and p.star() == p
    for h in s3.iter_elements(6):
        assert p * unitary(h) == unitary(h) * p


def test_large_exponent_projection_is_exactly_idempotent():
    # exponent 66: the projection's coefficients live in Q(zeta_66), exactly
    d33 = construct_group({"family": "dihedral", "n": 33})
    H = as_subgroup(d33)
    table = character_table(class_data(H))
    row = next(r for r in table.rows if r.degree == 2)
    p = central_projection(H, row)
    assert p * p == p
    assert p.star() == p


@pytest.mark.parametrize("coefficient", [0.5, 1j])
def test_inexact_coefficients_are_refused(s3, coefficient):
    g = next(s3.iter_elements())
    with pytest.raises(ParameterError):
        AlgebraElement(s3, {g: coefficient})


@pytest.mark.parametrize("spec", [
    spec_symmetric(3), spec_symmetric(4), SPEC_Q8,
    {"family": "dihedral", "n": 4}, {"family": "cyclic", "n": 6},
    {"family": "heisenberg", "p": 3}, spec_product(spec_symmetric(3), {"family": "cyclic", "n": 2}),
])
def test_central_projections_resolve_identity(spec):
    handle = construct_group(spec)
    H = as_subgroup(handle)
    table = character_table(class_data(H))
    total = AlgebraElement.zero(handle)
    for row in table.rows:
        total = total + central_projection(H, row)
    assert total == unitary(handle.identity)


# ---------------------------------------------------------------------------
# factor spectra


def test_s3_spectrum(s3):
    spec = factor_spectrum(s3)
    assert [(a.dimension, a.measure) for a in spec.atoms] == [
        (1, Fraction(1, 6)), (1, Fraction(1, 6)), (2, Fraction(2, 3))]


def test_cyclic_spectrum():
    for n in (1, 2, 5, 12):
        spec = factor_spectrum(construct_group({"family": "cyclic", "n": n}))
        assert all(a.dimension == 1 and a.measure == Fraction(1, n) for a in spec.atoms)
        assert len(spec.atoms) == n


def test_q8_spectrum():
    spec = factor_spectrum(construct_group(SPEC_Q8))
    assert spec.dim_measure_multiset() == [
        (1, Fraction(1, 8))] * 4 + [(2, Fraction(1, 2))]


def test_spectrum_completeness():
    for spec in (spec_symmetric(4), SPEC_Q8, {"family": "heisenberg", "p": 3}):
        fs = factor_spectrum(construct_group(spec))
        assert sum((a.measure for a in fs.atoms), Fraction(0)) == 1
        assert sum(a.dimension**2 for a in fs.atoms) == fs.subgroup_order


def test_nonabelian_measure_values(s3):
    assert nonabelian_measure(s3) == Fraction(2, 3)
    assert nonabelian_measure(construct_group(SPEC_Q8)) == Fraction(1, 2)
    assert nonabelian_measure(construct_group({"family": "cyclic", "n": 8})) == 0


_D6xQ8xS3 = spec_product(spec_dihedral(6), SPEC_Q8, spec_symmetric(3))


@pytest.mark.parametrize("spec", [
    spec_product(spec_cyclic(10), spec_cyclic(12)),
    spec_product(spec_symmetric(4), spec_symmetric(3)),
    spec_product({"family": "heisenberg", "p": 3}, SPEC_Q8),
    _D6xQ8xS3,
    spec_product(SPEC_Q8, SPEC_Q8, spec_cyclic(4)),  # a repeated factor
    spec_product(spec_symmetric(3), spec_cyclic(1)),  # a trivial factor
    spec_product(spec_product(spec_symmetric(3), spec_cyclic(2)), spec_dihedral(4)),
], ids=["C10xC12", "S4xS3", "Heis3xQ8", "D6xQ8xS3", "Q8xQ8xC4", "S3xC1", "nested"])
def test_product_fold_matches_the_product_table(spec):
    # a handle folds its factors' spectra; as a subgroup it keeps the table path
    handle = construct_group(spec)
    assert factor_spectrum(handle).to_json() == factor_spectrum(as_subgroup(handle)).to_json()


def test_lemma6_on_a_folded_product_is_unchanged(tmp_path, capsys):
    path = tmp_path / "d6xq8xs3.json"
    path.write_text(json.dumps(_D6xQ8xS3))
    assert cli.run(["lemma6", "--spec", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_ms"]
    assert report["results"]["nonabelian_measure"] == {"num": 17, "den": 18}
    assert hashlib.sha256(canonical_dumps(report).encode()).hexdigest() == (
        "4d75dee7e401fe285deaf4d02e12d7cacdcebc58a083985ce5280360856694d4")


@pytest.fixture
def table_calls(monkeypatch):
    calls = []

    def counted(cd):
        calls.append(cd.order)
        return character_table(cd)

    monkeypatch.setattr(vn_spectrum, "character_table", counted)
    return calls


def test_product_above_max_order_is_refused_before_any_factor_table(table_calls, tmp_path,
                                                                     capsys):
    spec = spec_product(spec_symmetric(5), spec_symmetric(5))  # order 14400
    with pytest.raises(RequiresFiniteError, match="order 14400 exceeds the configured maximum"):
        factor_spectrum(construct_group(spec))
    path = tmp_path / "s5xs5.json"
    path.write_text(json.dumps(spec))
    assert cli.run(["spectrum", "--spec", str(path)]) == 2
    assert "exceeds the configured maximum 5000" in capsys.readouterr().err
    assert table_calls == []


def test_product_with_an_infinite_factor_is_not_folded(table_calls):
    spec = spec_product({"family": "dihedral_infinite"}, spec_symmetric(3))
    with pytest.raises(RequiresFiniteError, match="is not finite"):
        factor_spectrum(construct_group(spec))
    assert table_calls == []


def test_product_fold_builds_each_distinct_factor_table_once(table_calls):
    factor_spectrum(construct_group(spec_product(SPEC_Q8, SPEC_Q8, spec_cyclic(4))))
    assert sorted(table_calls) == [4, 8]


def test_product_fold_refuses_a_fractional_atom_count(monkeypatch):
    # measure 1/2 at dimension 2 of an order-2 group would be a quarter of an atom
    monkeypatch.setattr(vn_spectrum, "_fold", lambda a, b: {1: Fraction(1, 2), 2: Fraction(1, 2)})
    with pytest.raises(ConsistencyError, match="not a whole number of atoms"):
        factor_spectrum(construct_group(spec_product(spec_cyclic(2), spec_cyclic(1))))


@pytest.mark.parametrize("factors", [
    [spec_cyclic(10)] * 3,  # 1000 classes
    [spec_cyclic(10), spec_cyclic(12), spec_symmetric(3), spec_cyclic(2)],  # 720 classes
], ids=["C10^3", "C10xC12xS3xC2"])
def test_many_class_product_spectrum_is_the_product_of_factor_degrees(factors):
    handle = construct_group(spec_product(*factors))
    degrees = [1]
    for f in factors:
        degrees = [d * e for d in degrees
                   for e in (a.dimension for a in factor_spectrum(construct_group(f)).atoms)]
    atoms = factor_spectrum(handle).atoms
    assert [a.dimension for a in atoms] == sorted(degrees)
    assert all(a.measure == Fraction(a.dimension ** 2, handle.order) for a in atoms)
    assert [a.label for a in atoms] == [f"chi{i}" for i in range(len(degrees))]


# ---------------------------------------------------------------------------
# regular representation


def test_regular_rep_is_permutation_homomorphism(s3):
    import numpy as np
    rep = RegularRep(as_subgroup(s3))
    els = list(s3.iter_elements(6))
    for g in els:
        m = rep.matrix(g)
        assert ((m == 0) | (m == 1)).all()
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
        tr = np.trace(m) / rep.dimension
        assert tr == (1.0 if g.is_identity else 0.0)
    def left_matrix(g):
        # lambda(g) delta_x = delta_{g x}, in the same coordinates as rep
        m = np.zeros((rep.dimension, rep.dimension))
        for i, x in enumerate(rep.subgroup.elements):
            m[rep.subgroup.elements.index(g * x), i] = 1.0
        return m

    rng = random.Random(1)
    for _ in range(50):
        g, h = rng.choice(els), rng.choice(els)
        assert np.allclose(rep.matrix(g) @ rep.matrix(h), rep.matrix(g * h))
        # the left-handed mirror commutes with the right action
        assert np.allclose(left_matrix(g) @ rep.matrix(h), rep.matrix(h) @ left_matrix(g))


# ---------------------------------------------------------------------------
# lemma 7


def test_lemma7_s3xs3():
    prod = construct_group(spec_product(spec_symmetric(3), spec_symmetric(3)))
    h0 = factor_subgroup(prod, 0)
    h1 = factor_subgroup(prod, 1)
    report = product_projection_spectrum(h0, h1, 2, 2)
    assert report.passed and report.is_projection
    assert report.supported_atoms and all(d == 4 for _, d, _ in report.supported_atoms)
    assert report.trace_of_projection == Fraction(4, 9)


def test_lemma7_central_product():
    handle, h0, h1 = central_product_handle_and_subgroups()
    report = product_projection_spectrum(h0, h1, 2, 2)
    assert report.passed
    assert len(report.supported_atoms) == 1
    label, dim, weight = report.supported_atoms[0]
    assert dim == 4 and weight == Fraction(1, 2)
    assert sorted(a.dimension for a in factor_spectrum(handle).atoms) == [1] * 16 + [4]


def _lemma7_pair(name):
    if name == "central":
        return central_product_handle_and_subgroups()[1:]
    factor = {"S3xS3": spec_symmetric(3), "Q8xQ8": SPEC_Q8}[name]
    prod = construct_group(spec_product(factor, factor))
    return factor_subgroup(prod, 0), factor_subgroup(prod, 1)


@pytest.mark.parametrize("n0,n1", [(1, 1), (2, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("name", ["S3xS3", "Q8xQ8", "central"])
def test_lemma7_weights_are_traces_against_the_central_projections(name, n0, n1):
    # the reference takes the long way: p = p_0 p_1 and every p_psi of H_0 H_1
    # built as exact algebra elements, each weight tau(p p_psi) summed term by term
    h0, h1 = _lemma7_pair(name)

    def threshold_projection(sub, threshold):
        rows = character_table(class_data(sub)).rows
        return sum((central_projection(sub, row) for row in rows if row.degree >= threshold),
                   AlgebraElement.zero(sub.handle))

    p = threshold_projection(h0, n0) * threshold_projection(h1, n1)
    H = generate_closure([*h0.generators, *h1.generators])
    want = []
    for row in character_table(class_data(H)).rows:
        weight = trace_of_product(p, central_projection(H, row))
        if not weight.is_zero():
            want.append((row.label, row.degree, weight.as_fraction()))
    report = product_projection_spectrum(h0, h1, n0, n1)
    assert report.supported_atoms == want
    assert report.passed and report.trace_of_projection == trace(p).as_fraction()


def test_lemma7_trivial_thresholds():
    prod = construct_group(spec_product(spec_symmetric(3), spec_symmetric(3)))
    report = product_projection_spectrum(factor_subgroup(prod, 0), factor_subgroup(prod, 1), 1, 1)
    assert report.passed
    assert report.trace_of_projection == 1  # p_0 p_1 = I


def test_lemma7_rejects_noncommuting_subgroups(s3):
    H = as_subgroup(s3)
    with pytest.raises(PreconditionError, match="do not commute"):
        product_projection_spectrum(H, H, 2, 2)


# ---------------------------------------------------------------------------
# growth (lemmas 8-9)


@pytest.fixture(scope="module")
def s3sum_tower():
    handle = construct_group(SPEC_S3SUM)
    return [coordinate_subgroup(handle, i) for i in range(4)]


def test_growth_k1(s3sum_tower):
    result = growth_search(s3sum_tower, k=1, epsilon=Fraction(1, 20))
    assert result.found and result.levels_required == 1
    assert result.achieved_measure == Fraction(2, 3)


def test_growth_k2_needs_three_levels(s3sum_tower):
    result = growth_search(s3sum_tower, k=2, epsilon=Fraction(1, 20))
    assert result.found and result.levels_required == 3
    assert result.achieved_measure == Fraction(20, 27)
    assert result.history[1] == (2, 36, Fraction(16, 36))  # N = 2 rejected


def test_growth_large_epsilon_clamps_threshold(s3sum_tower):
    result = growth_search(s3sum_tower[:1], k=1, epsilon=Fraction(3, 5))
    assert result.measure_threshold == 0
    assert result.found and result.levels_required == 1


def test_growth_cap_reported_not_fatal(s3sum_tower):
    result = growth_search(s3sum_tower[:2], k=3, epsilon=Fraction(1, 20))
    assert not result.found
    assert result.levels_required is None
    assert len(result.history) == 2


def test_growth_rejects_noncommuting_tower(s3):
    H = as_subgroup(s3)
    with pytest.raises(PreconditionError):
        growth_search([H, H], k=1, epsilon=Fraction(1, 20))


def test_growth_parameter_validation(s3sum_tower):
    with pytest.raises(ParameterError):
        growth_search(s3sum_tower, k=0, epsilon=Fraction(1, 20))
    with pytest.raises(ParameterError):
        growth_search(s3sum_tower, k=1, epsilon=Fraction(2, 1))


def _assert_fold_matches_enumeration(levels):
    orders = []
    for n, order, spectrum in tower_spectra(levels):
        closure = generate_closure([g for lv in levels[:n] for g in lv.generators])
        assert order == closure.order
        assert spectrum == factor_spectrum(closure).measure_by_dimension()
        orders.append(order)
    return orders


@pytest.mark.parametrize("factor,levels", [
    (spec_symmetric(3), 4),
    (SPEC_Q8, 3),
    ({"family": "dihedral", "n": 4}, 3),
])
def test_tower_fold_matches_enumeration_on_coordinate_towers(factor, levels):
    # Q8^4 and D4^4 (4096 elements) take seconds to decompose directly
    handle = construct_group({"family": "restricted_sum", "factor": factor})
    tower = [coordinate_subgroup(handle, i) for i in range(levels)]
    order = tower[0].order
    assert _assert_fold_matches_enumeration(tower) == [order ** n for n in range(1, levels + 1)]


def test_tower_fold_matches_enumeration_on_product_factors():
    handle = construct_group(spec_product(spec_symmetric(3), SPEC_Q8,
                                          {"family": "dihedral", "n": 5}))
    tower = [factor_subgroup(handle, i) for i in range(3)]
    assert _assert_fold_matches_enumeration(tower) == [6, 48, 480]


def test_tower_fold_over_levels_that_share_a_central_involution():
    tower = _shared_involution_tower()
    assert [H.order for H in tower] == [8, 16, 16]
    assert _assert_fold_matches_enumeration(tower) == [8, 64, 512]


def _shared_involution_tower():
    # level i >= 1 is <z_0 z_i, Q8_i> = Q8_i x <z_0>, order 16, with z_i the
    # central involution of coordinate i; each meets the earlier product in
    # {e, z_0}, so the orders are 8 * 16^(n-1) / 2^(n-1), not 8 * 16^(n-1)
    handle = construct_group(SPEC_Q8SUM)
    tower = [coordinate_subgroup(handle, 0)]
    for i in (1, 2):
        z0_zi = handle.element(((0, (0, 1)), (i, (0, 1))))
        tower.append(generate_closure([z0_zi, *coordinate_subgroup(handle, i).generators]))
    return tower


def test_tower_fold_refuses_by_the_computed_order():
    # levels that meet trivially are folded, and no limit binds their product
    handle = construct_group(SPEC_Q8SUM)
    tower = [coordinate_subgroup(handle, i) for i in range(5)]
    spectra = tower_spectra(tower, closure_budget=60, max_order=50)
    assert [order for _, order, _ in spectra] == [8 ** n for n in range(1, 6)]
    # levels that share a centre are closed, so the computed order is refused
    # before that closure, by the closure budget first
    tower = _shared_involution_tower()
    with pytest.raises(BudgetExceededError,
                       match="2 levels has 64 elements, more than closure_budget = 60"):
        list(tower_spectra(tower, closure_budget=60, max_order=50))
    spectra = tower_spectra(tower, closure_budget=10**6, max_order=500)
    assert [order for _, order, _ in itertools.islice(spectra, 2)] == [8, 64]
    with pytest.raises(RequiresFiniteError, match="512 elements, more than max_order = 500"):
        next(spectra)


# ---------------------------------------------------------------------------
# icc specialization


def test_icc_free2_gram_identity():
    free2 = construct_group({"family": "free", "rank": 2})
    report = icc_orthonormality_check(free2, n=53, class_budget=300)
    assert report.passed and report.sample_size == 53
    assert report.metadata_icc


def test_icc_same_element_inner_product(s3):
    g = construct_group({"family": "free", "rank": 2}).element((1, 2))
    assert tau_inner_product(unitary(g), unitary(g)) == 1


def test_icc_rejects_infinite_dihedral():
    dinf = construct_group({"family": "dihedral_infinite"})
    with pytest.raises(ConsistencyError, match="finite conjugacy class"):
        icc_orthonormality_check(dinf, n=5, class_budget=200)


def test_icc_rejects_finite_group(s3):
    with pytest.raises(ConsistencyError):
        icc_orthonormality_check(s3, n=3, class_budget=200)
