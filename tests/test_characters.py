"""Character tables via class-sum eigenvectors over a prime field."""

import hashlib
import json
import random
import sys

import numpy as np
import pytest

from corpus import (
    INDEX_TABLE_SUBGROUPS,
    PRODUCT_SWEEP,
    SPEC_Q8,
    TRACE_FAMILY_SPECS,
    central_product_q8,
    index_table_subgroup,
    spec_cyclic,
    spec_dihedral,
    spec_product,
    spec_symmetric,
)
from groupvna import characters, cli, groups, modp
from groupvna.characters import (
    CharacterTable,
    ClassData,
    character_table,
    class_data,
    dixon_prime,
    validate_orthogonality,
)
from groupvna.cyclotomic import Cyclo
from groupvna.errors import ConsistencyError, RequiresFiniteError
from groupvna.groups import _bfs, commutator, construct_group, generate_closure
from groupvna.jsonutil import canonical_dumps


def _table(spec) -> CharacterTable:
    return character_table(class_data(construct_group(spec)))


def _dixon(spec) -> CharacterTable:
    """The Dixon engine's table, also for the whole of a product."""
    return characters._dixon_table(class_data(construct_group(spec)))


def test_class_data_s3():
    cd = class_data(construct_group({"family": "symmetric", "n": 3}))
    assert sorted(cd.sizes) == [1, 2, 3]
    assert cd.sizes[0] == 1  # identity class first
    assert cd.exponent == 6


def _class_of(cd, form):
    return cd.index_class[cd.subgroup._index[form]]


def _conjugacy_orbit(fam, form, letters):
    """Forms t u t^-1 reachable from `form` with t over `letters`, breadth first,
    each conjugation computed by the group law."""
    maps = [lambda u, t=t, t_inv=fam.inv(t): fam.mul(fam.mul(t, u), t_inv) for t in letters]
    return _bfs([form], maps)


@pytest.mark.parametrize("name", INDEX_TABLE_SUBGROUPS)
def test_class_data_matches_a_conjugacy_orbit_reference(name):
    H = index_table_subgroup(name)
    fam = H.handle._family
    # the classes as orbits of canonical forms under conjugation by the
    # generators and their inverses, in order of first element
    letters = fam.alphabet_block([g.form for g in H.generators])
    want, seen = [], set()
    for g in H.elements:
        if g.form not in seen:
            want.append(_conjugacy_orbit(fam, g.form, letters))
            seen.update(want[-1])
    cd = class_data(H)
    assert [[x.form for x in c.elements] for c in cd.classes] == want
    for c, cycle in zip(cd.classes, cd.power_classes):
        powers, x = [], H.handle.identity
        while not powers or not x.is_identity:
            powers.append(_class_of(cd, x.form))
            x = x * c.representative
        assert cycle == powers


def test_class_data_cyclic4_singletons():
    cd = class_data(construct_group({"family": "cyclic", "n": 4}))
    assert cd.sizes == [1, 1, 1, 1]


def test_class_data_quaternion8():
    cd = class_data(construct_group({"family": "quaternion8"}))
    assert sorted(cd.sizes) == [1, 1, 2, 2, 2]


def _unit(r, i):
    return [int(j == i) for j in range(r)]


def test_structure_constants_identity_row():
    cd = class_data(construct_group({"family": "symmetric", "n": 4}))
    r = len(cd.classes)
    assert np.array_equal(cd.class_combination(_unit(r, 0)), np.eye(r, dtype=np.int64))
    sizes = np.array(cd.sizes)
    for i in range(r):
        assert np.array_equal(cd.class_combination(_unit(r, i)) @ sizes, sizes[i] * sizes)


@pytest.mark.parametrize("name", INDEX_TABLE_SUBGROUPS)
def test_class_combination_matches_the_group_law(name):
    cd = class_data(index_table_subgroup(name))
    fam, r = cd.subgroup.handle._family, len(cd.classes)
    rng = random.Random(r)
    c = [rng.randrange(1000) for _ in range(r)]
    # sum_i c_i a_ijk from the products x^-1 z_k at each class's representative
    want = np.zeros((r, r), dtype=np.int64)
    for k, cls in enumerate(cd.classes):
        z = cls.representative.form
        for x in cd.subgroup.elements:
            want[_class_of(cd, fam.mul(fam.inv(x.form), z)), k] += c[_class_of(cd, x.form)]
    assert np.array_equal(cd.class_combination(c), want)


@pytest.mark.parametrize("spec,closures", [
    (spec_dihedral(20), 1),
    (spec_product({"family": "heisenberg", "p": 3}, SPEC_Q8), 2),
], ids=["D20", "Heis3xQ8"])
def test_the_table_tree_is_searched_once(monkeypatch, spec, closures):
    # the closure that lists the group (a product: its factors' closures) is
    # the one search for its tree, which class_data's power walk,
    # _central_blocks and class_combination all read
    searches = []

    def recording(seeds, maps, budget=None):
        searches.append(sys._getframe(1).f_code.co_name)  # the caller
        return _bfs(seeds, maps, budget)
    monkeypatch.setattr(groups, "_bfs", recording)
    cd = class_data(construct_group(spec))
    characters._dixon_table(cd)
    assert searches == ["_closure"] * closures + ["conj_orbits"] * len(cd.classes)


def test_class_data_allocates_no_structure_constant_tensor():
    # C300 has 300 classes; a dense int64 r x r x r tensor would take 206 MiB
    import tracemalloc
    handle = construct_group({"family": "cyclic", "n": 300})
    tracemalloc.start()
    try:
        class_data(handle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_requires_finite():
    with pytest.raises(RequiresFiniteError):
        class_data(construct_group({"family": "dihedral_infinite"}))
    with pytest.raises(RequiresFiniteError):
        class_data(construct_group({"family": "symmetric", "n": 5}), max_order=100)


def test_dixon_prime_properties():
    # S3, S5, Q8 x C4, Heis(3), the trivial group, C5000
    for order, exponent, classes in ((6, 6, 3), (120, 60, 7), (32, 4, 20), (27, 3, 11),
                                     (1, 1, 1), (5000, 5000, 5000)):
        p = dixon_prime(order, exponent, classes)
        assert modp.is_prime(p)
        assert (p - 1) % exponent == 0
        assert p * p > 4 * order
        assert p > classes * classes
        assert classes * (p - 1) ** 2 < 2**63


@pytest.mark.parametrize("order,exponent,classes", [
    (10**4, 10**4, 10**4),  # classes (p - 1)^2 past 2^63
    (10**6, 10**7, 10),  # exponent (p - 1)^2 past 2^63
    (2**40, 2, 1),  # order (p - 1) past 2^53
])
def test_dixon_prime_refuses_a_prime_that_overflows_int64(order, exponent, classes):
    with pytest.raises(ConsistencyError, match="overflows int64"):
        dixon_prime(order, exponent, classes)


def test_trivial_table():
    t = _table({"family": "cyclic", "n": 1})
    assert t.degrees == [1]
    assert t.rows[0].values[0] == 1


def test_cyclic2_table():
    t = _table({"family": "cyclic", "n": 2})
    rows = {tuple(v.as_fraction() for v in r.values) for r in t.rows}
    assert rows == {(1, 1), (1, -1)}


def test_s3_table_values():
    t = _table({"family": "symmetric", "n": 3})
    assert t.degrees == [1, 1, 2]
    deg2 = t.rows[2]
    # classes are ordered (e, transpositions, 3-cycles)
    assert [v.as_fraction() for v in deg2.values] == [2, 0, -1]


@pytest.mark.parametrize("n", [5, 12, 72])
def test_cyclic_table_is_fourier_matrix(n):
    # chi_a(g^b) = zeta_n^(ab) exactly, each a once: a row is fixed by its value at g
    t = _table(spec_cyclic(n))
    reps = [c.representative.form for c in t.class_data.classes]
    roots = [Cyclo.root(n, s) for s in range(n)]
    found = []
    for row in t.rows:
        a = next(a for a in range(n) if row.values[reps.index(1)] == roots[a])
        assert all(v == roots[a * b % n] for v, b in zip(row.values, reps))
        found.append(a)
    assert sorted(found) == list(range(n))


def test_known_degree_multisets():
    cases = [
        ({"family": "symmetric", "n": 4}, [1, 1, 2, 3, 3]),
        ({"family": "quaternion8"}, [1, 1, 1, 1, 2]),
        ({"family": "dihedral", "n": 4}, [1, 1, 1, 1, 2]),
        ({"family": "heisenberg", "p": 3}, [1] * 9 + [3, 3]),
        ({"family": "symmetric", "n": 5}, [1, 1, 4, 4, 5, 5, 6]),
        (central_product_q8()[0], [1] * 16 + [4]),
    ]
    for spec, degrees in cases:
        assert _table(spec).degrees == degrees


@pytest.mark.parametrize("name,spec", TRACE_FAMILY_SPECS)
def test_tables_validate_on_corpus(name, spec):
    t = _table(spec)
    cd = t.class_data
    assert len(t.rows) == len(cd.classes)
    assert sum(d * d for d in t.degrees) == cd.order
    assert all(cd.order % d == 0 for d in t.degrees)
    report = validate_orthogonality(t, cd)
    assert report.passed
    assert report.max_row_residual == 0.0  # exact tables have exactly zero residual
    assert report.max_col_residual == 0.0


@pytest.mark.parametrize("name,spec", TRACE_FAMILY_SPECS)
def test_linear_character_count_is_abelianization_order(name, spec):
    handle = construct_group(spec)
    t = _table(spec)
    elements = handle.all_elements()
    comms = [commutator(a, b) for a in elements for b in elements]
    derived = generate_closure(comms)
    linear = sum(1 for d in t.degrees if d == 1)
    assert linear == handle.order // derived.order


@pytest.mark.parametrize("spec", [
    {"family": "symmetric", "n": 3},
    {"family": "heisenberg", "p": 7},  # 55 classes
    {"family": "dihedral", "n": 33},  # exponent 66
], ids=["S3", "Heis7", "D33"])
def test_mutated_table_fails_validation(spec):
    # the table is square, so an exact row relation would imply the column one:
    # no mutation can fail on the columns alone
    for kind in ("negate", "zero", "double", "swap_degrees"):
        t = _table(spec)
        cd = t.class_data
        i = len(t.rows) - 1
        if kind == "swap_degrees":  # the first row (degree 1) and the last (the largest degree)
            t.index[[0, i], 0] = t.index[[i, 0], 0]
        else:  # value j of the last row points at the changed coordinates
            j = next(j for j in range(1, len(cd.classes)) if t.coords[t.index[i, j]].any())
            factor = {"negate": -1, "zero": 0, "double": 2}[kind]
            t.coords = np.vstack([t.coords, factor * t.coords[t.index[i, j]]])
            t.index[i, j] = len(t.coords) - 1
        report = validate_orthogonality(t, cd)
        assert not report.passed, kind
        assert report.failed_relation == "row orthogonality", kind
        # a nonzero residual in Z[zeta_m] has a Galois conjugate of modulus >= 1;
        # the column residual, measured once the rows failed, is nonzero too,
        # since X X^dagger != I for the square X means X^dagger X != I
        assert report.max_row_residual >= 1.0 and report.max_col_residual >= 1.0, kind


def test_non_integer_value_fails_validation():
    t = _table({"family": "symmetric", "n": 3})
    half = np.zeros((1, t.coords.shape[1]))
    half[0, 0] = 0.5  # the value 1/2: a float array of coordinates, one not an integer
    t.coords = np.vstack([t.coords, half])
    t.index[2, 2] = len(t.coords) - 1
    report = validate_orthogonality(t, t.class_data)
    assert not report.passed
    assert report.failed_relation == "integrality"


def test_q8_exact_value_rows():
    t = _table({"family": "quaternion8"})
    # classes in first-appearance order: e, {i,-i}, {j,-j}, {-1}, {k,-k}
    reps = [c.representative.describe() for c in t.class_data.classes]
    assert reps == ["1", "i", "j", "-1", "k"]
    rows = {tuple(v.as_fraction() for v in r.values) for r in t.rows}
    assert rows == {
        (1, 1, 1, 1, 1),
        (1, 1, -1, 1, -1),
        (1, -1, 1, 1, -1),
        (1, -1, -1, 1, 1),
        (2, 0, 0, -2, 0),
    }


def test_d5_has_exact_golden_ratio_values():
    # the degree-2 characters of the order-10 dihedral group take the values
    # zeta_5^k + zeta_5^(-k) on the rotation classes, exactly
    t = _table({"family": "dihedral", "n": 5})
    assert t.degrees == [1, 1, 2, 2]
    cd = t.class_data
    rot_classes = [j for j, c in enumerate(cd.classes) if c.representative.form[1] == 0
                   and not c.representative.is_identity]
    deg2_values = set()
    for row in t.rows:
        if row.degree != 2:
            continue
        for j in rot_classes:
            k = cd.classes[j].representative.form[0]
            assert row.values[j] in (
                Cyclo.root(5, k) + Cyclo.root(5, -k),
                Cyclo.root(5, 2 * k) + Cyclo.root(5, -2 * k),
            )
            deg2_values.add(abs(row.values[j].to_complex().real))
    golden = 5 ** 0.5
    assert {round(v, 9) for v in deg2_values} == {round((golden - 1) / 2, 9),
                                                  round((golden + 1) / 2, 9)}


def test_degrees_invariant_under_cayley_relabeling():
    from groupvna.groups import enumerate_elements
    s4 = construct_group({"family": "symmetric", "n": 4})
    els = enumerate_elements(s4, 24)
    idx = {e.form: i for i, e in enumerate(els)}
    rng = random.Random(9)
    relabel = list(range(24))
    rng.shuffle(relabel)
    table = [[0] * 24 for _ in range(24)]
    for a in els:
        for b in els:
            table[relabel[idx[a.form]]][relabel[idx[b.form]]] = relabel[idx[(a * b).form]]
    scrambled = construct_group({"family": "cayley", "table": table})
    assert _table({"family": "symmetric", "n": 4}).degrees == \
        character_table(class_data(scrambled)).degrees


def test_trivial_group_orthogonality_residual_zero():
    t = _table({"family": "cyclic", "n": 1})
    report = validate_orthogonality(t, t.class_data)
    assert report.passed
    assert report.max_row_residual == 0.0 and report.max_col_residual == 0.0


def test_large_exponent_table_is_exact():
    # dihedral(33) has exponent 66; its values live in Z[zeta_66] like any other
    t = _table({"family": "dihedral", "n": 33})
    assert t.degrees == [1, 1] + [2] * 16
    assert all(v.m == 66 for row in t.rows for v in row.values)
    report = validate_orthogonality(t, t.class_data)
    assert report.passed and report.exact
    assert report.max_row_residual == 0.0 and report.max_col_residual == 0.0


@pytest.mark.parametrize("spec", [
    {"family": "cyclic", "n": 72},  # exponent 72
    {"family": "heisenberg", "p": 7},  # 55 classes
    {"family": "product", "factors": [{"family": "cyclic", "n": 10},
                                      {"family": "cyclic", "n": 12}]},  # 120 classes
], ids=["C72", "Heis7", "C10xC12"])
def test_validation_is_exact_beyond_the_old_cutoffs(spec):
    t = _table(spec)
    report = t.orthogonality
    assert report.passed and report.exact
    assert report.max_row_residual == 0.0 and report.max_col_residual == 0.0


def test_subgroup_class_data():
    s3s3 = construct_group({"family": "product",
                            "factors": [{"family": "symmetric", "n": 3},
                                        {"family": "symmetric", "n": 3}]})
    from groupvna.groups import factor_subgroup
    h0 = factor_subgroup(s3s3, 0)
    t = character_table(class_data(h0))
    assert t.degrees == [1, 1, 2]


def spec_heisenberg(p):
    return {"family": "heisenberg", "p": p}


# sha256 of the `chartab` and `spectrum --format json` reports without
# wall_time_ms, measured before the splitting took eigenvectors from Krylov
# sequences: the benchmark's nine character-table groups, C200 and S6
PINNED_REPORTS = [
    ("C72", spec_cyclic(72),
     "e0d021bf09c238d786d6422ea2e5605263caff05de703c40baee525e45743460",
     "18670e4954435f15cccdbc51f4ffaa69b4e429a0c1be0808056a5386d455edd1"),
    ("C10xC12", spec_product(spec_cyclic(10), spec_cyclic(12)),
     "a9551f5796c6bb97ce264e4a12452895b5faaaff69fac62e3a1733582d586520",
     "226e75354ea8b6e3c25b342dd1d22d938a43c8c5c5a02980490b3213f5956759"),
    ("D20", spec_dihedral(20),
     "a565a8cb150cb2ace76d16ab065b41d62d655e40b32586d381245d5f44fb10a2",
     "40e1fd7fa38e2b80bac4a6d0fe94113cb7cb54325c20a83f022562e275b334f8"),
    ("S5xC2", spec_product(spec_symmetric(5), spec_cyclic(2)),
     "66986d0c500f8fdac8f06384695e2be1715bae4923c12b52e99bf8e9acde9484",
     "affc2965d411a3afb0cd4313eed639bd70928d5b31f3c0d558985e759634e223"),
    ("S4xS3", spec_product(spec_symmetric(4), spec_symmetric(3)),
     "3c1da1c93feda543396d992029778ee67391fe158eda5fa34f9a7859007cd5c0",
     "b659fc4904dd3cbd5e7030043d84b9fde5fabba80dee3fc66f1d3d2c17cc2357"),
    ("Heis3", spec_heisenberg(3),
     "3f7f0d5aed6bc98f0db84aa51ec309a99675c91139a3ac1c1ec994b00eea68e4",
     "f7472accb507b698cde0ab3d1d0f006ee7ba1f29fdad751c31979dde3e2ef3c4"),
    ("Heis7", spec_heisenberg(7),
     "6b564fb245e11ef51376da2a327605b64beaed0f0bf558874076a0b1334bd120",
     "61efb7472058f1a9f9f3b5f89f596b787a030c4eb3d44c8109ea2645c352f9cc"),
    ("Heis3xQ8", spec_product(spec_heisenberg(3), SPEC_Q8),
     "61b93fe9f936d726030845cae1a507ef25a96933286354313f33387cc80e464b",
     "c2fd399491565c95c3ea8fea38346e13c19635babbe81f99da2fd38cc89f8329"),
    ("D6xQ8xS3", spec_product(spec_dihedral(6), SPEC_Q8, spec_symmetric(3)),
     "c2e8cea4b908a8a4d16baff267b5e68af8dd9620788ad8d2960d55ace4c1c96b",
     "b883ca6e9b2da81516390aecb7cdbb43755de5ee0a91581a1474efb58c0bb6b8"),
    ("C200", spec_cyclic(200),
     "f4826613424752390d7694304c804a681412acdc3a47491ff5942636f4cf1a84",
     "2a16b16856f6c2286838deed63fc53bbd0865b2e43b7098d7898e159c6347bb0"),
    ("S6", spec_symmetric(6),
     "9fa0a93530e516f9fa6ebae0948e7ed7a6db878c2b67c2daa3c02f27aea19309",
     "3e2938f8b43835071a91e198e64be00532fd2d471d61a70d2e7fcc56b36e14f9"),
    # measured before the split started from the centre's blocks
    ("Q8xQ8xC4", spec_product(SPEC_Q8, SPEC_Q8, spec_cyclic(4)),
     "d02389a09e8ef9fb047b3a46f832378875cdf127b36c8c1de175f199216e8172",
     "df353870940cb5cd9c55c24d0e9cdf41fa8647e6373965de4808bf6a4d2854dd"),
    ("D15xC6", spec_product(spec_dihedral(15), spec_cyclic(6)),
     "56b9d9ba68525773eaa7937aa4105fb1b90ab51c7e5f8aa4d660c31614d73959",
     "6eeb50f747c6b897fc4e54d1a83d77e48f4f71508aa9af985e4794e47410da2a"),
    ("C2^6", spec_product(*[spec_cyclic(2)] * 6),
     "0c6ea10ccb1e439d7171cf2488b31ac990729b08932c1597851ce7b7163e47ff",
     "14aa42abe57322644ba66cb8ab2ac77b0b5388cc22b335cbcc70e0d0b0110440"),
    # 1000 classes, measured before linear rows were lifted by discrete log
    ("C10^3", spec_product(*[spec_cyclic(10)] * 3),
     "3b27d84fc2158cbf5727a8a837c8b53a01094819768ba524a0ce1ba7779df2f6",
     "3ea72d6e370c5c99bb0f2b3163bb20b5d4a52432d4c0924165ecebb7a4c70c14"),
]


@pytest.mark.parametrize("name,spec,chartab,spectrum", PINNED_REPORTS,
                         ids=[name for name, *_ in PINNED_REPORTS])
def test_character_engine_bytes_pinned(tmp_path, capsys, name, spec, chartab, spectrum):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    for command, digest in (("chartab", chartab), ("spectrum", spectrum)):
        assert cli.run([command, "--spec", str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        if command == "chartab":  # the spliced rows are the canonical bytes themselves
            assert out == canonical_dumps(report) + "\n"
        del report["wall_time_ms"]
        assert hashlib.sha256(canonical_dumps(report).encode()).hexdigest() == digest, command


def test_cyclic_splitting_needs_no_elimination(monkeypatch):
    # C72's central split leaves 72 blocks of one class each: no elimination at all
    calls = []
    original = modp.nullspace_mod

    def counting(a, p):
        calls.append(a.shape)
        return original(a, p)
    monkeypatch.setattr(modp, "nullspace_mod", counting)
    t = character_table(class_data(construct_group(spec_cyclic(72))))
    assert len(t.rows) == 72
    assert calls == []


@pytest.mark.parametrize("spec", [
    spec_product(spec_heisenberg(3), SPEC_Q8),
    spec_product(spec_symmetric(3), spec_cyclic(12)),
    spec_dihedral(20),
], ids=["Heis3xQ8", "S3xC12", "D20"])
def test_colliding_eigenvalues_give_the_same_table(monkeypatch, spec):
    # below r^2 the prime makes a random combination's eigenvalues collide:
    # repeated roots go through the nullspace and later rounds split them.
    # Abelian groups never reach a combination, so each case has a nonabelian
    # factor and central blocks of more than one class.
    want = _table(spec).to_json()  # a product's is the Kronecker table
    original_prime, original_combination = characters.dixon_prime, ClassData.class_combination
    combinations, nullspaces = [], []
    monkeypatch.setattr(characters, "dixon_prime",
                        lambda order, exponent, classes: original_prime(order, exponent, 0))
    monkeypatch.setattr(ClassData, "class_combination",
                        lambda cd, c: combinations.append(c) or original_combination(cd, c))
    original_nullspace = modp.nullspace_mod
    monkeypatch.setattr(modp, "nullspace_mod",
                        lambda a, p: nullspaces.append(p) or original_nullspace(a, p))
    t = _dixon(spec)
    assert t.dixon_prime < len(t.rows) ** 2
    assert len(combinations) > 1 and nullspaces
    assert t.to_json() == want


def test_splitting_gives_up_after_its_rounds(monkeypatch):
    # D20 under the small prime needs a second combination; one is all it gets
    original_prime = characters.dixon_prime
    monkeypatch.setattr(characters, "dixon_prime",
                        lambda order, exponent, classes: original_prime(order, exponent, 0))
    monkeypatch.setattr(characters, "SPLIT_ROUNDS", 1)
    with pytest.raises(ConsistencyError, match="did not split"):
        _table(spec_dihedral(20))


def _whole_space(cd, p):
    r = len(cd.classes)
    return [(np.eye(r, dtype=np.int64), list(range(r)))]


CENTRAL_SPLIT_SPECS = [
    ("C6", spec_cyclic(6)),
    ("S3", spec_symmetric(3)),
    ("D4", spec_dihedral(4)),
    ("Q8", SPEC_Q8),
    ("Heis3", spec_heisenberg(3)),
    ("Q8xC4", spec_product(SPEC_Q8, spec_cyclic(4))),
    ("D6xC3", spec_product(spec_dihedral(6), spec_cyclic(3))),
    ("S3xQ8", spec_product(spec_symmetric(3), SPEC_Q8)),
    ("Heis3xC2", spec_product(spec_heisenberg(3), spec_cyclic(2))),
    ("D5xS3", spec_product(spec_dihedral(5), spec_symmetric(3))),
    ("Q8xQ8", spec_product(SPEC_Q8, SPEC_Q8)),
    ("D4xC2xC2", spec_product(spec_dihedral(4), spec_cyclic(2), spec_cyclic(2))),
    ("Heis3xS3", spec_product(spec_heisenberg(3), spec_symmetric(3))),
]


@pytest.mark.parametrize("name,spec", CENTRAL_SPLIT_SPECS, ids=[n for n, _ in CENTRAL_SPLIT_SPECS])
def test_central_split_gives_the_whole_space_table(monkeypatch, name, spec):
    cd = class_data(construct_group(spec))
    t = characters._dixon_table(cd)
    # one block per character of the centre, and the rows of each are pivoted
    blocks = characters._central_blocks(cd, t.dixon_prime)
    assert len(blocks) == cd.sizes.count(1)
    assert sum(basis.shape[0] for basis, _ in blocks) == len(cd.classes)
    for basis, pivots in blocks:
        assert pivots[0] == 0
        assert np.array_equal(basis[:, pivots], np.eye(len(pivots), dtype=np.int64))
    monkeypatch.setattr(characters, "_central_blocks", _whole_space)
    assert characters._dixon_table(cd).to_json() == t.to_json()


@pytest.mark.parametrize("spec", [
    spec_cyclic(72),
    spec_product(spec_cyclic(10), spec_cyclic(12)),
    spec_product(*[spec_cyclic(2)] * 6),
], ids=["C72", "C10xC12", "C2^6"])
def test_abelian_tables_need_no_class_combination(monkeypatch, spec):
    calls = []
    combination, charpoly = ClassData.class_combination, modp.charpoly_mod
    monkeypatch.setattr(ClassData, "class_combination",
                        lambda cd, c: calls.append("class_combination") or combination(cd, c))
    monkeypatch.setattr(modp, "charpoly_mod",
                        lambda a, p: calls.append("charpoly_mod") or charpoly(a, p))
    plan = characters._lift_plan  # every row is linear: no multiplicity lift
    monkeypatch.setattr(characters, "_lift_plan",
                        lambda *args: calls.append("_lift_plan") or plan(*args))
    t = _dixon(spec)
    assert t.orthogonality.passed and len(t.rows) == t.class_data.order
    assert calls == []


@pytest.mark.parametrize("spec", [spec_cyclic(12), spec_dihedral(20)], ids=["C12", "D20"])
def test_a_dropped_central_block_raises(monkeypatch, spec):
    original = characters._central_blocks
    monkeypatch.setattr(characters, "_central_blocks", lambda cd, p: original(cd, p)[1:])
    with pytest.raises(ConsistencyError, match="central split lost dimensions"):
        _table(spec)


def test_a_power_map_off_its_classes_raises():
    # the class of 4-cycles claims that its representative's cube is a 3-cycle,
    # so the multiplicity lift would read the 3-cycles' values off the wrong powers
    cd = class_data(construct_group(spec_symmetric(4)))
    four = next(j for j, cycle in enumerate(cd.power_classes) if len(cycle) == 4)
    three = next(j for j, cycle in enumerate(cd.power_classes) if len(cycle) == 3)
    cd.power_classes[four][3] = three
    with pytest.raises(ConsistencyError, match="power map"):
        character_table(cd)


def test_a_nan_value_is_refused_by_the_report():
    t = _table(spec_symmetric(3))
    t.coords = t.coords.astype(np.float64)
    t.coords[t.index[-1, -1], 0] = np.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_dumps(t.to_json())


def test_a_linear_value_off_the_roots_of_unity_raises(monkeypatch):
    # one linear row of C12 scaled by c at a class and by 1/c at its inverse keeps
    # the norm its degree is read from, but c, a generator of F_p^*, is no 12th
    # root of unity mod p: the discrete log of the linear rows has to refuse it
    original = characters._common_eigenvectors

    def skewed(cd, p):
        w = original(cd, p)
        k = next(k for k, inv in enumerate(cd.inverse_class) if inv != k)
        c = modp.primitive_root_mod(p)
        w[-1] = w[-1].copy()
        w[-1][k] = w[-1][k] * c % p
        w[-1][cd.inverse_class[k]] = w[-1][cd.inverse_class[k]] * modp.inv_mod(c, p) % p
        return w
    monkeypatch.setattr(characters, "_common_eigenvectors", skewed)
    with pytest.raises(ConsistencyError, match="not an m-th root of unity"):
        _table(spec_cyclic(12))


@pytest.mark.parametrize("spec", [
    spec_heisenberg(7),
    spec_product(SPEC_Q8, SPEC_Q8, spec_cyclic(4)),
    spec_product(spec_dihedral(15), spec_cyclic(6)),
], ids=["Heis7", "Q8xQ8xC4", "D15xC6"])
def test_central_blocks_split_without_elimination(monkeypatch, spec):
    # each block's first row seeds its Krylov sequence: at the Dixon prime every
    # eigenvalue is simple and every eigenvector comes from that one sequence
    calls = []
    original = modp.nullspace_mod
    monkeypatch.setattr(modp, "nullspace_mod", lambda a, p: calls.append(p) or original(a, p))
    t = _dixon(spec)
    assert len(t.rows) == len(t.class_data.classes)
    assert calls == []


PINNED_PRODUCTS = [(name, spec) for name, spec, *_ in PINNED_REPORTS
                   if spec["family"] == "product"]


@pytest.mark.parametrize("name,spec", PINNED_PRODUCTS + PRODUCT_SWEEP,
                         ids=[name for name, _ in PINNED_PRODUCTS + PRODUCT_SWEEP])
def test_a_product_table_is_the_dixon_table(name, spec):
    # the Kronecker product of the factors' tables, sorted, is the table the
    # Dixon engine finds on the whole product
    t = _table(spec)
    assert t.dixon_prime is None and t.orthogonality.passed
    assert canonical_dumps(t.to_json()) == canonical_dumps(_dixon(spec).to_json())


def test_a_corrupted_factor_value_fails_the_product_validation(monkeypatch):
    # each factor table passes its own validation before one of its values is
    # changed; only the validation of the product table can see the change
    original_dixon, original_validate = characters._dixon_table, characters.validate_orthogonality
    validated = []

    def corrupted(cd):
        t = original_dixon(cd)
        t.coords = t.coords.copy()
        t.coords[t.index[-1, -1], 0] += 1
        return t

    def recording(table, cd):
        report = original_validate(table, cd)
        validated.append((cd.order, report.passed))
        return report
    monkeypatch.setattr(characters, "_dixon_table", corrupted)
    monkeypatch.setattr(characters, "validate_orthogonality", recording)
    with pytest.raises(ConsistencyError, match="orthogonality validation failed"):
        _table(spec_product(spec_symmetric(3), spec_cyclic(2)))
    assert validated == [(6, True), (2, True), (12, False)]
