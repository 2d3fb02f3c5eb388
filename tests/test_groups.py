"""Group families: canonical forms, the group law, closures, fair enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    INDEX_TABLE_SUBGROUPS,
    SPEC_Q8,
    SPEC_S3SUM,
    TRACE_FAMILY_SPECS,
    central_product_q8,
    index_table_subgroup,
    json_values,
    spec_cyclic,
    spec_dihedral,
    spec_product,
    spec_symmetric,
)
from groupvna.errors import (
    BudgetExceededError,
    DomainMismatchError,
    ParameterError,
    SpecError,
    UnsupportedFamilyError,
)
from groupvna.groups import (
    commutator,
    conjugate,
    construct_group,
    coordinate_subgroup,
    enumerate_elements,
    generate_closure,
    group_law,
)


@pytest.mark.parametrize("name", INDEX_TABLE_SUBGROUPS)
def test_index_table_follows_the_group_law(name):
    H = index_table_subgroup(name)
    fam, table, elements = H.handle._family, H.table, H.elements
    assert table.right.shape == table.conj.shape == (len(table.letters), H.order)
    for x, g in enumerate(elements):
        assert elements[table.inverse[x]] == g.inv()
    for a, form in enumerate(table.letters):
        t = H.handle.element(form)
        assert table.letters[table.inverse_letter[a]] == fam.inv(form)
        for x, g in enumerate(elements):
            assert elements[table.right[a, x]].form == fam.mul(g.form, form)
            assert elements[table.conj[a, x]] == conjugate(g, t)
    # the letters generate the subgroup
    letters = [H.handle.element(f) for f in table.letters] or [H.handle.identity]
    assert generate_closure(letters).order == H.order
    assert H.table is table  # built once, then kept


def _perm(handle, *images):
    return handle.element(tuple(i - 1 for i in images))


# ---------------------------------------------------------------------------
# construction


def test_construct_symmetric3():
    s3 = construct_group({"family": "symmetric", "n": 3})
    assert s3.order == 6
    forms = [g.form for g in s3.generators]
    assert forms == [(1, 0, 2), (1, 2, 0)]  # (1 2) and (1 2 3)


def test_construct_trivial_cyclic():
    c1 = construct_group({"family": "cyclic", "n": 1})
    assert c1.order == 1
    assert enumerate_elements(c1, 5) == [c1.identity]


def test_construct_restricted_sum_is_infinite():
    ss = construct_group(SPEC_S3SUM)
    assert ss.order is None
    g = ss.element(((0, (1, 0, 2)), (3, (1, 2, 0))))
    assert g.describe() == "{0: (1 2), 3: (1 2 3)}"


def test_malformed_spec_names_field():
    with pytest.raises(SpecError, match='"n"'):
        construct_group({"family": "symmetric"})
    with pytest.raises(SpecError, match='"n"'):
        construct_group({"family": "symmetric", "n": 0})
    with pytest.raises(SpecError, match='"table"'):
        construct_group({"family": "cayley", "table": [[0, 1], [1, 1]]})
    with pytest.raises(UnsupportedFamilyError, match="alternating"):
        construct_group({"family": "alternating", "n": 5})


DINF = {"family": "dihedral_infinite"}
FORM_SPECS = [spec_symmetric(3), spec_cyclic(5), spec_dihedral(4), DINF, SPEC_Q8,
              {"family": "heisenberg", "p": 3}, {"family": "free", "rank": 2},
              {"family": "restricted_sum", "factor": spec_cyclic(2)},
              spec_product(spec_cyclic(3), spec_dihedral(3))]


@pytest.mark.parametrize("spec,data", [
    (DINF, "10"),
    (spec_symmetric(3), "201"),
    (spec_cyclic(5), 2.7),
    (spec_cyclic(5), True),
    (spec_dihedral(4), [1.9, True]),
    (spec_dihedral(4), [1, 1, 0]),
    (SPEC_Q8, [1.0, 0]),
    ({"family": "heisenberg", "p": 3}, [1, 2]),
    ({"family": "free", "rank": 2}, ""),
    ({"family": "restricted_sum", "factor": spec_cyclic(2)}, {}),
    ({"family": "restricted_sum", "factor": spec_cyclic(2)}, [[0, 1, 5]]),
    (spec_product(spec_cyclic(3), spec_dihedral(3)), "ab"),
], ids=["dinf-string", "s3-string", "c5-float", "c5-bool", "d4-float-bool", "d4-long",
        "q8-float", "heis3-short", "free2-empty-string", "c2sum-object", "c2sum-long-pair",
        "product-string"])
def test_only_json_ints_and_arrays_are_canonical_forms(spec, data):
    handle = construct_group(spec)
    with pytest.raises(SpecError, match="element"):
        handle.element_from_json(data)


def test_json_forms_round_trip():
    for spec in FORM_SPECS:
        handle = construct_group(spec)
        for g in handle.iter_elements(20):
            assert handle.element_from_json(g.to_json()) == g


def _ints_and_arrays(value) -> bool:
    if isinstance(value, list):
        return all(_ints_and_arrays(v) for v in value)
    return isinstance(value, int) and not isinstance(value, bool)


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(FORM_SPECS), data=json_values(3, ints=st.integers(-3, 6)))
def test_fuzzed_forms_parse_or_raise_spec_error(spec, data):
    handle = construct_group(spec)
    try:
        handle.element_from_json(data)
    except SpecError:
        return
    assert _ints_and_arrays(data)


def test_cayley_rejects_nonassociative_loop():
    # a Latin square with identity and two-sided inverses that is not a group
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(SpecError, match="associative"):
        construct_group({"family": "cayley", "table": loop})


def test_cayley_accepts_group_table():
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    handle = construct_group({"family": "cayley", "table": klein})
    assert handle.order == 4
    assert handle.finiteness == "finite(4)"
    els = enumerate_elements(handle, 4)
    assert all((a * a).is_identity for a in els)


def test_cayley_generating_set_is_computed_once(monkeypatch):
    from corpus import central_product_q8
    from groupvna.fc_center import fc_filter
    from groupvna.groups import _Cayley

    calls = []
    greedy = _Cayley._greedy_generators

    def counted(self):
        calls.append(1)
        return greedy(self)

    monkeypatch.setattr(_Cayley, "_greedy_generators", counted)
    handle = construct_group(central_product_q8()[0])
    verdicts = fc_filter(handle, 32)
    assert len(verdicts) == 32 and all(v.is_fc for v in verdicts)
    assert len(calls) == 1


def test_spec_accepts_json_string():
    s3 = construct_group('{"family": "symmetric", "n": 3}')
    assert s3.order == 6


def test_user_metadata_declares_hypotheses():
    handle = construct_group({
        "family": "free", "rank": 2,
        "metadata": {"abelian_by_finite": {"generators": [[1]], "index": 5}},
    })
    w = handle.metadata.abelian_by_finite
    assert w.index == 5 and w.generator_forms == ((1,),)

    declared = construct_group({"family": "free", "rank": 2,
                                "metadata": {"fc_center": "trivial"}})
    assert declared.metadata.icc


def test_user_metadata_validation():
    with pytest.raises(SpecError, match="fc_center"):
        construct_group({"family": "free", "rank": 2,
                         "metadata": {"fc_center": "everything"}})
    with pytest.raises(SpecError, match="index"):
        construct_group({"family": "free", "rank": 2,
                         "metadata": {"abelian_by_finite": {"generators": [], "index": 0}}})
    # the restricted sum of S3 copies is not abelian-by-finite, whatever the spec declares
    with pytest.raises(SpecError, match="metadata.abelian_by_finite"):
        construct_group({**SPEC_S3SUM,
                         "metadata": {"abelian_by_finite": {"generators": [], "index": 1}}})
    with pytest.raises(SpecError, match='"metadata.abelian_by_finite": expected an object'):
        construct_group({"family": "dihedral_infinite", "metadata": {"abelian_by_finite": 5}})
    # index 1 claims G itself is abelian, refuted by two non-commuting generators
    for spec in ({"family": "dihedral_infinite"}, {"family": "free", "rank": 2}):
        with pytest.raises(SpecError, match="metadata.abelian_by_finite.index"):
            construct_group({**spec, "metadata": {"abelian_by_finite": {"generators": [],
                                                                        "index": 1}}})
    # a declared index 1 on an abelian family stands
    construct_group({"family": "free", "rank": 1,
                     "metadata": {"abelian_by_finite": {"generators": [[1]], "index": 1}}})


# ---------------------------------------------------------------------------
# group law


def test_group_law_examples():
    s3 = construct_group({"family": "symmetric", "n": 3})
    t = _perm(s3, 2, 1, 3)
    assert group_law(t, t, "mul").is_identity
    three = _perm(s3, 2, 3, 1)  # (1 2 3)
    assert group_law(three, op="inv") == _perm(s3, 3, 1, 2)  # (1 3 2)

    free2 = construct_group({"family": "free", "rank": 2})
    x = free2.element((1,))
    xinv_y = free2.element((-1, 2))
    assert group_law(x, xinv_y, "mul") == free2.element((2,))


def test_group_law_rejects_unknown_op():
    c2 = construct_group({"family": "cyclic", "n": 2})
    with pytest.raises(ParameterError, match="mul"):
        group_law(c2.element(1), c2.element(1), "conj")
    with pytest.raises(ParameterError):
        group_law(c2.element(1), op="mul")


def test_group_law_rejects_cross_handle():
    a = construct_group({"family": "cyclic", "n": 4})
    b = construct_group({"family": "cyclic", "n": 4})
    with pytest.raises(DomainMismatchError):
        group_law(a.element(1), b.element(1), "mul")


def test_conjugate_examples():
    s3 = construct_group({"family": "symmetric", "n": 3})
    for h in enumerate_elements(s3, 6):
        assert conjugate(s3.identity, h).is_identity
    assert conjugate(_perm(s3, 2, 1, 3), _perm(s3, 2, 3, 1)) == _perm(s3, 1, 3, 2)  # (2 3)

    dinf = construct_group({"family": "dihedral_infinite"})
    for n in (-4, 1, 7):
        assert conjugate(dinf.element((n, 0)), dinf.element((0, 1))).form == (-n, 0)


def test_commutator_examples():
    s3 = construct_group({"family": "symmetric", "n": 3})
    for g in enumerate_elements(s3, 6):
        assert commutator(g, g).is_identity
    # under left-action composition this commutator is the 3-cycle (1 2 3)
    got = commutator(_perm(s3, 2, 1, 3), _perm(s3, 3, 2, 1))
    assert got == _perm(s3, 2, 3, 1)
    assert not got.is_identity

    ss = construct_group(SPEC_S3SUM)
    a = ss.element(((0, (1, 0, 2)),))
    b = ss.element(((5, (1, 2, 0)),))
    assert commutator(a, b).is_identity


# ---------------------------------------------------------------------------
# closure


def test_closure_of_s3_generators():
    s3 = construct_group({"family": "symmetric", "n": 3})
    sub = generate_closure(s3.generators)
    assert sub.order == 6
    assert {g.form for g in sub} == {g.form for g in enumerate_elements(s3, 6)}


def test_closure_of_identity():
    s3 = construct_group({"family": "symmetric", "n": 3})
    sub = generate_closure([s3.identity])
    assert sub.order == 1


def test_closure_budget_exceeded_in_free_group():
    free2 = construct_group({"family": "free", "rank": 2})
    with pytest.raises(BudgetExceededError) as exc:
        generate_closure([free2.element((1,))], budget=10)
    assert exc.value.budget == 10
    assert exc.value.partial_count == 10


def test_closure_idempotent_and_conjugation_stable():
    s4 = construct_group({"family": "symmetric", "n": 4})
    sub = generate_closure(s4.generators)
    again = generate_closure(list(sub.elements))
    assert {g.form for g in again} == {g.form for g in sub}
    for g in sub:
        for h in sub.elements[:8]:
            assert conjugate(g, h).form in sub


def test_closure_bad_budget():
    c2 = construct_group({"family": "cyclic", "n": 2})
    with pytest.raises(ParameterError):
        generate_closure([c2.element(1)], budget=0)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_s3_is_whole_group():
    s3 = construct_group({"family": "symmetric", "n": 3})
    els = enumerate_elements(s3, 6)
    assert len({e.form for e in els}) == 6
    assert enumerate_elements(s3, 100) == els  # no error past the order


def test_enumerate_free2_prefix():
    free2 = construct_group({"family": "free", "rank": 2})
    got = [e.form for e in enumerate_elements(free2, 5)]
    assert got == [(), (1,), (-1,), (2,), (-2,)]


def test_enumeration_prefix_stable():
    ss = construct_group(SPEC_S3SUM)
    first = enumerate_elements(ss, 10)
    longer = enumerate_elements(ss, 50)
    assert longer[:10] == first


def test_enumeration_fairness():
    # every element written as a word of length <= 6 appears in some finite prefix
    rng = random.Random(0)
    for spec in ({"family": "free", "rank": 2}, {"family": "dihedral_infinite"}):
        handle = construct_group(spec)
        alphabet = [g for g in handle.generators] + [g.inv() for g in handle.generators]
        targets = set()
        for _ in range(60):
            w = handle.identity
            for _ in range(rng.randrange(0, 7)):
                w = w * rng.choice(alphabet)
            targets.add(w.form)
        prefix = {e.form for e in enumerate_elements(handle, 4000)}
        assert targets <= prefix


def _expand_eagerly(frontier, alphabet, mul, seen):
    layer = []
    for u in frontier:
        for a in alphabet:
            w = mul(u, a)
            if w not in seen:
                seen.add(w)
                layer.append(w)
    return layer


def _eager_enumeration(family, n):
    """The first n forms of the fair enumeration, built a whole stage at a time:
    old elements x the new block's letters, then the frontier x the window."""
    enum, seen = [family.identity], {family.identity}
    block_iter, blocks, start = family.alphabet_blocks(), [], 0
    while len(enum) < n:
        new_letters = []
        if block_iter is not None:
            try:
                new_letters = next(block_iter)
            except StopIteration:
                block_iter = None
            else:
                blocks.append(new_letters)
        window = [a for blk in blocks for a in blk]
        snapshot = len(enum)
        added = []
        if new_letters:  # the old elements meet no letter otherwise
            added = _expand_eagerly(enum[:start], new_letters, family.mul, seen)
        added += _expand_eagerly(enum[start:snapshot], window, family.mul, seen)
        enum.extend(added)
        start = snapshot
        if not added and block_iter is None:
            break
    return enum[:n]


@pytest.mark.parametrize("spec", [
    SPEC_S3SUM,
    {"family": "restricted_sum", "factor": SPEC_Q8},
    DINF,
    {"family": "free", "rank": 2},
    spec_product(SPEC_S3SUM, spec_symmetric(3)),
    spec_product(DINF, spec_cyclic(2)),
], ids=["s3sum", "q8sum", "dinf", "free2", "s3sum-x-s3", "dinf-x-c2"])
def test_lazy_enumeration_matches_the_eager_stage_order(spec):
    handle = construct_group(spec)
    got = [e.form for e in handle.iter_elements(20_000)]
    assert got == _eager_enumeration(handle._family, 20_000)


# the groups of the benchmark's chartab workload (perfbench/workloads.py)
CHARTAB_GROUPS = [
    spec_cyclic(72),
    spec_product(spec_cyclic(10), spec_cyclic(12)),
    spec_dihedral(20),
    spec_product(spec_symmetric(5), spec_cyclic(2)),
    spec_product(spec_symmetric(4), spec_symmetric(3)),
    {"family": "heisenberg", "p": 3},
    {"family": "heisenberg", "p": 7},
    spec_product({"family": "heisenberg", "p": 3}, SPEC_Q8),
    spec_product(spec_dihedral(6), SPEC_Q8, spec_symmetric(3)),
]


@pytest.mark.parametrize("spec", CHARTAB_GROUPS)
def test_a_finite_group_enumerates_its_order_distinct_forms(spec):
    handle = construct_group(spec)
    forms = [e.form for e in handle.all_elements()]
    assert len(forms) == len(set(forms)) == handle.order
    assert forms == _eager_enumeration(handle._family, handle.order)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("spec", [SPEC_S3SUM, DINF, {"family": "free", "rank": 2}],
                         ids=["s3sum", "dinf", "free2"])
def test_the_stream_is_built_only_as_far_as_it_is_read(spec, n):
    handle = construct_group(spec)
    assert len(list(handle.iter_elements(n))) == n
    assert len(handle._enum) == n


def test_two_iterators_on_one_handle_share_one_stream():
    expected = [e.form for e in construct_group(SPEC_S3SUM).iter_elements(2000)]
    handle = construct_group(SPEC_S3SUM)
    a, b = handle.iter_elements(2000), handle.iter_elements(2000)
    got_a, got_b = [], []
    for x, y in zip(a, b):  # advanced alternately
        got_a.append(x.form)
        got_b.append(y.form)
    assert got_a == got_b == expected
    late = construct_group(SPEC_S3SUM)
    first = late.iter_elements(2000)
    got_first = [next(first).form for _ in range(1000)]
    got_late = [e.form for e in late.iter_elements(2000)]
    got_first += [e.form for e in first]
    assert got_first == got_late == expected


def test_the_trivial_groups_restricted_sum_stops_after_one_element():
    # its alphabet blocks never run out; the enumeration stops at the order
    handle = construct_group({"family": "restricted_sum", "factor": spec_cyclic(1)})
    assert handle.order == 1
    assert [e.form for e in handle.iter_elements()] == [()]
    assert handle.all_elements() == [handle.identity]


def test_restricted_sum_enumeration_puts_low_coordinates_first():
    ss = construct_group(SPEC_S3SUM)
    els = enumerate_elements(ss, 7)
    assert els[0].is_identity
    assert all(e.form[0][0] == 0 for e in els[1:4])
    assert all(e.form[0][0] == 1 for e in els[4:7])


def _dict_law_mul(factor, a, b):
    """The restricted-sum law through a dict of coordinates, sorted afterwards."""
    acc = dict(a)
    for coord, y in b:
        z = factor.mul(acc.get(coord, factor.identity), y)
        if z == factor.identity:
            acc.pop(coord, None)
        else:
            acc[coord] = z
    return tuple(sorted(acc.items()))


@settings(max_examples=300, deadline=None)
@given(factor=st.sampled_from([spec_symmetric(3), SPEC_Q8, spec_cyclic(2)]), data=st.data())
def test_restricted_sum_law_matches_a_dict_reference(factor, data):
    fam = construct_group({"family": "restricted_sum", "factor": factor})._family
    one = fam.factor.identity
    elements = [e.form for e in construct_group(factor).all_elements()]
    forms = st.dictionaries(st.integers(0, 7), st.sampled_from(elements), max_size=6).map(
        lambda d: tuple(sorted((c, x) for c, x in d.items() if x != one)))
    a, b = data.draw(forms), data.draw(forms)
    ab, ba = fam.mul(a, b), fam.mul(b, a)
    assert ab == _dict_law_mul(fam.factor, a, b) and ba == _dict_law_mul(fam.factor, b, a)
    for form in (ab, ba):
        assert type(form) is tuple and all(type(entry) is tuple for entry in form)
        assert all(x != one for _, x in form)
    assert fam.commutes(a, b) == (ab == ba) == fam.commutes(b, a)
    assert fam.mul(a, fam.inv(a)) == fam.identity


def test_coordinate_subgroup():
    ss = construct_group(SPEC_S3SUM)
    sub = coordinate_subgroup(ss, 3)
    assert sub.order == 6
    assert all(all(c == 3 for c, _ in g.form) for g in sub if not g.is_identity)


def test_enumerate_zero_and_negative():
    s3 = construct_group({"family": "symmetric", "n": 3})
    assert enumerate_elements(s3, 0) == []
    import groupvna.errors as errors
    with pytest.raises(errors.ParameterError):
        enumerate_elements(s3, -1)


def test_nested_product_of_restricted_sum_enumerates_fairly():
    spec = {"family": "product", "factors": [
        SPEC_S3SUM, {"family": "symmetric", "n": 3},
    ]}
    handle = construct_group(spec)
    els = enumerate_elements(handle, 250)
    sum_coords = {c for e in els for c, _ in e.form[0]}
    assert {0, 1, 2} <= sum_coords  # the infinite factor keeps admitting coordinates
    assert any(e.form[1] != (0, 1, 2) for e in els)  # the finite factor appears too

    from groupvna.fc_center import conjugacy_class
    g = handle.element((((2, (1, 0, 2)),), (0, 1, 2)))
    cls = conjugacy_class(g)
    assert cls.size == 3  # exactly the factor class at that coordinate


# ---------------------------------------------------------------------------
# group axioms, property-style


@pytest.mark.parametrize("name,spec", TRACE_FAMILY_SPECS)
def test_group_axioms_random_triples(name, spec):
    handle = construct_group(spec)
    pool = enumerate_elements(handle, min(handle.order, 64))
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(1000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * handle.identity == a
        assert handle.identity * a == a
        assert (a * a.inv()).is_identity
        assert (a.inv() * a).is_identity


def test_infinite_family_axioms_sampled():
    rng = random.Random(5)
    for spec in ({"family": "free", "rank": 2}, {"family": "dihedral_infinite"}, SPEC_S3SUM):
        handle = construct_group(spec)
        pool = enumerate_elements(handle, 60)
        for _ in range(1000):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a * a.inv()).is_identity


# ---------------------------------------------------------------------------
# the commutation hook, property-style

# up to 48 elements of each fair enumeration, finite and infinite, over every family
_COMMUTATION_POOLS = {
    name: enumerate_elements(construct_group(spec), 48)
    for name, spec in [
        ("sym4", spec_symmetric(4)),
        ("dihedral5", spec_dihedral(5)),
        ("dihedral_infinite", {"family": "dihedral_infinite"}),
        ("quaternion8", SPEC_Q8),
        ("heisenberg3", {"family": "heisenberg", "p": 3}),
        ("cayley_q8oq8", central_product_q8()[0]),
        ("sym3xq8", spec_product(spec_symmetric(3), SPEC_Q8)),
        ("s3sum", SPEC_S3SUM),
        ("free2", {"family": "free", "rank": 2}),
    ]
}
_POOL_NAMES = sorted(_COMMUTATION_POOLS)


@settings(deadline=None)
@given(st.data())
def test_commutes_agrees_with_the_commutator(data):
    pool = _COMMUTATION_POOLS[data.draw(st.sampled_from(_POOL_NAMES))]
    a, b = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    assert a.group._family.commutes(a.form, b.form) == commutator(a, b).is_identity


@settings(deadline=None)
@given(st.data())
def test_noncommuting_pair_is_the_first_failure_of_the_nested_loop(data):
    pool = _COMMUTATION_POOLS[data.draw(st.sampled_from(_POOL_NAMES))]
    xs = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    ys = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    expected = next(((x.form, y.form) for x in xs for y in ys
                     if not commutator(x, y).is_identity), None)
    fam = pool[0].group._family
    assert fam.noncommuting_pair([x.form for x in xs], [y.form for y in ys]) == expected
