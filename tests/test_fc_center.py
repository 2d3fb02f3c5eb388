"""Conjugacy classes and FC-center verdicts."""

import pytest

from corpus import TRACE_FAMILY_SPECS, SPEC_S3SUM, spec_cyclic, spec_product
from groupvna import fc_center
from groupvna.errors import BudgetExceededError, ParameterError
from groupvna.fc_center import conjugacy_class, fc_filter
from groupvna.groups import _bfs, construct_group

DINF = {"family": "dihedral_infinite"}
F2 = {"family": "free", "rank": 2}


def test_identity_class_is_singleton():
    for spec in ({"family": "symmetric", "n": 4}, {"family": "dihedral_infinite"}, SPEC_S3SUM):
        handle = construct_group(spec)
        cls = conjugacy_class(handle.identity)
        assert not cls.exceeded
        assert cls.size == 1


def test_s3_transposition_class():
    s3 = construct_group({"family": "symmetric", "n": 3})
    cls = conjugacy_class(s3.element((1, 0, 2)))
    assert {e.form for e in cls.elements} == {(1, 0, 2), (0, 2, 1), (2, 1, 0)}


def test_infinite_dihedral_reflection_class_exceeds_budget():
    dinf = construct_group({"family": "dihedral_infinite"})
    cls = conjugacy_class(dinf.element((0, 1)), budget=100)
    assert cls.exceeded
    assert cls.partial_count == 100


def test_negative_budget_rejected():
    s3 = construct_group({"family": "symmetric", "n": 3})
    with pytest.raises(ParameterError):
        conjugacy_class(s3.identity, budget=0)


def test_fc_filter_finite_group_all_fc():
    s5 = construct_group({"family": "symmetric", "n": 5})
    verdicts = fc_filter(s5, 120)
    assert len(verdicts) == 120
    assert all(v.is_fc for v in verdicts)


def test_fc_filter_infinite_dihedral():
    dinf = construct_group({"family": "dihedral_infinite"})
    for v in fc_filter(dinf, 10, budget=500):
        n, s = v.element.form
        if s == 0:
            assert v.is_fc and v.class_size <= 2
        else:
            assert v.kind == "not_fc_evidence"


def test_fc_filter_free_group():
    free2 = construct_group({"family": "free", "rank": 2})
    verdicts = fc_filter(free2, 5, budget=300)
    assert verdicts[0].is_fc and verdicts[0].class_size == 1
    assert all(v.kind == "not_fc_evidence" for v in verdicts[1:])


def test_restricted_sum_classes_are_factor_classes():
    ss = construct_group(SPEC_S3SUM)
    g = ss.element(((2, (1, 0, 2)),))
    cls = conjugacy_class(g)
    assert {e.form for e in cls.elements} == {
        ((2, (1, 0, 2)),), ((2, (0, 2, 1)),), ((2, (2, 1, 0)),)
    }


@pytest.mark.parametrize("name,spec", TRACE_FAMILY_SPECS)
def test_class_sizes_divide_group_order(name, spec):
    handle = construct_group(spec)
    if handle.order > 64:
        pytest.skip("only families up to order 64")
    seen = 0
    for g in handle.iter_elements(handle.order):
        cls = conjugacy_class(g)
        assert handle.order % cls.size == 0
        seen += 1
    assert seen == handle.order


def test_fc_verdicts_budget_monotone():
    dinf = construct_group({"family": "dihedral_infinite"})
    g = dinf.element((3, 0))
    small = conjugacy_class(g, budget=10)
    large = conjugacy_class(g, budget=10_000)
    assert not small.exceeded and not large.exceeded
    assert small.size == large.size == 2


def test_finite_classes_conjugation_invariant():
    s4 = construct_group({"family": "symmetric", "n": 4})
    for g in s4.iter_elements(24):
        cls = conjugacy_class(g)
        members = {e.form for e in cls.elements}
        for h in s4.generators:
            assert {(h * c * h.inv()).form for c in cls.elements} == members


INFINITE_CLASS_SPECS = [
    ("Dinf", DINF),
    ("F2", F2),
    ("F3", {"family": "free", "rank": 3}),
    ("sumDinf", {"family": "restricted_sum", "factor": DINF}),
    ("DinfxC3", spec_product(DINF, spec_cyclic(3))),
    ("F2xsumS3", spec_product(F2, SPEC_S3SUM)),
]


@pytest.mark.parametrize("name,spec", INFINITE_CLASS_SPECS + TRACE_FAMILY_SPECS)
def test_a_class_the_family_proves_infinite_exceeds_the_search_budget(name, spec):
    handle = construct_group(spec)
    fam = handle._family
    proved = 0
    for g in handle.iter_elements(200):
        if not fam.infinite_class(g.form):
            continue
        proved += 1
        maps = [fam.conj_map(t) for t in fam.alphabet_block(fam.conjugating_forms(g.form))]
        with pytest.raises(BudgetExceededError):
            _bfs([g.form], maps, 300)
    assert (proved > 0) is (handle.order is None)


@pytest.mark.parametrize("spec,form", [
    (DINF, (0, 1)),
    (F2, (1, 2)),
    (spec_product(DINF, spec_cyclic(3)), ((0, 1), 0)),
], ids=["s", "xy", "(s,e)"])
def test_a_class_the_family_proves_infinite_is_not_searched(monkeypatch, spec, form):
    def no_search(*args):
        raise AssertionError("the class was searched")
    monkeypatch.setattr(fc_center, "_bfs", no_search)
    cls = conjugacy_class(construct_group(spec).element(form), budget=500)
    assert cls.exceeded
    assert (cls.budget, cls.partial_count) == (500, 500)
