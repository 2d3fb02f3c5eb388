"""Commuting-subgroup recursion, classification, and certificate replay."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus import SPEC_Q8SUM, SPEC_S3SUM, json_values, spec_symmetric
from groupvna import cli, dichotomy, groups
from groupvna.dichotomy import (
    AbelianEvidence,
    ClassifyOptions,
    classify,
    find_noncommuting_pair,
    kernel_membership,
    lemma10_sequence,
    replay_certificate,
)
from groupvna.errors import DomainMismatchError, ParameterError, PreconditionError
from groupvna.fc_center import conjugacy_class
from groupvna.groups import construct_group, generate_closure


# ---------------------------------------------------------------------------
# find_noncommuting_pair


def test_first_pair_in_s3():
    s3 = construct_group(spec_symmetric(3))
    got = find_noncommuting_pair(s3.iter_elements(6), budget=6)
    assert got == (s3.element((1, 0, 2)), s3.element((1, 2, 0)))


def test_cyclic_group_abelian_proof():
    c4 = construct_group({"family": "cyclic", "n": 4})
    got = find_noncommuting_pair(c4.iter_elements(), budget=100)
    assert isinstance(got, AbelianEvidence)
    assert got.exhaustive and got.scanned == 4


def test_budgeted_scan_is_evidence_only():
    dinf = construct_group({"family": "dihedral_infinite"})
    translations = (e for e in dinf.iter_elements(500) if e.form[1] == 0)
    got = find_noncommuting_pair(translations, budget=50)
    assert isinstance(got, AbelianEvidence)
    assert not got.exhaustive


def test_pair_found_in_first_coordinate_of_restricted_sum():
    ss = construct_group(SPEC_S3SUM)
    g, h = find_noncommuting_pair(ss.iter_elements(100), budget=100)
    assert all(c == 0 for c, _ in g.form)
    assert all(c == 0 for c, _ in h.form)


def test_empty_stream_rejected():
    with pytest.raises(ParameterError, match="empty"):
        find_noncommuting_pair(iter(()), budget=5)


def test_scan_rejects_a_spent_budget_and_mixed_handles():
    s3 = construct_group(spec_symmetric(3))
    with pytest.raises(ParameterError, match="budget"):
        find_noncommuting_pair(s3.iter_elements(6), budget=0)
    q8 = construct_group({"family": "quaternion8"})
    with pytest.raises(DomainMismatchError):
        find_noncommuting_pair([s3.identity, q8.identity], budget=5)


# ---------------------------------------------------------------------------
# kernel membership


def test_identity_always_in_kernel():
    ss = construct_group(SPEC_S3SUM)
    k = list(conjugacy_class(ss.element(((0, (1, 0, 2)),))).elements)
    assert kernel_membership(ss.identity, k)


def test_disjoint_coordinates_commute():
    ss = construct_group(SPEC_S3SUM)
    k = list(conjugacy_class(ss.element(((0, (1, 0, 2)),))).elements)
    g = ss.element(((5, (1, 2, 0)),))
    assert kernel_membership(g, k)


def test_same_coordinate_noncentral_fails():
    ss = construct_group(SPEC_S3SUM)
    k = list(conjugacy_class(ss.element(((0, (1, 0, 2)),))).elements)
    g = ss.element(((0, (1, 2, 0)),))
    assert not kernel_membership(g, k)


def test_unstable_set_raises():
    s3 = construct_group(spec_symmetric(3))
    k = [s3.element((1, 0, 2))]  # a single transposition is not conjugation-stable
    with pytest.raises(PreconditionError, match="not stable"):
        kernel_membership(s3.element((1, 2, 0)), k)


# ---------------------------------------------------------------------------
# lemma10_sequence


def test_lemma10_s3sum_five_pairs():
    ss = construct_group(SPEC_S3SUM)
    w = lemma10_sequence(ss, 5)
    assert w.complete and len(w.levels) == 5
    assert w.checks.passed
    coords = [lv.g.form[0][0] for lv in w.levels]
    assert len(set(coords)) == 5
    for lv in w.levels:
        assert lv.h.form[0][0] == lv.g.form[0][0]
        assert len(lv.g_class.elements) == 3  # transpositions at one coordinate
        assert len(lv.h_class.elements) == 2  # 3-cycles at one coordinate


def test_lemma10_q8sum_three_pairs():
    qq = construct_group(SPEC_Q8SUM)
    w = lemma10_sequence(qq, 3)
    assert w.complete and w.checks.passed
    for lv in w.levels:
        # each level carries Q8's non-central classes {+-i}, {+-j}
        assert len(lv.g_class.elements) == 2
        assert len(lv.h_class.elements) == 2
        closure = generate_closure(lv.generator_set())
        assert closure.order == 8


def test_lemma10_k1_reduces_to_pair_search():
    ss = construct_group(SPEC_S3SUM)
    w = lemma10_sequence(ss, 1)
    pair = find_noncommuting_pair(ss.iter_elements(100), budget=100)
    assert (w.levels[0].g, w.levels[0].h) == pair


def test_lemma10_requires_declared_hypothesis():
    free2 = construct_group({"family": "free", "rank": 2})
    with pytest.raises(PreconditionError, match="abelian-by-finite"):
        lemma10_sequence(free2, 2)


def test_lemma10_budget_exhaustion_is_inconclusive():
    dinf = construct_group({"family": "dihedral_infinite"})
    w = lemma10_sequence(dinf, 2, stream_budget=40, class_budget=50,
                         assert_hypothesis=True)
    assert not w.complete
    assert w.diagnostics


def test_lemma10_finite_group_runs_out_of_noncentral_elements():
    # with the hypothesis asserted by the caller, a finite group yields one
    # pair and then an honest partial witness: the kernel is the center
    s3 = construct_group(spec_symmetric(3))
    w = lemma10_sequence(s3, 2, assert_hypothesis=True)
    assert len(w.levels) == 1 and not w.complete
    assert w.checks.passed  # the single level still satisfies its invariants
    assert any("no non-commuting pair" in d for d in w.diagnostics)


def test_lemma10_tells_a_spent_stream_budget_from_an_exhausted_group():
    ss = construct_group(SPEC_S3SUM)
    w = lemma10_sequence(ss, 3, stream_budget=5)
    assert len(w.levels) == 1
    assert w.diagnostics == ["step 2: no non-commuting pair in the filtered stream "
                             "(budget 5, 5 elements scanned)"]
    s3 = construct_group(spec_symmetric(3))
    w = lemma10_sequence(s3, 2, assert_hypothesis=True)
    assert w.diagnostics == ["step 2: no non-commuting pair in the filtered stream "
                             "(exhaustive scan, 6 elements scanned)"]


def test_lemma10_kernel_recursion_invariant():
    # accepted elements commute with everything in the earlier subgroups
    ss = construct_group(SPEC_S3SUM)
    w = lemma10_sequence(ss, 3)
    from groupvna.groups import commutator
    for i, lv in enumerate(w.levels):
        for earlier in w.levels[:i]:
            closure = generate_closure(earlier.generator_set())
            for member in closure:
                assert commutator(lv.g, member).is_identity
                assert commutator(lv.h, member).is_identity


def test_lemma10_scans_the_stream_once(monkeypatch):
    # every level resumes the scan past the previous pair: the elements drawn
    # are those up to the last pair's later element, not a rescan per level
    ss = construct_group(SPEC_S3SUM)
    positions = {e.form: i for i, e in enumerate(ss.iter_elements(500))}
    drawn = []
    original = ss.iter_elements

    def counting(limit=None):
        for e in original(limit):
            drawn.append(e)
            yield e
    monkeypatch.setattr(ss, "iter_elements", counting)
    w = lemma10_sequence(ss, 5)
    assert w.complete
    assert len(drawn) == positions[w.levels[-1].h.form] + 1


@pytest.mark.parametrize("spec", [SPEC_S3SUM, SPEC_Q8SUM], ids=["s3sum", "q8sum"])
def test_lemma10_builds_the_stream_only_up_to_the_last_pair(spec):
    # the handle's enumeration cache ends at the last pair's later element
    handle = construct_group(spec)
    w = lemma10_sequence(handle, 5)
    assert w.complete
    assert len(handle._enum) == handle._enum.index(w.levels[-1].h.form) + 1


def test_lemma10_stream_budget_bounds_the_enumeration():
    handle = construct_group(SPEC_S3SUM)
    w = lemma10_sequence(handle, 50, stream_budget=2000)
    assert not w.complete
    assert len(handle._enum) <= 2001


def test_lemma10_needs_no_stability_proof(monkeypatch):
    # K is a union of whole classes, so the scan never re-proves it stable
    calls = []
    original = dichotomy.kernel_membership

    def recording(g, kernel_set):
        calls.append(g)
        return original(g, kernel_set)
    monkeypatch.setattr(dichotomy, "kernel_membership", recording)
    w = lemma10_sequence(construct_group(SPEC_S3SUM), 5)
    assert w.complete and w.checks.passed
    assert calls == []


def _rescanned_pairs(handle, count, stream_budget):
    """The recursion by rescanning a fresh stream from element 0 for every level.

    The families tested declare every class finite, so no FC gate applies.
    """
    kernel, pairs, diagnostics = [], [], []
    for step in range(1, count + 1):
        found = find_noncommuting_pair(handle.iter_elements(stream_budget + 1), stream_budget,
                                       membership=lambda e: kernel_membership(e, kernel))
        if isinstance(found, AbelianEvidence):
            kind = "exhaustive scan" if found.exhaustive else f"budget {found.budget}"
            diagnostics.append(f"step {step}: no non-commuting pair in the filtered stream "
                               f"({kind}, {found.scanned} elements scanned)")
            break
        pairs.append(found)
        for x in found:
            kernel.extend(conjugacy_class(x).elements)
    return pairs, diagnostics


@pytest.mark.parametrize("factor", [spec_symmetric(3), {"family": "quaternion8"},
                                    {"family": "dihedral", "n": 4},
                                    {"family": "heisenberg", "p": 3}],
                         ids=["S3", "Q8", "D4", "Heis3"])
@pytest.mark.parametrize("stream_budget", [5, 40, 300])
def test_lemma10_single_scan_matches_a_rescan_per_level(factor, stream_budget):
    spec = {"family": "restricted_sum", "factor": factor}
    w = lemma10_sequence(construct_group(spec), 5, stream_budget=stream_budget)
    pairs, diagnostics = _rescanned_pairs(construct_group(spec), 5, stream_budget)
    assert [(lv.g.form, lv.h.form) for lv in w.levels] == [(g.form, h.form) for g, h in pairs]
    assert w.diagnostics == diagnostics


# ---------------------------------------------------------------------------
# classify


def test_classify_finite_group():
    cert = classify(spec_symmetric(5))
    assert cert.verdict == "type_I"
    assert cert.type_i_witness["index"] == 120
    assert cert.type_i_witness["abelian_subgroup_generators"] == []


def test_classify_infinite_dihedral():
    cert = classify({"family": "dihedral_infinite"})
    assert cert.verdict == "type_I"
    assert cert.type_i_witness["index"] == 2
    assert cert.type_i_witness["abelian_subgroup_generators"] == [[1, 0]]


def test_classify_restricted_sum_s3():
    cert = classify(SPEC_S3SUM)
    assert cert.verdict == "not_type_I"
    assert cert.growth.levels_required == 3
    assert cert.growth.achieved_measure == Fraction(20, 27)
    assert cert.commuting_witness.checks.passed


def test_classify_builds_one_table_for_isomorphic_levels(monkeypatch):
    # the three S3 levels share one right-multiplication table, so the growth
    # evaluation builds S3's character table once, not once per level
    from groupvna import vn_spectrum
    orders = []
    original = vn_spectrum.character_table
    monkeypatch.setattr(vn_spectrum, "character_table",
                        lambda cd: orders.append(cd.order) or original(cd))
    cert = classify(SPEC_S3SUM, ClassifyOptions(k=2))
    assert cert.growth.levels_required == 3
    assert orders == [6]


def test_classify_restricted_sum_q8():
    cert = classify(SPEC_Q8SUM)
    assert cert.verdict == "not_type_I"
    assert cert.growth.levels_required == 3
    assert cert.growth.achieved_measure == Fraction(1, 2)
    assert json.loads(cert.to_bytes())["growth"]["history"][1]["measure"] == {"num": 1, "den": 4}


def test_classify_abelian_restricted_sum():
    cert = classify({"family": "restricted_sum", "factor": {"family": "cyclic", "n": 3}})
    assert cert.verdict == "type_I"
    assert cert.type_i_witness["index"] == 1


def test_classify_icc_group_is_inconclusive():
    cert = classify({"family": "free", "rank": 2})
    assert cert.verdict == "inconclusive"
    assert any("icc" in d for d in cert.diagnostics)


def test_classify_product_of_two_restricted_sums():
    # levels alternate between the factors in enumeration order; the growth
    # closure mixes symmetric and quaternion blocks
    cert = classify({"family": "product", "factors": [SPEC_S3SUM, SPEC_Q8SUM]})
    assert cert.verdict == "not_type_I"
    assert cert.growth.levels_required == 3
    assert cert.growth.achieved_measure == Fraction(2, 3)
    orders = [order for _, order, _ in cert.growth.history]
    assert orders == [6, 48, 288]
    assert replay_certificate(json.loads(cert.to_bytes())).passed


def test_classify_product_with_abelian_by_finite_factors():
    # witness indices multiply across factors: translations x trivial, index 2*6
    cert = classify({"family": "product", "factors": [
        {"family": "dihedral_infinite"}, spec_symmetric(3),
    ]})
    assert cert.verdict == "type_I"
    assert cert.type_i_witness["index"] == 12
    assert cert.type_i_witness["abelian_subgroup_generators"] == [[[1, 0], [0, 1, 2]]]


def test_classify_mixed_product_with_infinite_factor():
    # the recursion draws pairs from whichever part of the FC-center enumerates first
    cert = classify({"family": "product", "factors": [
        SPEC_S3SUM, spec_symmetric(3),
    ]})
    assert cert.verdict == "not_type_I"
    assert cert.growth.levels_required == 3
    assert cert.growth.achieved_measure == Fraction(20, 27)
    report = replay_certificate(json.loads(cert.to_bytes()))
    assert report.passed


def test_classify_options_validate():
    with pytest.raises(ParameterError):
        ClassifyOptions(epsilon=Fraction(3, 2))
    with pytest.raises(ParameterError):
        ClassifyOptions(k=0)
    opts = ClassifyOptions(epsilon=0.05)
    assert opts.epsilon == Fraction(1, 20)  # floats are made exact up front


def test_classify_honors_declared_witness():
    # user metadata is where undecidable hypotheses live; classify cites it
    cert = classify({
        "family": "dihedral_infinite",
        "metadata": {"abelian_by_finite": {"generators": [[1, 0]], "index": 2}},
    })
    assert cert.verdict == "type_I"
    assert cert.type_i_witness["kind"] == "family_metadata"
    assert cert.type_i_witness["index"] == 2
    assert cert.type_i_witness["note"] == "declared in spec metadata"
    assert replay_certificate(json.loads(cert.to_bytes())).passed


def test_power_test_refutes_a_declared_index():
    # were <x> of index 2 in F2, y or y^2 would lie in it and commute with x
    spec = {"family": "free", "rank": 2,
            "metadata": {"abelian_by_finite": {"generators": [[1]], "index": 2}}}
    cert = classify(spec)
    assert cert.verdict == "inconclusive"
    assert "no power g^j of g = y, 1 <= j <= 2" in cert.diagnostics[-1]
    doc = json.loads(cert.to_bytes())
    doc["verdict"] = "type_I"
    doc["type_i_witness"] = {"kind": "family_metadata", "abelian_subgroup_generators": [[1]],
                             "index": 2, "note": "declared in spec metadata"}
    report = replay_certificate(doc)
    assert not report.passed
    assert any("type_i_witness: declared abelian subgroup cannot have index 2" in f
               for f in report.failures), report.failures


def test_power_test_refutes_an_empty_generator_list(tmp_path):
    # an empty list at index 5 declares the trivial subgroup of index 5 in F2:
    # then x^j = e for some j <= 5, and no power of x is
    spec = {"family": "free", "rank": 2,
            "metadata": {"abelian_by_finite": {"generators": [], "index": 5}}}
    cert = classify(spec)
    assert cert.verdict == "inconclusive"
    assert "no power g^j of g = x, 1 <= j <= 5, is the identity" in cert.diagnostics[-1]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.run(["classify", "--spec", str(path)]) == 3
    doc = json.loads(cert.to_bytes())
    doc["verdict"] = "type_I"
    doc["type_i_witness"] = {"kind": "family_metadata", "abelian_subgroup_generators": [],
                             "index": 5, "note": "declared in spec metadata"}
    report = replay_certificate(doc)
    assert not report.passed
    assert any("type_i_witness: declared abelian subgroup cannot have index 5" in f
               for f in report.failures), report.failures


def test_an_empty_generator_list_at_index_1_needs_commuting_probes():
    # it declares the group abelian: D_inf's probes t and s do not commute
    handle = construct_group({"family": "dihedral_infinite"})
    handle.metadata = replace(handle.metadata, abelian_by_finite=groups.AbelianByFiniteWitness(
        (), 1, "group is abelian"))
    witness, reason = dichotomy._type_i_witness(handle, 100)
    assert witness is None
    assert reason == "declared abelian group is not abelian: t^1 and s do not commute"


@pytest.mark.parametrize("n,digest", [
    (2, "aaf9787aabb179ac6b30e03e8173c34a6b006921871d00bebdfa43b600612bcb"),
    (6, "bb95811fcd27f4a7456eb3eb82ec8dd4ff2309cf9f56dd62b1c6338a150da453"),
])
def test_abelian_restricted_sums_stay_type_i(n, digest):
    # they declare the group abelian by an empty list at index 1; digests measured
    # before an empty list at a larger index was read as the trivial subgroup
    cert = classify({"family": "restricted_sum", "factor": {"family": "cyclic", "n": n}})
    assert cert.verdict == "type_I"
    assert hashlib.sha256(cert.to_bytes()).hexdigest() == digest
    assert replay_certificate(json.loads(cert.to_bytes())).passed


def test_classify_deterministic_bytes():
    opts = ClassifyOptions(seed=3)
    a = classify(SPEC_S3SUM, opts).to_bytes()
    b = classify(SPEC_S3SUM, ClassifyOptions(seed=3)).to_bytes()
    assert a == b


@pytest.mark.parametrize("spec,k,digest", [
    (SPEC_S3SUM, 1, "601610ac4bfaab63630403021a8a52972a266c298ffba3a5652d67f60004e7b2"),
    (SPEC_S3SUM, 2, "65fcd03dd68b0875ddd5afe1e8ece55d1823be04695e100af45a63e3af5b3b40"),
    (SPEC_Q8SUM, 1, "8b5d0a5313b5ae193a9c3b7fe6deda55aa511954bb6d4170693fc697d1259648"),
    (SPEC_Q8SUM, 2, "22591fad54ead2c35f78fe4937a52bda59ba2e09670e1e5f87622ce4bd3e4817"),
    ({"family": "dihedral_infinite"}, None,
     "2ff7c51ea235d8dedab061b8f32a98a68062143b70521f52288361d1b098680b"),
])
def test_certificate_bytes_pinned(spec, k, digest):
    # a reordered BFS anywhere (closures, orbits, enumeration) changes these bytes
    opts = ClassifyOptions() if k is None else ClassifyOptions(k=k)
    assert hashlib.sha256(classify(spec, opts).to_bytes()).hexdigest() == digest


def test_certificate_replay_from_json_alone():
    cert = classify(SPEC_S3SUM)
    doc = json.loads(cert.to_bytes())
    report = replay_certificate(doc)
    assert report.passed
    assert report.checks == [("options_valid", True), ("growth_closure_within_limits", True),
                             ("certificate_matches", True)]


def test_replay_detects_tampered_measure():
    cert = classify(SPEC_S3SUM)
    doc = json.loads(cert.to_bytes())
    doc["growth"]["achieved_measure"]["num"] += 1
    report = replay_certificate(doc)
    assert not report.passed
    assert any("growth_measure" in f or "measure" in f for f in report.failures)


def test_replay_detects_tampered_class():
    cert = classify(SPEC_S3SUM)
    doc = json.loads(cert.to_bytes())
    doc["commuting_witness"]["levels"][0]["g_class"].pop()
    report = replay_certificate(doc)
    assert not report.passed


def _forge_k(doc):
    doc["options"]["k"] = 5


def _forge_measure_threshold(doc):
    doc["growth"]["measure_threshold"] = {"num": 0, "den": 1}


def _forge_digest(doc):
    doc["spec_digest"] = "0" * 64


def _forge_levels_required(doc):
    doc["growth"]["levels_required"] = 9


def _forge_k_type(doc):
    doc["options"]["k"] = "2"


def _forge_noncommuting_levels(doc):
    # a level repeated: the fold refuses the tower, replay records the failure
    levels = doc["commuting_witness"]["levels"]
    levels[1] = levels[0]


def _replace(path, value, named, base=None):
    """A forge setting the field at `path` to `value`; replay must name `named`.

    `base` is the (spec, k) whose certificate is forged, by default the S3 sum at k = 2.
    """
    def forge(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return named
    forge.base = base
    return forge


# type_I on the index a spec declares
_FREE1_INDEX1 = {"family": "free", "rank": 1,
                 "metadata": {"abelian_by_finite": {"generators": [[1]], "index": 1}}}


_LEVEL0 = ("commuting_witness", "levels", 0)


@pytest.mark.parametrize("forge", [
    _forge_k, _forge_measure_threshold, _forge_digest, _forge_levels_required, _forge_k_type,
    _forge_noncommuting_levels,
    pytest.param(_replace(_LEVEL0 + ("g",), "x", "commuting_witness.levels[0].g"),
                 id="g-string"),
    pytest.param(_replace(_LEVEL0 + ("g",), [[0]], "commuting_witness.levels[0].g"),
                 id="g-short-pair"),
    pytest.param(_replace(_LEVEL0 + ("g_class",), 5, "commuting_witness.levels[0].g_class"),
                 id="g_class-int"),
    pytest.param(_replace(("commuting_witness", "levels"), None, "commuting_witness.levels"),
                 id="levels-null"),
    pytest.param(_replace(("growth",), None, "growth"), id="growth-null"),
    pytest.param(_replace(("growth", "achieved_measure"), None, "growth.achieved_measure"),
                 id="achieved_measure-null"),
    pytest.param(_replace(("commuting_witness",), None, "commuting_witness"),
                 id="commuting_witness-null"),
    pytest.param(_replace(("verdict",), "type_I", "type_i_witness"), id="verdict-type_I"),
    pytest.param(_replace(("group_spec",), {"family": "nope"}, "group_spec"),
                 id="group_spec-unknown-family"),
    # True == 1: one level clears k = 1, and the declared index is 1
    pytest.param(_replace(("growth", "levels_required"), True, "growth.levels_required",
                          base=(SPEC_S3SUM, 1)), id="levels_required-bool"),
    pytest.param(_replace(("type_i_witness", "index"), True, "type_i_witness.index",
                          base=(_FREE1_INDEX1, 2)), id="index-bool"),
    # a finite group's witness is the group itself, whatever metadata it declares
    pytest.param(_replace(("type_i_witness", "kind"), "family_metadata", "type_i_witness.kind",
                          base=(spec_symmetric(4), 2)), id="kind-family_metadata"),
    pytest.param(_replace(("type_i_witness", "kind"), "finite_group", "type_i_witness.kind",
                          base=(_FREE1_INDEX1, 2)), id="kind-finite_group"),
    # the growth report and the witness checks are compared whole with their recomputation
    pytest.param(_replace(("growth", "found"), False, "growth.found:"), id="found-false"),
    pytest.param(_replace(("growth", "history"), [], "growth.history:"), id="history-empty"),
    pytest.param(_replace(("growth", "cap"), 99, "growth.cap:"), id="cap-99"),
    pytest.param(_replace(("commuting_witness", "complete"), False,
                          "commuting_witness.complete:"), id="complete-false"),
    pytest.param(_replace(("commuting_witness", "requested"), 77,
                          "commuting_witness.requested:"), id="requested-77"),
    pytest.param(_replace(("commuting_witness", "checks", "pairwise_commuting"), False,
                          "commuting_witness.checks"), id="pairwise_commuting-false"),
    pytest.param(_replace(("commuting_witness", "checks", "commutation_matrix"), [[5]],
                          "commuting_witness.checks"), id="commutation_matrix-5"),
])
def test_replay_rejects_forged_claims(forge):
    spec, k = getattr(forge, "base", None) or (SPEC_S3SUM, 2)
    doc = json.loads(classify(spec, ClassifyOptions(k=k)).to_bytes())
    if spec is SPEC_S3SUM and k == 2:
        assert len(doc["commuting_witness"]["levels"]) == 3
    assert replay_certificate(doc).passed
    named = forge(doc)
    report = replay_certificate(doc)
    assert not report.passed
    if named is not None:
        assert any(named in f for f in report.failures), report.failures


def test_replay_refuses_a_document_that_is_not_a_certificate():
    doc = json.loads(classify(SPEC_S3SUM, ClassifyOptions(k=2)).to_bytes())
    for bad in ({**doc, "format": "groupvna-certificate/0"}, [doc], None):
        with pytest.raises(ParameterError, match="not a recognized certificate"):
            replay_certificate(bad)


def _field_paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _field_paths(child, prefix + (key,))


_FORGED_CERTS = [classify(SPEC_S3SUM, ClassifyOptions(k=2)).to_bytes(),
                 classify({"family": "dihedral_infinite"}).to_bytes()]
_FORGED_FIELDS = [(cert, p) for cert in _FORGED_CERTS for p in _field_paths(json.loads(cert))
                  if p and p != ("format",)]


# ints stay small: a forged group spec is built before anything is checked,
# and a symmetric family's constructor builds an n-tuple and n! for any n
@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(_FORGED_FIELDS),
       value=json_values(3, ints=st.integers(-1000, 1000)))
def test_replay_of_a_randomly_forged_field_never_raises(field, value):
    cert, path = field
    doc = json.loads(cert)
    _replace(path, value, None)(doc)
    assume(json.dumps(doc, sort_keys=True) != json.dumps(json.loads(cert), sort_keys=True))
    assume((path, value) != (("verdict",), "inconclusive"))  # it makes no claims
    report = replay_certificate(doc)
    # a valid option value may leave the verdict standing, and the notes of
    # the FC probe, which replay does not re-run, are taken as written
    unbound = (path[0] == "options" and len(path) > 1
               or path[0] == "diagnostics" and doc["verdict"] == "type_I")
    assert report.passed is False or unbound, (path, value, report.checks)


@pytest.mark.parametrize("limits,failed", [
    ({"max_order": 5, "closure_budget": 5}, "growth_closure_within_limits"),
    ({"max_order": 5}, "growth_closure_within_limits"),
    ({"closure_budget": 5}, "growth_closure_within_limits"),
    ({"max_order": 0}, "options_valid"),
    ({"closure_budget": "216"}, "options_valid"),
    ({"max_order": True}, "options_valid"),
    ({"epsilon": "x"}, "options_valid"),
    ({"epsilon": {"num": 1, "den": 0}}, "options_valid"),
    ({"max_levels": 0}, "options_valid"),
    ({"class_budget": 0}, "options_valid"),
    ({"stream_budget": -5}, "options_valid"),
    ({"seed": "x"}, "options_valid"),
    # fields no option reads are bound by the whole comparison
    ({"tolerance": 0.5}, "certificate_matches"),
    ({"extra": 1}, "certificate_matches"),
])
def test_replay_honours_certificate_size_limits(limits, failed):
    # the witness needs three 6-element level closures
    doc = json.loads(classify(SPEC_S3SUM, ClassifyOptions(k=2)).to_bytes())
    doc["options"].update(limits)
    report = replay_certificate(doc)
    assert not report.passed
    assert (failed, False) in report.checks


def test_a_max_order_below_the_folded_order_replays():
    # the 216-element product of three levels is folded, never built, so
    # max_order binds only the 6-element levels, and classify emits the same
    # bytes under max_order = 100
    doc = json.loads(classify(SPEC_S3SUM, ClassifyOptions(k=2)).to_bytes())
    doc["options"]["max_order"] = 100
    assert replay_certificate(doc).passed
    cert = classify(SPEC_S3SUM, ClassifyOptions(k=2, max_order=100))
    assert json.loads(cert.to_bytes()) == doc


def _record_closure_budgets(monkeypatch) -> list:
    budgets = []

    def recording(gens, budget=dichotomy.DEFAULT_CLOSURE_BUDGET):
        budgets.append(budget)
        return generate_closure(gens, budget)
    monkeypatch.setattr(dichotomy, "generate_closure", recording)
    return budgets


def test_classify_never_closes_past_max_order(monkeypatch):
    budgets = _record_closure_budgets(monkeypatch)
    cert = classify(SPEC_S3SUM, ClassifyOptions(k=3, max_order=300))
    assert cert.verdict == "not_type_I" and cert.growth.levels_required == 5
    assert cert.growth.history[-1][1] == 6 ** 5
    assert budgets and max(budgets) <= 300
    doc = json.loads(classify(SPEC_S3SUM, ClassifyOptions(k=2, max_order=300)).to_bytes())
    assert replay_certificate(doc).passed
    assert max(budgets) <= 300


@pytest.mark.parametrize("spec,k,levels,measure", [
    (SPEC_S3SUM, 3, 5, Fraction(112, 243)),
    (SPEC_Q8SUM, 3, 7, Fraction(1, 2)),
    ({"family": "restricted_sum", "factor": {"family": "heisenberg", "p": 3}}, 2, 3,
     Fraction(20, 27)),
    ({"family": "restricted_sum", "factor": {"family": "heisenberg", "p": 3}}, 3, 4,
     Fraction(16, 27)),
], ids=["s3sum-k3", "q8sum-k3", "heis3sum-k2", "heis3sum-k3"])
def test_towers_of_trivially_meeting_levels_certify_past_max_order(spec, k, levels, measure):
    # each product order is far above the default max_order = 5000 (Q8^7 has
    # 2^21 elements), yet only the levels are built
    cert = classify(spec, ClassifyOptions(k=k))
    assert cert.verdict == "not_type_I"
    assert (cert.growth.levels_required, cert.growth.achieved_measure) == (levels, measure)
    assert cert.growth.history[-1][1] > ClassifyOptions().max_order
    assert replay_certificate(json.loads(cert.to_bytes())).passed


def test_replay_closes_only_the_witness_levels(monkeypatch):
    # replay folds the levels' spectra: no closure of a product of levels
    doc = json.loads(classify(SPEC_S3SUM, ClassifyOptions(k=2)).to_bytes())
    orders = []

    def recording(gens, budget=dichotomy.DEFAULT_CLOSURE_BUDGET):
        closure = generate_closure(gens, budget)
        orders.append(closure.order)
        return closure
    monkeypatch.setattr(dichotomy, "generate_closure", recording)
    monkeypatch.setattr(groups, "generate_closure", recording)
    report = replay_certificate(doc)
    assert report.passed
    assert orders and max(orders) == 6


def test_closure_of_exactly_max_order_certifies():
    cert = classify(SPEC_S3SUM, ClassifyOptions(k=2, max_order=216))
    assert cert.verdict == "not_type_I"
    assert cert.growth.history[-1][1] == 216
    assert replay_certificate(json.loads(cert.to_bytes())).passed


def test_replay_type_i_certificates():
    for spec in (spec_symmetric(5), {"family": "dihedral_infinite"}):
        report = replay_certificate(json.loads(classify(spec).to_bytes()))
        assert report.passed
