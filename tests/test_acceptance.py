"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here: exact-rational equality
where the criterion says exact, 1e-6 on oracle measures and matrix-unit
residuals, and the stated wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from corpus import (
    SPEC_Q8SUM,
    SPEC_S3SUM,
    TRACE_FAMILY_SPECS,
    central_product_handle_and_subgroups,
    nonabelian_le32_specs,
    oracle_corpus_specs,
    spec_product,
    spec_symmetric,
)
from groupvna.characters import character_table, class_data, validate_orthogonality
from groupvna.dichotomy import ClassifyOptions, classify, lemma10_sequence, replay_certificate
from groupvna.errors import ConsistencyError
from groupvna.groups import construct_group, coordinate_subgroup, factor_subgroup
from groupvna.vn_spectrum import (
    AlgebraElement,
    factor_spectrum,
    growth_search,
    icc_orthonormality_check,
    nonabelian_measure,
    numerical_decomposition,
    product_projection_spectrum,
    tau_inner_product,
    trace,
    unitary,
)


class _Stopwatch:
    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s ({elapsed:.2f}s)"
        return False


def test_criterion_1_trace_axioms():
    with _Stopwatch("1 trace axioms (exact, >=10^3 elements/family)", 10.0):
        rng = random.Random(2024)
        for name, spec in TRACE_FAMILY_SPECS:
            handle = construct_group(spec)
            assert handle.order <= 64
            pool = list(handle.iter_elements(handle.order))
            assert trace(unitary(handle.identity)) == 1
            previous = None
            for _ in range(1000):
                support = rng.sample(pool, k=min(3, len(pool)))
                a = AlgebraElement(handle, {
                    g: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for g in support
                })
                if not a.is_zero():
                    assert tau_inner_product(a, a).as_fraction() > 0
                else:
                    assert tau_inner_product(a, a) == 0
                if previous is not None:
                    assert trace(previous * a) == trace(a * previous)
                previous = a


def test_criterion_2_lemma6_bound():
    with _Stopwatch("2 lemma 6 bound (mu >= 1/2 exactly, tight at Q8/D4)", 30.0):
        for name, spec in nonabelian_le32_specs():
            handle = construct_group(spec)
            assert handle.order <= 32, name
            measure = nonabelian_measure(handle)
            assert measure >= Fraction(1, 2), f"{name}: {measure}"
        assert nonabelian_measure(construct_group({"family": "quaternion8"})) == Fraction(1, 2)
        assert nonabelian_measure(construct_group({"family": "dihedral", "n": 4})) == Fraction(1, 2)


def test_criterion_3_oracle_equivalence():
    with _Stopwatch("3 oracle equivalence (orders <= 200)", 60.0):
        for name, spec in oracle_corpus_specs():
            handle = construct_group(spec)
            assert handle.order <= 200, name
            exact = factor_spectrum(handle).dim_measure_multiset()
            oracle = numerical_decomposition(handle, seed=0).dim_measure_multiset()
            assert [d for d, _ in oracle] == [d for d, _ in exact], name
            for (_, m_oracle), (_, m_exact) in zip(oracle, exact):
                assert abs(float(m_oracle - m_exact)) <= 1e-6, name


def test_criterion_4_lemma7():
    with _Stopwatch("4 lemma 7 (M_{n0*n1} copies, unit residuals <= 1e-6)", 30.0):
        prod = construct_group(spec_product(spec_symmetric(3), spec_symmetric(3)))
        report = product_projection_spectrum(
            factor_subgroup(prod, 0), factor_subgroup(prod, 1), 2, 2, seed=0)
        assert report.passed and report.is_projection
        assert report.supported_atoms and all(d == 4 for _, d, _ in report.supported_atoms)
        assert report.unit_residual is not None and report.unit_residual <= 1e-6

        handle, h0, h1 = central_product_handle_and_subgroups()
        report = product_projection_spectrum(h0, h1, 2, 2, seed=0)
        assert report.passed
        assert [(d, w) for _, d, w in report.supported_atoms] == [(4, Fraction(1, 2))]
        degrees = sorted(a.dimension for a in factor_spectrum(handle).atoms)
        assert degrees == [1] * 16 + [4]
        assert report.unit_residual is not None and report.unit_residual <= 1e-6


def test_criterion_5_growth():
    with _Stopwatch("5 lemmas 8-9 growth (N=3, 20/27; N=2 rejected at 16/36)", 30.0):
        handle = construct_group(SPEC_S3SUM)
        tower = [coordinate_subgroup(handle, i) for i in range(4)]
        result = growth_search(tower, k=2, epsilon=Fraction(1, 20))
        assert result.found and result.levels_required == 3
        assert result.achieved_measure == Fraction(20, 27)
        rejected = dict((lv, ms) for lv, _, ms in result.history)
        assert rejected[2] == Fraction(16, 36)
        assert rejected[2] <= result.measure_threshold


def test_criterion_6_lemma10():
    with _Stopwatch("6 lemma 10 (k=5 pairs on both restricted sums)", 30.0):
        for spec in (SPEC_S3SUM, SPEC_Q8SUM):
            handle = construct_group(spec)
            witness = lemma10_sequence(handle, 5)
            assert witness.complete and len(witness.levels) == 5
            assert witness.checks is not None and witness.checks.passed
            assert not witness.checks.failures


def test_criterion_7_end_to_end_dichotomy():
    with _Stopwatch("7 end-to-end classify + replay + determinism", 60.0):
        cert = classify(spec_symmetric(5))
        assert cert.verdict == "type_I" and cert.type_i_witness["index"] == 120

        cert = classify({"family": "dihedral_infinite"})
        assert cert.verdict == "type_I" and cert.type_i_witness["index"] == 2

        opts = ClassifyOptions(k=2, epsilon=Fraction(1, 20), seed=0)
        cert = classify(SPEC_S3SUM, opts)
        assert cert.verdict == "not_type_I"
        assert cert.growth.achieved_measure == Fraction(20, 27)

        payload = cert.to_bytes()
        replay = replay_certificate(json.loads(payload))
        assert replay.passed

        again = classify(SPEC_S3SUM, ClassifyOptions(k=2, epsilon=Fraction(1, 20), seed=0))
        assert again.to_bytes() == payload


def test_criterion_8_icc_specialization():
    with _Stopwatch("8 icc Gram identity on free(2); D_inf inconsistency", 10.0):
        free2 = construct_group({"family": "free", "rank": 2})
        words = list(free2.iter_elements(53))
        assert all(len(w.form) <= 3 for w in words)  # exactly the words of length <= 3
        report = icc_orthonormality_check(free2, n=53, class_budget=400)
        assert report.gram_is_identity

        dinf = construct_group({"family": "dihedral_infinite"})
        with pytest.raises(ConsistencyError):
            icc_orthonormality_check(dinf, n=5, class_budget=400)


def test_criterion_9_character_engine():
    with _Stopwatch("9 character engine (orthogonality + mutation tripwire)", 30.0):
        seen = set()
        corpus = list(TRACE_FAMILY_SPECS) + list(nonabelian_le32_specs()) + list(oracle_corpus_specs())
        for name, spec in corpus:
            if name in seen:
                continue
            seen.add(name)
            cd = class_data(construct_group(spec))
            table = character_table(cd)
            assert sum(d * d for d in table.degrees) == cd.order, name
            report = validate_orthogonality(table)
            assert report.passed, name

        cd = class_data(construct_group(spec_symmetric(3)))
        table = character_table(cd)
        # flip the sign of value 2 of row 2 in the lifted coordinates
        table.coords = np.vstack([table.coords, -table.coords[table.index[2, 2]]])
        table.index[2, 2] = len(table.coords) - 1
        mutated = validate_orthogonality(table)
        assert not mutated.passed
        assert mutated.failed_relation == "row orthogonality"
        assert max(mutated.max_row_residual, mutated.max_col_residual) >= 1.0
