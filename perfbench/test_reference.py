"""Tests of the benchmark's reference computations and span accounting.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference  # noqa: E402


def test_hook_length_degrees_of_small_symmetric_groups():
    assert reference.symmetric_degrees(3) == [1, 1, 2]
    assert reference.symmetric_degrees(4) == [1, 1, 2, 3, 3]
    assert reference.symmetric_degrees(5) == [1, 1, 4, 4, 5, 5, 6]
    for n in range(1, 8):
        ds = reference.symmetric_degrees(n)
        assert sum(d * d for d in ds) == factorial(n)


def test_family_degrees_square_sum_to_the_order():
    cases = [
        ({"family": "cyclic", "n": 12}, 12),
        ({"family": "dihedral", "n": 5}, 10),
        ({"family": "dihedral", "n": 20}, 40),
        ({"family": "heisenberg", "p": 5}, 125),
        ({"family": "quaternion8"}, 8),
    ]
    for spec, order in cases:
        assert sum(d * d for d in reference.degrees(spec)) == order
    assert reference.degrees({"family": "dihedral", "n": 6}) == [1, 1, 1, 1, 2, 2]
    assert reference.degrees({"family": "heisenberg", "p": 3}) == [1] * 9 + [3, 3]


def test_product_degrees_multiply_the_factor_multisets():
    spec = {"family": "product", "factors": [{"family": "symmetric", "n": 3},
                                             {"family": "quaternion8"}]}
    assert reference.degrees(spec) == sorted([1] * 8 + [2] * 6 + [4])
    assert reference.spectrum(spec)[-1] == (4, Fraction(16, 48))


def test_tower_witnesses_of_the_restricted_sums():
    s3 = {"family": "symmetric", "n": 3}
    q8 = {"family": "quaternion8"}
    assert reference.tower_witness(s3, 1) == (1, Fraction(2, 3))
    assert reference.tower_witness(s3, 2) == (3, Fraction(20, 27))
    assert reference.tower_witness(q8, 2) == (3, Fraction(1, 2))
    assert reference.tower_witness(s3, 3) == (5, Fraction(112, 243))
    assert reference.tower_measure(s3, 2, 4) == Fraction(4, 9)


def test_lemma7_reference_traces():
    s3 = {"family": "symmetric", "n": 3}
    q8 = {"family": "quaternion8"}
    assert reference.measure_of_degree_at_least(s3, 2) ** 2 == Fraction(4, 9)
    assert reference.measure_of_degree_at_least(q8, 2) ** 2 == Fraction(1, 4)


def test_quaternion_arithmetic():
    q8 = reference.FactorArithmetic({"family": "quaternion8"})
    i, j, k = q8.key([1, 0]), q8.key([2, 0]), q8.key([3, 0])
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.key([3, 1])
    assert q8.mul(i, i) == q8.key([0, 1])
    assert q8.conjugacy_class(i) == {i, q8.key([1, 1])}


def test_witness_checks_accept_commuting_levels_and_reject_broken_ones():
    s3 = {"family": "symmetric", "n": 3}

    def level(c):
        swaps = [[[c, [1, 0, 2]]], [[c, [0, 2, 1]]], [[c, [2, 1, 0]]]]
        cycles = [[[c, [1, 2, 0]]], [[c, [2, 0, 1]]]]
        return {"g": swaps[0], "h": cycles[0], "g_class": swaps, "h_class": cycles}

    assert reference.witness_failures(s3, [level(0), level(1)]) == []
    broken = level(0)
    broken["h"] = broken["g"]
    assert "level 0: g and h commute" in reference.witness_failures(s3, [broken])
    short = level(0)
    short["g_class"] = short["g_class"][:2]
    assert reference.witness_failures(s3, [short]) == ["level 0: g_class is not the class of g"]
    overlapping = level(0)
    assert reference.witness_failures(s3, [level(0), overlapping]) == [
        "levels 0 and 1 do not commute"]


def test_self_time_subtracts_child_spans():
    import spans
    rec = spans.Recorder()
    rec.spans = [["outer", 0.0, 10.0, -1, "j"], ["inner", 1.0, 4.0, 0, "j"],
                 ["inner", 5.0, 6.0, 0, "j"], ["leaf", 2.0, 3.0, 1, "j"]]
    assert rec.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    rec.scale["j"] = 0.5
    assert rec.self_times() == {"outer": 3.0, "inner": 1.5, "leaf": 0.5}


def test_tracing_restores_every_replaced_name():
    import numpy as np
    import spans
    import groupvna
    from groupvna import characters, cli, cyclotomic, dichotomy
    before = (dichotomy.generate_closure, cli.validate_orthogonality, np.einsum,
              cyclotomic.Cyclo.__mul__, groupvna.classify)
    rec = spans.Recorder()
    with spans.Tracing(rec):
        assert dichotomy.generate_closure is not before[0]
        assert characters.validate_orthogonality is cli.validate_orthogonality
        groupvna.factor_spectrum(groupvna.construct_group({"family": "symmetric", "n": 3}))
    after = (dichotomy.generate_closure, cli.validate_orthogonality, np.einsum,
             cyclotomic.Cyclo.__mul__, groupvna.classify)
    assert after == before
    metrics = spans.layer_metrics(rec)
    assert metrics["characters.classes"] == 3
    assert metrics["characters.structure_constant_cells"] == 27
    assert metrics["characters.validate_exact_calls"] == 1
    assert metrics["vn_spectrum.factor_spectrum_s"] > 0
    assert metrics["cyclotomic.mul_calls"] > 0
