"""Exact cyclotomic arithmetic."""

from fractions import Fraction

import pytest

from groupvna.cyclotomic import Cyclo, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_sum_to_zero():
    for m in (2, 3, 4, 5, 6, 8, 12, 60):
        total = Cyclo.zero()
        for s in range(m):
            total = total + Cyclo.root(m, s)
        assert total.is_zero(), m


def test_primitive_root_powers_cycle():
    z = Cyclo.root(5, 1)
    acc = Cyclo.rational(1)
    for _ in range(5):
        acc = acc * z
    assert acc == Cyclo.root(5, 5) == 1


def test_rational_embedding_and_mixed_arithmetic():
    half = Cyclo.rational(Fraction(1, 2))
    assert (half + half) == 1
    assert (3 * half).as_fraction() == Fraction(3, 2)
    z6 = Cyclo.root(6, 1)
    # zeta_6 satisfies z^2 = z - 1
    assert z6 * z6 == z6 - 1


def test_conjugation_and_modulus_squared():
    z = Cyclo.root(12, 5)
    assert (z * z.conj()) == 1
    v = Cyclo.root(3, 1) + 2
    norm = v * v.conj()
    # |2 + zeta_3|^2 = 4 + 2(zeta + conj zeta) + 1 = 5 - 2 = 3
    assert norm == 3


def test_cross_modulus_equality():
    assert Cyclo.root(2, 1) == -1
    assert Cyclo.root(4, 2) == Cyclo.rational(-1)
    assert Cyclo.root(3, 1).lift(6) == Cyclo.root(6, 2)
    assert Cyclo.root(6, 1) + Cyclo.root(3, 1) * Cyclo.root(2, 1) == \
        Cyclo.root(6, 1) - Cyclo.root(6, 2)


def test_to_complex_matches_exponential():
    import cmath
    for m, s in ((5, 2), (8, 3), (60, 7)):
        got = Cyclo.root(m, s).to_complex()
        want = cmath.exp(2j * cmath.pi * s / m)
        assert abs(got - want) < 1e-12


def test_is_rational_guard():
    z = Cyclo.root(8, 1)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_fraction()
