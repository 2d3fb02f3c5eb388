"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Values are coefficient vectors over the power basis 1, z, ..., z^(d-1) with
d = deg(Phi_m), reduced modulo the m-th cyclotomic polynomial.  The reduced
form is unique, so equality is structural and sums of roots of unity collapse
exactly; coefficients are ints or Fractions throughout.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials (ascending coefficients, monic divisor)."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dn]
        out[k] = c
        if c:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending order, monic."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction(m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Degree d of Phi_m and the vectors x^t mod Phi_m for t = 0..max(m, 2d-1)-1."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    limit = max(m, 2 * d - 1)
    rows = [(1,) + (0,) * (d - 1)]
    for _ in range(1, limit):
        prev = rows[-1]
        carry = prev[d - 1]
        v = [0] + list(prev[: d - 1])
        if carry:
            for j in range(d):
                v[j] -= carry * phi[j]
        rows.append(tuple(v))
    return d, tuple(rows)


class Cyclo:
    """An element of Q(zeta_m) in reduced power-basis coordinates."""

    __slots__ = ("m", "c")
    __hash__ = None  # equality crosses moduli; hashing would be a trap

    def __init__(self, m: int, coeffs):
        d, _ = _reduction(m)
        coeffs = tuple(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"expected {d} coefficients for modulus {m}")
        self.m = m
        self.c = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x) -> Cyclo:
        return Cyclo(1, (Fraction(x),))

    @staticmethod
    def zero() -> Cyclo:
        return Cyclo(1, (0,))

    @staticmethod
    def root(m: int, s: int) -> Cyclo:
        """zeta_m^s."""
        d, rows = _reduction(m)
        return Cyclo(m, rows[s % m])

    # -- modulus handling --------------------------------------------------

    def lift(self, m2: int) -> Cyclo:
        """The same value viewed in Q(zeta_m2); requires m | m2."""
        if m2 == self.m:
            return self
        if m2 % self.m:
            raise ValueError("target modulus must be a multiple")
        k = m2 // self.m
        d2, rows2 = _reduction(m2)
        acc = [0] * d2
        for s, cs in enumerate(self.c):
            if cs:
                row = rows2[(s * k) % m2]
                for j in range(d2):
                    acc[j] += cs * row[j]
        return Cyclo(m2, acc)

    @staticmethod
    def _pair(a: Cyclo, b: Cyclo) -> tuple[Cyclo, Cyclo]:
        if a.m == b.m:
            return a, b
        m = lcm(a.m, b.m)
        return a.lift(m), b.lift(m)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.rational(x)
        return None

    def __add__(self, other):
        o = Cyclo._coerce(other)
        if o is None:
            return NotImplemented
        a, b = Cyclo._pair(self, o)
        return Cyclo(a.m, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = Cyclo._coerce(other)
        if o is None:
            return NotImplemented
        a, b = Cyclo._pair(self, o)
        return Cyclo(a.m, tuple(x - y for x, y in zip(a.c, b.c)))

    def __rsub__(self, other):
        o = Cyclo._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return Cyclo(self.m, tuple(-x for x in self.c))

    def __mul__(self, other):
        o = Cyclo._coerce(other)
        if o is None:
            return NotImplemented
        a, b = Cyclo._pair(self, o)
        d, rows = _reduction(a.m)
        # rational factors just scale
        if not any(a.c[1:]):
            s = a.c[0]
            return Cyclo(b.m, tuple(s * y for y in b.c))
        if not any(b.c[1:]):
            s = b.c[0]
            return Cyclo(a.m, tuple(s * x for x in a.c))
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        conv[i + j] += x * y
        acc = list(conv[:d])
        for t in range(d, 2 * d - 1):
            ct = conv[t]
            if ct:
                row = rows[t]
                for j in range(d):
                    acc[j] += ct * row[j]
        return Cyclo(a.m, acc)

    __rmul__ = __mul__

    def conj(self) -> Cyclo:
        """Complex conjugate (zeta -> zeta^(m-1))."""
        d, rows = _reduction(self.m)
        acc = [0] * d
        for s, cs in enumerate(self.c):
            if cs:
                row = rows[(self.m - s) % self.m]
                for j in range(d):
                    acc[j] += cs * row[j]
        return Cyclo(self.m, acc)

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.c)

    def __bool__(self) -> bool:
        return any(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.c[0])

    def __eq__(self, other):
        o = Cyclo._coerce(other)
        if o is None:
            return NotImplemented
        a, b = Cyclo._pair(self, o)
        return all(x == y for x, y in zip(a.c, b.c))

    def to_complex(self) -> complex:
        return sum(
            (float(cs) * cmath.exp(2j * cmath.pi * s / self.m) for s, cs in enumerate(self.c) if cs),
            complex(0),
        )

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({Fraction(self.c[0])})"
        terms = [f"{c}*z{self.m}^{s}" for s, c in enumerate(self.c) if c]
        return "Cyclo(" + " + ".join(terms) + ")"

