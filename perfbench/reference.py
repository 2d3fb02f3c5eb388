"""Reference computations the benchmark checks the program against.

Nothing here imports groupvna.  Character degrees come from textbook
formulas, tower measures from a direct count over independent draws, and the
restricted-sum checks from coordinatewise S3 and Q8 arithmetic written out
again from the definitions.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod


# ---------------------------------------------------------------------------
# character degrees


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def hook_length_degree(shape: tuple[int, ...]) -> int:
    """Degree of the S_n irreducible indexed by `shape`: n! / prod(hook lengths)."""
    n = sum(shape)
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1
    return factorial(n) // hooks


def symmetric_degrees(n: int) -> list[int]:
    return sorted(hook_length_degree(shape) for shape in _partitions(n))


def cyclic_degrees(n: int) -> list[int]:
    return [1] * n


def dihedral_degrees(n: int) -> list[int]:
    """D_n of order 2n: 2 or 4 linear characters, the rest of degree 2."""
    if n == 1:
        return [1, 1]
    if n == 2:
        return [1, 1, 1, 1]
    if n % 2:
        return [1, 1] + [2] * ((n - 1) // 2)
    return [1] * 4 + [2] * (n // 2 - 1)


def heisenberg_degrees(p: int) -> list[int]:
    """Heisenberg group mod p: p^2 linear characters and p - 1 of degree p."""
    return [1] * (p * p) + [p] * (p - 1)


def quaternion8_degrees() -> list[int]:
    return [1, 1, 1, 1, 2]


def degrees(spec: dict) -> list[int]:
    """Sorted multiset of irreducible degrees of the group a spec document names."""
    fam = spec["family"]
    if fam == "symmetric":
        return symmetric_degrees(spec["n"])
    if fam == "cyclic":
        return cyclic_degrees(spec["n"])
    if fam == "dihedral":
        return dihedral_degrees(spec["n"])
    if fam == "heisenberg":
        return heisenberg_degrees(spec["p"])
    if fam == "quaternion8":
        return quaternion8_degrees()
    if fam == "product":
        parts = [degrees(f) for f in spec["factors"]]
        return sorted(prod(ds) for ds in product(*parts))
    raise ValueError(f"no reference degrees for family {fam!r}")


def spectrum(spec: dict) -> list[tuple[int, Fraction]]:
    """Sorted (dimension, measure d^2/|G|) multiset of the factor spectrum."""
    ds = degrees(spec)
    order = sum(d * d for d in ds)
    return sorted((d, Fraction(d * d, order)) for d in ds)


def measure_of_degree_at_least(spec: dict, threshold: int) -> Fraction:
    return sum((m for d, m in spectrum(spec) if d >= threshold), Fraction(0))


# ---------------------------------------------------------------------------
# growth along a tower of independent copies


def tower_measure(factor: dict, levels: int, threshold: int) -> Fraction:
    """Measure of {prod d_i >= threshold} over `levels` independent draws of a
    degree from the factor's (d, d^2/|F|) distribution."""
    dist = Counter()
    for d, m in spectrum(factor):
        dist[d] += m
    acc = {1: Fraction(1)}
    for _ in range(levels):
        nxt: dict[int, Fraction] = Counter()
        for total, p in acc.items():
            for d, m in dist.items():
                nxt[total * d] += p * m
        acc = nxt
    return sum((p for total, p in acc.items() if total >= threshold), Fraction(0))


def tower_witness(factor: dict, k: int, epsilon: Fraction = Fraction(1, 20),
                  max_levels: int = 64) -> tuple[int, Fraction]:
    """Smallest N whose tower measure at dimension 2^(2^(k-1)) exceeds 1/2 - epsilon."""
    threshold = 2 ** (2 ** (k - 1))
    bar = max(Fraction(1, 2) - epsilon, Fraction(0))
    for n in range(1, max_levels + 1):
        m = tower_measure(factor, n, threshold)
        if m > bar:
            return n, m
    raise ValueError("no witness within max_levels")


# ---------------------------------------------------------------------------
# coordinatewise arithmetic in restricted sums of S3 and Q8


def _perm_mul(a: tuple, b: tuple) -> tuple:
    """Composition x -> a(b(x)) of permutations given as image lists."""
    return tuple(a[x] for x in b)


# (axis, sign) -> quaternion (w, x, y, z); axis 0 is the real unit.
def _quat(form) -> tuple[int, int, int, int]:
    axis, sign = form
    v = [0, 0, 0, 0]
    v[axis] = -1 if sign else 1
    return tuple(v)


def _quat_mul(a, b) -> tuple[int, int, int, int]:
    """Hamilton product of two quaternions."""
    a1, b1, c1, d1 = a
    a2, b2, c2, d2 = b
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


class FactorArithmetic:
    """Multiplication, identity and elements of S3 or Q8, on JSON forms."""

    def __init__(self, factor: dict):
        fam = factor["family"]
        if fam == "symmetric" and factor["n"] == 3:
            self.elements = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
            self.identity = (0, 1, 2)
            self._mul = _perm_mul
            self._key = lambda form: tuple(form)
        elif fam == "quaternion8":
            self.elements = [_quat((axis, sign)) for axis in range(4) for sign in (0, 1)]
            self.identity = (1, 0, 0, 0)
            self._mul = _quat_mul
            self._key = lambda form: _quat(tuple(form))
        else:
            raise ValueError(f"no reference arithmetic for {factor}")

    def key(self, form) -> tuple:
        return self._key(form)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return self._mul(a, b)

    def inverse(self, a: tuple) -> tuple:
        return next(x for x in self.elements if self.mul(a, x) == self.identity)

    def conjugacy_class(self, a: tuple) -> set:
        return {self.mul(self.mul(t, a), self.inverse(t)) for t in self.elements}


class RestrictedSumArithmetic:
    """Elements of the restricted sum as {coordinate: factor element}."""

    def __init__(self, factor: dict):
        self.factor = FactorArithmetic(factor)

    def element(self, form) -> dict:
        out = {}
        for coord, x in form:
            v = self.factor.key(x)
            if v != self.factor.identity:
                out[int(coord)] = v
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out = {}
        for c in set(a) | set(b):
            v = self.factor.mul(a.get(c, self.factor.identity), b.get(c, self.factor.identity))
            if v != self.factor.identity:
                out[c] = v
        return out

    def commute(self, a: dict, b: dict) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def conjugacy_class(self, a: dict) -> list[dict]:
        """Class of a: each supported coordinate ranges over its factor class."""
        coords = sorted(a)
        choices = [sorted(self.factor.conjugacy_class(a[c])) for c in coords]
        return [dict(zip(coords, pick)) for pick in product(*choices)]


def _canon(el: dict) -> tuple:
    return tuple(sorted(el.items()))


def witness_failures(factor: dict, levels: list[dict]) -> list[str]:
    """Check commuting-witness levels serialized as {g, h, g_class, h_class}.

    Each (g, h) must fail to commute, each serialized class must be exactly
    the conjugacy class of its representative, and every element of one
    level's classes must commute with every element of another level's.
    """
    arith = RestrictedSumArithmetic(factor)
    failures = []
    generator_sets = []
    for i, lv in enumerate(levels):
        g, h = arith.element(lv["g"]), arith.element(lv["h"])
        if arith.commute(g, h):
            failures.append(f"level {i}: g and h commute")
        gens = []
        for name, rep in (("g", g), ("h", h)):
            claimed = [arith.element(f) for f in lv[f"{name}_class"]]
            if {_canon(x) for x in claimed} != {_canon(x) for x in arith.conjugacy_class(rep)}:
                failures.append(f"level {i}: {name}_class is not the class of {name}")
            gens.extend(claimed)
        generator_sets.append(gens)
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            if not all(arith.commute(a, b) for a in generator_sets[i] for b in generator_sets[j]):
                failures.append(f"levels {i} and {j} do not commute")
    return failures
