"""Character tables of finite groups via class-sum eigenvectors over F_p.

The class-multiplication matrices A_i with (A_i)[j, k] = a_ijk commute, and
their joint eigenvectors, computed over a prime field F_p with p = 1 mod
exponent(H) and p > 2 sqrt(|H|), are exactly the central-character vectors
w_chi = (|C_j| chi(C_j) / chi(1))_j reduced mod p.  Degrees are recovered from
the second orthogonality relation, character values from root-of-unity
multiplicities (a mod-p discrete Fourier transform over the power map), and
the result is lifted to exact cyclotomic values whenever the group exponent is
at most 64 (complex floats with a tolerance otherwise).  Both orthogonality
relations are validated before any table is returned.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

import numpy as np

from . import modp
from .cyclotomic import Cyclo, coeff_to_complex
from .errors import ConsistencyError, RequiresFiniteError
from .fc_center import ConjugacyClass
from .groups import GroupElement, GroupHandle, Subgroup, _conjugacy_orbit, as_subgroup

DEFAULT_MAX_ORDER = 5000
MAX_EXACT_EXPONENT = 64
_EXACT_VALIDATION_MAX_CLASSES = 40


@dataclass
class ClassData:
    """Conjugacy classes of a finite subgroup plus exact structure constants.

    structure_constants[i, j, k] counts pairs (x, y) in C_i x C_j with x*y = z
    for one fixed z in C_k (the count is independent of the choice of z).
    The identity's class comes first.
    """

    subgroup: Subgroup
    classes: list[ConjugacyClass]
    class_of: dict  # canonical form -> class index
    sizes: list[int]
    structure_constants: np.ndarray
    inverse_class: list[int]
    exponent: int

    @property
    def order(self) -> int:
        return self.subgroup.order


def class_data(subject, max_order: int = DEFAULT_MAX_ORDER) -> ClassData:
    """Partition a finite subgroup into conjugacy classes and count a_ijk."""
    if isinstance(subject, GroupHandle) and subject.is_finite:
        _check_order(f"subgroup of {subject.describe()}, order {subject.order}",
                     subject.order, max_order)  # before enumerating anything
    H = as_subgroup(subject)
    n = H.order
    _check_order(H.describe(), n, max_order)
    handle, fam = H.handle, H.handle._family
    gens = H.generators if H.generators is not None else H.elements
    letters = fam.alphabet_block([g.form for g in gens])
    class_of: dict = {}
    classes: list[ConjugacyClass] = []
    for g in H.elements:
        if g.form in class_of:
            continue
        orbit = _conjugacy_orbit(fam, g.form, letters)
        for f in orbit:
            class_of[f] = len(classes)
        classes.append(ConjugacyClass(g, tuple(GroupElement(handle, f) for f in orbit), budget=n))
    r = len(classes)
    sizes = [c.size for c in classes]
    if sum(sizes) != n:
        raise ConsistencyError("conjugacy classes do not partition the subgroup")

    # a[i, j, k] counts x in C_i with x^-1 z in C_j, for z the representative of C_k
    forms = [x.form for x in H.elements]
    x_class = np.array([class_of[f] for f in forms], dtype=np.int64)
    x_inv = [fam.inv(f) for f in forms]
    a = np.zeros((r, r, r), dtype=np.int64)
    for k, c in enumerate(classes):
        z = c.representative.form
        j = np.array([class_of[fam.mul(xi, z)] for xi in x_inv], dtype=np.int64)
        a[:, :, k] = np.bincount(x_class * r + j, minlength=r * r).reshape(r, r)
    sz = np.array(sizes, dtype=np.int64)
    if not np.array_equal(a[0], np.eye(r, dtype=np.int64)):
        raise ConsistencyError("identity-class structure constants are not delta_jk")
    if not np.array_equal(a @ sz, np.outer(sz, sz)):
        raise ConsistencyError("structure constants violate sum_k a_ijk |C_k| = |C_i||C_j|")

    inverse_class = [class_of[fam.inv(c.representative.form)] for c in classes]
    exponent = 1
    for c in classes:
        exponent = lcm(exponent, _element_order(H, c.representative))
    return ClassData(H, classes, class_of, sizes, a, inverse_class, exponent)


def _check_order(what: str, order: int, max_order: int):
    if order > max_order:
        raise RequiresFiniteError(f"{what} exceeds the configured maximum {max_order}")


def _element_order(H: Subgroup, g: GroupElement) -> int:
    fam = H.handle._family
    cur = g.form
    k = 1
    while cur != fam.identity:
        cur = fam.mul(cur, g.form)
        k += 1
        if k > H.order:
            raise ConsistencyError("element order exceeds subgroup order")
    return k


@dataclass
class CharacterRow:
    """One irreducible character: degree plus a value per conjugacy class."""

    label: str
    degree: int
    values: tuple
    provenance: str  # "exact-cyclotomic" | "float"
    class_data: "ClassData"

    def value_complex(self, j: int) -> complex:
        return coeff_to_complex(self.values[j])


@dataclass
class CharacterTable:
    class_data: ClassData
    rows: list[CharacterRow]
    provenance: str
    tolerance: float
    dixon_prime: int
    orthogonality: Optional["OrthogonalityReport"] = None  # set once validated

    @property
    def degrees(self) -> list[int]:
        return [row.degree for row in self.rows]

    def to_json(self) -> dict:
        return {
            "order": self.class_data.order,
            "class_sizes": list(self.class_data.sizes),
            "provenance": self.provenance,
            "rows": [
                {
                    "label": row.label,
                    "degree": row.degree,
                    "provenance": row.provenance,
                    "tolerance": None if row.provenance == "exact-cyclotomic" else self.tolerance,
                    "values": [[c.real, c.imag] for c in
                               (row.value_complex(j) for j in range(len(row.values)))],
                }
                for row in self.rows
            ],
        }


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p with p = 1 mod exponent and p > 2 sqrt(order)."""
    p = max(2 * isqrt(order) + 1, 3)
    while True:
        if (p - 1) % exponent == 0 and modp.is_prime(p):
            return p
        p += 1


def _common_eigenvectors(a: np.ndarray, p: int) -> list[np.ndarray]:
    """Joint one-dimensional eigenspaces of the class matrices a[1:] over F_p.

    Each matrix is reduced mod p only when the refinement reaches it.
    """
    r = a.shape[0]
    spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    for i in range(1, r):
        if all(basis.shape[0] == 1 for basis, _ in spaces):
            break
        m = a[i] % p
        refined = []
        for basis, pivots in spaces:
            d = basis.shape[0]
            if d == 1:
                refined.append((basis, pivots))
                continue
            images = (basis @ m.T) % p
            b_op = images[:, pivots].T % p  # coords act as columns
            roots = modp.poly_roots_mod(modp.charpoly_mod(b_op, p), p)
            total = 0
            for lam in roots:
                nul = modp.nullspace_mod((b_op - lam * np.eye(d, dtype=np.int64)) % p, p)
                if nul.shape[0] == 0:
                    continue
                ambient = (nul @ basis) % p
                red, piv = modp.rref_mod(ambient, p)
                refined.append((red, piv))
                total += red.shape[0]
            if total != d:
                raise ConsistencyError("eigenspace refinement lost dimensions mod p")
        spaces = refined
    if not all(basis.shape[0] == 1 for basis, _ in spaces):
        raise ConsistencyError("class-sum matrices did not split into one-dimensional joint eigenspaces")
    return [basis[0] % p for basis, _ in spaces]


def character_table(cd: ClassData, tolerance: float = 1e-9) -> CharacterTable:
    """All irreducible characters of the subgroup behind `cd`.

    Raises ConsistencyError (never returns silently) if any of the validation
    tripwires fail: degree recovery, sum of squared degrees, degree
    divisibility, or either orthogonality relation.
    """
    r = len(cd.classes)
    n = cd.order
    m = cd.exponent
    p = dixon_prime(n, m)
    vectors = _common_eigenvectors(cd.structure_constants, p)

    sizes = np.array(cd.sizes, dtype=np.int64)
    inv_sizes = np.array([modp.inv_mod(int(s), p) for s in cd.sizes], dtype=np.int64)
    rows_mod_p = []
    degrees = []
    for w in vectors:
        w = (w * modp.inv_mod(int(w[0]), p)) % p
        s = 0
        for k in range(r):
            s = (s + int(w[k]) * int(w[cd.inverse_class[k]]) % p * int(inv_sizes[k])) % p
        if s == 0:
            raise ConsistencyError("degree recovery hit a zero norm mod p")
        d2 = n * modp.inv_mod(s, p) % p
        cands = [d for d in range(1, isqrt(n) + 1) if d * d % p == d2]
        if len(cands) != 1:
            raise ConsistencyError(f"degree recovery ambiguous mod {p}: candidates {cands}")
        d = cands[0]
        chi = (d * w % p) * inv_sizes % p
        degrees.append(d)
        rows_mod_p.append(chi)

    if sum(d * d for d in degrees) != n:
        raise ConsistencyError("sum of squared degrees does not match the group order")
    for d in degrees:
        if n % d:
            raise ConsistencyError(f"character degree {d} does not divide the group order {n}")

    # power map: class of rep_j^t for t = 0..m-1
    fam = cd.subgroup.handle._family
    pm = np.zeros((r, m), dtype=np.int64)
    for j, c in enumerate(cd.classes):
        cur = fam.identity
        for t in range(m):
            pm[j, t] = cd.class_of[cur]
            cur = fam.mul(cur, c.representative.form)

    z = pow(modp.primitive_root_mod(p), (p - 1) // m, p)
    zexp = np.array([pow(z, t, p) for t in range(m)], dtype=np.int64)
    zneg = np.zeros((m, m), dtype=np.int64)
    for t in range(m):
        for s in range(m):
            zneg[t, s] = zexp[(-t * s) % m]
    inv_m = modp.inv_mod(m, p)

    exact = m <= MAX_EXACT_EXPONENT
    provenance = "exact-cyclotomic" if exact else "float"
    unit_circle = None if exact else [cmath.exp(2j * cmath.pi * s / m) for s in range(m)]

    built = []
    for d, chi in zip(degrees, rows_mod_p):
        vals_t = chi[pm]  # (r, m): chi(rep_j^t) mod p
        mults = (vals_t @ zneg) % p * inv_m % p
        values = []
        for j in range(r):
            mu = [int(x) for x in mults[j]]
            if sum(mu) != d:
                raise ConsistencyError("root-of-unity multiplicities do not sum to the degree")
            if exact:
                values.append(Cyclo.from_multiplicities(m, mu))
            else:
                values.append(sum(mu[s] * unit_circle[s] for s in range(m) if mu[s]))
        built.append((d, tuple(values)))

    def sort_key(item):
        d, values = item
        key = []
        for j in range(len(values)):
            c = coeff_to_complex(values[j])
            key.append((round(c.real, 10), round(c.imag, 10)))
        return (d, key)

    built.sort(key=sort_key)
    cdata_rows = [
        CharacterRow(f"chi{i}", d, values, provenance, cd)
        for i, (d, values) in enumerate(built)
    ]
    table = CharacterTable(cd, cdata_rows, provenance, tolerance, p)
    report = validate_orthogonality(table, cd, tolerance)
    if not report.passed:
        raise ConsistencyError(
            f"orthogonality validation failed: {report.failed_relation} "
            f"(row residual {report.max_row_residual:.3e}, column residual {report.max_col_residual:.3e})"
        )
    table.orthogonality = report
    return table


@dataclass
class OrthogonalityReport:
    max_row_residual: float
    max_col_residual: float
    tolerance: float
    scale: int
    passed: bool
    exact: bool
    failed_relation: Optional[str] = None


def validate_orthogonality(table: CharacterTable, cd: ClassData,
                           tolerance: float = 1e-9) -> OrthogonalityReport:
    """Maximum absolute residual of both orthogonality relations.

    Exact tables with few classes are checked with exact cyclotomic arithmetic
    (residual exactly 0.0 for a valid table); otherwise residuals are complex
    and compared against tolerance * |H|.
    """
    rows = table.rows
    r = len(rows)
    n = cd.order
    if any(len(row.values) != r for row in rows) or len(cd.sizes) != r:
        raise ConsistencyError("table and class data dimensions disagree")
    exact = table.provenance == "exact-cyclotomic" and r <= _EXACT_VALIDATION_MAX_CLASSES

    max_row = 0.0
    max_col = 0.0
    if exact:
        for i in range(r):
            for i2 in range(i, r):
                acc = Cyclo.zero()
                for j in range(r):
                    acc = acc + cd.sizes[j] * rows[i].values[j] * rows[i2].values[j].conj()
                target = n if i == i2 else 0
                max_row = max(max_row, abs((acc - target).to_complex()))
        for j in range(r):
            for j2 in range(j, r):
                acc = Cyclo.zero()
                for i in range(r):
                    acc = acc + rows[i].values[j] * rows[i].values[j2].conj()
                target = Fraction(n, cd.sizes[j]) if j == j2 else 0
                max_col = max(max_col, abs((acc - target).to_complex()))
    else:
        vals = np.array([[row.value_complex(j) for j in range(r)] for row in rows])
        sizes = np.array(cd.sizes, dtype=np.float64)
        gram_rows = (vals * sizes) @ vals.conj().T
        max_row = float(np.abs(gram_rows - n * np.eye(r)).max())
        gram_cols = vals.conj().T @ vals
        target = np.diag([n / s for s in cd.sizes])
        max_col = float(np.abs(gram_cols - target).max())

    bound = tolerance * max(1, n)
    failed = None
    if max_row > bound:
        failed = "row orthogonality"
    elif max_col > bound:
        failed = "column orthogonality"
    return OrthogonalityReport(max_row, max_col, tolerance, n, failed is None, exact, failed)
