"""Character tables of finite groups via class-sum eigenvectors over F_p.

The class-multiplication matrices A_i with (A_i)[j, k] = a_ijk commute, and
their joint eigenvectors, computed over a prime field F_p with p = 1 mod
exponent(H) and p > 2 sqrt(|H|), are exactly the central-character vectors
w_chi = (|C_j| chi(C_j) / chi(1))_j reduced mod p.  Each A_i is built only
when the splitting reaches it, so no r x r x r tensor is held.  Degrees come
from the second orthogonality relation, character values from root-of-unity
multiplicities (a mod-p discrete Fourier transform over the power map), and
every value is lifted to an exact element of Z[zeta_m], m the exponent.  Both
orthogonality relations are checked exactly, at the Galois conjugates of
zeta_m, before any table is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional

import numpy as np

from . import modp
from .cyclotomic import Cyclo, _reduction
from .errors import ConsistencyError, RequiresFiniteError
from .fc_center import ConjugacyClass
from .groups import GroupElement, GroupHandle, Subgroup, _conjugacy_orbit, as_subgroup

DEFAULT_MAX_ORDER = 5000


@dataclass
class ClassData:
    """Conjugacy classes of a finite subgroup, the identity's class first.

    The structure constant a_ijk counts pairs (x, y) in C_i x C_j with x*y = z
    for one fixed z in C_k (the count is independent of the choice of z);
    `class_matrix(i)` builds the r x r slice A_i on demand.
    """

    subgroup: Subgroup
    classes: list[ConjugacyClass]
    class_of: dict  # canonical form -> class index
    sizes: list[int]
    inverse_class: list[int]
    exponent: int

    @property
    def order(self) -> int:
        return self.subgroup.order

    def class_matrix(self, i: int) -> np.ndarray:
        """A_i, (A_i)[j, k] = a_ijk = #{x in C_i : x^-1 z_k in C_j} for z_k the
        representative of C_k: |C_i| * r products and r^2 memory."""
        fam, r = self.subgroup.handle._family, len(self.classes)
        reps = [c.representative.form for c in self.classes]
        cells = [self.class_of[fam.mul(xi, z)] * r + k
                 for xi in (fam.inv(x.form) for x in self.classes[i].elements)
                 for k, z in enumerate(reps)]
        a = np.bincount(cells, minlength=r * r).reshape(r, r)
        sz = np.array(self.sizes, dtype=np.int64)
        if not np.array_equal(a @ sz, sz[i] * sz):
            raise ConsistencyError(f"class matrix {i} violates sum_k a_ijk |C_k| = |C_i||C_j|")
        return a


def class_data(subject, max_order: int = DEFAULT_MAX_ORDER) -> ClassData:
    """Partition a finite subgroup into conjugacy classes."""
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
    sizes = [c.size for c in classes]
    if sum(sizes) != n:
        raise ConsistencyError("conjugacy classes do not partition the subgroup")
    # A_0 = I exactly when C_0 = {e} and every representative lies in its own class
    if ([x.form for x in classes[0].elements] != [fam.identity]
            or any(class_of[c.representative.form] != k for k, c in enumerate(classes))):
        raise ConsistencyError("the identity's class is not the singleton class 0")

    inverse_class = [class_of[fam.inv(c.representative.form)] for c in classes]
    exponent = 1
    for c in classes:
        exponent = lcm(exponent, _element_order(H, c.representative))
    return ClassData(H, classes, class_of, sizes, inverse_class, exponent)


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
    """One irreducible character: degree plus a value in Z[zeta_m] per conjugacy class."""

    label: str
    degree: int
    values: tuple  # of Cyclo
    class_data: "ClassData"


@dataclass
class CharacterTable:
    class_data: ClassData
    rows: list[CharacterRow]
    dixon_prime: int
    orthogonality: Optional["OrthogonalityReport"] = None  # set once validated

    @property
    def degrees(self) -> list[int]:
        return [row.degree for row in self.rows]

    def to_json(self) -> dict:
        m = self.class_data.exponent
        index, coords, _ = _coordinates(self.rows, m)
        values = _evaluate(coords, m, 1)[index]
        return {
            "order": self.class_data.order,
            "class_sizes": list(self.class_data.sizes),
            "rows": [
                {
                    "label": row.label,
                    "degree": row.degree,
                    "values": [[c.real, c.imag] for c in values[i].tolist()],
                }
                for i, row in enumerate(self.rows)
            ],
        }


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p with p = 1 mod exponent and p > 2 sqrt(order)."""
    p = max(2 * isqrt(order) + 1, 3)
    while True:
        if (p - 1) % exponent == 0 and modp.is_prime(p):
            return p
        p += 1


def _common_eigenvectors(cd: ClassData, p: int) -> list[np.ndarray]:
    """Joint one-dimensional eigenspaces of the class matrices A_1, A_2, ... over F_p.

    Each matrix is built, and reduced mod p, only when the refinement reaches it.
    """
    r = len(cd.classes)
    spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    for i in range(1, r):
        if all(basis.shape[0] == 1 for basis, _ in spaces):
            break
        m = cd.class_matrix(i) % p
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


def character_table(cd: ClassData) -> CharacterTable:
    """All irreducible characters of the subgroup behind `cd`.

    Raises ConsistencyError (never returns silently) if any of the validation
    tripwires fail: degree recovery, sum of squared degrees, degree
    divisibility, or either orthogonality relation.
    """
    r = len(cd.classes)
    n = cd.order
    m = cd.exponent
    p = dixon_prime(n, m)
    vectors = _common_eigenvectors(cd, p)

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

    # row s of `powers` holds x^s mod Phi_m, so the power-basis coordinates of
    # sum_s mu_s zeta^s are mu @ powers
    powers = np.array(_reduction(m)[1][:m], dtype=np.int64)
    distinct: dict = {}  # coordinates -> Cyclo; tables repeat few values many times
    built = []
    for d, chi in zip(degrees, rows_mod_p):
        vals_t = chi[pm]  # (r, m): chi(rep_j^t) mod p
        mults = (vals_t @ zneg) % p * inv_m % p
        if (mults.sum(axis=1) != d).any():
            raise ConsistencyError("root-of-unity multiplicities do not sum to the degree")
        coords = mults @ powers
        key = [(round(c.real, 10), round(c.imag, 10)) for c in _evaluate(coords, m, 1).tolist()]
        values = []
        for c in map(tuple, coords.tolist()):
            v = distinct.get(c)
            if v is None:
                v = distinct[c] = Cyclo(m, c)
            values.append(v)
        built.append(((d, key), d, tuple(values)))

    built.sort(key=lambda item: item[0])
    cdata_rows = [CharacterRow(f"chi{i}", d, values, cd) for i, (_, d, values) in enumerate(built)]
    table = CharacterTable(cd, cdata_rows, p)
    report = validate_orthogonality(table, cd)
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
    passed: bool
    exact: bool
    failed_relation: Optional[str] = None


def _coordinates(rows: list[CharacterRow], m: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """The rows' values as (index, coords, integral): value j of row i is the
    distinct value index[i, j], whose power-basis coordinates in Q(zeta_m) form
    row index[i, j] of coords; integral tells whether every coordinate is an integer.
    """
    index = np.empty((len(rows), len(rows[0].values)), dtype=np.intp)
    position: dict = {}  # id of a value -> its row in coords
    distinct = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row.values):
            k = position.get(id(v))
            if k is None:
                k = position[id(v)] = len(distinct)
                distinct.append(v)
            index[i, j] = k
    try:
        flat = [x for v in distinct for x in v.lift(m).c]
    except ValueError as e:
        raise ConsistencyError(f"a character value lies outside Q(zeta_{m})") from e
    coords = np.array(flat)  # int64 unless some coordinate is a Fraction or huge
    integral = coords.dtype.kind == "i" or all(Fraction(x).denominator == 1 for x in flat)
    return index, coords.astype(np.float64).reshape(len(distinct), -1), integral


def _evaluate(coords: np.ndarray, m: int, k: int) -> np.ndarray:
    """The values with the given coordinates, under zeta_m -> exp(2 pi i k / m)."""
    return coords @ np.exp(2j * np.pi * k * np.arange(coords.shape[1]) / m)


def validate_orthogonality(table: CharacterTable, cd: ClassData) -> OrthogonalityReport:
    """Exact check of both orthogonality relations.

    With integer coordinates every residual, sum_j |C_j| chi_i(C_j) conj(chi_i2(C_j))
    - |H| delta and |C_j| sum_i chi_i(C_j) conj(chi_i(C_j2)) - |H| delta, lies in
    Z[zeta_m].  Its Galois conjugates come from zeta -> zeta^k for k coprime to m
    (k and m - k give complex-conjugate values, so k <= m/2 suffices).  If every
    conjugate measures below 1/2 in floating point, whose rounding error is far
    smaller, every true conjugate has modulus < 1; the norm, their product, is
    then an integer of modulus < 1, hence 0, and so is the residual.  A passing
    report therefore carries residuals of exactly 0.0; a failing one the largest
    residual measured.  A non-integer coordinate fails the check outright.
    """
    rows = table.rows
    r = len(rows)
    n = cd.order
    m = cd.exponent
    if any(len(row.values) != r for row in rows) or len(cd.sizes) != r:
        raise ConsistencyError("table and class data dimensions disagree")
    ks = [k for k in range(1, m // 2 + 1) if gcd(k, m) == 1] or [1]
    index, coords, integral = _coordinates(rows, m)
    sizes = np.array(cd.sizes, dtype=np.float64)
    target = n * np.eye(r)
    max_row = 0.0
    max_col = 0.0
    for k in ks:  # one Galois conjugate at a time
        v = _evaluate(coords, m, k)[index]
        max_row = max(max_row, float(np.abs((v * sizes) @ v.conj().T - target).max()))
        max_col = max(max_col, float(np.abs(sizes[:, None] * (v.T @ v.conj()) - target).max()))

    failed = None
    if not integral:
        failed = "integrality"
    elif max_row >= 0.5:
        failed = "row orthogonality"
    elif max_col >= 0.5:
        failed = "column orthogonality"
    if failed is None:
        max_row = max_col = 0.0  # proven zero above
    return OrthogonalityReport(max_row, max_col, failed is None, True, failed)
