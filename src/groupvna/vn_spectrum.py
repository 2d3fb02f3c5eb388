"""The group algebra with its trace, factor spectra, and the lemma verifiers.

S(H) is identified with the group algebra of H carrying the trace that reads
off the identity coefficient; for finite H the trace measure is purely atomic
with one atom per irreducible character, weighted chi(1)^2 / |H|.  Measures
stay exact rationals end to end.  A numerical oracle realizes the same
decomposition inside the right regular representation (centre from the
conjugation orbits, eigenprojections of a seeded random self-adjoint central
element checked together on the blocks' stacked bases, matrix units by
compression onto each block) so the two routes can certify each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from numbers import Number
from typing import Iterable, Iterator, Optional

import numpy as np

from .characters import (
    DEFAULT_MAX_ORDER,
    CharacterRow,
    CharacterTable,
    character_table,
    check_handle_order,
    class_data,
)
from .cyclotomic import Cyclo
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DegenerateSpectrumError,
    DomainMismatchError,
    ParameterError,
    PreconditionError,
    RequiresFiniteError,
)
from .fc_center import DEFAULT_CLASS_BUDGET, fc_filter
from .groups import (
    DEFAULT_CLOSURE_BUDGET,
    GroupElement,
    GroupHandle,
    Subgroup,
    as_subgroup,
    closure_within,
    generate_closure,
    order_text,
    per_distinct_factor,
)
from .jsonutil import fraction_json

ORACLE_MAX_ORDER = 200
# eigenvalues closer than this (relative to the spectral radius) form one
# cluster; a clustering that does not match the centre reseeds the oracle
ORACLE_GAP_TOLERANCE = 1e-8
ORACLE_MAX_ATTEMPTS = 5
ICC_PRECHECK = 8  # enumerated elements whose classes are probed before the Gram check
# the growth dimension threshold 2^(2^(k-1)) is built as an exact integer; at
# k = 16 it already dwarfs the dimension of any closure that can be enumerated
MAX_GROWTH_K = 16


def exact_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/str; floats read as decimal literals."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _as_coeff(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.rational(x)
    raise ParameterError(f"coefficient {x!r} is not exact: use an int, a Fraction or a Cyclo")


class AlgebraElement:
    """A finite sum of unitaries u_g with exact cyclotomic coefficients."""

    __slots__ = ("group", "terms")

    def __init__(self, group: GroupHandle, terms: dict):
        coeffs = {g: _as_coeff(c) for g, c in terms.items()}
        self.group = group
        self.terms = {g: c for g, c in coeffs.items() if not c.is_zero()}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(group: GroupHandle) -> "AlgebraElement":
        return AlgebraElement(group, {})

    def _check_peer(self, other: "AlgebraElement"):
        if self.group is not other.group:
            raise DomainMismatchError("algebra elements live over different handles")

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_peer(other)
        acc = dict(self.terms)
        for g, c in other.terms.items():
            acc[g] = acc[g] + c if g in acc else c
        return AlgebraElement(self.group, acc)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.group, {g: -c for g, c in self.terms.items()})

    def scaled(self, s) -> "AlgebraElement":
        s = _as_coeff(s)
        return AlgebraElement(self.group, {g: c * s for g, c in self.terms.items()})

    def __rmul__(self, s):
        if isinstance(s, (Number, Cyclo)):
            return self.scaled(s)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (Number, Cyclo)):
            return self.scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_peer(other)
        fam = self.group._family
        acc: dict = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                key = self.group.element(fam.mul(g.form, h.form))
                prod = a * b
                acc[key] = acc[key] + prod if key in acc else prod
        return AlgebraElement(self.group, acc)

    def star(self) -> "AlgebraElement":
        """(sum a_g u_g)* = sum conj(a_g) u_{g^-1}."""
        fam = self.group._family
        return AlgebraElement(self.group, {self.group.element(fam.inv(g.form)): c.conj()
                                           for g, c in self.terms.items()})

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_peer(other)
        diff = self - other
        return diff.is_zero()

    __hash__ = None

    def max_coeff_deviation(self, other: "AlgebraElement") -> float:
        """max_g |a_g - b_g| as a float; 0.0 exactly for equal elements."""
        diff = self - other
        if not diff.terms:
            return 0.0
        return max(abs(c.to_complex()) for c in diff.terms.values())

    def __repr__(self):
        inner = " + ".join(f"({c!r})u[{g.describe()}]" for g, c in list(self.terms.items())[:6])
        more = "" if len(self.terms) <= 6 else f" + ... ({len(self.terms)} terms)"
        return f"<algebra {inner or '0'}{more}>"


def unitary(g: GroupElement) -> AlgebraElement:
    """The canonical unitary u_g."""
    return AlgebraElement(g.group, {g: 1})


def trace(a: AlgebraElement) -> Cyclo:
    """tau(sum a_g u_g) = a_e: linear, tracial, faithful."""
    for g, c in a.terms.items():
        if g.is_identity:
            return c
    return Cyclo.zero()


def trace_of_product(a: AlgebraElement, b: AlgebraElement) -> Cyclo:
    """tau(a b) without materializing the product."""
    a._check_peer(b)
    fam = a.group._family
    acc = Cyclo.zero()
    for g, c in a.terms.items():
        other = b.terms.get(a.group.element(fam.inv(g.form)))
        if other is not None:
            acc = acc + c * other
    return acc


def tau_inner_product(a: AlgebraElement, b: AlgebraElement) -> Cyclo:
    """<a, b> = tau(a b*): sesquilinear, positive definite."""
    a._check_peer(b)
    return trace_of_product(a, b.star())


# ---------------------------------------------------------------------------
# factor spectra


@dataclass(frozen=True)
class SpectrumAtom:
    label: str
    dimension: int
    measure: Fraction


@dataclass
class FactorSpectrum:
    """Atomic factor decomposition of S(H): one atom per irreducible character."""

    subgroup_order: int
    atoms: list[SpectrumAtom]

    def measure_dim_at_least(self, threshold: int) -> Fraction:
        return sum((a.measure for a in self.atoms if a.dimension >= threshold), Fraction(0))

    def dim_measure_multiset(self) -> list[tuple[int, Fraction]]:
        return sorted((a.dimension, a.measure) for a in self.atoms)

    def measure_by_dimension(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for a in self.atoms:
            out[a.dimension] = out.get(a.dimension, Fraction(0)) + a.measure
        return out

    def to_json(self) -> dict:
        return {
            "order": self.subgroup_order,
            "atoms": [
                {"label": a.label, "dim": a.dimension,
                 "measure_num": a.measure.numerator, "measure_den": a.measure.denominator}
                for a in self.atoms
            ],
        }


def factor_spectrum(subject, max_order: int = DEFAULT_MAX_ORDER) -> FactorSpectrum:
    """One atom (label, chi(1), chi(1)^2/|H|) per irreducible character of H,
    in the table's row order (by degree first), atom i labelled chi<i>.

    The atoms read nothing of a row but its degree.  The irreducibles of a
    direct product G x K are the chi (x) psi (Serre, Linear Representations of
    Finite Groups, 3.2), so a finite `product` handle builds no table of the
    product: its spectrum is the `_fold` of its distinct factors' spectra, each
    from that factor's own validated table (or fold, for a nested product).
    Its order is refused above max_order all the same, before any factor is
    built: the spectrum lists one atom per irreducible, up to |G| of them.
    """
    check_handle_order(subject, max_order)
    if isinstance(subject, GroupHandle) and subject.is_finite and subject.family == "product":
        n, spectrum = subject.order, {1: Fraction(1)}
        for factor in per_distinct_factor(
                subject._family.factors,
                lambda f: factor_spectrum(GroupHandle(f), max_order).measure_by_dimension()):
            spectrum = _fold(spectrum, factor)
        degrees = []
        for d in sorted(spectrum):
            count = spectrum[d] * n / (d * d)
            if count.denominator != 1:
                raise ConsistencyError(
                    f"measure {spectrum[d]} of dimension {d} is not a whole number of atoms")
            degrees += [d] * count.numerator
    else:
        table = character_table(class_data(subject, max_order))
        n, degrees = table.class_data.order, [row.degree for row in table.rows]
    atoms = [SpectrumAtom(f"chi{i}", d, Fraction(d * d, n)) for i, d in enumerate(degrees)]
    total = sum((a.measure for a in atoms), Fraction(0))
    if total != 1:
        raise ConsistencyError(f"atom measures sum to {total}, not 1")
    return FactorSpectrum(n, atoms)


def _fold(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """{dimension: measure} of G x K from those of G and K: dimensions multiply
    and so do measures (Serre 3.2).  The one direct-product fold, shared by
    `factor_spectrum` and `tower_spectra`."""
    out: dict[int, Fraction] = {}
    for d1, m1 in a.items():
        for d2, m2 in b.items():
            out[d1 * d2] = out.get(d1 * d2, Fraction(0)) + m1 * m2
    return out


def nonabelian_measure(subject) -> Fraction:
    """Trace measure of the non-commutative part {x : F^x has dimension >= 2}."""
    return factor_spectrum(subject).measure_dim_at_least(2)


def central_projection(H, chi: CharacterRow) -> AlgebraElement:
    """The central primitive idempotent (chi(1)/|H|) sum_h conj(chi(h)) u_h."""
    H = as_subgroup(H)
    cd = chi.class_data
    if cd.subgroup is not H and {e.form for e in cd.subgroup.elements} != {e.form for e in H.elements}:
        raise ParameterError("character row does not belong to this subgroup")
    scale = Fraction(chi.degree, H.order)
    coeffs = [value.conj() * scale for value in chi.values]  # one per class
    cls, index = cd.index_class.tolist(), cd.subgroup._index
    terms = {h: coeffs[cls[index[h.form]]] for h in H.elements}
    p = AlgebraElement(H.handle, terms)
    if trace(p) != Fraction(chi.degree**2, H.order):
        raise ConsistencyError("central projection has the wrong trace")
    return p


# ---------------------------------------------------------------------------
# regular representation and the numerical oracle


class RegularRep:
    """Right regular representation of a finite subgroup on its coordinate space.

    rho(g) delta_x = delta_{x g^-1}, a permutation matrix, stored per g as
    the index array x -> x g^-1: row i of `_perms` for the i-th element.
    """

    def __init__(self, subgroup: Subgroup):
        self.subgroup = H = as_subgroup(subgroup)
        n = self.dimension = H.order
        table = H.table
        back = table.right[table.inverse_letter]
        # x (g t)^-1 = (x t^-1) g^-1, so r_{g t} = r_g[r_t]: one pass down the
        # index table's tree, in its search order, costs n index steps instead
        # of n^2 products
        self._perms = perms = np.empty((n, n), dtype=np.int64)
        perms[0] = np.arange(n)
        parent, letter = table.parent.tolist(), table.letter.tolist()
        for y in table.order[1:].tolist():
            perms[y] = perms[parent[y]][back[letter[y]]]

    def matrix(self, g: GroupElement) -> np.ndarray:
        H = self.subgroup
        if g.group is not H.handle or g not in H:
            raise DomainMismatchError(f"element {g.describe()} is not in {H.describe()}")
        m = np.zeros((self.dimension, self.dimension))
        m[self._perms[H._index[g.form]], np.arange(self.dimension)] = 1.0
        return m

    def _accumulate(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[i] rho(g_i) over the elements in order.  Column c holds
        coeffs[i] in row c g_i^-1, and i -> c g_i^-1 is a bijection, so one
        assignment writes every cell exactly once."""
        out = np.zeros((self.dimension, self.dimension), dtype=complex)
        out[self._perms, np.arange(self.dimension)] = coeffs[:, None]
        return out


@dataclass
class NumericalBlock:
    """One block of the regular representation, held as the oracle computed
    it: the eigenbasis V' of its range and the d x d cores of its matrix units.

    In V' each minimal projection e_jj is the coordinate projection onto the
    j-th run V'_j of d columns, and e_jk = V'_j core_j core_k^dagger V'_k^dagger
    with core_1 = I_d.  `units` builds the full-space (d, d, N, N) array and
    `projection` the central projection V' V'^dagger on request.

    Residuals are Frobenius norms of the relations computed on the cores (see
    `_core_residuals`), and they equal the full-space residuals: V' is an
    isometry, so |V' X V'^dagger| = |X| and V' X V'^dagger V' Y V'^dagger =
    V' X Y V'^dagger, and in V' each e_jk is zero outside its block (j, k), so
    each relation lives in one block (and e_jk e_lm is exactly 0 for k != l).
    """

    dimension: int
    basis: np.ndarray  # (N, d^2), orthonormal columns V'
    cores: np.ndarray  # (d, d, d), cores[j] = core_j and cores[0] = I_d
    residuals: dict

    @property
    def multiplicity(self) -> int:  # rank of the central projection
        return self.dimension**2

    @property
    def measure(self) -> Fraction:
        return Fraction(self.multiplicity, len(self.basis))

    @property
    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @property
    def units(self) -> np.ndarray:
        d = self.dimension
        runs = self.basis.reshape(-1, d, d).swapaxes(0, 1)  # runs[j] = V'_j, (d, N, d)
        left = runs @ self.cores  # left[j] = V'_j core_j
        return left[:, None] @ left.conj().swapaxes(-1, -2)[None]

    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


@dataclass
class NumericalDecomposition:
    subgroup_order: int
    blocks: list[NumericalBlock]
    seed: int
    attempts: int
    center_dimension: int
    projection_residual: float

    def dim_measure_multiset(self) -> list[tuple[int, Fraction]]:
        return sorted((b.dimension, b.measure) for b in self.blocks)

    def max_unit_residual(self) -> float:
        return max((b.max_residual() for b in self.blocks), default=0.0)


def _gaps(values: np.ndarray) -> np.ndarray:
    """Where sorted eigenvalues split, along the last axis: gaps[..., i] is
    whether values[..., i + 1] - values[..., i] exceeds ORACLE_GAP_TOLERANCE
    times max(1, spectral radius)."""
    scale = np.maximum(1.0, np.abs(values).max(axis=-1, keepdims=True))
    return np.diff(values, axis=-1) > ORACLE_GAP_TOLERANCE * scale


def _random_selfadjoint(rep: RegularRep, coeffs: np.ndarray) -> np.ndarray:
    x = rep._accumulate(coeffs)
    return (x + x.conj().T) / 2


def numerical_decomposition(subject, seed: int = 0) -> NumericalDecomposition:
    """Brute-force factor decomposition in the right regular representation.

    Independent of the character engine: the centre is spanned by the
    conjugation-orbit indicators, central projections are eigenprojections of
    a seeded random self-adjoint central element, block dimensions come from
    the rank data, matrix units are extracted per block, and
    `projection_residual` checks the blocks on their stacked bases.  Attempt t
    draws everything from the generator seeded [seed, t]; a degenerate draw
    (eigen-gaps below `ORACLE_GAP_TOLERANCE` at the centre or inside a block,
    or a vanishing partial isometry) reseeds the whole attempt, up to
    `ORACLE_MAX_ATTEMPTS` times.  This is the oracle's one retry loop.  Groups
    above `ORACLE_MAX_ORDER` are refused, a finite handle before it is
    enumerated.
    """
    if isinstance(subject, GroupHandle) and subject.is_finite:
        _check_oracle_order(subject.order)
    H = as_subgroup(subject)
    n = H.order
    _check_oracle_order(n)
    rep = RegularRep(H)

    # the class indicators span the centre (Serre, Linear Representations, 2.5)
    orbits = H.table.conj_orbits()
    r, label = len(orbits), np.empty(n, dtype=np.intp)
    for k, orbit in enumerate(orbits):
        label[orbit] = k

    last_error = "never ran"
    for attempt in range(ORACLE_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        alpha = rng.random(r) + 1j * rng.random(r)
        z = _random_selfadjoint(rep, alpha[label])
        eigvals, eigvecs = np.linalg.eigh(z)
        clusters = np.split(eigvecs, np.flatnonzero(_gaps(eigvals)) + 1, axis=1)
        if len(clusters) != r:
            last_error = f"{len(clusters)} eigenvalue clusters for a center of dimension {r}"
            continue
        sizes = [c.shape[1] for c in clusters]
        dims = [isqrt(m) for m in sizes]
        if any(d * d != m for d, m in zip(dims, sizes)):
            last_error = f"cluster sizes {sizes} are not perfect squares"
            continue
        try:
            blocks = _extract_blocks(rep, clusters, dims, rng)
        except DegenerateSpectrumError as e:
            last_error = str(e)
            continue
        proj_residual = _projection_residual(rep, blocks)
        return NumericalDecomposition(
            subgroup_order=n,
            blocks=blocks,
            seed=seed,
            attempts=attempt + 1,
            center_dimension=r,
            projection_residual=proj_residual,
        )
    raise DegenerateSpectrumError(
        f"no usable spectrum after {ORACLE_MAX_ATTEMPTS} seeds (last failure: {last_error})"
    )


def _check_oracle_order(n: int):
    if n > ORACLE_MAX_ORDER:
        raise ParameterError(
            f"numerical oracle is limited to order <= {ORACLE_MAX_ORDER}, got {order_text(n)}")


def _extract_blocks(rep: RegularRep, clusters: list[np.ndarray], dims: list[int],
                    rng: np.random.Generator) -> list[NumericalBlock]:
    """The blocks of one attempt, in cluster order, built together for each
    dimension d; clusters[i] is the orthonormal eigenbasis of block i.  A
    generic self-adjoint y and a generic a are drawn once, and only when some
    block has d >= 2; each such block compresses both.  The one unit e_11 = 1
    of a d = 1 block has the 1 x 1 identity core."""
    n = rep.dimension
    if max(dims) >= 2:
        y = _random_selfadjoint(rep, rng.random(n) + 1j * rng.random(n))
        a = rep._accumulate(rng.random(n) + 1j * rng.random(n))
    blocks = [None] * len(dims)
    for d in sorted(set(dims)):
        at = [i for i, e in enumerate(dims) if e == d]
        v = np.stack([clusters[i] for i in at])  # (blocks, n, d^2) orthonormal
        if d == 1:
            basis, cores = v, np.ones((len(at), 1, 1, 1), dtype=complex)
        else:
            basis, cores = _matrix_units_for_blocks(v, y, a, d)
        for i, b, c, residuals in zip(at, basis, cores, _core_residuals(cores)):
            blocks[i] = NumericalBlock(d, b, c, residuals)
    return blocks


def _matrix_units_for_blocks(v: np.ndarray, y: np.ndarray, a: np.ndarray,
                             d: int) -> tuple[np.ndarray, np.ndarray]:
    """(basis, cores) of a d x d system of matrix units inside each
    dimension-d block, v[b] the orthonormal basis of block b.

    Compressed to a block, the generic self-adjoint y looks like y0 (x) I_d:
    its eigenvalues fall into d runs of d, and the eigenbasis u of the
    compressed yc sorts them, so in the basis V' = v u each minimal projection
    E_j of the block algebra is the coordinate projection onto the j-th run of
    d columns.  Then E_j a E_1, for the generic a, is the (j, 1) block c_j of
    V'^dagger a V', and its polar normalization is a scalar (E_j a E_1 spans a
    line): core_j = c_j / s_j with s_j = |c_j| / sqrt(d), and core_1 = I_d.
    A draw that is not generic on some block (a y spectrum without d clusters
    of size d, or a vanishing E_j a E_1) raises DegenerateSpectrumError, and
    `numerical_decomposition` reseeds the whole attempt.
    """
    yc = v.conj().swapaxes(-1, -2) @ y @ v
    w, u = np.linalg.eigh((yc + yc.conj().swapaxes(-1, -2)) / 2)
    # d clusters of d: a gap after every d-th eigenvalue, and only there
    if not (_gaps(w) == (np.arange(1, d * d) % d == 0)).all():
        raise DegenerateSpectrumError(
            f"could not isolate {d} minimal projections in a dimension-{d} block")
    basis = v @ u
    cores = (basis.conj().swapaxes(-1, -2) @ (a @ basis[..., :d])).reshape(-1, d, d, d)
    s = np.sqrt(np.einsum("bjxy,bjxy->bj", cores.conj(), cores).real / d)
    vanishing = np.argwhere(s[:, 1:] < 1e-10)
    if len(vanishing):
        raise DegenerateSpectrumError(
            f"E_{vanishing[0, 1] + 2} a E_1 vanishes in a dimension-{d} block")
    cores[:, 0] = np.eye(d)
    cores[:, 1:] /= s[:, 1:, None, None]
    return basis, cores


def _core_residuals(cores: np.ndarray) -> list[dict]:
    """The matrix-unit residuals of each block of one dimension d, cores[b, j]
    the core_j of block b.

    e_jk is w[j, k] = core_j core_k^dagger in its block (j, k), and the
    residuals are computed on the d x d w[j, k] alone (see `NumericalBlock`):
    since e_jk e_lm is exactly 0 for k != l, the product relation reduces to
    w[j, k] w[k, m] = w[j, m], O(d^6) per block.
    """
    n_blocks, d = cores.shape[:2]
    w = cores[:, :, None] @ cores.conj().swapaxes(-1, -2)[:, None]

    def fro(stack):  # per block, the largest Frobenius norm in its stack of matrices
        return np.linalg.norm(stack, axis=(-2, -1)).reshape(n_blocks, -1).max(axis=1)

    adj = w.conj().swapaxes(-1, -2)  # adj[:, j, k] = w[:, j, k]^dagger, block (k, j) of e_jk^dagger
    diag = w[:, np.arange(d), np.arange(d)]  # diag[:, j] = w[:, j, j], block (j, j) of e_jj
    residuals = {
        "product": fro(np.einsum("bjkxy,bkmyz->bjkmxz", w, w) - w[:, :, None]),
        "adjoint": fro(adj - w.swapaxes(1, 2)),
        "murray_von_neumann": np.maximum(fro(adj @ w - diag[:, None]),
                                         fro(w @ adj - diag[:, :, None])),
        # sum_j e_jj - I is block diagonal, with blocks w[j, j] - I_d
        "sum_vs_projection": np.linalg.norm((diag - np.eye(d)).reshape(n_blocks, -1), axis=1),
    }
    per_block = zip(*(r.tolist() for r in residuals.values()))
    return [dict(zip(residuals, values)) for values in per_block]


def _projection_residual(rep: RegularRep, blocks: list[NumericalBlock]) -> float:
    # W = the blocks' bases side by side.  The p_b = V_b V_b^dagger are projections
    # summing to I iff W is square with W^dagger W = I, and then commute with rho(t)
    # iff M_t = W^dagger rho(t) W is block diagonal.  Residual: max(|W^dagger W - I|,
    # max_t |off-block M_t|) in Frobenius norm (inf unless W is square), at least
    # 1/sqrt(2) of any entry of [p_b, rho(t)] since |[p_b, rho(t)]| <= sqrt(2)|off M_t|.
    # rho(t^-1) = rho(t)^dagger gives M_{t^-1} = M_t^dagger, and the off-block mask is
    # symmetric, so one letter of each inverse pair is checked.
    n = rep.dimension
    w = np.concatenate([b.basis for b in blocks], axis=1)
    if w.shape[1] != n:
        return float("inf")
    wh = w.conj().T
    block_of = np.repeat(np.arange(len(blocks)), [b.basis.shape[1] for b in blocks])
    off = block_of[:, None] != block_of[None, :]
    residual = float(np.linalg.norm(wh @ w - np.eye(n)))
    table = rep.subgroup.table
    for a, row in enumerate(table.right):  # rho(t_a) W = W[right[a]]
        if a <= table.inverse_letter[a]:
            residual = max(residual, float(np.linalg.norm((wh @ w[row])[off])))
    return residual


# ---------------------------------------------------------------------------
# Lemma 6 / 7 verifiers


@dataclass
class Lemma7Report:
    """product_projection_spectrum verification payload."""

    passed: bool
    order: int
    threshold: int  # n0 * n1
    n0: int
    n1: int
    is_projection: bool
    projection_residual: float
    supported_atoms: list[tuple[str, int, Fraction]]  # (label, dim, tau(p p_psi))
    trace_of_projection: Fraction
    consistent_with_decomposition: bool
    unit_residual: Optional[float]
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "order": self.order,
            "threshold": self.threshold,
            "n0": self.n0,
            "n1": self.n1,
            "is_projection": self.is_projection,
            "projection_residual": self.projection_residual,
            "trace_num": self.trace_of_projection.numerator,
            "trace_den": self.trace_of_projection.denominator,
            "supported_atoms": [
                {"label": lab, "dim": dim,
                 "weight_num": w.numerator, "weight_den": w.denominator}
                for lab, dim, w in self.supported_atoms
            ],
            "consistent_with_decomposition": self.consistent_with_decomposition,
            "unit_residual": self.unit_residual,
            "notes": list(self.notes),
        }


def _threshold_projection(H: Subgroup, table: CharacterTable, threshold: int) -> AlgebraElement:
    p = AlgebraElement.zero(H.handle)
    for row in table.rows:
        if row.degree >= threshold:
            p = p + central_projection(H, row)
    return p


def product_projection_spectrum(h0, h1, n0: int = 2, n1: int = 2, *, seed: int = 0,
                                closure_budget: int = DEFAULT_CLOSURE_BUDGET) -> Lemma7Report:
    """Verify that p_0 p_1 is a central projection of S(H_0 H_1) supported on
    atoms of dimension at least n0 * n1.

    p_i sums the central projections of S(H_i) over characters of degree at
    least n_i.  Commutation of the two subgroups is checked exhaustively.
    The weight of p = p_0 p_1 on the atom of an irreducible psi of
    H = H_0 H_1 is read off psi's row: p_psi = (psi(1)/|H|) sum_g
    conj(psi(g)) u_g (Serre, Linear Representations of Finite Groups, 2.6),
    so tau(p p_psi) = (psi(1)/|H|) sum over g in supp p of p_g psi(g), and
    no projection of H is built.
    """
    H0, H1 = as_subgroup(h0), as_subgroup(h1)
    if H0.handle is not H1.handle:
        raise DomainMismatchError("subgroups live in different handles")
    if n0 < 1 or n1 < 1:
        raise ParameterError("dimension thresholds must be >= 1")
    fam = H0.handle._family
    pair = fam.noncommuting_pair([a.form for a in H0.elements], [b.form for b in H1.elements])
    if pair is not None:
        raise PreconditionError(
            f"subgroups do not commute: [{fam.describe(pair[0])}, {fam.describe(pair[1])}] != e")

    notes: list[str] = []
    t0 = character_table(class_data(H0))
    t1 = character_table(class_data(H1))
    p0 = _threshold_projection(H0, t0, n0)
    p1 = _threshold_projection(H1, t1, n1)
    p = p0 * p1
    if p.is_zero():
        notes.append("p_0 p_1 = 0; the claim holds vacuously")

    p_sq = p * p
    p_star = p.star()
    is_projection = p_sq == p and p_star == p
    projection_residual = 0.0 if is_projection else max(
        p_sq.max_coeff_deviation(p), p_star.max_coeff_deviation(p))

    H = closure_within([*H0.generators, *H1.generators], closure_budget)
    cd = class_data(H)
    table = character_table(cd)
    tr_frac = trace(p).as_fraction()
    terms = [(c, cd.index_class[H._index[g.form]]) for g, c in p.terms.items()]  # (p_g, class of g)

    supported: list[tuple[str, int, Fraction]] = []
    consistent = True
    all_big = True
    for row in table.rows:
        weight = Fraction(row.degree, H.order) * sum((c * row.values[j] for c, j in terms),
                                                      Cyclo.zero())
        if weight.is_zero():
            continue
        if not weight.is_rational():
            raise ConsistencyError("tau(p p_psi) is not rational")
        w = weight.as_fraction()
        supported.append((row.label, row.degree, w))
        if row.degree < n0 * n1:
            all_big = False
        if w != Fraction(row.degree**2, H.order):
            consistent = False
    if sum((w for _, _, w in supported), Fraction(0)) != tr_frac:
        consistent = False

    unit_residual = None
    if H.order <= ORACLE_MAX_ORDER:
        oracle = numerical_decomposition(H, seed)
        unit_residual = max(oracle.max_unit_residual(), oracle.projection_residual)
    else:
        notes.append(f"matrix units skipped: order {H.order} exceeds the oracle limit")

    passed = is_projection and all_big and consistent and (
        unit_residual is None or unit_residual <= 1e-6
    )
    return Lemma7Report(
        passed=passed,
        order=H.order,
        threshold=n0 * n1,
        n0=n0,
        n1=n1,
        is_projection=is_projection,
        projection_residual=projection_residual,
        supported_atoms=supported,
        trace_of_projection=tr_frac,
        consistent_with_decomposition=consistent,
        unit_residual=unit_residual,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Lemmas 8-9: dimension growth along a commuting tower


@dataclass
class GrowthResult:
    found: bool
    levels_required: Optional[int]
    achieved_measure: Optional[Fraction]
    dim_threshold: int
    measure_threshold: Fraction
    k: int
    epsilon: Fraction
    history: list[tuple[int, int, Fraction]]  # (levels, closure order, measure)
    cap: int

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "levels_required": self.levels_required,
            "k": self.k,
            "dim_threshold": self.dim_threshold,
            "epsilon": fraction_json(self.epsilon),
            "measure_threshold": fraction_json(self.measure_threshold),
            "achieved_measure": None if self.achieved_measure is None
            else fraction_json(self.achieved_measure),
            "history": [{"levels": lv, "order": od, "measure": fraction_json(ms)}
                        for lv, od, ms in self.history],
            "cap": self.cap,
        }


def tower_spectra(levels: Iterable[Subgroup], closure_budget: int = DEFAULT_CLOSURE_BUDGET,
                  max_order: int = DEFAULT_MAX_ORDER
                  ) -> Iterator[tuple[int, int, dict[int, Fraction]]]:
    """(n, |H_1...H_n|, {dimension: measure}) for each prefix of a commuting tower.

    For pairwise-commuting finite levels the product H_1...H_{n-1} has centre
    Z_{n-1} = Z(H_1)...Z(H_{n-1}) and meets H_n in D_n = Z_{n-1} & Z(H_n), so
    |H_1...H_n| = |H_1...H_{n-1}| |H_n| / |D_n| is known without enumerating
    the product.  When D_n is trivial the product is direct, and `_fold`, the
    direct-product fold that `factor_spectrum` also uses, folds the level into
    the spectrum: nothing larger than a level is built, and each level is
    refused above `max_order` by its own `factor_spectrum`.  Otherwise the
    prefix closure is enumerated and decomposed, so its computed order is
    refused first by `closure_budget` (BudgetExceededError), then by
    `max_order` (RequiresFiniteError).
    A level whose index table has the same right-multiplication rows as an
    earlier one generates the same permutation group of indices, so it is
    isomorphic to that level and reuses its spectrum.

    Each level's generators must commute with every earlier level's
    (PreconditionError otherwise): a list or tuple is checked whole before the
    first prefix, a lazy iterable level by level as it arrives.
    The running centre holds every product of the levels' centres: on the Q8
    sum it doubles per level, which binds past the 15 levels k = 4 needs.
    """
    subs: list[Subgroup] = []

    def admit(level) -> Subgroup:
        H = as_subgroup(level)
        if subs and H.handle is not subs[0].handle:
            raise DomainMismatchError("tower levels live in different handles")
        fam = H.handle._family
        forms = H.table.letters
        for i, earlier in enumerate(subs):
            pair = fam.noncommuting_pair(earlier.table.letters, forms)
            if pair is not None:
                raise PreconditionError(
                    f"tower levels {i} and {len(subs)} do not commute at "
                    f"({fam.describe(pair[0])}, {fam.describe(pair[1])})"
                )
        subs.append(H)
        return H

    if isinstance(levels, (list, tuple)):
        levels = [admit(lv) for lv in levels]
    else:
        levels = map(admit, levels)
    order, spectrum, centre = 1, {1: Fraction(1)}, None
    level_spectra: dict = {}  # right-multiplication table -> that level's spectrum
    for n, H in enumerate(levels, start=1):
        fam, conj = H.handle._family, H.table.conj
        level_centre = [H.elements[i].form
                        for i in np.flatnonzero((conj == np.arange(H.order)).all(axis=0))]
        if centre is None:
            centre = {fam.identity}
        meet = centre.intersection(level_centre)
        order = order * H.order // len(meet)
        if len(meet) == 1:
            right = H.table.right
            key = (right.shape, right.tobytes())
            if key not in level_spectra:
                level_spectra[key] = factor_spectrum(H, max_order).measure_by_dimension()
            spectrum = _fold(spectrum, level_spectra[key])
        else:
            too_big = f"the closure of {n} levels has {order} elements, more than"
            if order > closure_budget:
                raise BudgetExceededError(f"{too_big} closure_budget = {closure_budget}",
                                          budget=closure_budget, partial_count=0)
            if order > max_order:
                raise RequiresFiniteError(f"{too_big} max_order = {max_order}")
            closure = generate_closure([g for lv in subs[:n] for g in lv.generators],
                                       closure_budget)
            if closure.order != order:
                raise ConsistencyError(
                    f"the closure of {n} levels has {closure.order} elements, not {order}")
            spectrum = factor_spectrum(closure, max_order).measure_by_dimension()
        centre = {fam.mul(a, b) for a in centre for b in level_centre}
        yield n, order, spectrum


def evaluate_growth(spectra: Iterable[tuple[int, int, dict[int, Fraction]]], k: int,
                    epsilon: Fraction, cap: int) -> GrowthResult:
    """Measure{dim >= 2^(2^(k-1))} of each (level count, order, spectrum) until one
    exceeds max(1/2 - epsilon, 0).

    The one place the growth thresholds are derived from k and epsilon:
    `growth_search`, `classify` and certificate replay all evaluate here.
    `spectra` (as `tower_spectra` yields them) is consumed lazily and no
    further once a prefix clears.
    """
    dim_threshold = 2 ** (2 ** (k - 1))
    measure_threshold = max(Fraction(1, 2) - epsilon, Fraction(0))
    history: list[tuple[int, int, Fraction]] = []
    for n_levels, order, spectrum in spectra:
        measure = sum((m for d, m in spectrum.items() if d >= dim_threshold), Fraction(0))
        history.append((n_levels, order, measure))
        if measure > measure_threshold:
            return GrowthResult(True, n_levels, measure, dim_threshold, measure_threshold,
                                k, epsilon, history, cap)
    return GrowthResult(False, None, None, dim_threshold, measure_threshold,
                        k, epsilon, history, cap)


def growth_search(tower: Iterable[Subgroup], k: int = 2, epsilon: Fraction = Fraction(1, 20),
                  *, closure_budget: int = DEFAULT_CLOSURE_BUDGET,
                  cap: Optional[int] = None) -> GrowthResult:
    """Smallest N with measure{dim >= 2^(2^(k-1))} > 1/2 - epsilon in S(G_1...G_N).

    `tower` holds pairwise-commuting finite subgroups (`tower_spectra` checks
    them on their generators): without `cap` it is read whole and checked
    before the first prefix, and the cap is its length; with `cap` it is an
    iterable of that many levels, read and checked one level at a time and
    no further than the first prefix that clears.  Reaching the cap without
    a witness is reported, not raised.
    """
    epsilon = exact_fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must satisfy 0 < epsilon < 1")
    if not 1 <= k <= MAX_GROWTH_K:
        raise ParameterError(f"k must satisfy 1 <= k <= {MAX_GROWTH_K}")
    if cap is None:
        tower = list(tower)
        cap = len(tower)
    if cap < 1:
        raise ParameterError("tower is empty")
    return evaluate_growth(tower_spectra(tower, closure_budget), k, epsilon, cap)


# ---------------------------------------------------------------------------
# icc specialization


@dataclass
class IccReport:
    handle_description: str
    sample_size: int
    gram_is_identity: bool
    offending_pairs: list[tuple[str, str]]
    fc_precheck: list[str]
    metadata_icc: bool
    notes: list[str]

    @property
    def passed(self) -> bool:
        return self.gram_is_identity

    def to_json(self) -> dict:
        return {
            "group": self.handle_description,
            "sample_size": self.sample_size,
            "gram_is_identity": self.gram_is_identity,
            "offending_pairs": [list(p) for p in self.offending_pairs],
            "fc_precheck": list(self.fc_precheck),
            "metadata_icc": self.metadata_icc,
            "notes": list(self.notes),
        }


def icc_orthonormality_check(handle: GroupHandle, n: int = 25, *,
                             class_budget: int = DEFAULT_CLASS_BUDGET) -> IccReport:
    """Exact Gram matrix of the first n unitaries in an icc group.

    tau(u_g u_h*) = delta_{g,h} is evaluated by normal-form reduction of
    g h^-1; n pairwise-orthonormal unitaries inside the single factor are the
    reported infinite-dimensionality evidence.  FC evidence contradicting the
    icc hypothesis (any non-identity element with a provably finite class)
    raises ConsistencyError.
    """
    if n < 1:
        raise ParameterError("sample size must be >= 1")
    verdicts = fc_filter(handle, min(ICC_PRECHECK, n) if handle.order is None else ICC_PRECHECK,
                         budget=class_budget)
    precheck_lines = []
    for v in verdicts:
        if v.is_fc and not v.element.is_identity:
            raise ConsistencyError(
                f"{handle.describe()} is not icc: {v.element.describe()} has a finite "
                f"conjugacy class of size {v.class_size}"
            )
        precheck_lines.append(
            f"{v.element.describe()}: " +
            (f"fc({v.class_size})" if v.is_fc else f"not_fc_evidence(budget {v.budget})")
        )
    meta = handle.metadata
    notes = []
    if meta.icc:
        notes.append("family metadata declares G^fin = {e}")
    else:
        notes.append(f"icc is evidence-level only (per-class budget {class_budget})")

    sample = list(handle.iter_elements(n))
    fam = handle._family
    offending = []
    for i, g in enumerate(sample):
        for j, h in enumerate(sample):
            w = fam.mul(g.form, fam.inv(h.form))
            expected_identity = i == j
            if (w == fam.identity) != expected_identity:
                offending.append((g.describe(), h.describe()))
    ok = not offending
    if ok:
        notes.append(
            f"{len(sample)} pairwise-orthonormal unitaries in the single factor "
            f"(dimension >= {len(sample)} evidence)"
        )
    return IccReport(handle.describe(), len(sample), ok, offending, precheck_lines,
                     meta.icc, notes)
