"""Character tables of finite groups via class-sum eigenvectors over F_p.

The class-multiplication matrices A_i with (A_i)[j, k] = a_ijk commute, and
their joint eigenvectors, computed over a prime field F_p with p = 1 mod
exponent(H), are exactly the central-character vectors
w_chi = (|C_j| chi(C_j) / chi(1))_j reduced mod p.  The centre Z splits first,
without linear algebra (Dixon, Numer. Math. 10 (1967); Schneider, J. Symbolic
Comput. 9 (1990)): for central z the matrix A_z permutes the classes, so
w_chi[class of z g_j] = lam_chi(z) w_chi[j] with lam_chi the central character,
and each character lam of Z owns a block V_lam, one basis row per Z-orbit of
classes whose stabiliser lam kills.  A block of one row is an eigenvector; an
abelian group has only such blocks.  The rest are split by one random
combination A_c = sum_i c_i A_i: w_chi is an eigenvector of A_c with
eigenvalue c . w_chi / |C|, and two distinct central characters share that
eigenvalue with probability 1/p.  With r classes and p > r^2 the expected
number of colliding pairs is below r^2 / 2p < 1/2, so one combination nearly
always yields simple eigenvalues; a collided space is split again by a fresh
combination.  p > 2 sqrt(|H|) keeps the degrees recoverable, and the table's
values are exact, so they do not depend on p.  On each block, with B the
action of A_c and chi its characteristic polynomial, a simple root lam gets
its eigenvector as q(B) v for q = chi / (x - lam) and one Krylov sequence v,
Bv, ..., B^(d-1) v: by Cayley-Hamilton (B - lam) q(B) v = chi(B) v = 0, so a
nonzero q(B) v is an eigenvector whatever B is.  The seed v is the block's row
on the classes of Z, |Z| times the projection eps_lam e_0 of the identity
class, which has a nonzero part along every w_chi of the block.  Only repeated
roots, and a simple root whose q(B) v vanishes, cost a Gaussian elimination.
Degrees come from the second orthogonality relation, and every value is lifted
to an exact element of Z[zeta_m], m the exponent.  A linear character is a
homomorphism to the m-th roots of unity (Serre, Linear Representations of
Finite Groups, 3.1), so each of its values is some zeta_m^s, and s is read off
its image z^s mod p by a discrete log against the sorted powers of z, the
primitive m-th root mod p.  The values of the other characters come from
root-of-unity multiplicities (a mod-p discrete Fourier transform over the
power map, one per Galois orbit of classes).  The row orthogonality relation is
checked exactly, at the Galois conjugates of zeta_m, before any table is
returned; the character table is square, so the row relation implies the
column relation.

The whole of a finite direct product skips the engine: its irreducibles are
the products of its factors' (Serre 3.2), so its table is the Kronecker
product of its distinct factors' tables, each found by the engine (or, for a
nested product, the same way) and validated, multiplied exactly in Z[zeta_m]
and sorted like the engine's rows.  The product table is validated again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Optional

import numpy as np

from . import modp
from .cyclotomic import Cyclo, _reduction
from .errors import ConsistencyError
from .fc_center import ConjugacyClass
from .groups import (
    DEFAULT_MAX_ORDER,
    GroupHandle,
    Subgroup,
    as_subgroup,
    check_subgroup_order,
    per_distinct_factor,
)
from .jsonutil import Fragment, canonical_dumps

SPLIT_ROUNDS = 8  # random combinations tried before the splitting gives up


@dataclass
class ClassData:
    """Conjugacy classes of a finite subgroup, the identity's class first.

    The structure constant a_ijk counts pairs (x, y) in C_i x C_j with x*y = z
    for one fixed z in C_k (the count is independent of the choice of z).
    `class_combination(c)` builds the r x r matrix sum_i c_i A_i of the slices
    (A_i)[j, k] = a_ijk from the subgroup's index table, one column at a time.
    `index_class[x]` is the class of element index x, and `reps[j]` the index
    of rep_j, the representative of class j.  `power_classes[j]` holds the
    classes of rep_j^0, rep_j^1, ... up to the order of rep_j; the exponent is
    the lcm of their lengths.
    """

    subgroup: Subgroup
    classes: list[ConjugacyClass]
    index_class: np.ndarray  # element index -> class index
    reps: list[int]
    sizes: list[int]
    inverse_class: list[int]
    exponent: int
    power_classes: list[list[int]]

    @property
    def order(self) -> int:
        return self.subgroup.order

    def class_combination(self, c) -> np.ndarray:
        """A_c = sum_i c_i A_i: (A_c)[j, k] sums c_class(x) over the x in H with
        x^-1 z_k in C_j, z_k the representative of C_k (any element of C_k gives
        the same counts).  Column k is one weighted bincount of the classes of
        x^-1 z_k, read through the index table's permutation y -> y z_k; each
        sum is at most c . |C| < 2^53, so the float weights stay exact (see
        `dixon_prime`)."""
        table, r = self.subgroup.table, len(self.classes)
        c = np.asarray(c, dtype=np.int64)
        weights = c[self.index_class].astype(np.float64)
        out = np.empty((r, r), dtype=np.int64)
        for k, z in enumerate(self.reps):
            labels = self.index_class[table.times(z)]
            out[:, k] = np.bincount(labels[table.inverse], weights, minlength=r)
        sz = np.array(self.sizes, dtype=np.int64)
        if not np.array_equal(out @ sz, int(c @ sz) * sz):
            raise ConsistencyError("class combination violates sum_k a_ijk |C_k| = |C_i||C_j|")
        return out


def class_data(subject, max_order: int = DEFAULT_MAX_ORDER) -> ClassData:
    """Partition a finite subgroup into conjugacy classes; walk each representative's powers.

    Both read the index table the subgroup was built with: the classes are
    orbits of its conj rows, and rep^(t+1) = rep^t t_a1 ... t_ak follows right
    rows along rep's path in the table's search tree, so no group product is
    computed here.  A handle is closed by `Subgroup.whole_group`, which leaves
    its fair-enumeration cache as it was."""
    check_handle_order(subject, max_order)  # before enumerating anything
    H = as_subgroup(subject)
    n = H.order
    check_subgroup_order(H.handle, n, max_order)
    fam, index = H.handle._family, H._index
    classes: list[ConjugacyClass] = []
    index_class = np.empty(n, dtype=np.intp)
    for k, at in enumerate(H.table.conj_orbits()):
        orbit = tuple(H.elements[x] for x in at)
        index_class[at] = k
        classes.append(ConjugacyClass(orbit[0], orbit, budget=n))
    sizes = [c.size for c in classes]
    if sum(sizes) != n:
        raise ConsistencyError("conjugacy classes do not partition the subgroup")
    cls = index_class.tolist()
    reps = [index[c.representative.form] for c in classes]
    # A_0 = I exactly when C_0 = {e} and every representative lies in its own class
    if ([x.form for x in classes[0].elements] != [fam.identity]
            or any(cls[x] != k for k, x in enumerate(reps))):
        raise ConsistencyError("the identity's class is not the singleton class 0")

    table = H.table
    right, inverse = table.right.tolist(), table.inverse.tolist()
    parent, letter = table.parent.tolist(), table.letter.tolist()
    inverse_class = [cls[inverse[x]] for x in reps]
    power_classes = []
    for g in reps:
        word, x = [], g  # the rows of g's path from the identity in the tree
        while x:
            word.append(right[letter[x]])
            x = parent[x]
        cycle, cur = [0], g
        while cur:
            if len(cycle) == n:
                raise ConsistencyError("element order exceeds subgroup order")
            cycle.append(cls[cur])
            for row in reversed(word):  # cur g = cur t_a1 ... t_ak
                cur = row[cur]
        power_classes.append(cycle)
    exponent = lcm(*map(len, power_classes))
    return ClassData(H, classes, index_class, reps, sizes, inverse_class, exponent,
                     power_classes)


def check_handle_order(subject, max_order: int):
    """Refuse a finite handle whose order exceeds max_order, before anything of it is built."""
    if isinstance(subject, GroupHandle) and subject.is_finite:
        check_subgroup_order(subject, subject.order, max_order)


@dataclass
class CharacterRow:
    """One irreducible character: degree plus a value in Z[zeta_m] per conjugacy class."""

    label: str
    degree: int
    values: tuple  # of Cyclo
    class_data: "ClassData"


@dataclass
class CharacterTable:
    """The rows, and the power-basis coordinates their values were lifted to:
    value j of row i is the distinct value index[i, j], whose coordinates in
    Z[zeta_m] form row index[i, j] of the int64 array coords."""

    class_data: ClassData
    rows: list[CharacterRow]
    dixon_prime: Optional[int]  # None for a product's Kronecker table
    index: np.ndarray
    coords: np.ndarray
    orthogonality: Optional["OrthogonalityReport"] = None  # set once validated

    @property
    def degrees(self) -> list[int]:
        return [row.degree for row in self.rows]

    def to_json(self) -> dict:
        """The report of the table.  Each distinct value's [re, im] text is
        written once, by one `canonical_dumps` call over the distinct pairs,
        and each row's values are those texts taken through `index`, as one
        list `Fragment` holding the bytes the row's list of pairs would encode to."""
        pairs = _evaluate(self.coords, self.class_data.exponent, 1).view(np.float64)
        text = canonical_dumps(pairs.reshape(-1, 2).tolist())  # [[re,im],[re,im],...]
        cells = [f"[{cell}]" for cell in text[2:-2].split("],[")]
        return {
            "order": self.class_data.order,
            "class_sizes": list(self.class_data.sizes),
            "rows": [
                {
                    "label": row.label,
                    "degree": row.degree,
                    "values": Fragment.of_list(map(cells.__getitem__, at)),
                }
                for row, at in zip(self.rows, self.index.tolist())
            ],
        }


def dixon_prime(order: int, exponent: int, classes: int) -> int:
    """Smallest prime p with p = 1 mod exponent and p > max(2 sqrt(order), classes^2).

    Raises ConsistencyError unless int64 holds the splitting's arithmetic: dot
    products of up to max(classes, exponent) terms below (p - 1)^2 stay under
    2^63, and the float weights of `class_combination`, order * (p - 1), under 2^53.
    """
    p = max(2 * isqrt(order) + 1, classes * classes + 1, 3)
    while True:
        if (p - 1) % exponent == 0 and modp.is_prime(p):
            break
        p += 1
    if max(classes, exponent) * (p - 1) ** 2 >= 2**63 or order * (p - 1) >= 2**53:
        raise ConsistencyError(f"the Dixon prime {p} of {classes} classes overflows int64")
    return p


def _central_blocks(cd: ClassData, p: int) -> list[tuple[np.ndarray, list[int]]]:
    """The joint eigenspaces V_lam of the central class matrices over F_p, one
    (basis, pivots) pair per character lam of the centre Z, with basis[:, pivots]
    the identity.

    For central z the class matrix A_z permutes the classes: C_z C_j is the
    class sum of z g_j, g_j the representative of C_j, whose index sigma_z(j)
    is read off the index table's permutation y -> y z.  So w_chi[sigma_z(j)]
    = lam_chi(z) w_chi[j], lam_chi the central character of chi, and V_lam holds the vectors with that property.
    On a Z-orbit of classes with first class j0 and stabiliser S, such a vector
    is fixed by its entry at j0, and that entry may be nonzero exactly when lam
    is trivial on S: V_lam has one basis row per such orbit, lam(z) at
    sigma_z(j0) and pivot j0.  The orbit of class 0 has a trivial stabiliser,
    so its row comes first in every block.  The characters of Z are rows of
    exponents mod m, lam(z) = zeta^lam[z]; they are extended one cyclic step at
    a time: for g outside the subgroup Z_k built so far and the least e with
    g^e in Z_k, lam(g) = (lam(g^e) + j m) / e for j < e.  A trivial centre
    leaves the one whole-space block.
    """
    r, m = len(cd.classes), cd.exponent
    central = [j for j, size in enumerate(cd.sizes) if size == 1]
    if len(central) == 1:
        return [(np.eye(r, dtype=np.int64), list(range(r)))]
    times, reps = cd.subgroup.table.times, np.array(cd.reps)
    perms = np.arange(r)[None, :]  # row i: sigma of z_i, the i-th element of Z_k
    lams = np.zeros((1, 1), dtype=np.int64)  # row: a character's exponents at z_0, z_1, ...
    position = np.full(r, -1)  # central class -> i with z_i in it, -1 outside Z_k
    position[0] = 0
    for g in central:
        if position[g] >= 0:
            continue
        step, layers = cd.index_class[times(reps[g])[reps]], [perms]  # sigma of g's element
        while True:  # layer t: sigma_(z_i g^t) = sigma_(z_i) sigma_g^t, whose column 0 is z_i g^t
            power = layers[-1][:, step]
            if position[power[0, 0]] >= 0:
                break
            layers.append(power)
        e, at = len(layers), lams[:, position[power[0, 0]]]  # lam(g^e)
        if (at % e).any():
            raise ConsistencyError("a character of the centre does not extend")
        roots = (at[:, None] + m * np.arange(e)) // e  # the e choices of lam(g)
        # lam'(z_i g^t) = lam(z_i) + t lam'(g), columns ordered like the layers
        lams = ((lams[:, None, None, :] + roots[:, :, None, None] * np.arange(e)[:, None]) % m
                ).reshape(len(roots) * e, e * len(perms))
        perms = np.concatenate(layers)
        position[perms[:, 0]] = np.arange(len(perms))
    if len(perms) != len(central):
        raise ConsistencyError("the central classes do not form a group")

    zeta = pow(modp.primitive_root_mod(p), (p - 1) // m, p)
    zpow = np.array([pow(zeta, t, p) for t in range(m)], dtype=np.int64)
    rows: list[list] = [[] for _ in lams]
    pivots: list[list[int]] = [[] for _ in lams]
    for j0 in np.flatnonzero(perms.min(axis=0) == np.arange(r)).tolist():
        orbit = perms[:, j0]
        held = np.flatnonzero(~lams[:, orbit == j0].any(axis=1))  # lam trivial on the stabiliser
        vecs = np.zeros((len(held), r), dtype=np.int64)
        vecs[:, orbit] = zpow[lams[held]]
        for i, vec in zip(held.tolist(), vecs):
            rows[i].append(vec)
            pivots[i].append(j0)
    return [(np.array(basis), piv) for basis, piv in zip(rows, pivots)]


def _common_eigenvectors(cd: ClassData, p: int) -> list[np.ndarray]:
    """Joint one-dimensional eigenspaces of the class matrices over F_p.

    The split starts from the blocks of `_central_blocks`; a block of one row
    is already an eigenvector.  Each round splits the blocks left by the one
    before with a combination A_c of random coefficients c, which preserves
    every block because the class algebra is commutative; the generator has a
    fixed seed, so a table's splitting is reproducible.  Round 0 splits the
    central blocks; the later rounds see only the rare spaces whose eigenvalues
    collided.

    Round 0 seeds each block's Krylov sequence with its first coordinate, the
    row u_lam of class 0's orbit, which has lam(z) at the class of z.  It has a
    nonzero component along every w_chi of its block: e_0 = sum_chi c_chi w_chi
    with c_chi = chi(1)^2 / |H| != 0 mod p, and the projection of e_0 onto V_lam
    along the other blocks, by eps_lam = (1/|Z|) sum_z lam(z)^-1 A_z, is both
    sum_(chi in V_lam) c_chi w_chi and, as A_z e_0 = e_(class of z^-1),
    u_lam / |Z|.  So the seed finds the vector of every simple root.
    """
    r = len(cd.classes)
    rng = random.Random(0)
    spaces = _central_blocks(cd, p)
    if sum(basis.shape[0] for basis, _ in spaces) != r:
        raise ConsistencyError("the central split lost dimensions mod p")
    for round_ in range(SPLIT_ROUNDS):
        if all(basis.shape[0] == 1 for basis, _ in spaces):
            break
        m = cd.class_combination([rng.randrange(p) for _ in range(r)]) % p
        refined = []
        for basis, pivots in spaces:
            d = basis.shape[0]
            if d == 1:
                refined.append((basis, pivots))
                continue
            images = (basis @ m.T) % p
            b_op = images[:, pivots].T % p  # coords act as columns
            chi = modp.charpoly_mod(b_op, p)
            roots = modp.poly_roots_mod(chi, p)
            if round_ == 0:  # the block's row u_lam: see the docstring
                seed = np.zeros(d, dtype=np.int64)
                seed[0] = 1
            else:
                seed = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
            found = modp.simple_eigenvectors(b_op, chi, roots, seed, p)
            total = 0
            for lam in roots:
                vec = found.get(lam)
                if vec is None:
                    nul = modp.nullspace_mod((b_op - lam * np.eye(d, dtype=np.int64)) % p, p)
                    if nul.shape[0] == 0:
                        continue
                    # a nullspace row is 1 at its free column, its last nonzero entry,
                    # and 0 at the other free columns: nul @ basis is already the
                    # identity on the basis pivots of those columns
                    red = (nul @ basis) % p
                    piv = [pivots[np.flatnonzero(row)[-1]] for row in nul]
                else:
                    red = (vec @ basis) % p
                    piv = [int(np.flatnonzero(red)[0])]
                    red = (red * modp.inv_mod(red[piv[0]], p) % p)[None, :]
                refined.append((red, piv))
                total += red.shape[0]
            if total != d:
                raise ConsistencyError("eigenspace refinement lost dimensions mod p")
        spaces = refined
    if not all(basis.shape[0] == 1 for basis, _ in spaces):
        raise ConsistencyError(f"{SPLIT_ROUNDS} class combinations did not split the class "
                               "algebra into one-dimensional joint eigenspaces")
    return [basis[0] % p for basis, _ in spaces]


def character_table(cd: ClassData) -> CharacterTable:
    """All irreducible characters of the subgroup behind `cd`.

    The whole of a finite `product` handle gets the Kronecker product of its
    factors' tables (`_product_table`); every other subgroup gets the Dixon
    engine (`_dixon_table`).  Either way the rows are sorted by (degree,
    values at zeta_m = exp(2 pi i / m)), so both give the same table, and the
    row orthogonality relation is validated on the table that is returned.

    Raises ConsistencyError (never returns silently) if any of the validation
    tripwires fail: degree recovery, sum of squared degrees, degree
    divisibility, the factors' classes of a product, or the row orthogonality
    relation (which implies the column relation, see `validate_orthogonality`).
    """
    H = cd.subgroup
    if H.handle.family == "product" and H.order == H.handle.order:
        return _product_table(cd)
    return _dixon_table(cd)


def _product_table(cd: ClassData) -> CharacterTable:
    """The table of a whole finite product G_1 x ... x G_k: its irreducibles
    are the chi_1 (x) ... (x) chi_k (Serre, Linear Representations of Finite
    Groups, 3.2), with chi(C) the product of the chi_i at the factor classes
    of C.

    Each distinct factor's table is built once, and validated.  A class's
    factor classes are read off its representative's coordinates, and the
    classes must be the r_1 ... r_k tuples of factor classes, each once, with
    |C| = |C_1| ... |C_k|.  The values are multiplied exactly, one factor at a
    time, over the pairs of distinct values: a value of Z[zeta_(m_i)] with
    power-basis coordinates c_k is sum_k c_k x^(k m / m_i) in Z[zeta_m], the
    product of two is their cyclic convolution (x^m = 1), and it is reduced
    mod Phi_m by `_reduction(m)`; equal products are merged after each factor.
    """
    H, r, m = cd.subgroup, len(cd.classes), cd.exponent
    tables = per_distinct_factor(H.handle._family.factors,
                                 lambda f: character_table(class_data(GroupHandle(f), f.order)))
    phi, reduce = _reduction(m)
    reduce = np.array(reduce[:m], dtype=np.int64)  # row t: x^t mod Phi_m
    values = np.eye(1, phi, dtype=np.int64)  # the distinct values so far: 1
    index = np.zeros((1, 1), dtype=np.intp)  # (rows, tuples of factor classes) -> value
    degrees = np.ones(1, dtype=np.int64)
    code = np.zeros(r, dtype=np.intp)  # each class's tuple of factor classes, mixed radix
    sizes = np.ones(r, dtype=np.int64)
    forms = [H.elements[x].form for x in cd.reps]
    for i, t in enumerate(tables):
        fcd, mi = t.class_data, t.class_data.exponent
        at = fcd.index_class[[fcd.subgroup._index[form[i]] for form in forms]]
        code = code * len(fcd.classes) + at
        sizes *= np.array(fcd.sizes, dtype=np.int64)[at]
        if m % mi:
            raise ConsistencyError(f"factor exponent {mi} does not divide the exponent {m}")
        spread = np.zeros((len(values), m), dtype=np.int64)
        spread[:, :phi] = values
        conv = np.zeros((len(values), len(t.coords), m), dtype=np.int64)
        for k, c in enumerate(t.coords.T):
            if c.any():
                conv += np.roll(spread, k * (m // mi), axis=1)[:, None, :] * c[None, :, None]
        values, merged = np.unique(conv.reshape(-1, m) @ reduce, axis=0, return_inverse=True)
        index = merged.reshape(-1)[
            (index[:, None, :, None] * len(t.coords) + t.index[None, :, None, :])
            .reshape(len(index) * len(t.rows), -1)]
        degrees = np.outer(degrees, t.degrees).reshape(-1)
    if (len(index) != r or not np.array_equal(np.sort(code), np.arange(r))
            or not np.array_equal(sizes, cd.sizes)):
        raise ConsistencyError("the classes of the product are not the tuples of its factors' "
                               "classes")
    index = index[:, code]
    keys = np.round(_evaluate(values, m, 1), 10)
    built = [(d, keys[at].view(np.float64).tolist(), at)
             for d, at in zip(degrees.tolist(), index)]
    return _sorted_table(cd, built, values, None)


def _dixon_table(cd: ClassData) -> CharacterTable:
    """The table of any finite subgroup, by the Dixon engine of the module
    docstring, with `character_table`'s checks."""
    r = len(cd.classes)
    n = cd.order
    m = cd.exponent
    p = dixon_prime(n, m, r)
    w = np.array(_common_eigenvectors(cd, p))  # one eigenvector per row
    w = w * np.array([modp.inv_mod(int(x), p) for x in w[:, 0]], dtype=np.int64)[:, None] % p

    # second orthogonality: sum_k w_k w_k' / |C_k| = |H| / chi(1)^2 mod p
    inv_sizes = np.array([modp.inv_mod(int(s), p) for s in cd.sizes], dtype=np.int64)
    norms = (w * w[:, cd.inverse_class] % p * inv_sizes % p).sum(axis=1) % p
    d2 = np.array([n * modp.inv_mod(int(s), p) % p for s in norms], dtype=np.int64)
    ds = np.arange(1, isqrt(n) + 1, dtype=np.int64)
    hits = (ds * ds % p)[None, :] == d2[:, None]
    bad = np.flatnonzero((norms == 0) | (hits.sum(axis=1) != 1))
    if bad.size:
        if norms[bad[0]] == 0:
            raise ConsistencyError("degree recovery hit a zero norm mod p")
        raise ConsistencyError(
            f"degree recovery ambiguous mod {p}: candidates {ds[hits[bad[0]]].tolist()}")
    deg = ds[hits.argmax(axis=1)]
    degrees = deg.tolist()
    rows_mod_p = deg[:, None] * w % p * inv_sizes % p

    if sum(d * d for d in degrees) != n:
        raise ConsistencyError("sum of squared degrees does not match the group order")
    for d in degrees:
        if n % d:
            raise ConsistencyError(f"character degree {d} does not divide the group order {n}")

    z = pow(modp.primitive_root_mod(p), (p - 1) // m, p)
    zexp = np.array([pow(z, t, p) for t in range(m)], dtype=np.int64)  # z^t for t < m
    # row s holds x^s mod Phi_m, the coordinates of zeta_m^s
    powers = np.array(_reduction(m)[1][:m], dtype=np.int64)
    position: dict = {}  # coordinates -> row of coords; tables repeat few values many times
    # a linear character is a homomorphism to the m-th roots of unity: each of its
    # values mod p is z^s for one s < m, read off the sorted powers of z
    chi = rows_mod_p[deg == 1]
    by_value = np.argsort(zexp)
    s = by_value[np.searchsorted(zexp, chi, sorter=by_value).clip(max=m - 1)]
    if (zexp[s] != chi).any():
        raise ConsistencyError("a linear character takes a value that is not an m-th root of unity")
    used = np.unique(s)  # register only the roots the linear rows take
    slot = np.zeros(m, dtype=np.intp)
    slot[used] = [position.setdefault(c, len(position)) for c in map(tuple, powers[used].tolist())]
    keys = np.zeros(m, dtype=np.complex128)
    keys[used] = np.round(_evaluate(powers[used], m, 1), 10)
    built = [(1, key, at) for key, at in zip(keys[s].view(np.float64).tolist(), slot[s])]

    rest, rest_deg, phi = rows_mod_p[deg > 1], deg[deg > 1, None], powers.shape[1]
    plan = _lift_plan(cd, p, zexp, powers) if len(rest) else []
    block = max(1, 2**16 // (r * m))  # rows lifted at once: a block's transforms hold <= 2^16 entries
    for start in range(0, len(rest), block):
        chi, degs = rest[start:start + block], rest_deg[start:start + block]
        coords = np.empty((len(chi), r, phi), dtype=np.int64)
        for js, gather, dft, inv_o, column, perm, power_rows in plan:
            mults = (chi[:, gather] @ dft) % p * inv_o % p
            if (mults.sum(axis=2) != degs).any():
                raise ConsistencyError("root-of-unity multiplicities do not sum to the degree")
            # a class has at most d nonzero multiplicities: add up their rows of powers
            mults = mults[:, column, perm]
            row, at, s = np.nonzero(mults)
            coords[:, js] = np.add.reduceat(
                mults[row, at, s, None] * power_rows[s],
                np.searchsorted(row * len(js) + at, np.arange(len(chi) * len(js)))
            ).reshape(len(chi), len(js), phi)
        for d, row_coords in zip(degs[:, 0].tolist(), coords):
            # re, im, re, im, ...: compares like the list of (re, im) pairs
            key = np.round(_evaluate(row_coords, m, 1), 10).view(np.float64).tolist()
            at = [position.setdefault(c, len(position)) for c in map(tuple, row_coords.tolist())]
            built.append((d, key, at))

    return _sorted_table(cd, built, np.array(list(position), dtype=np.int64), p)


def _sorted_table(cd: ClassData, built: list, coords: np.ndarray,
                  prime: Optional[int]) -> CharacterTable:
    """The validated table of the rows `built`, one (degree, key, value
    indices) per row, sorted by (degree, key), key the rounded values at
    zeta_m = exp(2 pi i / m); row j of `coords` holds distinct value j."""
    built.sort(key=lambda item: item[:2])
    values = np.array([Cyclo(cd.exponent, c) for c in coords.tolist()], dtype=object)
    index = np.array([at for *_, at in built], dtype=np.intp)
    cells = values[index].tolist()
    rows = [CharacterRow(f"chi{i}", d, tuple(cells[i]), cd) for i, (d, *_) in enumerate(built)]
    table = CharacterTable(cd, rows, prime, index, coords)
    report = validate_orthogonality(table)
    if not report.passed:
        raise ConsistencyError(
            f"orthogonality validation failed: {report.failed_relation} "
            f"(row residual {report.max_row_residual:.3e}, column residual {report.max_col_residual:.3e})"
        )
    table.orthogonality = report
    return table


def _lift_plan(cd: ClassData, p: int, zexp: np.ndarray, powers: np.ndarray) -> list[tuple]:
    """The plan of the multiplicity lift of the rows of degree > 1, one entry
    per element order o, from zexp[t] = z^t mod p, z the primitive m-th root,
    and powers[s] = x^s mod Phi_m, the coordinates of zeta_m^s.

    The multiplicity mu_s of zeta_m^s among the eigenvalues of rep_j is the mod-p
    transform (1/m) sum_t chi(rep_j^t) z^(-ts) over the power map.  On a class of
    order o, chi(rep_j^t) has period o, so mu_s vanishes unless m/o divides s and
    the transform shrinks to an o x o one over z^(m/o).  A class C_j' holding
    rep_j^k, k prime to o, has chi(rep_j'^t) = chi(rep_j^(kt)), so its
    multiplicities are those of C_j at k^-1 s mod o: only the first class of each
    such Galois orbit, its leader, needs a transform.  An entry holds the classes
    of order o, the power-map rows of their leaders, the transform, 1/o mod p,
    each class's leader (a column index) and permutation, and the rows
    x^s mod Phi_m for the s that m/o divides.
    """
    r, m, cycles = len(cd.classes), cd.exponent, cd.power_classes
    source: dict = {}  # class j' -> (leader j, k) with rep_j' conjugate to rep_j^k
    for j, cycle in enumerate(cycles):
        if j not in source:
            o = len(cycle)
            for k in range(1, o + 1):
                if gcd(k, o) == 1 and cycle[k % o] not in source:
                    source[cycle[k % o]] = (j, k)
    if any(cycles[jk] != [cycles[j][k * t % len(cycles[j])] for t in range(len(cycles[j]))]
           for jk, (j, k) in source.items()):
        raise ConsistencyError("the power map is not constant on conjugacy classes")

    zneg = zexp[np.negative(np.outer(np.arange(m), np.arange(m))) % m]
    plan = []  # sum_s mu_s zeta^s has coordinates mu @ powers
    for o in sorted({len(cycle) for cycle in cycles}):
        js = [j for j in range(r) if len(cycles[j]) == o]
        leaders = sorted({source[j][0] for j in js})
        plan.append((np.array(js), np.array([cycles[j] for j in leaders]), zneg[:o, ::m // o],
                     modp.inv_mod(o, p),
                     np.array([[leaders.index(source[j][0])] for j in js]),
                     np.outer([pow(source[j][1], -1, o) for j in js], np.arange(o)) % o,
                     powers[::m // o]))
    return plan


@dataclass
class OrthogonalityReport:
    max_row_residual: float
    max_col_residual: float
    passed: bool
    exact: bool
    failed_relation: Optional[str] = None


def _evaluate(coords: np.ndarray, m: int, k: int) -> np.ndarray:
    """The values with the given coordinates, under zeta_m -> exp(2 pi i k / m)."""
    return coords @ np.exp(2j * np.pi * k * np.arange(coords.shape[1]) / m)


def validate_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """Exact check of row orthogonality on `table.class_data`, which implies column orthogonality.

    With integer coordinates the row residual sum_j |C_j| chi_i(C_j)
    conj(chi_i2(C_j)) - |H| delta lies in Z[zeta_m].  Its Galois conjugates come
    from zeta -> zeta^k for k coprime to m (k and m - k give complex-conjugate
    values, so k <= m/2 suffices).  If every conjugate measures below 1/2 in
    floating point, whose rounding error is far smaller, every true conjugate
    has modulus < 1; the norm, their product, is then an integer of modulus
    < 1, hence 0, and so is the residual.  The row relation then says that the
    square r x r matrix X[i, j] = chi_i(C_j) sqrt(|C_j| / |H|) has X X^dagger = I,
    so X^dagger X = I as well, and that is the column relation
    sum_i chi_i(C_j) conj(chi_i(C_j2)) = (|H| / |C_j|) delta.  A passing report
    therefore carries residuals of exactly 0.0; a failing one the largest row
    residual measured, and the column residual measured only then, to report
    it.  The values are read from the table's lifted coordinates; an array of a
    non-integer dtype fails the check outright.
    """
    cd = table.class_data
    r = len(cd.sizes)
    n = cd.order
    m = cd.exponent
    index, coords = table.index, table.coords
    if index.shape != (r, r) or len(table.rows) != r:
        raise ConsistencyError("table and class data dimensions disagree")
    ks = [k for k in range(1, m // 2 + 1) if gcd(k, m) == 1] or [1]
    sizes = np.array(cd.sizes, dtype=np.float64)
    target = n * np.eye(r)

    def worst(residual) -> float:  # the largest entry of residual(v) over the Galois conjugates
        return max(float(np.abs(residual(_evaluate(coords, m, k)[index])).max()) for k in ks)

    max_row = worst(lambda v: (v * sizes) @ v.conj().T - target)
    if coords.dtype.kind not in "iu":
        failed = "integrality"
    elif max_row >= 0.5:
        failed = "row orthogonality"
    else:
        return OrthogonalityReport(0.0, 0.0, True, True)  # both proven zero above
    max_col = worst(lambda v: sizes[:, None] * (v.T @ v.conj()) - target)
    return OrthogonalityReport(max_row, max_col, False, True, failed)
