"""Dense linear algebra over prime fields F_p on int64 numpy arrays.

Everything here assumes p is prime and that a dot product of d terms below
(p - 1)^2 fits in int64, d the matrix size: d (p - 1)^2 < 2^63 (the
character engine's `dixon_prime` checks this for its prime).
"""

from __future__ import annotations

import numpy as np


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    r = np.array(a, dtype=np.int64) % p
    if r.ndim != 2:
        raise ValueError("matrix expected")
    nrow, ncol = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncol):
        if row == nrow:
            break
        nz = np.nonzero(r[row:, col])[0]
        if len(nz) == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        r[row] = (r[row] * inv_mod(r[row, col], p)) % p
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if len(others):
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r[:row], pivots


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Rows form a basis of the right nullspace of a over F_p."""
    r, pivots = rref_mod(a, p)
    ncol = a.shape[1]
    free = [c for c in range(ncol) if c not in pivots]
    basis = np.zeros((len(free), ncol), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def simple_eigenvectors(b: np.ndarray, chi: np.ndarray, roots: list[int], v: np.ndarray,
                        p: int) -> dict[int, np.ndarray]:
    """Eigenvectors b x = lam x, one per simple root lam of chi = det(xI - b), from
    the single Krylov sequence v, b v, ..., b^(d-1) v.

    For each root, q = chi / (x - lam) comes from synthetic division.  By
    Cayley-Hamilton (b - lam) q(b) v = chi(b) v = 0, so a nonzero q(b) v is an
    eigenvector whatever b is.  A root is simple when chi'(lam) = q(lam) != 0.
    Repeated roots, and simple roots whose q(b) v is zero, get no entry.
    """
    d = b.shape[0]
    lam = np.array(roots, dtype=np.int64)
    if d == 0 or lam.size == 0:
        return {}
    krylov = np.empty((d, d), dtype=np.int64)
    krylov[0] = np.asarray(v, dtype=np.int64) % p
    for k in range(1, d):
        krylov[k] = (b @ krylov[k - 1]) % p
    # q[:, k] is the x^k coefficient of chi / (x - lam), one row per root;
    # q_(d-1) = 1 and q_(k-1) = chi_k + lam q_k, while Horner accumulates q(lam)
    q = np.empty((lam.size, d), dtype=np.int64)
    q[:, d - 1] = 1
    dchi = np.ones(lam.size, dtype=np.int64)
    for k in range(d - 1, 0, -1):
        q[:, k - 1] = (int(chi[k]) + lam * q[:, k]) % p
        dchi = (dchi * lam + q[:, k - 1]) % p
    vectors = (q @ krylov) % p
    keep = (dchi != 0) & vectors.any(axis=1)
    return {int(x): vec for x, vec, ok in zip(roots, vectors, keep) if ok}


def _hessenberg_mod(a: np.ndarray, p: int) -> np.ndarray:
    h = np.array(a, dtype=np.int64) % p
    n = h.shape[0]
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1 :, j])[0]
        if len(nz) == 0:
            continue
        i = j + 1 + int(nz[0])
        if i != j + 1:
            h[[j + 1, i]] = h[[i, j + 1]]
            h[:, [j + 1, i]] = h[:, [i, j + 1]]
        inv = inv_mod(h[j + 1, j], p)
        if j + 2 < n:
            factors = (h[j + 2 :, j] * inv) % p
            h[j + 2 :, :] = (h[j + 2 :, :] - np.outer(factors, h[j + 1, :])) % p
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ factors) % p
    return h


def charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of det(xI - a) over F_p, ascending order, monic.

    With h the Hessenberg form and p_k the characteristic polynomial of its
    leading k x k block, p_k = (x - h[k-1, k-1]) p_(k-1) - sum_i w_i p_(i-1),
    w_i = h[i-1, k-1] h[i, i-1] ... h[k-1, k-2]: scalar weights, then one
    vector-matrix product per k.
    """
    n = a.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)
    h = _hessenberg_mod(a, p).tolist()
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        w = [0] * (k - 1)
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % p
            if prod == 0:
                break
            w[i - 1] = h[i - 1][k - 1] * prod % p
        pk = polys[k]
        pk[1 : k + 1] = polys[k - 1, :k]
        pk[:] = (pk - h[k - 1][k - 1] * polys[k - 1]) % p
        pk[:] = (pk - np.array(w, dtype=np.int64) @ polys[: k - 1]) % p
    return polys[n]


def poly_roots_mod(coeffs: np.ndarray, p: int) -> list[int]:
    """All roots in F_p of a nonzero polynomial (ascending coefficients), by
    Horner's rule on 2^16 points of F_p at a time."""
    roots: list[int] = []
    for start in range(0, p, 2**16):
        xs = np.arange(start, min(start + 2**16, p), dtype=np.int64)
        acc = np.zeros_like(xs)
        for c in coeffs[::-1]:
            acc = (acc * xs + int(c)) % p
        roots += xs[acc == 0].tolist()
    return roots


def primitive_root_mod(p: int) -> int:
    """A generator of the multiplicative group of F_p."""
    n = p - 1
    factors = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, n // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError(f"no primitive root modulo {p}")
