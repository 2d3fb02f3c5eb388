"""Prime-field linear algebra kernels."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupvna import modp
from groupvna.characters import class_data, dixon_prime
from groupvna.groups import construct_group


def _det_mod(a, p):
    a = np.array(a, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if len(nz) == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            a[[c, i]] = a[[i, c]]
            det = -det % p
        det = det * int(a[c, c]) % p
        inv = modp.inv_mod(a[c, c], p)
        for r in range(c + 1, n):
            if a[r, c]:
                a[r] = (a[r] - a[r, c] * inv % p * a[c]) % p
    return det % p


def test_charpoly_matches_determinant_evaluation():
    rng = random.Random(7)
    for p in (13, 31, 61):
        for n in (1, 2, 3, 5, 8):
            a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            poly = modp.charpoly_mod(a, p)
            assert poly[-1] == 1
            for lam in (0, 1, rng.randrange(p)):
                val = 0
                for c in poly[::-1]:
                    val = (val * lam + int(c)) % p
                want = _det_mod(lam * np.eye(n, dtype=np.int64) - a, p)
                assert val == want


def test_nullspace_and_rref():
    p = 13
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    ns = modp.nullspace_mod(a, p)
    assert ns.shape[0] == 1
    assert ((a @ ns.T) % p == 0).all()
    r, piv = modp.rref_mod(a, p)
    assert piv == [0, 1]
    assert r.shape[0] == 2


def test_poly_roots():
    p = 31
    # (x - 3)(x - 5) = x^2 - 8x + 15
    roots = modp.poly_roots_mod(np.array([15, -8, 1]), p)
    assert roots == [3, 5]


def test_primitive_root():
    for p in (3, 13, 31, 61):
        g = modp.primitive_root_mod(p)
        seen = {pow(g, k, p) for k in range(p - 1)}
        assert len(seen) == p - 1


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 61, 97}
    for n in range(2, 100):
        assert modp.is_prime(n) == (n in primes or all(n % d for d in range(2, n)))


def _inverse_mod(a, p):
    n = a.shape[0]
    red, piv = modp.rref_mod(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    assert piv == list(range(n)), "singular"
    return red[:, n:]


def _conjugated(blocks, rng, p):
    """P J P^-1 mod p for J block diagonal with Jordan blocks (eigenvalue, size); returns (B, P)."""
    d = sum(size for _, size in blocks)
    j = np.zeros((d, d), dtype=np.int64)
    at = 0
    for lam, size in blocks:
        for k in range(size):
            j[at + k, at + k] = lam
            if k:
                j[at + k - 1, at + k] = 1
        at += size
    while True:
        pm = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        if len(modp.rref_mod(pm, p)[1]) == d:
            return pm @ j % p @ _inverse_mod(pm, p) % p, pm


def _check_simple_eigenvectors(blocks, seed, p):
    rng = random.Random(seed)
    b, pm = _conjugated(blocks, rng, p)
    d = b.shape[0]
    v = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
    chi = modp.charpoly_mod(b, p)
    roots = modp.poly_roots_mod(chi, p)
    found = modp.simple_eigenvectors(b, chi, roots, v, p)
    # v = P c: a simple root's vector is chi'(lam) c_i P e_i, zero exactly when c_i is
    c = _inverse_mod(pm, p) @ v % p
    multiplicity = {}
    for lam, size in blocks:
        multiplicity[lam] = multiplicity.get(lam, 0) + size
    at = 0
    for lam, size in blocks:
        if multiplicity[lam] > 1:
            assert lam not in found
        else:
            assert (lam in found) == (c[at] != 0)
        at += size
    for lam, x in found.items():
        assert x.any()
        assert np.array_equal(b @ x % p, lam * x % p)


def _roots_of_unity(m, p):
    z = pow(modp.primitive_root_mod(p), (p - 1) // m, p)
    return [pow(z, k, p) for k in range(m)]


def test_simple_eigenvectors_on_conjugated_jordan_forms():
    for p, m in ((13, 12), (31, 6), (61, 10), (97, 8)):
        mu = _roots_of_unity(m, p)
        blocks = [(mu[1], 1), (mu[2], 1), (mu[3], 2), (mu[4], 1), (mu[4], 1), (0, 1), (mu[0], 1)]
        for seed in range(5):
            _check_simple_eigenvectors(blocks, seed, p)


def test_simple_eigenvectors_of_a_zero_seed_or_no_roots():
    b = np.array([[2, 0], [0, 3]])
    chi = modp.charpoly_mod(b, 13)
    assert modp.simple_eigenvectors(b, chi, [2, 3], np.zeros(2), 13) == {}
    assert modp.simple_eigenvectors(b, chi, [], np.ones(2), 13) == {}
    found = modp.simple_eigenvectors(b, chi, [2, 3], np.ones(2), 13)
    assert sorted(found) == [2, 3]


@settings(max_examples=60, deadline=None)
@given(pm=st.sampled_from([(13, 12), (37, 9), (61, 6), (73, 8)]),
       spectrum=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3)), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_simple_eigenvectors_hypothesis(pm, spectrum, seed):
    p, m = pm
    mu = _roots_of_unity(m, p)
    _check_simple_eigenvectors([(mu[k % m], size) for k, size in spectrum], seed, p)


@pytest.mark.parametrize("spec", [{"family": "symmetric", "n": 4}, {"family": "heisenberg", "p": 3}],
                         ids=["S4", "Heis3"])
def test_simple_eigenvectors_match_nullspaces_of_class_matrices(spec):
    cd = class_data(construct_group(spec))
    r = len(cd.classes)
    p = dixon_prime(cd.order, cd.exponent, r)
    seed = np.eye(r, dtype=np.int64)[0]  # the identity class's coordinate, as in the splitting
    for i in range(1, r):
        a = cd.class_combination(np.eye(r, dtype=np.int64)[i]) % p
        chi = modp.charpoly_mod(a, p)
        roots = modp.poly_roots_mod(chi, p)
        found = modp.simple_eigenvectors(a, chi, roots, seed, p)
        for lam in roots:
            space = modp.nullspace_mod((a - lam * np.eye(r, dtype=np.int64)) % p, p)
            # class matrices are diagonalizable mod p: a simple root has a line
            assert (lam in found) == (space.shape[0] == 1)
            if lam in found:
                assert len(modp.rref_mod(np.vstack([space, found[lam]]), p)[1]) == 1
