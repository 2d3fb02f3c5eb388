"""Concrete countable groups behind one handle abstraction.

Each family fixes a canonical form per element (permutation image tuples,
freely reduced words, (n, s) pairs for the infinite dihedral group, sorted
sparse coordinate maps for restricted direct sums, Cayley-table indices), so
equality and hashing are O(size of the form).  Handles expose the group
oracle: multiplication, inversion, budgeted subgroup closure, and a fair,
prefix-stable enumeration (breadth-first by generator word length, ties broken
by fixed generator order; restricted sums admit coordinate c from stage c+1).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import islice
from numbers import Integral
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    ParameterError,
    RequiresFiniteError,
    SpecError,
    UnsupportedFamilyError,
)

DEFAULT_CLOSURE_BUDGET = 10**6
MAX_SPEC_DEPTH = 64  # products and restricted sums nested inside one another
# every order below 2^MAX_ORDER_BITS (about 10^3010) can be written in decimal;
# 1000! is about 2^8530
MAX_ORDER_BITS = 10_000
MAX_SYMMETRIC_N = 1000
MAX_FREE_RANK = 1000  # each conjugating alphabet holds 2 * rank letters


@dataclass(frozen=True)
class AbelianByFiniteWitness:
    """Generators of an abelian subgroup plus its (finite) index."""

    generator_forms: tuple
    index: int
    note: str


@dataclass(frozen=True)
class FamilyMetadata:
    """What is known exactly about G^fin and abelian-by-finiteness.

    These carry the hypotheses the dichotomy cannot decide: membership in the
    FC-center when the family structure pins it down, an abelian-by-finite
    witness where one exists, and the declared negation for restricted sums of
    non-abelian finite groups.
    """

    fc_center_note: Optional[str] = None
    fc_all: Optional[bool] = None
    icc: bool = False
    fc_member: Optional[Callable] = field(default=None, compare=False)
    abelian_by_finite: Optional[AbelianByFiniteWitness] = None
    not_abelian_by_finite: bool = False


class GroupElement:
    """An element in canonical form, bound to its handle."""

    __slots__ = ("group", "form")

    def __init__(self, group: "GroupHandle", form):
        self.group = group
        self.form = form

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group is other.group and self.form == other.form

    def __hash__(self):
        return hash(self.form)

    def __mul__(self, other):
        return self.group.mul(self, other)

    def inv(self) -> "GroupElement":
        return self.group.inv(self)

    @property
    def is_identity(self) -> bool:
        return self.form == self.group._family.identity

    def describe(self) -> str:
        return self.group._family.describe(self.form)

    def to_json(self):
        return self.group._family.form_to_json(self.form)

    def __repr__(self):
        return f"<{self.group.family}:{self.describe()}>"


# ---------------------------------------------------------------------------
# families


class _Family:
    tag: str = ""
    order: Optional[int] = None  # None = infinite
    spec_doc: dict
    metadata: FamilyMetadata = FamilyMetadata()
    identity = None

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def commutes(self, a, b) -> bool:
        """Whether a b = b a, for canonical forms a and b."""
        return self.mul(a, b) == self.mul(b, a)

    def noncommuting_pair(self, xs, ys) -> Optional[tuple]:
        """The first (x, y) with x y != y x, x over `xs` outermost; None if all commute.

        `ys` is traversed once per element of `xs`, so it must be a sequence.
        """
        commutes = self.commutes
        for x in xs:
            for y in ys:
                if not commutes(x, y):
                    return x, y
        return None

    def generator_forms(self) -> list:
        raise NotImplementedError

    def alphabet_block(self, gens: list) -> list:
        """Generators interleaved with their inverses, deduplicated, no identity."""
        out, seen = [], set()
        for g in gens:
            for f in (g, self.inv(g)):
                if f != self.identity and f not in seen:
                    seen.add(f)
                    out.append(f)
        return out

    def alphabet_blocks(self) -> Iterator[list]:
        """Blocks admitted to the enumeration window, one per stage."""
        yield self.alphabet_block(self.generator_forms())

    def conjugating_forms(self, form) -> list:
        """A finite set whose conjugations reach the full class of `form`."""
        return self.generator_forms()

    def describe(self, form) -> str:
        return repr(form)

    def form_to_json(self, form):
        raise NotImplementedError

    def form_from_json(self, data):
        raise NotImplementedError


def _json_int(x) -> int:
    """A JSON integer inside a canonical form; strings, floats and bools are not."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{x!r} is not a JSON integer")
    return x


def _json_list(x, length: Optional[int] = None) -> list:
    """A JSON array inside a canonical form, with `length` entries when given."""
    if not isinstance(x, list) or (length is not None and len(x) != length):
        raise TypeError(f"{x!r} is not a JSON array" + (f" of {length} entries" if length else ""))
    return x


def _perm_describe(form) -> str:
    n = len(form)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or form[start] == start:
            seen[start] = True
            continue
        cur, cyc = start, []
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur + 1)
            cur = form[cur]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


class _Symmetric(_Family):
    def __init__(self, n: int):
        self.tag = "symmetric"
        self.n = n
        self.identity = tuple(range(n))
        order = 1
        for k in range(2, n + 1):
            order *= k
        self.order = order
        self.spec_doc = {"family": "symmetric", "n": n}
        self.metadata = _finite_metadata(order)

    def mul(self, a, b):
        return tuple(a[b[i]] for i in range(self.n))

    def inv(self, a):
        out = [0] * self.n
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def generator_forms(self):
        if self.n < 2:
            return []
        swap = (1, 0) + tuple(range(2, self.n))
        if self.n == 2:
            return [swap]
        cycle = tuple(range(1, self.n)) + (0,)
        return [swap, cycle]

    def describe(self, form):
        return _perm_describe(form)

    def form_to_json(self, form):
        return list(form)

    def form_from_json(self, data):
        form = tuple(_json_int(x) for x in _json_list(data))
        if sorted(form) != list(range(self.n)):
            raise SpecError(f"not a permutation of 0..{self.n - 1}: {data}")
        return form


class _Cyclic(_Family):
    def __init__(self, n: int):
        self.tag = "cyclic"
        self.n = n
        self.identity = 0
        self.order = n
        self.spec_doc = {"family": "cyclic", "n": n}
        self.metadata = _finite_metadata(n)

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def generator_forms(self):
        return [] if self.n == 1 else [1]

    def describe(self, form):
        return str(form)

    def form_to_json(self, form):
        return form

    def form_from_json(self, data):
        v = _json_int(data)
        if not 0 <= v < self.n:
            raise SpecError(f"cyclic value out of range: {data}")
        return v


class _Dihedral(_Family):
    """Order 2n: (r, s) means rotation^r * reflection^s with s r s = r^-1."""

    def __init__(self, n: int):
        self.tag = "dihedral"
        self.n = n
        self.identity = (0, 0)
        self.order = 2 * n
        self.spec_doc = {"family": "dihedral", "n": n}
        self.metadata = _finite_metadata(2 * n)

    def mul(self, a, b):
        (x, s), (y, t) = a, b
        return ((x + y) % self.n if s == 0 else (x - y) % self.n, s ^ t)

    def inv(self, a):
        x, s = a
        return ((-x) % self.n, 0) if s == 0 else a

    def generator_forms(self):
        gens = []
        if self.n > 1:
            gens.append((1, 0))
        gens.append((0, 1))
        return gens

    def describe(self, form):
        x, s = form
        rot = "e" if x == 0 else f"r^{x}"
        return rot if s == 0 else (f"{rot} s" if x else "s")

    def form_to_json(self, form):
        return list(form)

    def form_from_json(self, data):
        x, s = map(_json_int, _json_list(data, 2))
        if not (0 <= x < self.n and s in (0, 1)):
            raise SpecError(f"dihedral form out of range: {data}")
        return (x, s)


class _DihedralInfinite(_Family):
    """(n, s) with (n,1)(m,s) = (n-m, 1-s); translations form the FC-center."""

    def __init__(self):
        self.tag = "dihedral_infinite"
        self.identity = (0, 0)
        self.order = None
        self.spec_doc = {"family": "dihedral_infinite"}
        self.metadata = FamilyMetadata(
            fc_center_note="translation subgroup {(n, 0)}",
            fc_all=False,
            fc_member=lambda form: form[1] == 0,
            abelian_by_finite=AbelianByFiniteWitness(((1, 0),), 2, "translation subgroup"),
        )

    def mul(self, a, b):
        (x, s), (y, t) = a, b
        return (x + y if s == 0 else x - y, s ^ t)

    def inv(self, a):
        x, s = a
        return (-x, 0) if s == 0 else a

    def generator_forms(self):
        return [(1, 0), (0, 1)]

    def describe(self, form):
        x, s = form
        rot = "e" if x == 0 else f"t^{x}"
        return rot if s == 0 else (f"{rot} s" if x else "s")

    def form_to_json(self, form):
        return list(form)

    def form_from_json(self, data):
        x, s = map(_json_int, _json_list(data, 2))
        if s not in (0, 1):
            raise SpecError(f"dihedral_infinite form out of range: {data}")
        return (x, s)


_QUAT_NAMES = {(0, 0): "1", (0, 1): "-1", (1, 0): "i", (1, 1): "-i",
               (2, 0): "j", (2, 1): "-j", (3, 0): "k", (3, 1): "-k"}
_QUAT_CYCLIC = {(1, 2), (2, 3), (3, 1)}


class _Quaternion8(_Family):
    """Q8 = {±1, ±i, ±j, ±k}; forms are (axis, sign) with axis 0 meaning ±1."""

    def __init__(self):
        self.tag = "quaternion8"
        self.identity = (0, 0)
        self.order = 8
        self.spec_doc = {"family": "quaternion8"}
        self.metadata = _finite_metadata(8)

    def mul(self, a, b):
        (ax, sa), (bx, sb) = a, b
        if ax == 0:
            return (bx, sa ^ sb)
        if bx == 0:
            return (ax, sa ^ sb)
        if ax == bx:
            return (0, sa ^ sb ^ 1)
        cx = 6 - ax - bx
        flip = 0 if (ax, bx) in _QUAT_CYCLIC else 1
        return (cx, sa ^ sb ^ flip)

    def inv(self, a):
        ax, s = a
        return a if ax == 0 else (ax, s ^ 1)

    def generator_forms(self):
        return [(1, 0), (2, 0)]

    def describe(self, form):
        return _QUAT_NAMES[form]

    def form_to_json(self, form):
        return list(form)

    def form_from_json(self, data):
        ax, s = map(_json_int, _json_list(data, 2))
        if not (0 <= ax <= 3 and s in (0, 1)):
            raise SpecError(f"quaternion form out of range: {data}")
        return (ax, s)


class _Heisenberg(_Family):
    """Upper unitriangular 3x3 matrices over Z/p, as triples (a, b, c)."""

    def __init__(self, p: int):
        self.tag = "heisenberg"
        self.p = p
        self.identity = (0, 0, 0)
        self.order = p**3
        self.spec_doc = {"family": "heisenberg", "p": p}
        self.metadata = _finite_metadata(p**3)

    def mul(self, x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        p = self.p
        return ((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)

    def inv(self, x):
        a, b, c = x
        p = self.p
        return ((-a) % p, (-b) % p, (a * b - c) % p)

    def generator_forms(self):
        return [(1, 0, 0), (0, 1, 0)]

    def describe(self, form):
        return str(form)

    def form_to_json(self, form):
        return list(form)

    def form_from_json(self, data):
        a, b, c = (_json_int(v) % self.p for v in _json_list(data, 3))
        return (a, b, c)


class _Cayley(_Family):
    """A finite group given by its full multiplication table."""

    def __init__(self, table: list):
        self.tag = "cayley"
        self._validate(table)
        self.table = np.array(table, dtype=np.int64)
        n = len(table)
        self.n = n
        ident = None
        for i in range(n):
            if all(self.table[i, j] == j for j in range(n)) and all(
                self.table[j, i] == j for j in range(n)
            ):
                ident = i
                break
        if ident is None:
            raise SpecError('field "table": no two-sided identity element')
        self.identity = ident
        self._inv = [0] * n
        for i in range(n):
            hits = [j for j in range(n) if self.table[i, j] == ident]
            if len(hits) != 1 or self.table[hits[0], i] != ident:
                raise SpecError(f'field "table": element {i} has no two-sided inverse')
            self._inv[i] = hits[0]
        self._check_associativity()
        self.order = n
        self.spec_doc = {"family": "cayley", "table": [list(map(int, row)) for row in table]}
        self.metadata = _finite_metadata(n)
        self._generators = self._greedy_generators()

    @staticmethod
    def _validate(table):
        if not isinstance(table, list) or not table:
            raise SpecError('field "table": expected a nonempty square array of ints')
        n = len(table)
        for i, row in enumerate(table):
            if not isinstance(row, list) or len(row) != n:
                raise SpecError(f'field "table": row {i} is not length {n}')
            for v in row:
                if not isinstance(v, Integral) or isinstance(v, bool):
                    raise SpecError(f'field "table": row {i} has a non-integer entry {v!r}')
            vals = sorted(row)
            if vals != list(range(n)):
                raise SpecError(f'field "table": row {i} is not a permutation of 0..{n - 1}')
        for j in range(n):
            col = sorted(table[i][j] for i in range(n))
            if col != list(range(n)):
                raise SpecError(f'field "table": column {j} is not a permutation of 0..{n - 1}')

    def _check_associativity(self):
        t = self.table
        for i in range(self.n):
            left = t[t[i]]  # left[j, k] = (i*j)*k
            right = t[i][t]  # right[j, k] = i*(j*k)
            if not (left == right).all():
                raise SpecError(f'field "table": multiplication is not associative at row {i}')

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return self._inv[a]

    def _greedy_generators(self) -> tuple:
        # deterministic generating set: greedily add the first element not yet generated
        gens: list[int] = []
        reached = {self.identity}
        for x in range(self.n):
            if len(reached) == self.n:
                break
            if x not in reached:
                gens.append(x)
                reached = set(_bfs([self.identity], self.alphabet_block(gens), self.mul))
        return tuple(gens)

    def generator_forms(self):
        return self._generators

    def describe(self, form):
        return f"g{form}"

    def form_to_json(self, form):
        return form

    def form_from_json(self, data):
        v = _json_int(data)
        if not 0 <= v < self.n:
            raise SpecError(f"cayley index out of range: {data}")
        return v


class _Product(_Family):
    def __init__(self, factors: list[_Family]):
        self.tag = "product"
        self.factors = factors
        self.identity = tuple(f.identity for f in factors)
        if all(f.order is not None for f in factors):
            order = 1
            for f in factors:
                order *= f.order
            self.order = order
        else:
            self.order = None
        self.spec_doc = {"family": "product", "factors": [f.spec_doc for f in factors]}
        self.metadata = _product_metadata(factors, self.order)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def generator_forms(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generator_forms():
                gens.append(self._embed(i, g))
        return gens

    def alphabet_blocks(self):
        # interleave factor blocks so infinite factors stay fairly enumerated
        iters = [f.alphabet_blocks() for f in self.factors]
        while any(it is not None for it in iters):
            block = []
            for i, it in enumerate(iters):
                if it is None:
                    continue
                try:
                    sub = next(it)
                except StopIteration:
                    iters[i] = None
                    continue
                block.extend(self._embed(i, g) for g in sub)
            if any(it is not None for it in iters):
                yield block

    def conjugating_forms(self, form):
        gens = []
        for i, (f, x) in enumerate(zip(self.factors, form)):
            for g in f.conjugating_forms(x):
                gens.append(self._embed(i, g))
        return gens

    def _embed(self, i, g):
        return tuple(g if j == i else f.identity for j, f in enumerate(self.factors))

    def describe(self, form):
        return "(" + ", ".join(f.describe(x) for f, x in zip(self.factors, form)) + ")"

    def form_to_json(self, form):
        return [f.form_to_json(x) for f, x in zip(self.factors, form)]

    def form_from_json(self, data):
        if len(_json_list(data)) != len(self.factors):
            raise SpecError(f"product form needs {len(self.factors)} components")
        return tuple(f.form_from_json(x) for f, x in zip(self.factors, data))


class _RestrictedSum(_Family):
    """Finitely supported maps N -> F; forms are sorted ((coord, factor_form), ...)."""

    def __init__(self, factor: _Family):
        self.tag = "restricted_sum"
        self.factor = factor
        self.identity = ()
        self.order = None if factor.order != 1 else 1
        self.spec_doc = {"family": "restricted_sum", "factor": factor.spec_doc}
        self.metadata = _restricted_sum_metadata(factor)

    def mul(self, a, b):
        """One merge of the coordinate-sorted supports; a factor identity drops out."""
        factor = self.factor
        out = []
        i = 0
        for coord, y in b:
            j = bisect_left(a, (coord,), i)  # (c,) sorts just before every (c, x)
            out += a[i:j]
            if j < len(a) and a[j][0] == coord:
                z = factor.mul(a[j][1], y)
                if z != factor.identity:
                    out.append((coord, z))
                j += 1
            else:
                out.append((coord, y))
            i = j
        out += a[i:]
        return tuple(out)

    def commutes(self, a, b):
        """Coordinates commute independently; only the shared ones can fail."""
        ys = dict(b)
        fcommutes = self.factor.commutes
        return all(fcommutes(x, ys[coord]) for coord, x in a if coord in ys)

    def inv(self, a):
        return tuple((coord, self.factor.inv(x)) for coord, x in a)

    def generator_forms(self):
        # representative finite set: the coordinate-0 block
        return [((0, g),) for g in self.factor.generator_forms()]

    def alphabet_blocks(self):
        base = self.factor.alphabet_block(self.factor.generator_forms())
        coord = 0
        while True:
            yield [((coord, g),) for g in base]
            coord += 1

    def conjugating_forms(self, form):
        gens = []
        for coord, x in form:
            for g in self.factor.conjugating_forms(x):
                gens.append(((coord, g),))
        return gens

    def describe(self, form):
        if not form:
            return "e"
        return "{" + ", ".join(f"{c}: {self.factor.describe(x)}" for c, x in form) + "}"

    def form_to_json(self, form):
        return [[c, self.factor.form_to_json(x)] for c, x in form]

    def form_from_json(self, data):
        items = []
        for pair in _json_list(data):
            c, x = _json_list(pair, 2)
            if _json_int(c) < 0:
                raise SpecError(f"restricted_sum coordinate must be >= 0: {pair}")
            x = self.factor.form_from_json(x)
            if x != self.factor.identity:
                items.append((c, x))
        items.sort()
        if len({c for c, _ in items}) != len(items):
            raise SpecError("restricted_sum form repeats a coordinate")
        return tuple(items)


class _Free(_Family):
    """Free group on `rank` letters; forms are reduced words of signed indices."""

    _LETTERS = "xyzwuv"

    def __init__(self, rank: int):
        self.tag = "free"
        self.rank = rank
        self.identity = ()
        self.order = 1 if rank == 0 else None
        self.spec_doc = {"family": "free", "rank": rank}
        if rank >= 2:
            self.metadata = FamilyMetadata(
                fc_center_note="trivial (icc)", fc_all=False, icc=True,
                fc_member=lambda form: form == (),
                not_abelian_by_finite=False,
            )
        else:
            self.metadata = FamilyMetadata(
                fc_center_note="all of G (abelian)", fc_all=True,
                abelian_by_finite=AbelianByFiniteWitness(((1,),) if rank else (), 1, "group is abelian"),
            )

    def mul(self, a, b):
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1] == -b[i]:
            a.pop()
            i += 1
        return tuple(a) + tuple(b[i:])

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def generator_forms(self):
        return [(k,) for k in range(1, self.rank + 1)]

    def _letter(self, k: int) -> str:
        i = abs(k) - 1
        name = self._LETTERS[i] if i < len(self._LETTERS) else f"g{i + 1}"
        return name if k > 0 else name + "^-1"

    def describe(self, form):
        return "e" if not form else "*".join(self._letter(k) for k in form)

    def form_to_json(self, form):
        return list(form)

    def form_from_json(self, data):
        word = [_json_int(x) for x in _json_list(data)]
        for x in word:
            if x == 0 or abs(x) > self.rank:
                raise SpecError(f"free word letter out of range: {x}")
        for a, b in zip(word, word[1:]):
            if a == -b:
                raise SpecError(f"free word is not reduced: {data}")
        return tuple(word)


def _finite_metadata(order: int) -> FamilyMetadata:
    return FamilyMetadata(
        fc_center_note="all of G (finite group)",
        fc_all=True,
        fc_member=lambda form: True,
        abelian_by_finite=AbelianByFiniteWitness((), order, "trivial subgroup"),
    )


def _product_metadata(factors: list[_Family], order: Optional[int]) -> FamilyMetadata:
    if order is not None:
        return _finite_metadata(order)
    metas = [f.metadata for f in factors]
    fc_all = True if all(m.fc_all for m in metas) else None
    not_abf = any(m.not_abelian_by_finite for m in metas)
    witness = None
    if not not_abf and all(m.abelian_by_finite is not None for m in metas):
        gens = []
        index = 1
        for i, (f, m) in enumerate(zip(factors, metas)):
            for g in m.abelian_by_finite.generator_forms:
                gens.append(tuple(g if j == i else h.identity for j, h in enumerate(factors)))
            index *= m.abelian_by_finite.index
        witness = AbelianByFiniteWitness(tuple(gens), index, "product of factor witnesses")
    return FamilyMetadata(
        fc_center_note="all of G" if fc_all else None,
        fc_all=fc_all,
        abelian_by_finite=witness,
        not_abelian_by_finite=not_abf,
    )


def _restricted_sum_metadata(factor: _Family) -> FamilyMetadata:
    if factor.order is None:
        return FamilyMetadata(fc_center_note=None, fc_all=None)
    gens = factor.generator_forms()
    if factor.noncommuting_pair(gens, gens) is None:
        return FamilyMetadata(
            fc_center_note="all of G (abelian)",
            fc_all=True,
            fc_member=lambda form: True,
            abelian_by_finite=AbelianByFiniteWitness((), 1, "group is abelian"),
        )
    return FamilyMetadata(
        fc_center_note="all of G (every class is finite)",
        fc_all=True,
        fc_member=lambda form: True,
        not_abelian_by_finite=True,
    )


# ---------------------------------------------------------------------------
# breadth-first search on canonical forms


def _expand(frontier: Iterable, alphabet: list, step: Callable, seen: set,
            budget: Optional[int] = None) -> Iterator:
    """One BFS layer, lazily: each unseen form step(u, a), u over the frontier, a over the alphabet.

    A form is added to `seen` as it is yielded.  Raises BudgetExceededError
    with the partial count instead of letting `seen` grow past `budget`.
    """
    for u in frontier:
        for a in alphabet:
            w = step(u, a)
            if w not in seen:
                if budget is not None and len(seen) >= budget:
                    raise BudgetExceededError(
                        f"subgroup closure exceeded budget {budget}",
                        budget=budget, partial_count=len(seen),
                    )
                seen.add(w)
                yield w


def _bfs(seeds: list, alphabet: list, step: Callable, budget: Optional[int] = None) -> list:
    """Every form reachable from `seeds` by repeated `step(form, letter)`.

    Insertion order is the seeds, then each BFS layer in turn (see `_expand`).
    """
    out = list(seeds)
    seen = set(out)
    frontier = out
    while frontier:
        frontier = list(_expand(frontier, alphabet, step, seen, budget))
        out.extend(frontier)
    return out


def _fair_stages(family: _Family, enum: list) -> Iterator:
    """The fair enumeration past `enum`'s identity, appending one form to `enum` per `next`.

    Each stage admits the family's next alphabet block: the elements of
    earlier stages meet only the new letters (they met the old ones before),
    then the previous stage's elements meet the whole window.  The stream
    ends at the first stage that has no new block and finds no new form.
    """
    seen = set(enum)
    blocks = family.alphabet_blocks()
    window: list = []
    start = 0
    while True:
        block = next(blocks, None)  # None once the blocks have run out
        letters = block or []
        window += letters
        snapshot = len(enum)
        old = islice(enum, start) if letters else ()  # nothing new to meet otherwise
        for part, alphabet in ((old, letters), (enum[start:snapshot], window)):
            for w in _expand(part, alphabet, family.mul, seen):
                enum.append(w)
                yield w
        if block is None and len(enum) == snapshot:
            return
        start = snapshot


# ---------------------------------------------------------------------------
# handle


class GroupHandle:
    """A group oracle plus fair-enumerator state.

    Elements and the handle itself are immutable; only the enumeration cache
    grows, and it grows append-only, so enumeration prefixes are stable.  It
    grows one form per read past its end, driven by one stage generator per
    handle (`_extend_enumeration`, which perfbench/spans.py wraps by name);
    advancing it from two threads raises `ValueError: generator already
    executing`, so advance it from one thread at a time.
    """

    def __init__(self, family: _Family):
        self._family = family
        self.family = family.tag
        self.spec = family.spec_doc
        self.metadata = family.metadata
        self.identity = GroupElement(self, family.identity)
        self.generators = [GroupElement(self, f) for f in family.generator_forms()]
        self._enum: list = [family.identity]  # canonical forms in enumeration order
        self._enum_stages = _fair_stages(family, self._enum)

    # -- basic facts ---------------------------------------------------------

    @property
    def order(self) -> Optional[int]:
        return self._family.order

    @property
    def is_finite(self) -> bool:
        return self._family.order is not None

    @property
    def finiteness(self) -> str:
        """Finiteness hint: "finite(<order>)" or "infinite"."""
        return f"finite({order_text(self.order)})" if self.is_finite else "infinite"

    def describe(self) -> str:
        size = f"order {order_text(self.order)}" if self.is_finite else "infinite"
        return f"{_spec_label(self.spec)} ({size})"

    # -- group law -----------------------------------------------------------

    def _check(self, *elems: GroupElement):
        for e in elems:
            if not isinstance(e, GroupElement) or e.group is not self:
                raise DomainMismatchError(f"element {e!r} does not belong to {self.describe()}")

    def element(self, form) -> GroupElement:
        return GroupElement(self, form)

    def element_from_json(self, data) -> GroupElement:
        return GroupElement(self, _parse_form(self._family, data, "element"))

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a, b)
        return GroupElement(self, self._family.mul(a.form, b.form))

    def inv(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return GroupElement(self, self._family.inv(a.form))

    # -- fair enumeration ------------------------------------------------------

    def _extend_enumeration(self) -> bool:
        """Append the next form of the fair enumeration; False once the group is exhausted.

        perfbench/spans.py traces the enumeration by wrapping this method by name.
        """
        return next(self._enum_stages, None) is not None

    def iter_elements(self, limit: Optional[int] = None) -> Iterator[GroupElement]:
        """Prefix-stable fair enumeration; stops at `limit` or group exhaustion.

        Every iterator on a handle reads its one cache, which grows by one
        form (`_extend_enumeration`, which perfbench/spans.py wraps by name)
        per element read past its end, so a reader that stops early leaves
        the rest unbuilt.  The handle's one stage generator, advanced from two
        threads at once, raises `ValueError: generator already executing`, so
        iterate from one thread at a time.  A finite group stops after its
        order, whatever its alphabet blocks do.
        """
        if self.is_finite:
            limit = self.order if limit is None else min(limit, self.order)
        enum = self._enum
        i = 0
        while limit is None or i < limit:
            if i == len(enum) and not self._extend_enumeration():
                return
            yield GroupElement(self, enum[i])
            i += 1

    def all_elements(self) -> list[GroupElement]:
        if not self.is_finite:
            raise RequiresFiniteError(f"{self.describe()} is not finite")
        return list(self.iter_elements(self.order))


def _parse_form(family: _Family, data, where: str):
    """`family.form_from_json(data)`, every malformed form a SpecError naming `where`."""
    try:
        return family.form_from_json(data)
    except SpecError as e:
        raise SpecError(f"{where}: {e}") from e
    except (TypeError, ValueError, IndexError, KeyError, OverflowError) as e:
        raise SpecError(f"{where}: {data!r} is not a {family.tag} canonical form") from e


def _spec_label(spec: dict) -> str:
    fam = spec.get("family", "?")
    params = {k: v for k, v in spec.items() if k not in ("family", "metadata", "table")}
    if fam == "cayley":
        return f"cayley[{len(spec.get('table', []))}]"
    if fam == "product":
        return "product(" + ", ".join(_spec_label(f) for f in spec["factors"]) + ")"
    if fam == "restricted_sum":
        return f"restricted_sum({_spec_label(spec['factor'])})"
    if params:
        return fam + "(" + ", ".join(str(v) for v in params.values()) + ")"
    return fam


# ---------------------------------------------------------------------------
# subgroups and closures


class IndexTable:
    """A finite subgroup's letters acting on its element indices 0..n-1.

    The letters are the alphabet block of the subgroup's generators, or of its
    elements when it has none; a block is closed under inversion, and
    inverse_letter[a] is the letter t_a^-1.  right[a, x] is the index of
    x t_a, conj[a, x] that of t_a x t_a^-1, and inverse[x] that of x^-1.
    """

    __slots__ = ("letters", "inverse_letter", "inverse", "right", "conj")

    def __init__(self, H: "Subgroup"):
        fam, index = H.handle._family, H._index
        forms = [e.form for e in H.elements]
        self.letters = fam.alphabet_block([g.form for g in H.generators or H.elements])
        letter = {t: a for a, t in enumerate(self.letters)}
        self.inverse_letter = np.array([letter[fam.inv(t)] for t in self.letters], dtype=np.intp)
        self.inverse = np.array([index[fam.inv(x)] for x in forms], dtype=np.intp)
        self.right = np.array([[index[fam.mul(x, t)] for x in forms] for t in self.letters],
                              dtype=np.intp).reshape(len(self.letters), len(forms))
        # t x t^-1 = ((x t^-1)^-1 t^-1)^-1
        back = self.right[self.inverse_letter]
        self.conj = self.inverse[np.take_along_axis(back, self.inverse[back], axis=1)]

    def conj_orbits(self) -> list[list[int]]:
        """The conjugacy classes as index lists, each seeded at the first index
        no earlier class holds and listed in `_bfs` order over the rows of conj."""
        conj, orbits, seen = self.conj.tolist(), [], set()
        for i in range(len(self.inverse)):
            if i not in seen:
                orbits.append(_bfs([i], range(len(conj)), lambda x, a: conj[a][x]))
                seen.update(orbits[-1])
        return orbits


class Subgroup:
    """A finite subgroup materialized as an ordered element list (identity first)."""

    __slots__ = ("handle", "elements", "generators", "_index", "_table")

    def __init__(self, handle: GroupHandle, elements: list[GroupElement],
                 generators: Optional[list[GroupElement]] = None, _trusted: bool = False):
        self.handle = handle
        self.elements = tuple(elements)
        self.generators = tuple(generators) if generators is not None else None
        self._index = {e.form: i for i, e in enumerate(self.elements)}
        self._table: Optional[IndexTable] = None
        if not _trusted:
            self._validate()

    def _validate(self):
        if not self.elements or not self.elements[0].is_identity:
            raise ParameterError("subgroup element list must start with the identity")
        if len(self._index) != len(self.elements):
            raise ParameterError("subgroup element list has duplicates")
        fam = self.handle._family
        for e in self.elements:
            if fam.inv(e.form) not in self._index:
                raise ParameterError(f"subgroup is not inverse-closed at {e.describe()}")
        if len(self.elements) <= 300:
            for a in self.elements:
                for b in self.elements:
                    if fam.mul(a.form, b.form) not in self._index:
                        raise ParameterError(
                            f"set is not closed: {a.describe()} * {b.describe()} escapes"
                        )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def table(self) -> IndexTable:
        """The subgroup's index table, built on first use and then kept."""
        if self._table is None:
            self._table = IndexTable(self)
        return self._table

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        form = g.form if isinstance(g, GroupElement) else g
        return form in self._index

    @staticmethod
    def whole_group(handle: GroupHandle) -> "Subgroup":
        return Subgroup(handle, handle.all_elements(), list(handle.generators), _trusted=True)

    def describe(self) -> str:
        return f"subgroup of {self.handle.describe()}, order {order_text(self.order)}"


def as_subgroup(subject) -> Subgroup:
    """Normalize a GroupHandle, Subgroup, or element iterable to a Subgroup."""
    if isinstance(subject, Subgroup):
        return subject
    if isinstance(subject, GroupHandle):
        return Subgroup.whole_group(subject)
    elems = list(subject)
    if not elems:
        raise ParameterError("empty element collection")
    handle = elems[0].group
    seen, ordered = set(), []
    for e in elems:
        if not isinstance(e, GroupElement) or e.group is not handle:
            raise DomainMismatchError("elements from different handles")
        if e.form not in seen:
            seen.add(e.form)
            ordered.append(e)
    if not ordered[0].is_identity:
        ordered = [handle.identity] + [e for e in ordered if not e.is_identity]
    return Subgroup(handle, ordered)


def generate_closure(gens, budget: int = DEFAULT_CLOSURE_BUDGET) -> Subgroup:
    """Breadth-first closure of `gens` under multiplication and inversion.

    Deterministic insertion order (identity first, then BFS by word length over
    the generators and their inverses).  Raises BudgetExceededError with the
    partial count when the closure grows past `budget` elements.
    """
    gens = list(gens)
    if budget < 1:
        raise ParameterError("closure budget must be >= 1")
    if not gens:
        raise ParameterError("need at least one generator (use the identity for the trivial subgroup)")
    handle = gens[0].group
    handle._check(*gens)
    fam = handle._family
    forms = _bfs([fam.identity], fam.alphabet_block([g.form for g in gens]), fam.mul, budget)
    kept = [g for g in gens if not g.is_identity]
    return Subgroup(handle, [GroupElement(handle, f) for f in forms], kept or [handle.identity],
                    _trusted=True)


def closure_of_union(parts: list[Subgroup], budget: int = DEFAULT_CLOSURE_BUDGET) -> Subgroup:
    gens: list[GroupElement] = []
    for part in parts:
        gens.extend(part.generators if part.generators is not None else part.elements)
    return generate_closure(gens, budget)


def _require_finite_factor(factor: _Family, name: str):
    # an infinite factor's closure would only stop at the closure budget
    if factor.order is None:
        raise RequiresFiniteError(f"{name}, {_spec_label(factor.spec_doc)}, is infinite; "
                                  "its subgroup cannot be enumerated")


def coordinate_subgroup(handle: GroupHandle, coord: int,
                        budget: int = DEFAULT_CLOSURE_BUDGET) -> Subgroup:
    """The coordinate-`coord` copy of the factor inside a restricted sum."""
    fam = handle._family
    if not isinstance(fam, _RestrictedSum):
        raise ParameterError("coordinate subgroups exist only for restricted_sum handles")
    _require_finite_factor(fam.factor, "the factor")
    gens = [GroupElement(handle, ((coord, g),)) for g in fam.factor.generator_forms()]
    return generate_closure(gens or [handle.identity], budget)


def factor_subgroup(handle: GroupHandle, i: int,
                    budget: int = DEFAULT_CLOSURE_BUDGET) -> Subgroup:
    """The i-th factor embedded in a direct product."""
    fam = handle._family
    if not isinstance(fam, _Product):
        raise ParameterError("factor subgroups exist only for product handles")
    if not 0 <= i < len(fam.factors):
        raise ParameterError(f"product has no factor {i}")
    _require_finite_factor(fam.factors[i], f"factor {i}")
    gens = [GroupElement(handle, fam._embed(i, g)) for g in fam.factors[i].generator_forms()]
    return generate_closure(gens or [handle.identity], budget)


# ---------------------------------------------------------------------------
# spec parsing and the operation surface


def _require_int(spec: dict, field_name: str, minimum: int) -> int:
    if field_name not in spec:
        raise SpecError(f'field "{field_name}": required for family "{spec.get("family")}"')
    v = spec[field_name]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise SpecError(f'field "{field_name}": expected an integer >= {minimum}, got {v!r}')
    return v


def order_text(order: int) -> str:
    """`order` in decimal, or a power of ten it exceeds once it has more than 30 digits."""
    if order < 10**30:
        return str(order)
    # the margin absorbs the float error of log10 below 10^(10^6)
    return f"more than 10^{math.floor(math.log10(order) - 1e-9)}"


def _build_family(spec: dict, depth: int = 0) -> _Family:
    if not isinstance(spec, dict):
        raise SpecError("group spec must be a JSON object")
    fam = spec.get("family")
    if not isinstance(fam, str):
        raise SpecError('field "family": required string')
    if fam == "symmetric":
        if _require_int(spec, "n", 1) > MAX_SYMMETRIC_N:
            raise SpecError(f'field "n": symmetric groups are supported up to n = '
                            f'{MAX_SYMMETRIC_N}')
        return _Symmetric(spec["n"])
    if fam == "cyclic":
        return _Cyclic(_require_int(spec, "n", 1))
    if fam == "dihedral":
        return _Dihedral(_require_int(spec, "n", 1))
    if fam == "dihedral_infinite":
        return _DihedralInfinite()
    if fam == "quaternion8":
        return _Quaternion8()
    if fam == "heisenberg":
        return _Heisenberg(_require_int(spec, "p", 2))
    if fam == "cayley":
        if "table" not in spec:
            raise SpecError('field "table": required for family "cayley"')
        return _Cayley(spec["table"])
    if fam == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not factors:
            raise SpecError('field "factors": expected a nonempty list of group specs')
        _check_depth("factors", depth)
        return _Product([_build_family(f, depth + 1) for f in factors])
    if fam == "restricted_sum":
        factor = spec.get("factor")
        if factor is None:
            raise SpecError('field "factor": required for family "restricted_sum"')
        _check_depth("factor", depth)
        return _RestrictedSum(_build_family(factor, depth + 1))
    if fam == "free":
        if _require_int(spec, "rank", 1) > MAX_FREE_RANK:
            raise SpecError(f'field "rank": free groups are supported up to rank {MAX_FREE_RANK}')
        return _Free(spec["rank"])
    raise UnsupportedFamilyError(f'field "family": unsupported family "{fam}"')


def _check_depth(field_name: str, depth: int):
    if depth >= MAX_SPEC_DEPTH:
        raise SpecError(f'field "{field_name}": group specs nested more than '
                        f'{MAX_SPEC_DEPTH} deep')


def _apply_user_metadata(family: _Family, meta_spec: dict):
    if not isinstance(meta_spec, dict):
        raise SpecError('field "metadata": expected an object')
    m = family.metadata
    fc = meta_spec.get("fc_center")
    if fc is not None:
        if fc == "all":
            m = replace(m, fc_center_note="all of G (declared)", fc_all=True, icc=False,
                        fc_member=lambda form: True)
        elif fc == "trivial":
            m = replace(m, fc_center_note="trivial (declared icc)", fc_all=False, icc=True,
                        fc_member=lambda form: form == family.identity)
        else:
            raise SpecError(f'field "metadata.fc_center": expected "all" or "trivial", got {fc!r}')
    abf = meta_spec.get("abelian_by_finite")
    if abf is not None:
        if not isinstance(abf, dict):
            raise SpecError('field "metadata.abelian_by_finite": expected an object')
        if m.not_abelian_by_finite:
            raise SpecError('field "metadata.abelian_by_finite": the family is not abelian-by-finite')
        gens = abf.get("generators")
        index = abf.get("index")
        if not isinstance(gens, list):
            raise SpecError('field "metadata.abelian_by_finite.generators": expected a list')
        if not isinstance(index, int) or isinstance(index, bool) or index < 1:
            raise SpecError('field "metadata.abelian_by_finite.index": expected a positive integer')
        group_gens = family.generator_forms()
        if index == 1 and family.noncommuting_pair(group_gens, group_gens) is not None:
            raise SpecError('field "metadata.abelian_by_finite.index": index 1 declares the '
                            'group abelian, but its generators do not commute')
        forms = tuple(_parse_form(family, g, 'field "metadata.abelian_by_finite.generators"')
                      for g in gens)
        m = replace(m, abelian_by_finite=AbelianByFiniteWitness(
            forms, index, "declared in spec metadata"))
    family.metadata = m


def construct_group(spec) -> GroupHandle:
    """Build a GroupHandle from a group-spec document (dict or JSON string)."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise SpecError(f"spec is not valid JSON: {e}") from e
        except RecursionError as e:
            raise SpecError("spec is nested too deeply to parse") from e
    family = _build_family(spec)
    if family.order is not None and family.order.bit_length() > MAX_ORDER_BITS:
        raise SpecError(f"the group order is {order_text(family.order)}; orders up to "
                        f"2^{MAX_ORDER_BITS} are supported")
    if "metadata" in spec:
        _apply_user_metadata(family, spec["metadata"])
        family.spec_doc = dict(family.spec_doc, metadata=spec["metadata"])
    return GroupHandle(family)


def group_law(a: GroupElement, b: Optional[GroupElement] = None, op: str = "mul") -> GroupElement:
    """Canonical form of a*b (op="mul") or a^-1 (op="inv")."""
    if op == "mul":
        if b is None:
            raise ParameterError('group_law(op="mul") needs two elements')
        return a.group.mul(a, b)
    if op == "inv":
        return a.group.inv(a)
    raise ParameterError(f'unknown group_law op {op!r}; expected "mul" or "inv"')


def conjugate(g: GroupElement, h: GroupElement) -> GroupElement:
    """h g h^-1 in canonical form."""
    handle = g.group
    handle._check(g, h)
    return handle.mul(handle.mul(h, g), handle.inv(h))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """g h g^-1 h^-1; the identity exactly when g and h commute."""
    handle = g.group
    handle._check(g, h)
    return handle.mul(handle.mul(handle.mul(g, h), handle.inv(g)), handle.inv(h))


def enumerate_elements(handle: GroupHandle, n: int) -> list[GroupElement]:
    """First n elements of the fair enumeration (all of them for small finite groups)."""
    if n < 0:
        raise ParameterError("element count must be >= 0")
    return list(handle.iter_elements(n))
