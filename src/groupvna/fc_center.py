"""Conjugacy classes and budgeted membership evidence for the FC-center.

The FC-center is the set of elements whose conjugacy class is finite.  A
finite orbit certified by stability under every conjugating generator is a
proof of membership; running out of budget is reported as evidence only,
never as a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, ParameterError
from .groups import GroupElement, GroupHandle, _bfs

DEFAULT_CLASS_BUDGET = 10**4


@dataclass(frozen=True)
class ConjugacyClass:
    """Orbit of `representative` under conjugation, or an exceeded-budget marker."""

    representative: GroupElement
    elements: Optional[tuple[GroupElement, ...]]
    budget: int
    partial_count: Optional[int] = None

    @property
    def exceeded(self) -> bool:
        return self.elements is None

    @property
    def size(self) -> int:
        if self.elements is None:
            raise ParameterError("class size is undefined for an exceeded-budget orbit")
        return len(self.elements)

    def __contains__(self, g) -> bool:
        form = g.form if isinstance(g, GroupElement) else g
        return self.elements is not None and any(e.form == form for e in self.elements)


@dataclass(frozen=True)
class FcVerdict:
    """fc(class size) when the orbit closed, not_fc_evidence(budget) otherwise."""

    element: GroupElement
    kind: str  # "fc" | "not_fc_evidence"
    class_size: Optional[int] = None
    budget: Optional[int] = None

    @property
    def is_fc(self) -> bool:
        return self.kind == "fc"


def conjugacy_class(g: GroupElement, budget: int = DEFAULT_CLASS_BUDGET) -> ConjugacyClass:
    """Breadth-first orbit of g under conjugation by its group's generators.

    A returned finite orbit is the complete class: BFS terminates only once
    the orbit is stable under every conjugating generator.
    """
    handle = g.group
    handle._check(g)
    if budget < 1:
        raise ParameterError("class budget must be >= 1")
    fam = handle._family
    maps = [fam.conj_map(t) for t in fam.alphabet_block(fam.conjugating_forms(g.form))]
    try:
        forms = _bfs([g.form], maps, budget)
    except BudgetExceededError as e:
        return ConjugacyClass(g, None, budget, partial_count=e.partial_count)
    return ConjugacyClass(g, tuple(GroupElement(handle, f) for f in forms), budget)


def fc_filter(handle: GroupHandle, n: int,
              budget: int = DEFAULT_CLASS_BUDGET) -> list[FcVerdict]:
    """FC verdicts for the first n enumerated elements."""
    if n < 1:
        raise ParameterError("element count must be >= 1")
    verdicts = []
    for g in handle.iter_elements(n):
        cls = conjugacy_class(g, budget)
        if cls.exceeded:
            verdicts.append(FcVerdict(g, "not_fc_evidence", budget=budget))
        else:
            verdicts.append(FcVerdict(g, "fc", class_size=cls.size, budget=budget))
    return verdicts
