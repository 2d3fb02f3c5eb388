"""The recursive commuting-subgroup construction and end-to-end certificates.

A not_type_I certificate exhibits pairs (g_i, h_i) with finite conjugacy
classes, the subgroups generated by those classes (pairwise commuting, each
non-abelian), and a growth witness: the factor decomposition of the closure
of the first N class unions puts measure > 1/2 - epsilon on atoms of
dimension >= 2^(2^(k-1)).  The pairs come from one scan of the group's fair
enumeration, each level resuming just past the previous level's pair.
Certificates embed the group spec and replay from JSON alone, independent of
the search path that produced them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from . import jsonutil
from .characters import DEFAULT_MAX_ORDER
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ParameterError,
    PreconditionError,
    RequiresFiniteError,
    SpecError,
)
from .fc_center import DEFAULT_CLASS_BUDGET, ConjugacyClass, conjugacy_class, fc_filter
from .groups import (
    DEFAULT_CLOSURE_BUDGET,
    GroupElement,
    GroupHandle,
    construct_group,
    generate_closure,
)
from .vn_spectrum import (
    MAX_GROWTH_K,
    GrowthResult,
    evaluate_growth,
    exact_fraction,
    tower_spectra,
)

DEFAULT_STREAM_BUDGET = 50_000


@dataclass(frozen=True)
class AbelianEvidence:
    """All scanned elements commute; a proof if the scan was exhaustive."""

    exhaustive: bool
    scanned: int
    budget: int


def _noncommuting_pairs(elements: Iterable[GroupElement], budget: int, membership=None
                        ) -> Iterator[Union[tuple[GroupElement, GroupElement], AbelianEvidence]]:
    """Every non-commuting pair of one scan of the filtered stream, then abelian evidence.

    Each accepted element is tested against all earlier accepted elements, so
    a pair minimizes the later element's position, then the earlier one's.
    Resumed after a pair, the scan goes on past its later element and keeps
    only the accepted elements that still pass `membership`, which the
    consumer may have narrowed meanwhile.  `budget` bounds how many stream
    elements are consumed, counted from the first; an exhausted stream yields
    a proof of abelianness, a spent budget only evidence.
    """
    if budget < 1:
        raise ParameterError("scan budget must be >= 1")
    handle: Optional[GroupHandle] = None
    accepted: list = []  # canonical forms
    scanned = 0
    exhausted = True
    for e in elements:
        if scanned >= budget:
            exhausted = False
            break
        scanned += 1
        if handle is None:
            handle = e.group
        handle._check(e)
        if membership is not None and not membership(e):
            continue
        pair = handle._family.noncommuting_pair(accepted, (e.form,))
        if pair is None:
            accepted.append(e.form)
            continue
        yield handle.element(pair[0]), e
        if membership is not None:
            accepted = [f for f in accepted if membership(handle.element(f))]
    if scanned == 0:
        raise ParameterError("element stream is empty")
    yield AbelianEvidence(exhausted, scanned, budget)


def find_noncommuting_pair(elements: Iterable[GroupElement], budget: int, membership=None
                           ) -> Union[tuple[GroupElement, GroupElement], AbelianEvidence]:
    """First non-commuting pair in enumeration order, or abelian evidence.

    The first result of `_noncommuting_pairs`, which says what the budget bounds.
    """
    return next(_noncommuting_pairs(elements, budget, membership))


def kernel_membership(g: GroupElement, kernel_set: Iterable[GroupElement]) -> bool:
    """True iff g centralizes every element of the conjugation-stable set K.

    If g fails to centralize some b in K, the stability precondition
    gamma_g(K) = K is verified before returning False; instability raises
    PreconditionError.  That proof costs 2|K| products per rejected g, so
    `_witness_levels`, whose K is stable by construction, does not call this.
    """
    ks = list(kernel_set)
    g.group._check(g, *ks)
    fam = g.group._family
    forms = [b.form for b in ks]
    if fam.noncommuting_pair((g.form,), forms) is None:
        return True
    ginv = fam.inv(g.form)
    members = set(forms)
    for c in forms:
        if fam.mul(fam.mul(g.form, c), ginv) not in members:
            raise PreconditionError(
                f"K is not stable under conjugation by {g.describe()}: "
                f"image of {fam.describe(c)} escapes"
            )
    return False


@dataclass
class WitnessLevel:
    index: int
    g: GroupElement
    h: GroupElement
    g_class: ConjugacyClass
    h_class: ConjugacyClass

    def generator_set(self) -> list[GroupElement]:
        return list(self.g_class.elements) + list(self.h_class.elements)

    def to_json(self) -> dict:
        return {
            "g": self.g.to_json(),
            "h": self.h.to_json(),
            "g_class": [e.to_json() for e in self.g_class.elements],
            "h_class": [e.to_json() for e in self.h_class.elements],
        }


@dataclass
class WitnessChecks:
    noncommuting_pairs: bool
    classes_conjugation_stable: bool
    pairwise_commuting: bool
    commutation_matrix: list[list[int]]  # checked generator pairs per (i, j)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.noncommuting_pairs and self.classes_conjugation_stable
                and self.pairwise_commuting)

    def to_json(self) -> dict:
        return {
            "noncommuting_pairs": self.noncommuting_pairs,
            "classes_conjugation_stable": self.classes_conjugation_stable,
            "pairwise_commuting": self.pairwise_commuting,
            "commutation_matrix": self.commutation_matrix,
            "failures": list(self.failures),
        }


@dataclass
class CommutingWitness:
    handle: GroupHandle
    levels: list[WitnessLevel]
    requested: int
    complete: bool
    checks: Optional[WitnessChecks]
    diagnostics: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "requested": self.requested,
            "complete": self.complete,
            "levels": [lv.to_json() for lv in self.levels],
            "checks": None if self.checks is None else self.checks.to_json(),
            "diagnostics": list(self.diagnostics),
        }


def verify_witness_levels(handle: GroupHandle, levels: list[WitnessLevel]) -> WitnessChecks:
    """Exhaustive verification of the commuting-witness invariants."""
    fam = handle._family
    gen_forms = []
    for lv in levels:
        handle._check(lv.g, lv.h, *lv.generator_set())
        gen_forms.append([e.form for e in lv.generator_set()])

    failures: list[str] = []
    noncomm = True
    for lv in levels:
        if fam.commutes(lv.g.form, lv.h.form):
            noncomm = False
            failures.append(f"level {lv.index}: g and h commute")

    stable = True
    for lv in levels:
        for cls in (lv.g_class, lv.h_class):
            members = {e.form for e in cls.elements}
            if cls.representative.form not in members:
                stable = False
                failures.append(f"level {lv.index}: representative missing from its class")
            letters = fam.alphabet_block(fam.conjugating_forms(cls.representative.form))
            conjugators = [(t, fam.inv(t)) for t in letters]
            for c in (e.form for e in cls.elements):
                for t, tinv in conjugators:
                    if fam.mul(fam.mul(t, c), tinv) not in members:
                        stable = False
                        failures.append(
                            f"level {lv.index}: class of {cls.representative.describe()} "
                            f"is not stable under {fam.describe(t)}"
                        )
                        break

    k = len(levels)
    matrix = [[0] * k for _ in range(k)]
    commuting = True
    for i, j in itertools.combinations(range(k), 2):
        for a in gen_forms[i]:
            for b in gen_forms[j]:
                if not fam.commutes(a, b):
                    commuting = False
                    failures.append(
                        f"levels {i} and {j}: [{fam.describe(a)}, {fam.describe(b)}] != e"
                    )
        matrix[i][j] = matrix[j][i] = len(gen_forms[i]) * len(gen_forms[j])
    return WitnessChecks(noncomm, stable, commuting, matrix, failures)


def _witness_levels(handle: GroupHandle, levels: list[WitnessLevel], diagnostics: list[str],
                    *, stream_budget: int, class_budget: int) -> Iterator[WitnessLevel]:
    """The commuting-subgroup recursion as one scan of the fair enumeration.

    Level n is the first non-commuting pair (g, h) among the streamed elements
    that centralize K, the union of the conjugacy classes of the earlier
    levels' pairs.  One scan finds the pairs a rescan from element 0 would:
    K only grows, so C(K) only shrinks; the elements accepted before h commute
    pairwise; and h, which does not commute with g in K, is not in C(K).
    Each level is appended to `levels` as it is yielded; the reason the
    recursion stops (stream or class budget) goes to `diagnostics`.

    Membership in C(K) is a plain commutation test, without the stability
    proof of `kernel_membership`: K is a union of whole BFS-closed classes,
    and a class that exceeds its budget ends the recursion before it joins
    K.  `verify_witness_levels` re-checks every class against the family's
    conjugating letters wherever levels are emitted (`lemma10_sequence`,
    `classify`, replay).
    """
    fam = handle._family
    fc_gate = handle.metadata.fc_all is not True
    kernel: list = []  # canonical forms
    classes: dict = {}

    def class_of(e: GroupElement) -> ConjugacyClass:
        if e.form not in classes:
            classes[e.form] = conjugacy_class(e, class_budget)
        return classes[e.form]

    def membership(e: GroupElement) -> bool:
        return fam.noncommuting_pair((e.form,), kernel) is None and not (
            fc_gate and not e.is_identity and class_of(e).exceeded)

    # one element past the budget tells a spent budget from an exhausted group
    stream = handle.iter_elements(stream_budget + 1)
    for step, found in enumerate(_noncommuting_pairs(stream, stream_budget, membership), 1):
        if isinstance(found, AbelianEvidence):
            kind = "exhaustive scan" if found.exhaustive else f"budget {found.budget}"
            diagnostics.append(f"step {step}: no non-commuting pair in the filtered stream "
                               f"({kind}, {found.scanned} elements scanned)")
            return
        g, h = found
        g_cls, h_cls = class_of(g), class_of(h)
        if g_cls.exceeded or h_cls.exceeded:
            bad = g if g_cls.exceeded else h
            diagnostics.append(f"step {step}: conjugacy class of {bad.describe()} exceeded "
                               f"budget {class_budget}; element may lie outside G^fin")
            return
        level = WitnessLevel(len(levels), g, h, g_cls, h_cls)
        levels.append(level)
        kernel.extend(e.form for e in level.generator_set())
        yield level


def lemma10_sequence(handle: GroupHandle, count: int, *,
                     stream_budget: int = DEFAULT_STREAM_BUDGET,
                     class_budget: int = DEFAULT_CLASS_BUDGET) -> CommutingWitness:
    """Produce `count` non-commuting pairs in pairwise-commuting class subgroups.

    Precondition, declared by `handle.metadata.not_abelian_by_finite`: the
    streamed elements lie in G^fin and G^fin is not abelian-by-finite.
    Budget exhaustion yields a partial witness flagged inconclusive; it never
    claims disproof.
    """
    if count < 1:
        raise ParameterError("pair count must be >= 1")
    meta = handle.metadata
    if not meta.not_abelian_by_finite:
        raise PreconditionError(
            "the construction requires G^fin not abelian-by-finite; the handle's metadata "
            "does not declare it"
        )
    levels: list[WitnessLevel] = []
    diagnostics: list[str] = []
    for _ in itertools.islice(_witness_levels(handle, levels, diagnostics,
                                              stream_budget=stream_budget,
                                              class_budget=class_budget), count):
        pass
    checks = verify_witness_levels(handle, levels) if levels else None
    return CommutingWitness(handle, levels, count, len(levels) == count, checks, diagnostics)


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassifyOptions:
    k: int = 2
    epsilon: Fraction = Fraction(1, 20)
    seed: int = 0
    closure_budget: int = DEFAULT_CLOSURE_BUDGET
    class_budget: int = DEFAULT_CLASS_BUDGET
    stream_budget: int = DEFAULT_STREAM_BUDGET
    max_levels: int = 8
    max_order: int = DEFAULT_MAX_ORDER

    def __post_init__(self):
        # thresholds must never hinge on float rounding; a float epsilon is
        # read as its decimal literal (0.05 -> 1/20)
        self.epsilon = exact_fraction(self.epsilon)
        if not 0 < self.epsilon < 1:
            raise ParameterError("epsilon must satisfy 0 < epsilon < 1")
        if type(self.k) is not int or not 1 <= self.k <= MAX_GROWTH_K:
            raise ParameterError(f"k must satisfy 1 <= k <= {MAX_GROWTH_K}")
        if type(self.seed) is not int:
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        for name in ("closure_budget", "class_budget", "stream_budget", "max_levels",
                     "max_order"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value!r}")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "epsilon": jsonutil.fraction_json(self.epsilon),
            "seed": self.seed,
            "closure_budget": self.closure_budget,
            "class_budget": self.class_budget,
            "stream_budget": self.stream_budget,
            "max_levels": self.max_levels,
            "max_order": self.max_order,
            "tolerance": 1e-9,  # a fixed field of the certificate bytes
        }

    @classmethod
    def from_json(cls, doc) -> ClassifyOptions:
        """The options `to_json` wrote, ignoring keys that name no option; ParameterError
        if `doc` holds no valid set."""
        try:
            fields = {name: doc[name] for name in cls.__dataclass_fields__}
            fields["epsilon"] = jsonutil.fraction_from_json(fields["epsilon"])
        except (KeyError, TypeError, ZeroDivisionError) as e:
            raise ParameterError(f"unreadable options ({type(e).__name__}: {e})") from None
        return cls(**fields)


@dataclass
class DichotomyCertificate:
    verdict: str  # "type_I" | "not_type_I" | "inconclusive"
    group_spec: dict
    options: ClassifyOptions
    type_i_witness: Optional[dict] = None
    commuting_witness: Optional[CommutingWitness] = None
    growth: Optional[GrowthResult] = None
    diagnostics: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "format": "groupvna-certificate/1",
            "verdict": self.verdict,
            "group_spec": self.group_spec,
            "spec_digest": jsonutil.spec_digest(self.group_spec),
            "options": self.options.to_json(),
            "type_i_witness": self.type_i_witness,
            "commuting_witness": None if self.commuting_witness is None
            else self.commuting_witness.to_json(),
            "growth": None if self.growth is None else self.growth.to_json(),
            "diagnostics": list(self.diagnostics),
        }

    def to_bytes(self) -> bytes:
        return jsonutil.canonical_dumps(self.to_json()).encode("utf-8")


def _tower_growth(levels: Iterable[WitnessLevel], opts: ClassifyOptions,
                  notes: list[str]) -> Optional[GrowthResult]:
    """The growth report of `tower_spectra` over each witness level's own closure.

    `class_data` refuses any order above `max_order`, so a level closure
    stops at `min(closure_budget, max_order)` elements.  A refusal, of a level
    or of a product of levels, or levels that do not commute, stop the
    evaluation: None, with the error's own message appended to `notes`.
    """
    limit = min(opts.closure_budget, opts.max_order)
    subgroups = (generate_closure(lv.generator_set(), limit) for lv in levels)
    try:
        return evaluate_growth(tower_spectra(subgroups, opts.closure_budget, opts.max_order),
                               opts.k, opts.epsilon, opts.max_levels)
    except (BudgetExceededError, RequiresFiniteError, ConsistencyError, PreconditionError) as e:
        notes.append(f"growth evaluation stopped: {e}")
        return None


FC_PROBES = 6  # enumerated elements whose classes the FC probe checks


def _metadata_witness_consistent(handle: GroupHandle,
                                 class_budget: int) -> tuple[bool, list[str]]:
    """Cross-check declared FC membership against the classes of the first
    FC_PROBES elements: the notes of a type_I certificate, which `classify`
    writes and replay rebuilds.  A finite group needs no probe: G^fin = G."""
    if handle.is_finite:
        return True, ["group is finite; G^fin = G"]
    meta = handle.metadata
    notes = []
    if meta.fc_member is None:
        return True, ["no exact FC-center predicate declared; skipping probe"]
    for v in fc_filter(handle, FC_PROBES, budget=class_budget):
        declared = bool(meta.fc_member(v.element.form))
        if declared and not v.is_fc:
            return False, [f"{v.element.describe()} declared in G^fin but its class "
                           f"exceeded budget {v.budget}"]
        if not declared and v.is_fc:
            return False, [f"{v.element.describe()} declared outside G^fin but has a "
                           f"finite class of size {v.class_size}"]
        notes.append(f"fc probe {v.element.describe()}: "
                     + (f"fc({v.class_size})" if v.is_fc else "not_fc_evidence")
                     + (" [declared fc]" if declared else " [declared not fc]"))
    return True, notes


_POWER_PROBES = 64


def _type_i_witness(handle: GroupHandle, class_budget: int) -> tuple[Optional[dict], str]:
    """The type_I witness `classify` cites and replay rebuilds, or None and why.

    A finite group is its own witness: the trivial subgroup has index |G|.
    Otherwise the witness is the abelian subgroup A the spec or its family
    declares, once its generators commute and it passes the power test: were
    A of index n, two of the cosets A, gA, ..., g^n A would coincide, so some
    g^j, 1 <= j <= n, would lie in A and commute with each generator of A.
    Each of the first _POWER_PROBES elements of the fair enumeration must have
    such a power, sought up to j = min(n, class_budget).  An empty generator
    list at index 1 declares A = G, so the probes must commute pairwise; at a
    larger index it declares the trivial subgroup, so the power must be e.
    """
    if handle.is_finite:
        return {"kind": "finite_group", "abelian_subgroup_generators": [], "index": handle.order,
                "note": "every finite group is abelian-by-finite (trivial subgroup)"}, ""
    w = handle.metadata.abelian_by_finite
    if w is None:
        return None, "no abelian subgroup of finite index is declared for this group"
    fam, gens = handle._family, w.generator_forms
    if fam.noncommuting_pair(gens, gens) is not None:
        return None, "declared abelian witness generators do not commute"
    probes = [g.form for g in handle.iter_elements(_POWER_PROBES)]
    if not gens and w.index == 1:
        pair = fam.noncommuting_pair(probes, probes)
        if pair is not None:
            return None, (f"declared abelian group is not abelian: {fam.describe(pair[0])} and "
                          f"{fam.describe(pair[1])} do not commute")
    else:
        max_power = min(w.index, class_budget)
        for g in probes:
            power = g
            for _ in range(max_power):
                if (fam.noncommuting_pair((power,), gens) is None if gens
                        else power == fam.identity):
                    break
                power = fam.mul(power, g)
            else:
                return None, (f"declared abelian subgroup cannot have index {w.index}: no power "
                              f"g^j of g = {fam.describe(g)}, 1 <= j <= {max_power}, "
                              + ("commutes with its generators" if gens else "is the identity"))
    return {"kind": "family_metadata", "index": w.index, "note": w.note,
            "abelian_subgroup_generators": [fam.form_to_json(f) for f in gens]}, ""


def _witness_certificate(handle: GroupHandle, opts: ClassifyOptions, levels: list[WitnessLevel],
                         growth: Optional[GrowthResult], notes: list[str]) -> DichotomyCertificate:
    """The certificate `classify` emits for the witness levels it drew and their growth.

    `notes` are the search's diagnostics.  A growth report that clears cites
    the levels it read, and the certificate is not_type_I once those levels
    pass `verify_witness_levels`; anything else is inconclusive.
    """
    found = growth is not None and growth.found
    if found:
        levels = levels[:growth.levels_required]
    checks = verify_witness_levels(handle, levels) if levels else None
    witness = CommutingWitness(handle, levels, growth.levels_required if found else opts.max_levels,
                               found, checks, notes)
    if found and checks.passed:
        return DichotomyCertificate("not_type_I", handle.spec, opts, commuting_witness=witness,
                                    growth=growth, diagnostics=list(notes))
    reason = ("witness invariant verification failed: " + "; ".join(checks.failures) if found
              else f"no growth witness within {opts.max_levels} levels; hypothesis may fail "
                   "or budgets are too small")
    return DichotomyCertificate("inconclusive", handle.spec, opts, commuting_witness=witness,
                                diagnostics=[*notes, reason])


def classify(spec, options: Optional[ClassifyOptions] = None) -> DichotomyCertificate:
    """Assemble a dichotomy certificate for one group-spec document.

    Finite groups and groups with a declared abelian-by-finite witness that
    survives the FC probe and the power test are type_I.  Otherwise the
    commuting-subgroup recursion runs level by level, attaching growth
    evidence as soon as the measure threshold is cleared; any failure mode
    folds into an inconclusive verdict with diagnostics.
    """
    opts = options or ClassifyOptions()
    handle = construct_group(spec)
    spec_doc = handle.spec
    meta = handle.metadata
    if handle.is_finite or meta.abelian_by_finite is not None:
        ok, diagnostics = _metadata_witness_consistent(handle, opts.class_budget)
        witness, reason = (_type_i_witness(handle, opts.class_budget) if ok
                           else (None, "family metadata contradicts FC evidence"))
        if witness is None:
            return DichotomyCertificate("inconclusive", spec_doc, opts,
                                        diagnostics=[*diagnostics, reason])
        return DichotomyCertificate("type_I", spec_doc, opts, type_i_witness=witness,
                                    diagnostics=diagnostics)

    if not meta.not_abelian_by_finite:
        diagnostics = ["no abelian-by-finite witness and the non-abelian-by-finite "
                       "hypothesis is not declared for this family"]
        if meta.icc:
            diagnostics.append(
                "family metadata declares G^fin = {e} (icc); the infinite-index case "
                "has no finite certificate here - run icc-check for orthonormality evidence"
            )
        return DichotomyCertificate("inconclusive", spec_doc, opts, diagnostics=diagnostics)

    levels: list[WitnessLevel] = []
    search_notes: list[str] = []
    # levels are drawn one per prefix, so the search stops at the first prefix that clears
    search = itertools.islice(_witness_levels(handle, levels, search_notes,
                                              stream_budget=opts.stream_budget,
                                              class_budget=opts.class_budget),
                              opts.max_levels)
    growth = _tower_growth(search, opts, search_notes)
    return _witness_certificate(handle, opts, levels, growth, search_notes)


# ---------------------------------------------------------------------------
# certificate replay


@dataclass
class ReplayReport:
    verdict: str
    passed: bool
    checks: list[tuple[str, bool]]
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "passed": self.passed,
            "checks": [{"name": n, "passed": ok} for n, ok in self.checks],
            "failures": list(self.failures),
        }


class _Malformed(Exception):
    """A certificate field replay cannot read; the message names the field."""


def _field(doc, *keys, parse=None):
    """doc[keys[0]][keys[1]]..., through `parse`; _Malformed names the path if either fails."""
    try:
        value = doc
        for key in keys:
            value = value[key]
        return value if parse is None else parse(value)
    except (KeyError, IndexError, TypeError, SpecError) as e:
        raise _Malformed(f"{_path(keys)}: {e}") from None


def _path(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _json_text(value) -> str:
    """`value` as JSON text with sorted keys, so that true and 1 differ; a value
    JSON cannot hold is written as its repr, so no document makes it raise."""
    return json.dumps(value, sort_keys=True, default=repr)


def _first_difference(a, b) -> tuple:
    """The keys of the first field, in sorted-key order, at which a and b differ."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return (key,)
            if _json_text(a[key]) != _json_text(b[key]):
                return (key,) + _first_difference(a[key], b[key])
    return ()


def replay_certificate(cert: dict) -> ReplayReport:
    """Rebuild the certificate `classify` would emit and compare the two whole.

    The rebuild reads the certificate's group spec, its options and, for
    not_type_I, its witness levels; it recomputes each level's classes, the
    growth report and every other field.  For type_I it re-runs the FC probe,
    whose notes are the certificate's diagnostics, and the power test.  A
    mismatch names the first differing field; a field replay cannot read
    fails the replay and is named too.  An inconclusive certificate makes no
    claims.
    """
    if not isinstance(cert, dict) or cert.get("format") != "groupvna-certificate/1":
        raise ParameterError("not a recognized certificate document")
    verdict = cert.get("verdict")
    checks: list[tuple[str, bool]] = []
    failures: list[str] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok))
        if not ok:
            failures.append(detail or name)

    try:
        rebuilt = _rebuild(cert, verdict, record)
    except _Malformed as e:
        record("certificate_readable", False, str(e))
    else:
        if rebuilt is not None:
            doc = rebuilt.to_json()
            ok = _json_text(doc) == _json_text(cert)
            record("certificate_matches", ok, "" if ok else (
                f"{_path(_first_difference(cert, doc)) or 'certificate'}: differs from the "
                "certificate classify builds from the spec, options and witness levels"))
    return ReplayReport(verdict, all(ok for _, ok in checks), checks, failures)


def _rebuild(cert: dict, verdict, record) -> Optional[DichotomyCertificate]:
    """The certificate `classify` emits for what `cert` cites, or None if there is
    nothing to compare (every failure already recorded)."""
    if verdict == "inconclusive":
        record("inconclusive_makes_no_claims", True)
        return None
    if verdict not in ("type_I", "not_type_I"):
        raise _Malformed(f"verdict: unknown verdict {verdict!r}")
    handle = _field(cert, "group_spec", parse=construct_group)
    try:
        opts = ClassifyOptions.from_json(cert.get("options"))
    except ParameterError as e:
        record("options_valid", False, f"certificate options: {e}")
        return None
    record("options_valid", True)

    if verdict == "type_I":
        ok, diagnostics = _metadata_witness_consistent(handle, opts.class_budget)
        if not ok:
            record("certificate_matches", False, f"diagnostics: {diagnostics[0]}")
            return None
        witness, reason = _type_i_witness(handle, opts.class_budget)
        if witness is None:
            record("certificate_matches", False, f"type_i_witness: {reason}")
            return None
        return DichotomyCertificate("type_I", handle.spec, opts, type_i_witness=witness,
                                    diagnostics=diagnostics)

    at = ("commuting_witness", "levels")
    levels = []
    for i in range(_field(cert, *at, parse=len)):
        g = _field(cert, *at, i, "g", parse=handle.element_from_json)
        h = _field(cert, *at, i, "h", parse=handle.element_from_json)
        classes = []
        for name, rep in (("g_class", g), ("h_class", h)):
            budget = max(DEFAULT_CLASS_BUDGET, 2 * _field(cert, *at, i, name, parse=len))
            cls = conjugacy_class(rep, budget)
            if cls.exceeded:
                record("certificate_matches", False,
                       f"{_path(at + (i, name))}: the class has more than {budget} elements")
                return None
            classes.append(cls)
        levels.append(WitnessLevel(i, g, h, *classes))
    notes: list[str] = []
    growth = _tower_growth(levels[:opts.max_levels], opts, notes)
    record("growth_closure_within_limits", growth is not None, "; ".join(notes))
    return None if growth is None else _witness_certificate(handle, opts, levels, growth, notes)
