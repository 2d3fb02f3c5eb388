"""The recursive commuting-subgroup construction and end-to-end certificates.

A not_type_I certificate exhibits pairs (g_i, h_i) with finite conjugacy
classes, the subgroups generated by those classes (pairwise commuting, each
non-abelian), and a growth witness: the factor decomposition of the closure
of the first N class unions puts measure > 1/2 - epsilon on atoms of
dimension >= 2^(2^(k-1)).  Certificates embed the group spec and replay from
JSON alone, independent of the search path that produced them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import jsonutil
from .characters import DEFAULT_MAX_ORDER
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ParameterError,
    PreconditionError,
    RequiresFiniteError,
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


def find_noncommuting_pair(
    elements: Iterable[GroupElement],
    budget: int,
    membership=None,
) -> Union[tuple[GroupElement, GroupElement], AbelianEvidence]:
    """First non-commuting pair in enumeration order, or abelian evidence.

    Scans incrementally: each accepted element is tested against all earlier
    accepted elements, so the returned pair minimizes the later element's
    position, then the earlier one's.  `budget` bounds how many stream
    elements are consumed; an exhausted stream yields a proof of abelianness,
    a spent budget only evidence.
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
        if membership is not None and not membership(e):
            continue
        if handle is None:
            handle = e.group
        handle._check(e)
        pair = handle._family.noncommuting_pair(accepted, (e.form,))
        if pair is not None:
            return handle.element(pair[0]), e
        accepted.append(e.form)
    if scanned == 0:
        raise ParameterError("element stream is empty")
    return AbelianEvidence(exhausted, scanned, budget)


def kernel_membership(g: GroupElement, kernel_set: Iterable[GroupElement]) -> bool:
    """True iff g centralizes every element of the conjugation-stable set K.

    If g fails to centralize some b in K, the stability precondition
    gamma_g(K) = K is verified before returning False; instability raises
    PreconditionError.
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
            "checks": None if self.checks is None else {
                "noncommuting_pairs": self.checks.noncommuting_pairs,
                "classes_conjugation_stable": self.checks.classes_conjugation_stable,
                "pairwise_commuting": self.checks.pairwise_commuting,
                "commutation_matrix": self.checks.commutation_matrix,
                "failures": list(self.checks.failures),
            },
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


class _Lemma10Builder:
    """Stateful recursion of the commuting-subgroup construction.

    Each step scans the fair enumeration filtered by kernel membership
    against K (the union of all classes chosen so far), picks the first
    non-commuting pair, and adds both conjugacy classes to K.
    """

    def __init__(self, handle: GroupHandle, *, stream_budget: int, class_budget: int,
                 fc_gate: bool):
        self.handle = handle
        self.stream_budget = stream_budget
        self.class_budget = class_budget
        self.fc_gate = fc_gate
        self.kernel: list[GroupElement] = []
        self.levels: list[WitnessLevel] = []
        self.diagnostics: list[str] = []
        self._fc_cache: dict = {}

    def _membership(self, e: GroupElement) -> bool:
        if not kernel_membership(e, self.kernel):
            return False
        if self.fc_gate and not e.is_identity:
            cls = self._class_of(e)
            if cls.exceeded:
                return False
        return True

    def _class_of(self, e: GroupElement) -> ConjugacyClass:
        cached = self._fc_cache.get(e.form)
        if cached is None:
            cached = conjugacy_class(e, self.class_budget)
            self._fc_cache[e.form] = cached
        return cached

    def add_level(self) -> Optional[WitnessLevel]:
        # one element past the budget tells a spent budget from an exhausted group
        result = find_noncommuting_pair(self.handle.iter_elements(self.stream_budget + 1),
                                        self.stream_budget, membership=self._membership)
        if isinstance(result, AbelianEvidence):
            kind = "exhaustive scan" if result.exhaustive else f"budget {result.budget}"
            self.diagnostics.append(
                f"step {len(self.levels) + 1}: no non-commuting pair in the filtered "
                f"stream ({kind}, {result.scanned} elements scanned)"
            )
            return None
        g, h = result
        g_cls = self._class_of(g)
        h_cls = self._class_of(h)
        if g_cls.exceeded or h_cls.exceeded:
            bad = g if g_cls.exceeded else h
            self.diagnostics.append(
                f"step {len(self.levels) + 1}: conjugacy class of {bad.describe()} "
                f"exceeded budget {self.class_budget}; element may lie outside G^fin"
            )
            return None
        level = WitnessLevel(len(self.levels), g, h, g_cls, h_cls)
        self.levels.append(level)
        self.kernel.extend(level.generator_set())
        return level


def lemma10_sequence(handle: GroupHandle, count: int, *,
                     stream_budget: int = DEFAULT_STREAM_BUDGET,
                     class_budget: int = DEFAULT_CLASS_BUDGET,
                     assert_hypothesis: bool = False) -> CommutingWitness:
    """Produce `count` non-commuting pairs in pairwise-commuting class subgroups.

    Precondition (family metadata, or `assert_hypothesis=True` from the
    caller): the streamed elements lie in G^fin and G^fin is not
    abelian-by-finite.  Budget exhaustion yields a partial witness flagged
    inconclusive; it never claims disproof.
    """
    if count < 1:
        raise ParameterError("pair count must be >= 1")
    meta = handle.metadata
    if not (meta.not_abelian_by_finite or assert_hypothesis):
        raise PreconditionError(
            "the construction requires G^fin not abelian-by-finite; the family does not "
            "declare it and the caller did not assert it"
        )
    builder = _Lemma10Builder(handle, stream_budget=stream_budget,
                              class_budget=class_budget,
                              fc_gate=meta.fc_all is not True)
    complete = True
    for _ in range(count):
        if builder.add_level() is None:
            complete = False
            break
    checks = verify_witness_levels(handle, builder.levels) if builder.levels else None
    return CommutingWitness(handle, builder.levels, count, complete, checks,
                            builder.diagnostics)


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
        for name in ("closure_budget", "max_order"):
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


def _growth_refusal(opts: ClassifyOptions, n_levels: int) -> str:
    limit, name = ((opts.max_order, "max_order") if opts.max_order <= opts.closure_budget
                   else (opts.closure_budget, "closure_budget"))
    return f"the closure of {n_levels} levels has more than {name} = {limit} elements"


def _growth_spectra(levels: Iterable[WitnessLevel], opts: ClassifyOptions):
    """`tower_spectra` over each witness level's own closure.

    `class_data` refuses any order above `max_order`, so a level closure
    stops at `min(closure_budget, max_order)` elements; every refusal, of a
    level or of a product of levels, is a BudgetExceededError or a
    RequiresFiniteError (`_growth_refusal` words it).
    """
    limit = min(opts.closure_budget, opts.max_order)
    subgroups = (generate_closure(lv.generator_set(), limit) for lv in levels)
    return tower_spectra(subgroups, opts.closure_budget, opts.max_order)


def _metadata_witness_consistent(handle: GroupHandle, probe: int,
                                 class_budget: int) -> tuple[bool, list[str]]:
    """Cross-check declared FC membership against budgeted class evidence."""
    meta = handle.metadata
    notes = []
    if meta.fc_member is None:
        return True, ["no exact FC-center predicate declared; skipping probe"]
    for v in fc_filter(handle, probe, budget=class_budget):
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


def classify(spec, options: Optional[ClassifyOptions] = None) -> DichotomyCertificate:
    """Assemble a dichotomy certificate for one group-spec document.

    Finite groups and groups with a declared abelian-by-finite witness are
    type_I.  Otherwise the commuting-subgroup recursion runs level by level,
    attaching growth evidence as soon as the measure threshold is cleared; any
    failure mode folds into an inconclusive verdict with diagnostics.
    """
    opts = options or ClassifyOptions()
    handle = construct_group(spec)
    spec_doc = handle.spec
    diagnostics: list[str] = []

    if handle.is_finite:
        witness = {
            "kind": "finite_group",
            "abelian_subgroup_generators": [],
            "index": handle.order,
            "note": "every finite group is abelian-by-finite (trivial subgroup)",
        }
        return DichotomyCertificate("type_I", spec_doc, opts, type_i_witness=witness,
                                    diagnostics=["group is finite; G^fin = G"])

    meta = handle.metadata
    if meta.abelian_by_finite is not None:
        ok, notes = _metadata_witness_consistent(handle, probe=6,
                                                 class_budget=opts.class_budget)
        diagnostics.extend(notes)
        if not ok:
            diagnostics.append("family metadata contradicts FC evidence")
            return DichotomyCertificate("inconclusive", spec_doc, opts,
                                        diagnostics=diagnostics)
        w = meta.abelian_by_finite
        if handle._family.noncommuting_pair(w.generator_forms, w.generator_forms) is not None:
            diagnostics.append("declared abelian witness generators do not commute")
            return DichotomyCertificate("inconclusive", spec_doc, opts, diagnostics=diagnostics)
        gens = [handle.element(f) for f in w.generator_forms]
        witness = {
            "kind": "family_metadata",
            "abelian_subgroup_generators": [g.to_json() for g in gens],
            "index": w.index,
            "note": w.note,
        }
        return DichotomyCertificate("type_I", spec_doc, opts, type_i_witness=witness,
                                    diagnostics=diagnostics)

    if not meta.not_abelian_by_finite:
        diagnostics.append(
            "no abelian-by-finite witness and the non-abelian-by-finite hypothesis "
            "is not declared for this family"
        )
        if meta.icc:
            diagnostics.append(
                "family metadata declares G^fin = {e} (icc); the infinite-index case "
                "has no finite certificate here - run icc-check for orthonormality evidence"
            )
        return DichotomyCertificate("inconclusive", spec_doc, opts, diagnostics=diagnostics)

    builder = _Lemma10Builder(handle, stream_budget=opts.stream_budget,
                              class_budget=opts.class_budget,
                              fc_gate=meta.fc_all is not True)

    def witness_levels():
        # one more witness level per prefix, so the first prefix that clears is kept
        while len(builder.levels) < opts.max_levels and builder.add_level() is not None:
            yield builder.levels[-1]

    growth: Optional[GrowthResult] = None
    try:
        growth = evaluate_growth(_growth_spectra(witness_levels(), opts), opts.k, opts.epsilon,
                                 opts.max_levels)
    except (BudgetExceededError, RequiresFiniteError):
        builder.diagnostics.append(
            f"growth evaluation stopped: {_growth_refusal(opts, len(builder.levels))}")
    except (ConsistencyError, PreconditionError) as e:
        builder.diagnostics.append(f"growth evaluation stopped: {type(e).__name__}: {e}")
    diagnostics.extend(builder.diagnostics)

    if growth is None or not growth.found:
        diagnostics.append(
            f"no growth witness within {opts.max_levels} levels; hypothesis may fail "
            f"or budgets are too small"
        )
        witness = CommutingWitness(handle, builder.levels, opts.max_levels, False,
                                   verify_witness_levels(handle, builder.levels)
                                   if builder.levels else None,
                                   builder.diagnostics)
        return DichotomyCertificate("inconclusive", spec_doc, opts,
                                    commuting_witness=witness, diagnostics=diagnostics)

    checks = verify_witness_levels(handle, builder.levels)
    witness = CommutingWitness(handle, builder.levels, growth.levels_required, True,
                               checks, builder.diagnostics)
    if not checks.passed:
        diagnostics.append("witness invariant verification failed: " + "; ".join(checks.failures))
        return DichotomyCertificate("inconclusive", spec_doc, opts,
                                    commuting_witness=witness, diagnostics=diagnostics)
    return DichotomyCertificate("not_type_I", spec_doc, opts,
                                commuting_witness=witness, growth=growth,
                                diagnostics=diagnostics)


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


def replay_certificate(cert: dict) -> ReplayReport:
    """Re-run every check a certificate claims, from its serialized form alone.

    Growth thresholds and size limits are taken from the certificate's
    options, never read from its growth report.
    """
    if cert.get("format") != "groupvna-certificate/1":
        raise ParameterError("not a recognized certificate document")
    verdict = cert["verdict"]
    handle = construct_group(cert["group_spec"])
    fam = handle._family
    checks: list[tuple[str, bool]] = []
    failures: list[str] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok))
        if not ok:
            failures.append(detail or name)

    record("spec_digest_matches", cert.get("spec_digest") == jsonutil.spec_digest(handle.spec),
           "spec_digest does not match the embedded group spec")

    if verdict == "type_I":
        w = cert["type_i_witness"]
        forms = [handle.element_from_json(f).form for f in w["abelian_subgroup_generators"]]
        record("witness_generators_commute", fam.noncommuting_pair(forms, forms) is None,
               "witness generators do not commute")
        if w["kind"] == "finite_group":
            record("index_matches_order", handle.is_finite and w["index"] == handle.order,
                   "declared index does not equal the group order")
        else:
            m = handle.metadata.abelian_by_finite
            ok = (m is not None and m.index == w["index"]
                  and list(m.generator_forms) == forms)
            record("matches_family_metadata", ok,
                   "witness does not match the family's declared structure")
    elif verdict == "not_type_I":
        witness = cert["commuting_witness"]
        levels = []
        for lv_idx, lv in enumerate(witness["levels"]):
            g = handle.element_from_json(lv["g"])
            h = handle.element_from_json(lv["h"])
            record(f"level{lv_idx}_noncommuting", not fam.commutes(g.form, h.form),
                   f"level {lv_idx}: pair commutes")
            for name, rep_el in (("g", g), ("h", h)):
                claimed = {handle.element_from_json(f).form for f in lv[f"{name}_class"]}
                cls = conjugacy_class(rep_el, max(DEFAULT_CLASS_BUDGET, 2 * len(claimed)))
                ok = (not cls.exceeded
                      and {e.form for e in cls.elements} == claimed)
                record(f"level{lv_idx}_{name}_class_exact", ok,
                       f"level {lv_idx}: serialized class of {name} is not the computed class")
            levels.append(WitnessLevel(
                lv_idx, g, h,
                ConjugacyClass(g, tuple(handle.element_from_json(f) for f in lv["g_class"]),
                               DEFAULT_CLASS_BUDGET),
                ConjugacyClass(h, tuple(handle.element_from_json(f) for f in lv["h_class"]),
                               DEFAULT_CLASS_BUDGET),
            ))
        wchecks = verify_witness_levels(handle, levels)
        record("witness_invariants", wchecks.passed, "; ".join(wchecks.failures))

        g = cert["growth"]
        n_req = g["levels_required"]
        in_range = isinstance(n_req, int) and 1 <= n_req <= len(levels)
        record("levels_required_in_range", in_range,
               f"levels_required {n_req} is not between 1 and {len(levels)}")
        o = cert["options"]
        try:
            opts = ClassifyOptions(k=o["k"], epsilon=jsonutil.fraction_from_json(o["epsilon"]),
                                   closure_budget=o.get("closure_budget"),
                                   max_order=o.get("max_order"))
            record("options_valid", True)
        except (ParameterError, TypeError, KeyError, ValueError, ZeroDivisionError) as e:
            opts = None
            record("options_valid", False, f"certificate options: {e}")
        prefix = None
        if in_range and opts is not None:
            try:
                # the measure at exactly n_req levels, even if a shorter prefix clears
                *_, prefix = _growth_spectra(levels[:n_req], opts)
                record("growth_closure_within_limits", True)
            except (BudgetExceededError, RequiresFiniteError):
                record("growth_closure_within_limits", False, _growth_refusal(opts, n_req))
            except PreconditionError as e:
                record("growth_levels_commute", False, str(e))
        if prefix is not None:
            growth = evaluate_growth([prefix], opts.k, opts.epsilon, n_req)
            claims = (g["k"], g["dim_threshold"], jsonutil.fraction_from_json(g["epsilon"]),
                      jsonutil.fraction_from_json(g["measure_threshold"]))
            derived = (opts.k, growth.dim_threshold, opts.epsilon, growth.measure_threshold)
            record("growth_thresholds_match_options", claims == derived,
                   "growth report (k, dim, epsilon, measure) thresholds "
                   f"({', '.join(map(str, claims))}) differ from "
                   f"({', '.join(map(str, derived))}) derived from the options")
            measure = growth.history[0][2]
            claimed = jsonutil.fraction_from_json(g["achieved_measure"])
            record("growth_measure_matches", measure == claimed,
                   f"recomputed measure {measure} != claimed {claimed}")
            record("growth_measure_clears_threshold", growth.found,
                   f"measure {measure} does not exceed {growth.measure_threshold}")
    else:
        record("inconclusive_makes_no_claims", True)

    return ReplayReport(verdict, all(ok for _, ok in checks), checks, failures)


