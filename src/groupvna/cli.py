"""Command-line front door: parse group specs, dispatch verifiers, emit reports.

Exit codes: 0 pass/success, 1 verification failure, 2 usage error (including
malformed specs and commands inapplicable to the spec's family), 3
inconclusive.  Reports go to stdout (text or JSON with identical numeric
content); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
import time
from fractions import Fraction
from typing import Iterable

from . import jsonutil
from .characters import character_table, class_data
from .dichotomy import (
    DEFAULT_STREAM_BUDGET,
    ClassifyOptions,
    classify,
    lemma10_sequence,
    replay_certificate,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DegenerateSpectrumError,
    DomainMismatchError,
    ParameterError,
    PreconditionError,
    RequiresFiniteError,
    SpecError,
    UnsupportedFamilyError,
)
from .fc_center import DEFAULT_CLASS_BUDGET, fc_filter
from .groups import (
    DEFAULT_CLOSURE_BUDGET,
    GroupHandle,
    Subgroup,
    closure_within,
    construct_group,
    coordinate_subgroup,
    factor_subgroup,
)
from .vn_spectrum import (
    factor_spectrum,
    growth_search,
    icc_orthonormality_check,
    nonabelian_measure,
    product_projection_spectrum,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_HEADER_NOTE = ("supported groups are families with decidable canonical forms; "
                "FC and abelian-by-finite hypotheses beyond these families must be "
                "declared in spec metadata")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from e


@functools.cache  # parsing leaves the parser unchanged, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupvna",
        description="Factor spectra of group von Neumann algebra pieces S(H), "
                    "quantitative lemma verifiers, and type-I dichotomy certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="path to a group-spec JSON document")
        p.add_argument("--budget", type=int, default=DEFAULT_CLOSURE_BUDGET,
                       help="subgroup-closure element budget (default 10^6)")
        p.add_argument("--class-budget", type=int, default=DEFAULT_CLASS_BUDGET,
                       help="per-conjugacy-class orbit budget (default 10^4)")
        p.add_argument("--epsilon", type=_parse_fraction, default=Fraction(1, 20),
                       help="slack in the measure threshold 1/2 - epsilon (default 1/20)")
        p.add_argument("--k", type=int, default=2,
                       help="growth level (dimension threshold 2^(2^(k-1))) or pair count")
        p.add_argument("--seed", type=int, default=0, help="oracle RNG seed (default 0)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = common(sub.add_parser("classify", help="end-to-end dichotomy certificate"))
    p.add_argument("--max-levels", type=int, default=ClassifyOptions.max_levels)
    p.add_argument("--stream-budget", type=int, default=DEFAULT_STREAM_BUDGET)

    common(sub.add_parser("spectrum", help="factor spectrum of S(H) for a finite group"))
    common(sub.add_parser("chartab", help="character table"))
    common(sub.add_parser("lemma6", help="non-abelian measure bound mu(B) >= 1/2"))

    p = common(sub.add_parser("lemma7", help="product projection spectrum verifier"))
    p.add_argument("--n0", type=int, default=2)
    p.add_argument("--n1", type=int, default=2)
    p.add_argument("--h0", help="JSON list of canonical forms generating H0 "
                               "(default: first factor of a product spec)")
    p.add_argument("--h1", help="JSON list of canonical forms generating H1")

    p = common(sub.add_parser("growth", help="dimension growth over a commuting tower"))
    p.add_argument("--levels", type=int, default=5, help="tower size cap (default 5)")

    p = common(sub.add_parser("lemma10", help="recursive commuting-subgroup witness"))
    p.add_argument("--stream-budget", type=int, default=DEFAULT_STREAM_BUDGET)

    p = common(sub.add_parser("fc", help="FC-center verdicts for enumerated elements"))
    p.add_argument("--count", type=int, default=10)

    p = common(sub.add_parser("icc-check", help="orthonormality of unitaries in an icc group"))
    p.add_argument("--count", type=int, default=25)

    return parser


# ---------------------------------------------------------------------------
# rendering


def _scalar_list(x) -> bool:
    return type(x) is list and not any(isinstance(y, (dict, list)) for y in x)


def _scalars(x: list) -> str:
    return ', '.join(map(str, x)) if x else '[]'


def _render_scalar_lists(items: tuple, indent: str, lines: list[str], key: str) -> bool:
    """Render a list given by its element texts as one line per element, if every
    element is a list of scalars (a character table's [re, im] values); each
    distinct text is decoded and formatted once."""
    distinct = list(dict.fromkeys(items))
    decoded = json.loads(f"[{','.join(distinct)}]")
    if not all(map(_scalar_list, decoded)):
        return False
    shown = dict(zip(distinct, map(_scalars, decoded)))
    _render_items(map(shown.__getitem__, items), len(items), indent, lines, key)
    return True


def _render_items(texts: Iterable[str], n: int, indent: str, lines: list[str], key: str):
    """A list of n elements given by their one-line texts: its key line, then
    one "[i]: text" line per element."""
    if key:
        lines.append(f"{indent}{key}:")
    lines.extend(map(operator.add, _item_prefixes(indent, n), texts))


@functools.lru_cache(maxsize=8)
def _item_prefixes(indent: str, n: int) -> tuple[str, ...]:
    """The "[i]: " line prefixes of an n-element list, shared by every row of a table."""
    return tuple(f"{indent}  [{i}]: " for i in range(n))


def _render_value(v, indent: str, lines: list[str], key: str = ""):
    label = f"{key}: " if key else ""
    if isinstance(v, jsonutil.Fragment):
        if v.items and _render_scalar_lists(v.items, indent, lines, key):
            return
        v = json.loads(v.text)
    if isinstance(v, dict):
        if set(v.keys()) == {"num", "den"}:
            lines.append(f"{indent}{label}{v['num']}/{v['den']}")
            return
        if key:
            lines.append(f"{indent}{key}:")
        for k in v:
            _render_value(v[k], indent + "  ", lines, k)
    elif isinstance(v, list):
        if not v:
            lines.append(f"{indent}{label}[]")
        elif all(not isinstance(x, (dict, list)) for x in v):
            lines.append(f"{indent}{label}{', '.join(map(str, v))}")
        elif all(map(_scalar_list, v)):
            _render_items(map(_scalars, v), len(v), indent, lines, key)
        else:
            if key:
                lines.append(f"{indent}{key}:")
            for i, x in enumerate(v):
                _render_value(x, indent + "  ", lines, f"[{i}]")
    else:
        lines.append(f"{indent}{label}{v}")


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(jsonutil.canonical_dumps(report))
        return
    lines = [f"groupvna {report['command']} report"]
    lines.append(f"note: {_HEADER_NOTE}")
    for k in ("group", "spec_digest", "pass", "summary"):
        if k in report:
            lines.append(f"{k}: {report[k]}")
    _render_value(report.get("options", {}), "", lines, "options")
    _render_value(report.get("results", {}), "", lines, "results")
    if "wall_time_ms" in report:
        lines.append(f"wall_time_ms: {report['wall_time_ms']}")
    print("\n".join(lines))


def _report_skeleton(command: str, handle: GroupHandle, args, results: dict,
                     passed: bool, summary: str) -> dict:
    return {
        "command": command,
        "note": _HEADER_NOTE,
        "group": handle.describe(),
        "spec_digest": jsonutil.spec_digest(handle.spec),
        "options": {
            "budget": args.budget,
            "class_budget": args.class_budget,
            "epsilon": jsonutil.fraction_json(args.epsilon),
            "k": args.k,
            "seed": args.seed,
        },
        "results": results,
        "pass": passed,
        "summary": summary,
    }


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read spec file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file {path} is not valid JSON: {e}") from e
    except ValueError as e:  # undecodable text, or an integer past the int-string limit
        raise SpecError(f"spec file {path} cannot be read: {e}") from e
    except RecursionError as e:
        raise SpecError(f"spec file {path} is nested too deeply to parse") from e


def _subgroup_from_arg(handle: GroupHandle, raw: str, budget: int, flag: str) -> Subgroup:
    try:
        forms = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SpecError(f"{flag}: subgroup generators are not valid JSON: {e}") from e
    except RecursionError as e:
        raise SpecError(f"{flag}: subgroup generators are nested too deeply to parse") from e
    if not isinstance(forms, list) or not forms:
        raise SpecError(f"{flag}: subgroup generators must be a nonempty JSON list of "
                        "canonical forms")
    try:
        gens = [handle.element_from_json(f) for f in forms]
    except SpecError as e:
        raise SpecError(f"{flag} {e}") from e
    return closure_within(gens, budget)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_classify(args, handle: GroupHandle):
    opts = ClassifyOptions(
        k=args.k, epsilon=args.epsilon, seed=args.seed,
        closure_budget=args.budget, class_budget=args.class_budget,
        stream_budget=args.stream_budget, max_levels=args.max_levels,
    )
    cert = classify(handle.spec, opts)
    replay = replay_certificate(cert.to_json())
    results = {"certificate": cert.to_json(), "replay": replay.to_json()}
    if cert.verdict == "inconclusive":
        return results, EXIT_INCONCLUSIVE, "inconclusive: " + "; ".join(cert.diagnostics[-1:])
    passed = replay.passed
    code = EXIT_PASS if passed else EXIT_FAIL
    return results, code, f"verdict {cert.verdict}; certificate replay {'passed' if passed else 'FAILED'}"


def _cmd_spectrum(args, handle: GroupHandle):
    spectrum = factor_spectrum(handle)
    return {"spectrum": spectrum.to_json()}, EXIT_PASS, (
        f"{len(spectrum.atoms)} atoms; measures sum to 1 exactly")


def _cmd_chartab(args, handle: GroupHandle):
    table = character_table(class_data(handle))
    report = table.orthogonality  # character_table raises rather than return a failed report
    results = {
        "table": table.to_json(),
        "orthogonality": {
            "max_row_residual": report.max_row_residual,
            "max_col_residual": report.max_col_residual,
            "exact": report.exact,
        },
    }
    return results, EXIT_PASS, (
        f"{len(table.rows)} irreducible characters in Q(zeta_{table.class_data.exponent}); "
        f"orthogonality residuals {report.max_row_residual:.3e}/{report.max_col_residual:.3e}")


def _cmd_lemma6(args, handle: GroupHandle):
    measure = nonabelian_measure(handle)
    abelian = measure == 0
    holds = abelian or measure >= Fraction(1, 2)
    results = {
        "nonabelian_measure": jsonutil.fraction_json(measure),
        "abelian": abelian,
        "bound_holds": holds,
    }
    code = EXIT_PASS if holds else EXIT_FAIL
    summary = ("group is abelian; bound vacuous" if abelian
               else f"measure {measure} {'>= 1/2' if holds else '< 1/2 (FAIL)'}")
    return results, code, summary


def _cmd_lemma7(args, handle: GroupHandle):
    if args.h0 is not None and args.h1 is not None:
        h0 = _subgroup_from_arg(handle, args.h0, args.budget, "--h0")
        h1 = _subgroup_from_arg(handle, args.h1, args.budget, "--h1")
    elif handle.family == "product" and len(handle.spec["factors"]) == 2:
        h0 = factor_subgroup(handle, 0, args.budget)
        h1 = factor_subgroup(handle, 1, args.budget)
    else:
        raise SpecError("lemma7 needs --h0/--h1 generator lists unless the spec is a "
                        "two-factor product")
    report = product_projection_spectrum(
        h0, h1, args.n0, args.n1, seed=args.seed,
        closure_budget=args.budget,
    )
    code = EXIT_PASS if report.passed else EXIT_FAIL
    dims = sorted({d for _, d, _ in report.supported_atoms})
    return {"lemma7": report.to_json()}, code, (
        f"supported atom dimensions {dims or '[]'} vs threshold {report.threshold}; "
        f"{'pass' if report.passed else 'FAIL'}")


def _cmd_growth(args, handle: GroupHandle):
    if handle.family == "restricted_sum":
        level, cap = coordinate_subgroup, args.levels
    elif handle.family == "product":
        level, cap = factor_subgroup, min(args.levels, len(handle.spec["factors"]))
    else:
        raise SpecError("growth needs a commuting tower; supported specs: "
                        "restricted_sum (coordinate subgroups) or product (factors)")
    # one level at a time: the search stops building at the first prefix that clears
    tower = (level(handle, i, args.budget) for i in range(cap))
    result = growth_search(tower, k=args.k, epsilon=args.epsilon,
                           closure_budget=args.budget, cap=cap)
    results = {"growth": result.to_json()}
    if result.found:
        return results, EXIT_PASS, (
            f"N = {result.levels_required} reaches measure {result.achieved_measure} "
            f"> {result.measure_threshold} at dimension >= {result.dim_threshold}")
    return results, EXIT_INCONCLUSIVE, (
        f"no witness within cap {result.cap} (dimension >= {result.dim_threshold})")


def _cmd_lemma10(args, handle: GroupHandle):
    witness = lemma10_sequence(handle, args.k, stream_budget=args.stream_budget,
                               class_budget=args.class_budget)
    results = {"witness": witness.to_json()}
    if not witness.complete:
        return results, EXIT_INCONCLUSIVE, (
            f"only {len(witness.levels)} of {args.k} pairs found; " +
            "; ".join(witness.diagnostics))
    passed = witness.checks is not None and witness.checks.passed
    code = EXIT_PASS if passed else EXIT_FAIL
    return results, code, (
        f"{len(witness.levels)} pairs; invariant checks "
        f"{'passed' if passed else 'FAILED'}")


def _cmd_fc(args, handle: GroupHandle):
    verdicts = fc_filter(handle, args.count, budget=args.class_budget)
    results = {
        "verdicts": [
            {
                "element": v.element.to_json(),
                "describe": v.element.describe(),
                "verdict": v.kind,
                "class_size": v.class_size,
                "budget": v.budget,
            }
            for v in verdicts
        ],
        "fc_center_note": handle.metadata.fc_center_note,
    }
    n_fc = sum(1 for v in verdicts if v.is_fc)
    summary = f"{n_fc} of {len(verdicts)} tested elements have certified finite classes"
    # a finite class proves membership in G^fin; an exhausted budget is evidence only
    member = handle.metadata.fc_member
    refuted = [v for v in verdicts if v.is_fc and member is not None and not member(v.element.form)]
    if refuted:
        return results, EXIT_FAIL, (
            f"{summary}; {refuted[0].element.describe()} is declared outside G^fin but has a "
            f"finite class of size {refuted[0].class_size}")
    return results, EXIT_PASS, summary


def _cmd_icc(args, handle: GroupHandle):
    report = icc_orthonormality_check(handle, args.count, class_budget=args.class_budget)
    code = EXIT_PASS if report.passed else EXIT_FAIL
    return {"icc": report.to_json()}, code, (
        f"Gram matrix of {report.sample_size} unitaries is "
        f"{'exactly the identity' if report.passed else 'NOT the identity'}")


_COMMANDS = {
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "chartab": _cmd_chartab,
    "lemma6": _cmd_lemma6,
    "lemma7": _cmd_lemma7,
    "growth": _cmd_growth,
    "lemma10": _cmd_lemma10,
    "fc": _cmd_fc,
    "icc-check": _cmd_icc,
}


def run(argv: list[str]) -> int:
    """Execute one command; report on stdout, diagnostics on stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    started = time.monotonic()
    try:
        spec = _load_spec(args.spec)
        handle = construct_group(spec)
        results, code, summary = _COMMANDS[args.command](args, handle)
    except (SpecError, UnsupportedFamilyError, RequiresFiniteError, ParameterError,
            PreconditionError, DomainMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConsistencyError, DegenerateSpectrumError, BudgetExceededError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_FAIL
    report = _report_skeleton(args.command, handle, args, results,
                              code == EXIT_PASS, summary)
    report["wall_time_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    _emit(report, args.format)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
