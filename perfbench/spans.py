"""Span and counter recording around the program's layers, from outside.

Tracing replaces a function under every name that callers look it up by
(each ``groupvna.*`` module global bound to it, a class attribute, or a numpy
attribute) with a wrapper that records a span or bumps a counter, and puts
the originals back afterwards.  Nothing in the program changes.

A span is (name, start, end, parent, job).  A layer's self time is its
spans' durations minus the part covered by their child spans, each job's
share scaled by that job's machine-speed factor (see run.py).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from groupvna import characters, cli, cyclotomic, dichotomy, fc_center, groups, modp, vn_spectrum
from groupvna.errors import BudgetExceededError


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.job = ""
        self.scale: dict[str, float] = {}  # job -> machine-speed factor
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, job) in enumerate(self.spans):
            out[name] += ((end - start) - covered[i]) * self.scale.get(job, 1.0)
        return out

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]


# ---------------------------------------------------------------------------
# what gets wrapped


def _closure_size(rec, result):
    rec.counts["groups.closure_elements"] += result.order


def _closure_refused(rec, exc):
    if isinstance(exc, BudgetExceededError):
        rec.counts["groups.closure_elements"] += exc.partial_count


def _orbit(rec, result):
    rec.counts["fc_center.class_calls"] += 1
    if result.exceeded:
        rec.counts["fc_center.budget_hits"] += 1
        rec.counts["fc_center.orbit_elements"] += result.partial_count
    else:
        rec.counts["fc_center.orbit_elements"] += result.size


def _classes(rec, result):
    r = len(result.classes)
    rec.counts["characters.classes"] += r
    rec.counts["characters.structure_constant_cells"] += r ** 3


def _validation(rec, result):
    rec.counts["characters.validate_exact_calls" if result.exact
               else "characters.validate_float_calls"] += 1


def _attempts(rec, result):
    rec.counts["vn_spectrum.oracle_attempts"] += result.attempts


def _called(counter):
    def note(rec, result):
        rec.counts[counter] += 1
    return note


# (owner, attribute, span name, result hook, error hook).  Besides the owner's
# attribute, every groupvna module global bound to the same function is
# replaced; for a class, only the class attribute.
SPANS = [
    (groups, "generate_closure", "groups.closure", _closure_size, _closure_refused),
    (groups.GroupHandle, "_extend_enumeration", "groups.enumerate", None, None),
    (groups, "construct_group", "groups.construct", None, None),
    (fc_center, "conjugacy_class", "fc_center.class", _orbit, None),
    (characters, "class_data", "characters.class_data", _classes, None),
    (characters, "character_table", "characters.table", None, None),
    (characters, "validate_orthogonality", "characters.validate", _validation, None),
    (modp, "charpoly_mod", "modp.charpoly", _called("modp.charpoly_calls"), None),
    (modp, "nullspace_mod", "modp.nullspace", _called("modp.nullspace_calls"), None),
    (modp, "rref_mod", "modp.rref", None, None),
    (modp, "poly_roots_mod", "modp.roots", None, None),
    (vn_spectrum.RegularRep, "__init__", "vn_spectrum.regular_rep", None, None),
    (vn_spectrum, "numerical_decomposition", "vn_spectrum.oracle", _attempts, None),
    (np.linalg, "svd", "vn_spectrum.svd", None, None),
    (np.linalg, "eigh", "vn_spectrum.eigh", None, None),
    (np, "einsum", "vn_spectrum.einsum", _called("vn_spectrum.einsum_calls"), None),
    (np.linalg, "norm", "vn_spectrum.norm", None, None),
    (vn_spectrum, "central_projection", "vn_spectrum.central_projection", None, None),
    (vn_spectrum.AlgebraElement, "__mul__", "vn_spectrum.algebra_mul", None, None),
    (vn_spectrum, "product_projection_spectrum", "vn_spectrum.lemma7", None, None),
    (vn_spectrum, "factor_spectrum", "vn_spectrum.factor_spectrum", None, None),
    (vn_spectrum, "growth_search", "vn_spectrum.growth", None, None),
    (dichotomy, "classify", "dichotomy.classify", None, None),
    (dichotomy, "replay_certificate", "dichotomy.replay", None, None),
    (dichotomy, "lemma10_sequence", "dichotomy.lemma10", None, None),
    (dichotomy, "verify_witness_levels", "dichotomy.verify_witness", None, None),
    (cli, "run", "cli.run", None, None),
]

# (owner, attributes sharing one function, counter name)
COUNTS = [
    (cyclotomic.Cyclo, ("__mul__", "__rmul__"), "cyclotomic.mul_calls"),
    (cyclotomic.Cyclo, ("__add__", "__radd__"), "cyclotomic.add_calls"),
    (dichotomy, ("kernel_membership",), "dichotomy.kernel_membership_calls"),
]

# Per-layer metrics reported by a traced run: "<span>_s" self times and the
# counters above, in this order.
METRICS = [
    "groups.closure_s", "groups.closure_elements", "groups.enumerate_s", "groups.construct_s",
    "fc_center.class_s", "fc_center.class_calls", "fc_center.orbit_elements",
    "fc_center.budget_hits",
    "characters.class_data_s", "characters.classes", "characters.structure_constant_cells",
    "characters.table_s", "characters.validate_s", "characters.validate_exact_calls",
    "characters.validate_float_calls",
    "modp.charpoly_s", "modp.charpoly_calls", "modp.nullspace_s", "modp.nullspace_calls",
    "modp.rref_s", "modp.roots_s",
    "cyclotomic.mul_calls", "cyclotomic.add_calls",
    "vn_spectrum.regular_rep_s", "vn_spectrum.oracle_s", "vn_spectrum.oracle_attempts",
    "vn_spectrum.svd_s", "vn_spectrum.eigh_s", "vn_spectrum.einsum_s",
    "vn_spectrum.einsum_calls", "vn_spectrum.norm_s", "vn_spectrum.central_projection_s",
    "vn_spectrum.algebra_mul_s", "vn_spectrum.lemma7_s", "vn_spectrum.factor_spectrum_s",
    "vn_spectrum.growth_s",
    "dichotomy.classify_s", "dichotomy.replay_s", "dichotomy.lemma10_s",
    "dichotomy.stream_scanned", "dichotomy.kernel_membership_calls",
    "dichotomy.verify_witness_s",
    "cli.run_s",
]


def _span_wrapper(rec, fn, name, on_result, on_error):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.leave(idx)
            if on_error is not None:
                on_error(rec, exc)
            raise
        rec.leave(idx)
        if on_result is not None:
            on_result(rec, result)
        return result
    return wrapper


def _count_wrapper(rec, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _scan_wrapper(rec, fn):
    """find_noncommuting_pair with its element stream counted as it is consumed."""
    @functools.wraps(fn)
    def wrapper(elements, *args, **kwargs):
        def counted():
            for e in elements:
                rec.counts["dichotomy.stream_scanned"] += 1
                yield e
        return fn(counted(), *args, **kwargs)
    return wrapper


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "groupvna" or name.startswith("groupvna."))]


class Tracing:
    """Context manager: install the wrappers for one pass, then restore."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr, original, wrapper):
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets += [(mod, key) for mod in _program_modules()
                        for key, value in vars(mod).items()
                        if value is original and not (mod is owner and key == attr)]
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def __enter__(self):
        rec = self.rec
        for owner, attr, name, on_result, on_error in SPANS:
            original = getattr(owner, attr)
            self._replace(owner, attr, original,
                          _span_wrapper(rec, original, name, on_result, on_error))
        for owner, attrs, counter in COUNTS:
            original = getattr(owner, attrs[0])
            wrapper = _count_wrapper(rec, original, counter)
            for attr in attrs:
                self._replace(owner, attr, original, wrapper)
        original = dichotomy.find_noncommuting_pair
        self._replace(dichotomy, "find_noncommuting_pair", original, _scan_wrapper(rec, original))
        return rec

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric of one traced pass; layers never entered read 0."""
    self_s = rec.self_times()
    out = {}
    for metric in METRICS:
        if metric.endswith("_s"):
            out[metric] = self_s.get(metric[:-2], 0.0)
        else:
            out[metric] = rec.counts.get(metric, 0)
    return out

