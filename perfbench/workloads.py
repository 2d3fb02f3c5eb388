"""The benchmark's workloads: job lists over the program's public surface,
each job with a check against the reference computations.

A job runs ``groupvna.cli.run([...])`` with ``--format json`` and stdout
captured where a CLI command exists, and ``groupvna.numerical_decomposition``
where none does.  The benchmark's seed goes to every ``--seed`` and ``seed=``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import groupvna
import groupvna.cli

import reference


class Incorrect(Exception):
    """A job's output disagrees with the reference or with a required property."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # Returns None when the job succeeded, or the reason it failed as a job
    # that is expected to fail; raises Incorrect when the output is wrong.
    check: Callable[[object], Optional[str]]


# ---------------------------------------------------------------------------
# spec documents


def S(n):
    return {"family": "symmetric", "n": n}


def C(n):
    return {"family": "cyclic", "n": n}


def D(n):
    return {"family": "dihedral", "n": n}


def HEIS(p):
    return {"family": "heisenberg", "p": p}


Q8 = {"family": "quaternion8"}


def PROD(*factors):
    return {"family": "product", "factors": list(factors)}


def RSUM(factor):
    return {"family": "restricted_sum", "factor": factor}


DIHEDRAL_INFINITE = {"family": "dihedral_infinite"}

# certify: the two built-in restricted sums and the infinite dihedral group.
CERTIFY_SPECS = {"s3sum": RSUM(S(3)), "q8sum": RSUM(Q8), "dinf": DIHEDRAL_INFINITE}
LEMMA10_PAIRS = 5

# chartab: each character-engine sub-layer dominates on some group.
#   mod-p eigen-splitting: C72 (exponent > 64, float values), C10 x C12;
#   exact cyclotomic validation (<= 40 classes): D20, S5 x C2, S4 x S3, Heis(3);
#   float validation of exact tables (> 40 classes), where class orbits and
#   structure constants show: Heis(7), Heis(3) x Q8, D6 x Q8 x S3.
CHARTAB_SPECS = {
    "C72": C(72),
    "C10xC12": PROD(C(10), C(12)),
    "D20": D(20),
    "S5xC2": PROD(S(5), C(2)),
    "S4xS3": PROD(S(4), S(3)),
    "Heis3": HEIS(3),
    "Heis7": HEIS(7),
    "Heis3xQ8": PROD(HEIS(3), Q8),
    "D6xQ8xS3": PROD(D(6), Q8, S(3)),
}

# oracle: blocks of dimension >= 3 make the matrix-unit einsum expensive; the
# small-block groups reach it only with 2 x 2 unit systems (D40, Q8 x C2) or,
# being abelian, not at all (C10 x C12).
ORACLE_SPECS = {
    "S5": S(5),
    "S4xC3": PROD(S(4), C(3)),
    "Heis3xC3": PROD(HEIS(3), C(3)),
    "C10xC12": PROD(C(10), C(12)),
    "D40": D(40),
    "Q8xC2": PROD(Q8, C(2)),
}
LEMMA7_SPECS = {"S3xS3": PROD(S(3), S(3)), "Q8xQ8": PROD(Q8, Q8)}


def write_specs(specs: dict, directory: str) -> dict:
    """Write each spec document to <directory>/<name>.json; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in specs.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


SPECS = {
    "certify": CERTIFY_SPECS,
    "chartab": CHARTAB_SPECS,
    "oracle": {**ORACLE_SPECS, **LEMMA7_SPECS},
}


# ---------------------------------------------------------------------------
# helpers


def _cli(argv: list[str]) -> Callable[[], dict]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = groupvna.cli.run(argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return run


def _report(result: dict, expected_code: int = 0) -> dict:
    if result["code"] != expected_code:
        raise Incorrect(f"exit code {result['code']}, expected {expected_code}: "
                        f"{result['stderr'].strip()[-300:]}")
    return json.loads(result["stdout"])


def _frac(doc) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def _require(ok: bool, message: str):
    if not ok:
        raise Incorrect(message)


# ---------------------------------------------------------------------------
# certify


def _certificate_check(factor: dict, k: int, seen: dict, key: str):
    """classify on a restricted sum: verdict, N, measure, witness, replay, bytes."""
    want_n, want_measure = reference.tower_witness(factor, k)

    def check(result):
        report = _report(result)
        cert = report["results"]["certificate"]
        _check_same_bytes(seen, key, cert)
        _require(cert["verdict"] == "not_type_I", f"verdict {cert['verdict']}")
        growth = cert["growth"]
        _require(growth["levels_required"] == want_n,
                 f"levels_required {growth['levels_required']} != {want_n}")
        _require(_frac(growth["achieved_measure"]) == want_measure,
                 f"achieved measure {growth['achieved_measure']} != {want_measure}")
        _require(report["results"]["replay"]["passed"], "certificate replay failed")
        failures = reference.witness_failures(factor, cert["commuting_witness"]["levels"])
        _require(not failures, "; ".join(failures))
        return None
    return check


def _check_same_bytes(seen: dict, key: str, cert: dict):
    blob = json.dumps(cert, sort_keys=True, separators=(",", ":"))
    first = seen.setdefault(key, blob)
    _require(blob == first, "certificate bytes differ from the first pass")


def _open_problem_check(factor: dict, seen: dict, key: str):
    """classify --k 3 on the S3 sum: its witness needs N = 5 levels, whose
    7776-element closure exceeds max_order 5000, so today it ends
    inconclusive (exit 3) and counts as a failed job.  Should it certify,
    the certificate is held to N = 5 and measure 112/243."""
    certified = _certificate_check(factor, 3, seen, key)

    def check(result):
        if result["code"] == 3:
            cert = json.loads(result["stdout"])["results"]["certificate"]
            _check_same_bytes(seen, key, cert)
            _require(cert["verdict"] == "inconclusive", f"verdict {cert['verdict']} with exit 3")
            return "inconclusive: " + "; ".join(cert["diagnostics"][-2:])
        return certified(result)
    return check


def _growth_check(factor: dict, k: int):
    want_n, want_measure = reference.tower_witness(factor, k)
    order = sum(d * d for d in reference.degrees(factor))
    threshold = 2 ** (2 ** (k - 1))

    def check(result):
        growth = _report(result)["results"]["growth"]
        _require(growth["found"], "no growth witness")
        _require(growth["levels_required"] == want_n,
                 f"levels_required {growth['levels_required']} != {want_n}")
        _require(_frac(growth["achieved_measure"]) == want_measure,
                 f"achieved measure {growth['achieved_measure']} != {want_measure}")
        for step in growth["history"]:
            n = step["levels"]
            _require(step["order"] == order ** n, f"closure of {n} levels has order {step['order']}")
            _require(_frac(step["measure"]) == reference.tower_measure(factor, n, threshold),
                     f"measure at {n} levels is {step['measure']}")
        return None
    return check


def _lemma10_check(factor: dict, pairs: int):
    def check(result):
        witness = _report(result)["results"]["witness"]
        _require(witness["complete"] and len(witness["levels"]) == pairs,
                 f"{len(witness['levels'])} of {pairs} pairs")
        _require(witness["checks"] is not None and not witness["checks"]["failures"],
                 "witness checks reported failures")
        failures = reference.witness_failures(factor, witness["levels"])
        _require(not failures, "; ".join(failures))
        return None
    return check


def _type_i_check(index: int, seen: dict, key: str):
    def check(result):
        report = _report(result)
        cert = report["results"]["certificate"]
        _check_same_bytes(seen, key, cert)
        _require(cert["verdict"] == "type_I", f"verdict {cert['verdict']}")
        _require(cert["type_i_witness"]["index"] == index,
                 f"index {cert['type_i_witness']['index']} != {index}")
        _require(report["results"]["replay"]["passed"], "certificate replay failed")
        return None
    return check


def certify_jobs(paths: dict, seed: int) -> list[Job]:
    seen: dict = {}
    common = ["--format", "json", "--seed", str(seed)]
    jobs = []
    for name in ("s3sum", "q8sum"):
        factor = CERTIFY_SPECS[name]["factor"]
        for k in (1, 2):
            jobs.append(Job(f"classify {name} k={k}",
                            _cli(["classify", "--spec", paths[name], "--k", str(k)] + common),
                            _certificate_check(factor, k, seen, f"{name}/{k}")))
    for name in ("s3sum", "q8sum"):
        factor = CERTIFY_SPECS[name]["factor"]
        jobs.append(Job(f"growth {name} k=2",
                        _cli(["growth", "--spec", paths[name], "--k", "2"] + common),
                        _growth_check(factor, 2)))
    for name in ("s3sum", "q8sum"):
        factor = CERTIFY_SPECS[name]["factor"]
        jobs.append(Job(f"lemma10 {name} k={LEMMA10_PAIRS}",
                        _cli(["lemma10", "--spec", paths[name], "--k", str(LEMMA10_PAIRS)] + common),
                        _lemma10_check(factor, LEMMA10_PAIRS)))
    jobs.append(Job("classify dinf", _cli(["classify", "--spec", paths["dinf"]] + common),
                    _type_i_check(2, seen, "dinf")))
    jobs.append(Job("classify s3sum k=3",
                    _cli(["classify", "--spec", paths["s3sum"], "--k", "3"] + common),
                    _open_problem_check(S(3), seen, "s3sum/3")))
    return jobs


# ---------------------------------------------------------------------------
# chartab


def _chartab_check(spec: dict):
    want = reference.degrees(spec)
    order = sum(d * d for d in want)

    def check(result):
        table = _report(result)["results"]["table"]
        rows = table["rows"]
        sizes = np.array(table["class_sizes"], dtype=float)
        _require(table["order"] == order, f"order {table['order']} != {order}")
        _require(sorted(r["degree"] for r in rows) == want, "degrees differ from the reference")
        _require(len(rows) == len(sizes), f"{len(rows)} rows for {len(sizes)} classes")
        _require(sum(r["degree"] ** 2 for r in rows) == order, "sum of squared degrees != |G|")
        _require(int(sizes.sum()) == order, "class sizes do not sum to |G|")
        vals = np.array([[complex(re, im) for re, im in r["values"]] for r in rows])
        _require(np.allclose(vals[:, 0].real, [r["degree"] for r in rows]),
                 "values at the identity class are not the degrees")
        tol = 1e-6 * order
        row_gram = (vals * sizes) @ vals.conj().T
        _require(np.abs(row_gram - order * np.eye(len(rows))).max() <= tol,
                 "row orthogonality fails on the reported values")
        col_gram = vals.conj().T @ vals
        _require(np.abs(col_gram - np.diag(order / sizes)).max() <= tol,
                 "column orthogonality fails on the reported values")
        return None
    return check


def _spectrum_check(spec: dict):
    want = reference.spectrum(spec)

    def check(result):
        spectrum = _report(result)["results"]["spectrum"]
        got = sorted((a["dim"], Fraction(a["measure_num"], a["measure_den"]))
                     for a in spectrum["atoms"])
        _require(got == want, "spectrum differs from the reference")
        _require(sum(m for _, m in got) == 1, "measures do not sum to 1")
        return None
    return check


def chartab_jobs(paths: dict, seed: int) -> list[Job]:
    common = ["--format", "json", "--seed", str(seed)]
    jobs = []
    for name, spec in CHARTAB_SPECS.items():
        jobs.append(Job(f"chartab {name}", _cli(["chartab", "--spec", paths[name]] + common),
                        _chartab_check(spec)))
        jobs.append(Job(f"spectrum {name}", _cli(["spectrum", "--spec", paths[name]] + common),
                        _spectrum_check(spec)))
    return jobs


# ---------------------------------------------------------------------------
# oracle


def _oracle(spec: dict, seed: int) -> Callable[[], object]:
    def run():
        return groupvna.numerical_decomposition(groupvna.construct_group(spec), seed=seed)
    return run


def _oracle_check(spec: dict):
    want = reference.spectrum(spec)

    def check(decomp):
        _require(decomp.dim_measure_multiset() == want, "oracle spectrum differs from the reference")
        _require(decomp.max_unit_residual() <= 1e-6,
                 f"matrix-unit residual {decomp.max_unit_residual():.3e}")
        _require(decomp.projection_residual <= 1e-6,
                 f"projection residual {decomp.projection_residual:.3e}")
        return None
    return check


def _lemma7_check(spec: dict, n0: int = 2, n1: int = 2):
    f0, f1 = spec["factors"]
    want = (reference.measure_of_degree_at_least(f0, n0)
            * reference.measure_of_degree_at_least(f1, n1))

    def check(result):
        report = _report(result)["results"]["lemma7"]
        _require(report["passed"], "lemma7 did not pass")
        _require(all(a["dim"] >= n0 * n1 for a in report["supported_atoms"]),
                 "an atom of dimension < n0*n1 is supported")
        trace = Fraction(report["trace_num"], report["trace_den"])
        _require(trace == want, f"tau(p0 p1) = {trace}, reference {want}")
        _require(report["unit_residual"] is not None and report["unit_residual"] <= 1e-6,
                 f"unit residual {report['unit_residual']}")
        return None
    return check


def oracle_jobs(paths: dict, seed: int) -> list[Job]:
    jobs = [Job(f"oracle {name}", _oracle(spec, seed), _oracle_check(spec))
            for name, spec in ORACLE_SPECS.items()]
    for name, spec in LEMMA7_SPECS.items():
        jobs.append(Job(f"lemma7 {name}",
                        _cli(["lemma7", "--spec", paths[name], "--format", "json",
                              "--seed", str(seed)]),
                        _lemma7_check(spec)))
    return jobs


BUILDERS = {"certify": certify_jobs, "chartab": chartab_jobs, "oracle": oracle_jobs}


def prepare(workload: str, seed: int, directory: str) -> list[Job]:
    """Write the workload's spec documents and return its job list."""
    paths = write_specs(SPECS[workload], directory)
    return BUILDERS[workload](paths, seed)
