"""Verdicts checked against Thoma's criterion on specs built from the families.

A countable discrete group is type I exactly when it is virtually abelian
(Thoma).  For these specs virtual abelianness follows from the structure:
finite groups, Z, D_inf, the restricted sums of C2 and of Z are virtually
abelian; F_2 and the restricted sums of S3 and of D_inf are not; a product is
virtually abelian exactly when both factors are.
"""

import itertools
import json

from corpus import SPEC_Q8, SPEC_S3SUM, spec_cyclic, spec_symmetric
from groupvna.dichotomy import classify, replay_certificate


def _sum(factor):
    return {"family": "restricted_sum", "factor": factor}


Z = {"family": "free", "rank": 1}
DINF = {"family": "dihedral_infinite"}

# name -> (spec, virtually abelian)
BASE = {
    "C3": (spec_cyclic(3), True),
    "S3": (spec_symmetric(3), True),
    "Q8": (SPEC_Q8, True),
    "Dinf": (DINF, True),
    "Z": (Z, True),
    "F2": ({"family": "free", "rank": 2}, False),
    "sumC2": (_sum(spec_cyclic(2)), True),
    "sumS3": (SPEC_S3SUM, False),
    "sumZ": (_sum(Z), True),
    "sumDinf": (_sum(DINF), False),
}
SPECS = dict(BASE)
for (a, (spec_a, va)), (b, (spec_b, vb)) in itertools.combinations_with_replacement(
        BASE.items(), 2):
    SPECS[f"{a}x{b}"] = ({"family": "product", "factors": [spec_a, spec_b]}, va and vb)

# No finite witness yet.  The virtually abelian ones are the finite groups and
# D_inf next to a restricted sum of C2 or of Z: the witness names one
# generator list and an index, and cannot name the whole abelian sum.
INCONCLUSIVE = {
    "F2", "sumDinf",
    "C3xF2", "C3xsumC2", "C3xsumZ", "C3xsumDinf",
    "S3xF2", "S3xsumC2", "S3xsumZ", "S3xsumDinf",
    "Q8xF2", "Q8xsumC2", "Q8xsumZ", "Q8xsumDinf",
    "DinfxF2", "DinfxsumC2", "DinfxsumZ", "DinfxsumDinf",
    "ZxF2", "ZxsumDinf",
    "F2xF2", "F2xsumC2", "F2xsumZ", "F2xsumDinf",
    "sumC2xsumDinf", "sumZxsumDinf", "sumDinfxsumDinf",
}


def test_no_verdict_contradicts_thomas_criterion():
    assert len(SPECS) == 65
    verdicts, wrong, inconclusive = {}, [], set()
    for name, (spec, virtually_abelian) in SPECS.items():
        cert = classify(spec)
        verdicts[cert.verdict] = verdicts.get(cert.verdict, 0) + 1
        if cert.verdict == "inconclusive":
            inconclusive.add(name)
            continue
        if (cert.verdict == "type_I") != virtually_abelian:
            wrong.append((name, cert.verdict))
        assert replay_certificate(json.loads(cert.to_bytes())).passed, name
    assert wrong == []
    assert inconclusive == INCONCLUSIVE
    assert verdicts == {"type_I": 27, "not_type_I": 11, "inconclusive": 27}
    assert sum(SPECS[name][1] for name in INCONCLUSIVE) == 8
