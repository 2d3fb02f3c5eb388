"""Shared test corpus: group specs and the order-32 central product builder."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from groupvna.groups import GroupHandle, Subgroup, as_subgroup, construct_group, generate_closure


def spec_symmetric(n):
    return {"family": "symmetric", "n": n}


def spec_cyclic(n):
    return {"family": "cyclic", "n": n}


def spec_dihedral(n):
    return {"family": "dihedral", "n": n}


def spec_product(*factors):
    return {"family": "product", "factors": list(factors)}


SPEC_Q8 = {"family": "quaternion8"}
SPEC_S3SUM = {"family": "restricted_sum", "factor": spec_symmetric(3)}
SPEC_Q8SUM = {"family": "restricted_sum", "factor": SPEC_Q8}


def _product_sweep() -> list[tuple[str, dict]]:
    """Every product of two of fourteen small groups (a group with itself
    included), seven products of three and one nested product."""
    groups = {"C1": spec_cyclic(1), "C2": spec_cyclic(2), "C3": spec_cyclic(3),
              "C4": spec_cyclic(4), "C5": spec_cyclic(5), "C6": spec_cyclic(6),
              "C8": spec_cyclic(8), "C9": spec_cyclic(9), "S3": spec_symmetric(3),
              "S4": spec_symmetric(4), "D4": spec_dihedral(4), "D5": spec_dihedral(5),
              "Q8": SPEC_Q8, "Heis3": {"family": "heisenberg", "p": 3}}
    names = list(groups)
    triples = [("C2", "C2", "C2"), ("S3", "S3", "C2"), ("Q8", "C4", "C1"), ("D4", "C3", "S3"),
               ("C1", "S3", "C1"), ("Heis3", "C2", "C3"), ("D5", "C4", "Q8")]
    sweep = [(f"{a}x{b}", spec_product(groups[a], groups[b]))
             for i, a in enumerate(names) for b in names[i:]]
    sweep += [("x".join(t), spec_product(*map(groups.get, t))) for t in triples]
    sweep.append(("S3x(Q8xC2)xC1", spec_product(groups["S3"], spec_product(SPEC_Q8, groups["C2"]),
                                                 groups["C1"])))
    return sweep


PRODUCT_SWEEP = _product_sweep()


def json_values(depth: int, ints=st.integers()):
    """JSON values nested at most `depth` lists deep: ints, floats, bools, short
    strings, None, lists."""
    values = st.none() | ints | st.floats(-8, 8) | st.booleans() | st.text(max_size=3)
    for _ in range(depth):
        values = values | st.lists(values, max_size=3)
    return values


def central_product_q8():
    """Q8 o Q8 (order 32) as a Cayley table, plus generator indices for the
    two commuting Q8 images.

    Built as the quotient of Q8 x Q8 by the diagonal center {(1,1), (-1,-1)};
    the enumeration order of the product makes the table deterministic.
    """
    prod = construct_group(spec_product(SPEC_Q8, SPEC_Q8))
    elements = prod.all_elements()
    z = prod.element(((0, 1), (0, 1)))
    coset_of = {}
    reps = []
    for e in elements:
        if e.form in coset_of:
            continue
        r = len(reps)
        coset_of[e.form] = r
        coset_of[(e * z).form] = r
        reps.append(e)
    table = [[coset_of[(a * b).form] for b in reps] for a in reps]
    h0 = [coset_of[prod.element(((1, 0), (0, 0))).form],
          coset_of[prod.element(((2, 0), (0, 0))).form]]
    h1 = [coset_of[prod.element(((0, 0), (1, 0))).form],
          coset_of[prod.element(((0, 0), (2, 0))).form]]
    return {"family": "cayley", "table": table}, h0, h1


def central_product_handle_and_subgroups() -> tuple[GroupHandle, Subgroup, Subgroup]:
    spec, h0_idx, h1_idx = central_product_q8()
    handle = construct_group(spec)
    h0 = generate_closure([handle.element(i) for i in h0_idx])
    h1 = generate_closure([handle.element(i) for i in h1_idx])
    return handle, h0, h1


def index_table_subgroup(name: str) -> Subgroup:
    """One of INDEX_TABLE_SUBGROUPS: whole groups, a closure inside an infinite
    group, subgroups given only by their elements, and the trivial group."""
    if name == "s3sum-closure":
        s3sum = construct_group(SPEC_S3SUM)
        return generate_closure([s3sum.element(((0, (1, 0, 2)),)),
                                 s3sum.element(((0, (1, 2, 0)), (1, (1, 0, 2))))])
    if name == "s3-in-s4-elements":
        s4 = construct_group(spec_symmetric(4))
        return as_subgroup([e for e in s4.all_elements() if e.form[3] == 3])
    if name == "s4-shuffled-elements":  # its table's rows are renumbered into this order
        elements = construct_group(spec_symmetric(4)).all_elements()
        random.Random(4).shuffle(elements)
        return as_subgroup(elements)
    return as_subgroup(construct_group({
        "s4": spec_symmetric(4),
        "q8xc2": spec_product(SPEC_Q8, spec_cyclic(2)),
        "heis3": {"family": "heisenberg", "p": 3},
        "cayley-q8oq8": central_product_q8()[0],
        "trivial": spec_cyclic(1),
    }[name]))


INDEX_TABLE_SUBGROUPS = ["s4", "q8xc2", "heis3", "cayley-q8oq8", "s3sum-closure",
                         "s3-in-s4-elements", "s4-shuffled-elements", "trivial"]


# finite families of order <= 64 exercised by the exact trace-axiom checks
TRACE_FAMILY_SPECS = [
    ("cyclic1", spec_cyclic(1)),
    ("cyclic5", spec_cyclic(5)),
    ("cyclic12", spec_cyclic(12)),
    ("sym3", spec_symmetric(3)),
    ("sym4", spec_symmetric(4)),
    ("dihedral4", spec_dihedral(4)),
    ("dihedral9", spec_dihedral(9)),
    ("quaternion8", SPEC_Q8),
    ("heisenberg3", {"family": "heisenberg", "p": 3}),
    ("sym3xsym3", spec_product(spec_symmetric(3), spec_symmetric(3))),
    ("q8xc2", spec_product(SPEC_Q8, spec_cyclic(2))),
]


def nonabelian_le32_specs():
    """Non-abelian groups of order <= 32 reachable from spec documents."""
    specs = [
        ("sym3", spec_symmetric(3)),
        ("sym4", spec_symmetric(4)),
        ("quaternion8", SPEC_Q8),
        ("heisenberg2", {"family": "heisenberg", "p": 2}),
        ("heisenberg3", {"family": "heisenberg", "p": 3}),
    ]
    for n in range(3, 17):
        specs.append((f"dihedral{n}", spec_dihedral(n)))
    specs += [
        ("sym3xc2", spec_product(spec_symmetric(3), spec_cyclic(2))),
        ("sym3xc3", spec_product(spec_symmetric(3), spec_cyclic(3))),
        ("sym3xc4", spec_product(spec_symmetric(3), spec_cyclic(4))),
        ("sym3xc5", spec_product(spec_symmetric(3), spec_cyclic(5))),
        ("d4xc2", spec_product(spec_dihedral(4), spec_cyclic(2))),
        ("d4xc4", spec_product(spec_dihedral(4), spec_cyclic(4))),
        ("d4xc2xc2", spec_product(spec_dihedral(4), spec_cyclic(2), spec_cyclic(2))),
        ("q8xc2", spec_product(SPEC_Q8, spec_cyclic(2))),
        ("q8xc4", spec_product(SPEC_Q8, spec_cyclic(4))),
        ("d6xc2", spec_product(spec_dihedral(6), spec_cyclic(2))),
        ("q8oq8", central_product_q8()[0]),
    ]
    return specs


def oracle_corpus_specs():
    """Finite groups of order <= 200 compared against the numerical oracle."""
    return [
        ("trivial", spec_cyclic(1)),
        ("cyclic2", spec_cyclic(2)),
        ("cyclic6", spec_cyclic(6)),
        ("sym3", spec_symmetric(3)),
        ("dihedral4", spec_dihedral(4)),
        ("quaternion8", SPEC_Q8),
        ("dihedral6", spec_dihedral(6)),
        ("sym4", spec_symmetric(4)),
        ("heisenberg3", {"family": "heisenberg", "p": 3}),
        ("q8xc2", spec_product(SPEC_Q8, spec_cyclic(2))),
        ("q8oq8", central_product_q8()[0]),
        ("sym3xsym3", spec_product(spec_symmetric(3), spec_symmetric(3))),
        ("sym5", spec_symmetric(5)),
    ]
