"""The package's public surface, pinned: a new export is a deliberate edit here."""

import types

import groupvna

PUBLIC_NAMES = [
    "AlgebraElement", "BudgetExceededError", "CharacterRow", "CharacterTable", "ClassData",
    "ClassifyOptions", "CommutingWitness", "ConjugacyClass", "ConsistencyError",
    "DegenerateSpectrumError", "DichotomyCertificate", "DomainMismatchError", "FactorSpectrum",
    "FcVerdict", "GroupElement", "GroupHandle", "GroupVnaError", "GrowthResult",
    "NumericalBlock", "ParameterError", "PreconditionError", "RegularRep",
    "RequiresFiniteError", "SpecError", "Subgroup", "UnsupportedFamilyError", "as_subgroup",
    "central_projection", "character_table", "class_data", "classify", "conjugacy_class",
    "construct_group", "coordinate_subgroup", "factor_spectrum", "factor_subgroup",
    "fc_filter", "find_noncommuting_pair", "generate_closure", "growth_search",
    "icc_orthonormality_check", "kernel_membership", "lemma10_sequence", "nonabelian_measure",
    "numerical_decomposition", "product_projection_spectrum", "replay_certificate",
    "tau_inner_product", "trace", "trace_of_product", "unitary", "validate_orthogonality",
]


def test_the_public_names_are_pinned():
    # every name that library code or a documented paper object needs; a
    # helper that only tests call belongs in the tests
    names = sorted(name for name, value in vars(groupvna).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
