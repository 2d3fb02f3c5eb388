"""Factor decompositions of group von Neumann algebra pieces S(H) for concrete
countable groups, quantitative lemma verifiers, and type-I dichotomy
certificates."""

from .characters import (
    CharacterRow,
    CharacterTable,
    ClassData,
    character_table,
    class_data,
    validate_orthogonality,
)
from .dichotomy import (
    ClassifyOptions,
    CommutingWitness,
    DichotomyCertificate,
    classify,
    find_noncommuting_pair,
    kernel_membership,
    lemma10_sequence,
    replay_certificate,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DegenerateSpectrumError,
    DomainMismatchError,
    GroupVnaError,
    ParameterError,
    PreconditionError,
    RequiresFiniteError,
    SpecError,
    UnsupportedFamilyError,
)
from .fc_center import ConjugacyClass, FcVerdict, conjugacy_class, fc_filter
from .groups import (
    GroupElement,
    GroupHandle,
    Subgroup,
    as_subgroup,
    commutator,
    conjugate,
    construct_group,
    coordinate_subgroup,
    enumerate_elements,
    factor_subgroup,
    generate_closure,
    group_law,
)
from .vn_spectrum import (
    AlgebraElement,
    FactorSpectrum,
    GrowthResult,
    NumericalBlock,
    RegularRep,
    central_projection,
    factor_spectrum,
    growth_search,
    icc_orthonormality_check,
    nonabelian_measure,
    norm_squared,
    numerical_decomposition,
    product_projection_spectrum,
    tau_inner_product,
    trace,
    trace_of_product,
    unitary,
)

__version__ = "0.1.0"
