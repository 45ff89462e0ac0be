"""Verification laboratory for amenability of homogeneous spaces.

Exact arithmetic in the free group on integer-indexed generators and the
semidirect product with the index shift; canonical coset forms and orbit
balls; Kesten-style spectral lower bounds and Reiter almost-invariance
certificates; and exact character reciprocity on finite groups, including
special-linear congruence quotients.
"""

from .errors import ResourceLimitError
from .freegroup import (
    GElement,
    G_IDENTITY,
    IDENTITY,
    Word,
    format_gelement,
    format_word,
    g_inv,
    g_mul,
    gamma_member,
    minimal_level,
    parse_gelement,
    parse_word,
    reduce,
    retract,
    shift_word,
    w_inv,
    w_mul,
)
from .cosets import Coset, OrbitBall, act, h_orbit_partition, normal_form, orbit_ball
from .spectral import (
    GenSet,
    ReiterCertificate,
    SparseOperator,
    SpectralProfile,
    delta_invariance_check,
    free_generator_set,
    kesten_profile,
    markov_operator,
    reiter_search,
)
from .finitegroup import (
    ConjugacyClass,
    FiniteGroup,
    Subgroup,
    congruence_group,
    generate_group,
    separation_witness,
    special_linear_order,
)
from .characters import (
    Character,
    coset_permutation_character,
    frobenius_check,
    induce_character,
    inner_product,
    invariant_dimension,
    load_character_table,
    parse_character_table,
    restrict_character,
    stages_check,
    transfer_character,
)
from .suite import (
    EntryResult,
    SuiteFormatError,
    SuiteResult,
    default_suite_path,
    irreducibles,
    registry,
    run_suite,
)

__version__ = "1.0.0"
