"""Exact subset-sum toolkit for finite abelian groups."""

from .groups import (
    CapacityError,
    Element,
    GenerationError,
    Group,
    GroupMismatchError,
    GroupSet,
    InvalidGroupError,
    InvalidSubgroupError,
    Quotient,
    Subgroup,
    add,
    make_group,
    neg,
    parse_element,
    parse_group,
    quotient,
    zero,
)
from .setcalc import (
    CosetProfile,
    SequenceMS,
    coset_profile,
    deficiency,
    delta,
    fold_to_quotient,
    gamma,
    generated_subgroup,
    shift,
    stabilizer,
    subsequence_sums,
    subset_sums,
    sumset,
)
from .bounds import (
    BoundReport,
    cauchy_schwarz_check,
    corollary_bound,
    kneser_bound,
    main_bound_check,
    recursive_bound_numerator,
    sequence_bound_check,
)
from .construct import (
    CosetClass,
    DenseGraph,
    GrowthStep,
    GrowthTrace,
    WitnessReport,
    best_half_subset,
    classify_cosets,
    dense_graph,
    greedy_grow,
    hard_bound_diagnostic,
    witness_easy,
    witness_hard,
)
from .verify import (
    ExtremalRecord,
    VerificationRun,
    exhaustive_theorem,
    extremal_search,
    interval_example,
    olson_check,
    olson_witness,
    random_kneser,
    random_sequence_theorem,
    vu_check,
)

__version__ = "0.1.0"
