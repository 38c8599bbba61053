"""Exact analysis of binary linear codes.

Bit-packed GF(2) linear algebra, exhaustive weight distributions, the
dual-distribution transform, code surgery (projection, shortening,
hyperplane subcodes), power-moment identities with an exact feasibility
test, machine-checked replays of dimension-bound arguments, and an
exhaustive search over small codes.
"""

from .codes import (
    DEFAULT_ENUMERATION_CAP,
    LinearCode,
    PredicateProfile,
    WeightEnumerator,
    format_generator_text,
    macwilliams_transform,
    parse_generator_text,
)
from .gf2core import Gf2Matrix, Gf2Vector, RrefResult, nullspace_basis, rref
from .moments import (
    AffineForm,
    FEASIBLE,
    FeasibilityVerdict,
    INFEASIBLE,
    LinearCountSolution,
    LpBound,
    MomentReport,
    feasibility_check,
    lp_dimension_bound,
    moment_identities_check,
    power_moment,
    solve_weight_counts,
)
from .prover import (
    ProofReport,
    ProofStep,
    a56_sharpness_construction,
    min_union_length,
    verify_lemma_2_6,
    verify_lemma_24_32_56,
    verify_remark_a56,
    verify_theorem_a,
)
from .search import DEFAULT_NODE_CAP, SearchResult, cross_validate, max_dimension_exhaustive
from .transforms import (
    extend_span,
    project,
    projected_weight,
    shorten,
    spanning_form,
    subcode_avoiding,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_NODE_CAP",
    "FEASIBLE",
    "INFEASIBLE",
    "AffineForm",
    "FeasibilityVerdict",
    "Gf2Matrix",
    "Gf2Vector",
    "LinearCode",
    "LinearCountSolution",
    "LpBound",
    "MomentReport",
    "PredicateProfile",
    "ProofReport",
    "ProofStep",
    "RrefResult",
    "SearchResult",
    "WeightEnumerator",
    "a56_sharpness_construction",
    "cross_validate",
    "extend_span",
    "feasibility_check",
    "format_generator_text",
    "lp_dimension_bound",
    "macwilliams_transform",
    "max_dimension_exhaustive",
    "min_union_length",
    "moment_identities_check",
    "nullspace_basis",
    "parse_generator_text",
    "power_moment",
    "project",
    "projected_weight",
    "rref",
    "shorten",
    "solve_weight_counts",
    "spanning_form",
    "subcode_avoiding",
    "verify_lemma_2_6",
    "verify_lemma_24_32_56",
    "verify_remark_a56",
    "verify_theorem_a",
]
