import gf2codes

PUBLIC_NAMES = [
    "__version__",
    # codes
    "DEFAULT_ENUMERATION_CAP",
    "LinearCode",
    "WeightEnumerator",
    "PredicateProfile",
    "macwilliams_transform",
    "parse_generator_text",
    "format_generator_text",
    # gf2core
    "Gf2Vector",
    "Gf2Matrix",
    "RrefResult",
    "rref",
    "nullspace_basis",
    # moments
    "AffineForm",
    "MomentReport",
    "LinearCountSolution",
    "FeasibilityVerdict",
    "LpBound",
    "FEASIBLE",
    "INFEASIBLE",
    "power_moment",
    "moment_identities_check",
    "solve_weight_counts",
    "feasibility_check",
    "lp_dimension_bound",
    # prover
    "ProofStep",
    "ProofReport",
    "min_union_length",
    "verify_remark_a56",
    "a56_sharpness_construction",
    "verify_lemma_2_6",
    "verify_lemma_24_32_56",
    "verify_theorem_a",
    # search
    "DEFAULT_NODE_CAP",
    "MAX_SEARCH_LENGTH",
    "SearchResult",
    "max_dimension_exhaustive",
    # transforms
    "projected_weight",
    "project",
    "shorten",
    "subcode_avoiding",
    "spanning_form",
]


def test_package_exports_each_module_all():
    assert gf2codes.__all__ == PUBLIC_NAMES
    assert len(set(gf2codes.__all__)) == len(gf2codes.__all__)
    for name in gf2codes.__all__:
        assert hasattr(gf2codes, name), name
    namespace = {}
    exec("from gf2codes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert not hasattr(gf2codes, "rref_ints")
