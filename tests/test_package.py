import signchange

# the top-level __all__ as it was written out by hand, before it was derived
# from the submodules' lists; every name must still resolve on the package
PUBLIC_NAMES = [
    "IndexSets", "ProbeReport", "count_nonzero", "frechet_inequality_probe", "index_sets",
    "is_count_subgradient", "sign", "sign_minorant_gap", "sign_vector", "Hessian2",
    "Topology", "hadamard_norm_sq", "pair_counts",
    "sign_changes", "smoothed_count", "smoothed_sign_changes", "symmetric2_eigenvalues",
    "transition_component", "transition_hessian_2d", "transition_map", "transition_norm_sq",
    "GapParams", "GapProfile", "coupled_subgradient_value", "decoupled_gap", "gap_profile",
    "profile_csv", "zero_direction_gap", "GridTable", "Label", "LocalClass", "VerifyReport",
    "center_symmetry_check", "classify_point", "enumerate_grid", "list_oracles", "run_oracle",
    "ConditionReport", "OneDProblem", "check_1d_condition", "curves_csv_1d", "global_min_1d",
    "inequality_values_1d", "lagrangian_residual", "multiplier_2d", "multiplier_3d",
    "objective_1d", "surface_csv", "ADMISSIBLE_RHO_SQUARED", "Certificate",
    "FeasibilityResult", "PolySystem", "build_4d_system", "evaluate_system", "export_system",
    "feasibility_report", "finite_direction_feasibility", "grid_feasibility_summary",
    "lattice_directions", "pair_form_value", "parse_system", "solve_rational_system",
    "spherical_to_cartesian", "__version__",
]


def test_public_names_still_resolve():
    missing = [name for name in PUBLIC_NAMES if not hasattr(signchange, name)]
    assert missing == []
    assert set(PUBLIC_NAMES) <= set(signchange.__all__)
    assert len(signchange.__all__) == len(set(signchange.__all__))
    assert all(hasattr(signchange, name) for name in signchange.__all__)
