import ast
from pathlib import Path

import signchange

# the top-level __all__ as it was written out by hand, before it was derived
# from the submodules' lists, less the names deleted since; every name must
# still resolve on the package
PUBLIC_NAMES = [
    "count_nonzero", "is_count_subgradient", "sign", "sign_minorant_gap", "sign_vector",
    "Hessian2", "Topology", "hadamard_norm_sq", "pair_counts", "sign_changes",
    "smoothed_sign_changes", "symmetric2_eigenvalues", "transition_hessian_2d", "transition_map",
    "transition_norm_sq", "GapParams", "GapProfile", "coupled_subgradient_value", "decoupled_gap",
    "gap_profile", "profile_csv", "zero_direction_gap", "GridTable", "Label", "LocalClass",
    "VerifyReport", "center_symmetry_check", "classify_point", "enumerate_grid", "list_oracles",
    "run_oracle", "ConditionReport", "OneDProblem", "check_1d_condition", "curves_csv_1d",
    "global_min_1d", "inequality_values_1d", "lagrangian_residual", "multiplier_2d",
    "multiplier_3d", "objective_1d", "surface_csv", "ADMISSIBLE_RHO_SQUARED", "Certificate",
    "FeasibilityResult", "PolySystem", "build_4d_system", "export_system", "feasibility_report",
    "finite_direction_feasibility", "grid_feasibility_summary", "parse_system",
    "spherical_to_cartesian", "__version__",
]


def test_public_names_still_resolve():
    missing = [name for name in PUBLIC_NAMES if not hasattr(signchange, name)]
    assert missing == []
    assert set(PUBLIC_NAMES) <= set(signchange.__all__)
    assert len(signchange.__all__) == len(set(signchange.__all__))
    assert all(hasattr(signchange, name) for name in signchange.__all__)


ROOT = Path(__file__).resolve().parents[1]
# (module, name) pairs imported and never used, each with the reason it stays
UNUSED_IMPORTS = {
    ("src/signchange/counting.py", "qmc"): "perfbench/layers.py reads the import time of "
    "scipy.stats from `import signchange`, so the import stays until that reading is optional",
}


def _unused_imports(path: Path) -> set[str]:
    """The names a module binds by import and never reads; star imports and
    __future__ features bind no name to read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (path.relative_to(ROOT).as_posix(), name)
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for name in _unused_imports(path)
    }
    # an allowed name that is used again, or no longer imported, leaves a stale entry
    assert unused == set(UNUSED_IMPORTS)


# where a public name's callers live: the library, its scripts, the benchmark and the
# acceptance tests; the unit tests are no caller, they only test what they reach
CALLER_FILES = [
    *(path for folder in ("src", "scripts", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))),
    ROOT / "tests" / "test_acceptance.py",
]
# public names that no caller reads, each with the reason it stays
UNCALLED_PUBLIC_NAMES = {
    "is_count_subgradient": "the classical subdifferential of the count, the reference for "
    "the classical subdifferentials of the sign change count, which are yet to be computed",
    "spherical_to_cartesian": "the spherical parametrization of the 4-D directions, which an "
    "n-D stationarity system is to generalize",
}


def _names_read(path: Path) -> set[str]:
    """The identifiers a module reads, as a bare name or as an attribute,
    except inside a function or class of the same name (its own definition).

    Names match by spelling, so an attribute of another library spelled
    like a public name (np.sign) counts as a read of it."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return read


def test_every_public_name_has_a_caller():
    read = set().union(*map(_names_read, CALLER_FILES))
    uncalled = {name for name in signchange.__all__ if name not in read}
    # a name that gains a caller, or leaves __all__, leaves a stale entry
    assert uncalled == set(UNCALLED_PUBLIC_NAMES)
