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


PACKAGE = ROOT / "src" / "signchange"
# the modules that may import the oracles: the package, which re-exports them, and the CLI
ORACLE_IMPORTERS = {"__init__", "cli"}
# the private library helpers that oracles.py imports, each with the reason it may
PRIVATE_ORACLE_IMPORTS = {
    ("transitions", "_classes"): "the pair sweeps decide each pair of row classes once; the "
    "full-sweep references in tests/test_oracles.py check the grouping independently at n <= 5",
    ("counting", "_check_rows"): "LocalClass.reachable counts its 3^zeros completions against "
    "the row ceiling every library table has",
    ("counting", "_signs"): "classify_point reads x by the one entry reader of the input contract",
}


def _package_imports(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every name a module imports from the package, relatively or
    absolutely; a module imported itself, as `from . import oracles`, gives (module, "")."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(
                (alias.name.removeprefix("signchange."), "")
                for alias in node.names
                if alias.name.startswith("signchange.")
            )
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "signchange"
        ):
            module = (node.module or "").removeprefix("signchange").lstrip(".")
            found.update((module, alias.name) if module else (alias.name, "") for alias in node.names)
    return found


def test_only_the_package_and_the_cli_import_the_oracles():
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(module == "oracles" for module, _ in _package_imports(path))
    }
    assert importers == ORACLE_IMPORTERS


def test_private_helpers_the_oracles_import_have_reasons():
    private = {
        (module, name)
        for module, name in _package_imports(PACKAGE / "oracles.py")
        if name.startswith("_")
    }
    # a helper no longer imported leaves a stale entry, a new one a missing entry
    assert private == set(PRIVATE_ORACLE_IMPORTS)


# where a public name's callers live: the library, its scripts, the benchmark and the
# acceptance tests; unit tests, the benchmark's own included, are no caller: they only
# test what they reach
CALLER_FILES = [
    *(
        path
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if not path.name.startswith("test_")
    ),
    ROOT / "tests" / "test_acceptance.py",
]
PACKAGE_MODULES = {path.stem for path in (ROOT / "src" / "signchange").glob("*.py")}
# public names that no caller reads, each with the reason it stays
UNCALLED_PUBLIC_NAMES = {
    "is_count_subgradient": "the classical subdifferential of the count, the reference for "
    "the classical subdifferentials of the sign change count, which are yet to be computed",
    "spherical_to_cartesian": "the spherical parametrization of the 4-D directions, which an "
    "n-D stationarity system is to generalize",
    "sign": "perfbench/test_perfbench.py checks that the tracer leaves its binding alone, "
    "and only a change to the benchmark may edit that test",
    "__version__": "the version that users and tools read from the installed package; "
    "no code of the project needs it",
}


def _names_read(path: Path) -> set[str]:
    """The package's names that a file reads, except inside a function or class
    of the same name (its own definition).

    Names resolve, so np.sign is no read of a name sign.  A bare name counts
    when the file imports it from the package or, in the package, binds it at
    top level.  An attribute counts when it is read on the package or on one
    of its modules: a name that an import or an assignment binds to one, or,
    in perfbench, the parameter sc, which holds the package (workloads.build).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    names, modules = {}, set()
    if path.is_relative_to(ROOT / "src"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update((t.id, t.id) for t in targets if isinstance(t, ast.Name))
    if path.is_relative_to(ROOT / "perfbench"):
        modules.add("sc")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname or "signchange"
                for alias in node.names
                if alias.name.split(".")[0] == "signchange"
            )
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "signchange"
        ):
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name in PACKAGE_MODULES:
                    modules.add(bound)
                else:
                    names[bound] = alias.name

    def is_module(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in PACKAGE_MODULES and is_module(node.value)
        return isinstance(node, ast.Name) and node.id in modules

    # a name bound to a module by assignment, as perfbench's `polysys = sc.polysys`
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_module(node.value):
            modules.update(t.id for t in node.targets if isinstance(t, ast.Name))

    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = names.get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr if is_module(node.value) else None
        if name is not None and name not in inside:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return read


def test_every_public_name_has_a_caller():
    read = set().union(*map(_names_read, CALLER_FILES))
    uncalled = {name for name in signchange.__all__ if name not in read}
    # a name that gains a caller, or leaves __all__, leaves a stale entry
    assert uncalled == set(UNCALLED_PUBLIC_NAMES)


# every call of Topology.neighbors in the package, by module and top-level definition, with
# the reason it does not read pair_stats: a statistic of (weak, flips) reads pair_stats
NEIGHBOR_CALLERS = {
    ("transitions", "transition_map"): "returns the per-pair vector of transition values, "
    "which no pair count gives",
    ("transitions", "hadamard_norm_sq"): "the independent Hadamard-product route that the "
    "hadamard oracles check transition_norm_sq against",
    ("oracles", "classify_point"): "reads adjacent zeros of x, a pair statistic of the zero "
    "mask that (weak, flips) does not hold",
    ("optimality", "lagrangian_residual"): "sums the pair terms of a real direction d, not of "
    "a sign vector",
    ("oracles", "_oracle_zero_set"): "the oracle's own reference: it counts the nonzero "
    "transition values pair by pair and checks them against pair_stats",
}


def _neighbor_callers() -> set[tuple[str, str]]:
    """(module, top-level definition) for every call of a .neighbors attribute in the
    package; a call outside any definition gives the name ""."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "neighbors"
                ):
                    found.add((path.stem, getattr(top, "name", "")))
    return found


def test_every_neighbors_caller_says_why_pair_stats_does_not_serve():
    # a new caller fails until it gives its reason, a caller gone leaves a stale entry
    assert _neighbor_callers() == set(NEIGHBOR_CALLERS)
