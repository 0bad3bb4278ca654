"""The public contract: the names the package binds, and every module's __all__."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import ergotrans

MODULES = sorted(m.name for m in pkgutil.iter_modules(ergotrans.__path__))

# Every name ergotrans/__init__.py binds.  Dropping one breaks callers; do
# it on purpose, here and in CHANGES.md.
CONTRACT = {
    "DOUBLING", "MINUS_DOUBLING", "PeriodicOrbit", "SystemKind", "SystemSpec", "apply_map",
    "backward_step", "gauss_system", "inverse_branches", "periodic_orbits",
    "GAUSS_LOG", "LINEAR", "QUAD_CONVEX", "QUAD_DIRAC", "QUAD_PERIOD2", "PotentialSpec",
    "gauss_log_potential", "polynomial_potential",
    "EigenPair", "GridFunction", "eigen_measure", "eigenpair", "gamma_estimate", "v_beta",
    "CriticalValue", "SubactionResult", "calibrated_subaction", "critical_value",
    "deviation_I", "lax_oleinik_step",
    "KernelSpec", "TwistMethod", "TwistReport", "cocycle_delta", "cohomology_residual",
    "dual_potential", "example5_kernel", "example6_kernel", "fundamental_kernel",
    "gauss_log_kernel", "quadratic_kernel", "twist_check", "twist_stability_probe",
    "AtomicMeasure", "CostSpec", "RochetMode", "TransportPlan", "b_function",
    "conjugate_transform", "cyclical_monotonicity_check", "duality_certificate",
    "gamma_from_support", "graph_check", "maximizing_extension_measure",
    "natural_extension_measure", "rochet_potential", "solve_kantorovich",
    "PRESETS", "Preset", "get_preset",
    "__version__",
}


# Every keyword option with a default on a module-level function of the
# library modules, as module.function(option).  Each option doubles the
# configurations to test; add one here, and in CHANGES.md, on purpose.
LIBRARY_MODULES = ("dynamics", "potentials", "thermo", "ergopt", "involution", "transport")
OPTIONS = {
    "dynamics.gauss_system(branch_cap)",
    "potentials.polynomial_potential(name)",
    "thermo.eigen_measure(n_grid)",
    "thermo.eigenpair(n_grid)",
    "thermo.v_beta(n_grid)",
    "ergopt.calibrated_subaction(n_grid)",
    "ergopt.calibrated_subaction(m)",
    "ergopt.calibrated_subaction(max_period)",
    "ergopt.calibrated_subaction(start)",
    "ergopt.critical_value(max_period)",
    "ergopt.deviation_I(n_terms)",
    "ergopt.deviation_I(early_exit)",
    "ergopt.lax_oleinik_step(op)",
    "ergopt.lax_oleinik_step(_out)",
    "involution.cohomology_residual(probes)",
    "involution.cohomology_residual(seed)",
    "involution.fundamental_kernel(depth)",
    "involution.quadratic_kernel(name)",
    "involution.twist_check(method)",
    "involution.twist_check(n_grid)",
    "involution.twist_stability_probe(n_grid)",
    "transport.b_function(I)",
    "transport.conjugate_transform(variant)",
    "transport.cyclical_monotonicity_check(n_max)",
    "transport.rochet_potential(mode)",
    "transport.rochet_potential(chain_cap)",
}


# Every field of the public input dataclasses, as Class.field.  A field is a
# setting like a keyword option; add or drop one here, and in CHANGES.md, on purpose.
FIELDS = {
    "SystemSpec.kind", "SystemSpec.branch_cap",
    "PotentialSpec.name", "PotentialSpec.fn", "PotentialSpec.holder_constant",
    "PotentialSpec.coeffs",
    "KernelSpec.fn", "KernelSpec.name", "KernelSpec.tail_bound", "KernelSpec.depth",
    "CostSpec.w", "CostSpec.gamma", "CostSpec.i_eval",
    "AtomicMeasure.atoms",
    "Preset.name", "Preset.system", "Preset.potential", "Preset.kernel", "Preset.m_exact",
    "Preset.closed_V", "Preset.paper_kernel", "Preset.gamma_exact",
}


def test_dataclass_fields_are_the_inventory():
    classes = {getattr(ergotrans, f.split(".")[0]) for f in FIELDS}
    found = [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)]
    assert len(FIELDS) == 22
    assert sorted(found) == sorted(FIELDS)
    assert [f.name for f in dataclasses.fields(ergotrans.PotentialSpec)] == [
        "name", "fn", "holder_constant", "coeffs"]


def test_keyword_options_are_the_inventory():
    found = []
    for name in LIBRARY_MODULES:
        mod = importlib.import_module(f"ergotrans.{name}")
        for fname, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found += [f"{name}.{fname}({p.name})"
                          for p in inspect.signature(fn).parameters.values()
                          if p.default is not inspect.Parameter.empty]
    assert len(OPTIONS) == 26
    assert sorted(found) == sorted(OPTIONS)


def _bound_names(path: Path) -> set[str]:
    """Names bound at the top level of a module by imports and assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_package_binds_exactly_the_contract():
    bound = _bound_names(Path(ergotrans.__file__))
    assert len(CONTRACT) == 61
    assert bound == CONTRACT
    assert all(hasattr(ergotrans, name) for name in bound)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"ergotrans.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"ergotrans.{name}.__all__ names missing attributes: {missing}"


def _imports_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "ergotrans"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "ergotrans" for a in node.names)
    return False


def test_no_package_import_inside_a_function():
    # A module imports its siblings at the top; an import inside a function
    # hides a dependency and is only needed to break a cycle, which the
    # package has none of.  Third-party imports are out of scope.
    found = [f"{path.name}:{node.lineno} in {fn.name}"
             for path in sorted(Path(ergotrans.__file__).parent.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if _imports_the_package(node)]
    assert not found, f"package imports inside functions: {found}"


def _imported_modules(node: ast.AST) -> list[str]:
    """Top-level names of the absolute modules an import statement reads."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [(node.module or "").split(".")[0]]
    return []


def test_cli_alone_shapes_json():
    # The JSON format is decided in cli: only it imports json, and no
    # library class carries its own serializer.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(ergotrans.__file__).parent.glob("*.py"))}
    json_importers = sorted(name for name, tree in trees.items()
                            for node in ast.walk(tree) if "json" in _imported_modules(node))
    assert json_importers == ["cli"]
    serializers = [f"{name}.{cls.name}.{fn.name}"
                   for name, tree in trees.items()
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   and fn.name in ("to_json_dict", "header_dict")]
    assert not serializers, f"per-type serializers outside cli: {serializers}"
