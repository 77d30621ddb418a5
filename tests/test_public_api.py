"""Every public function, class and constant has a caller outside the tests.

A module-level public function, class or assigned name (a constant, or an
alias such as ``raise_index``) that only tests reach is API that nothing
uses. The guard walks the sources of the imported package, ``demos/`` and
``bench/`` and resolves each name they read to the package module it
comes from: a bare name in its own module, an imported name, or an
attribute of an imported package module. A ``def`` or ``class`` statement, an assignment,
an import and an ``__all__`` entry are not uses.

The exceptions are the oracles in ORACLES: each is kept because tests
compare it with an independently coded result, named beside it.
"""

import ast
from pathlib import Path

import dirachydro.errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "dirachydro"
# the package that was imported, so that a mutated copy on the path is the one read
SOURCE = Path(dirachydro.errors.__file__).resolve().parent
CALLER_DIRS = (SOURCE, ROOT / "demos", ROOT / "bench")

ORACLES = {
    ("spinors", "particle_spinor_u_form"): "make_particle_spinor, the half-angle form",
    ("fields", "boost_field_tensor"): "rest_frame_B and vorticity_to_rest, the one "
                                      "closed-form rest-frame transform",
    ("fields", "field_consistency_residual"): "each provider's F against differences of its A",
    ("fields", "GaugeShiftedProvider"): "gauge covariance of the residual evaluators",
    ("fisher", "pauli_limit_density"): "lagrangian_density at small boost (criterion 12)",
    ("lagrangian", "identity_residuals"): "sigma_component_table and acceleration_tensor "
                                          "through the spin-transport identities (criterion 4)",
    ("manufactured", "smooth_angle_params"): "the analytic field of identity_residuals' "
                                             "convergence order (criterion 4)",
    ("dynamics", "state_derivative"): "one step of the scalar RK4 loop in integrate",
    ("io", "load_grid_fields"): "save_grid_fields, by round trip",
    ("io", "load_trajectory_csv"): "save_trajectory_csv, by round trip",
}


def _package_modules():
    return {path.stem: path for path in sorted(SOURCE.glob("*.py"))}


def _defined_names(node):
    """Names a module-level statement defines: a def, a class or assigned names."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def _public_definitions():
    found = set()
    for module, path in _package_modules().items():
        for node in ast.parse(path.read_text()).body:
            found.update((module, name) for name in _defined_names(node)
                         if not name.startswith("_"))
    return found


def _imports(tree, modules):
    """Local name -> (module, name) for imported package names, and -> module for modules."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.module and node.module.split(".")[0] == PACKAGE:
                source = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if not source:  # "from . import hydro" or "from dirachydro import hydro"
                    aliases[local] = alias.name
                elif source in modules:
                    names[local] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == PACKAGE and module in modules and alias.asname:
                    aliases[alias.asname] = module
    return names, aliases


def _used_names():
    """(module, name) of every package name used in the caller directories."""
    modules = _package_modules()
    trees = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            trees[path] = ast.parse(path.read_text())
    imported = {path: _imports(tree, modules) for path, tree in trees.items()}
    reexports = {module: imported[path][0] for module, path in modules.items()}

    def origin(module, name):
        # follow a name that a module only imports back to where it is defined
        seen = set()
        while name in reexports.get(module, {}) and (module, name) not in seen:
            seen.add((module, name))
            module, name = reexports[module][name]
        return module, name

    used = set()
    for path, tree in trees.items():
        names, aliases = imported[path]
        own = path.stem if path.parent == SOURCE else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    used.add(origin(*names[node.id]))
                elif own is not None:
                    used.add(origin(own, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add(origin(aliases[node.value.id], node.attr))
    return used


def test_every_public_name_has_a_caller():
    unused = sorted(_public_definitions() - _used_names() - set(ORACLES))
    assert not unused, (
        "public names reached only by tests; delete them, or add the oracles to "
        f"ORACLES with the result each cross-checks: {unused}"
    )


def test_every_oracle_entry_is_needed():
    definitions = _public_definitions()
    used = _used_names()
    stale = sorted(key for key in ORACLES if key not in definitions or key in used)
    assert not stale, f"ORACLES entries that are gone or have a caller: {stale}"
