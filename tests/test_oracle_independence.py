"""Each oracle stays independent of the code it checks.

Some duplication is kept on purpose: the bilinear, expanded and
squared-operator evaluators, ``pauli_limit_density`` and the numerical
functional derivative each check another one. Removing duplication must
never merge an oracle into the code it checks, so this test builds the
package's call graph with ``ast`` and requires, for each oracle pair, that
the names the two sides reach meet only in an allow-list. Every entry of
the list gives its reason; an allowed name is shared together with
everything it reaches.

The nodes of the graph are the module-level names of ``src/dirachydro``
(functions, classes, assigned constants) and the methods and properties of
its classes. A name read in a body is an edge to the definition it resolves
to through the module's imports; reading a class also reaches its
``__init__`` and ``__call__``. An attribute of a package module
(``clifford.bilinears``) is an edge to that name. Any other
attribute, ``obj.name``, is an edge to every class member called ``name``,
because the class of ``obj`` is not known: the graph over-approximates,
which can only make the check stricter.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

import dirachydro.errors

# the sources of the package under test, wherever it was imported from
SOURCE = Path(dirachydro.errors.__file__).resolve().parent
PACKAGE = "dirachydro"
_CONSTRUCTORS = ("__init__", "__call__")


@cache
def _graph():
    """AST nodes per node key, import tables per module, class members by name.

    A class's own node holds its class-level statements, decorators and
    bases; its members are nodes of their own.
    """
    bodies, imports, members = {}, {}, {}
    for path in sorted(SOURCE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        names, aliases = {}, {}
        # imports inside functions count too: they resolve names all the same
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                source = node.module
            elif (node.module or "").split(".")[0] == PACKAGE:
                source = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    names[local] = (source, alias.name)
                else:  # "from . import clifford"
                    aliases[local] = alias.name
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                bodies[module, node.name] = [node]
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                bodies[module, node.name] = ([item for item in node.body if item not in methods]
                                             + node.decorator_list + node.bases)
                for item in methods:
                    key = (module, f"{node.name}.{item.name}")
                    bodies[key] = [item]
                    members.setdefault(item.name, []).append(key)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bodies.setdefault((module, name.id), []).append(node.value)
        imports[module] = names, aliases
    return bodies, imports, members


def _resolve(module, name):
    """The node a name read in module refers to, following re-imports; None outside."""
    bodies, imports, _ = _graph()
    while (module, name) not in bodies and name in imports[module][0]:
        module, name = imports[module][0][name]
    return (module, name) if (module, name) in bodies else None


@cache
def _edges(key):
    bodies, imports, members = _graph()
    module, name = key
    aliases = imports[module][1]
    # constructing a class runs its constructors
    out = {(module, f"{name}.{method}") for method in _CONSTRUCTORS} & bodies.keys()
    for body in bodies[key]:
        for node in ast.walk(body):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = _resolve(module, node.id)
                if target is not None:
                    out.add(target)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    target = _resolve(aliases[node.value.id], node.attr)
                    if target is not None:
                        out.add(target)
                else:
                    out.update(members.get(node.attr, ()))
    return frozenset(out)


def _reach(roots):
    seen, pending = set(), list(roots)
    while pending:
        key = pending.pop()
        if key not in seen:
            seen.add(key)
            pending.extend(_edges(key))
    return seen


def _key(dotted):
    module, _, name = dotted.partition(".")
    return module, name


# Shared by every pair. A bare module name allows all of that module.
COMMON = {
    "grids": "the finite-difference stencils every evaluator differences with; "
             "test_grids checks them against closed forms",
    "errors": "exception types",
    "fields.ELECTRON": "the default particle's mass, charge and hbar",
    "hydro._sample_potential": "A and F sampled from the provider: both sides must see "
                               "the same external field; each provider's F is checked "
                               "against differences of its A",
    "clifford.lower_index": "index movement in the one metric signature",
    "clifford.raise_index": "index movement in the one metric signature",
    "clifford.minkowski_dot": "the Minkowski inner product",
    "hydro.HydroFieldSet.rho0": "the field set's rest density rho / gamma, part of "
                                "the state both sides are given",
    "spinors.KinematicParams.kappa": "the derived angle 2 theta_u - theta of the "
                                     "spinor parametrization",
}

# (side, other side, allowed besides COMMON) for each oracle pair
PAIRS = {
    "bilinear-expanded": (
        ["hydro.second_order_residuals_bilinear"],
        ["hydro.second_order_residuals_expanded"],
        {"hydro._refuse_vacuum": "the one vacuum predicate; it refuses an input and "
                                 "computes no reported value",
         "hydro.SecondOrderResiduals": "the result type both return"},
    ),
    "squared-bilinear": (
        ["hydro.squared_dirac_residual"],
        ["hydro.second_order_residuals_bilinear"],
        {"clifford._adjoint": "the Dirac adjoint, checked bitwise against e^dagger gamma^0",
         "hydro.HydroFieldSet.spinors": "the spinor field e(params), part of the state "
                                        "both sides reconstruct"},
    ),
    "squared-expanded": (
        ["hydro.squared_dirac_residual"],
        ["hydro.second_order_residuals_expanded"],
        {},
    ),
    "pauli-lagrangian": (
        ["fisher.pauli_limit_density"],
        ["fisher.lagrangian_density"],
        {"fields.magnetic_field": "reads B out of F",
         "spinors.rest_spin": "the rest-frame spin direction of the parametrization",
         "hydro._metric_square": "d^mu f d_mu f of one grid field"},
    ),
    "derivative-residuals": (
        ["fisher.functional_derivative"],
        ["hydro.quantum_potential", "hydro.second_order_residuals_expanded"],
        {"hydro._expanded_lagrangian": "shared by design: one lagrangian for the expanded "
                                       "residual, the action and its variations",
         "hydro._expanded_bracket": "shared by design: the momentum bracket of that "
                                    "lagrangian, the only term that depends on S",
         "hydro.expanded_terms": "shared by design: the terms that lagrangian sums",
         "hydro._is_vacuum": "the one vacuum predicate; it refuses an input and computes "
                             "no reported value"},
    ),
}


def _overlap(side, other):
    return _reach(map(_key, side)) & _reach(map(_key, other))


@pytest.mark.parametrize("pair", list(PAIRS))
def test_oracle_pairs_meet_only_in_the_allow_list(pair):
    side, other, extra = PAIRS[pair]
    allowed = {**COMMON, **extra}
    modules = {entry for entry in allowed if "." not in entry}
    shared = _reach(_key(entry) for entry in allowed if "." in entry)
    unexpected = sorted(f"{m}.{n}" for m, n in _overlap(side, other)
                        if m not in modules and (m, n) not in shared)
    assert not unexpected, (
        f"{side} and {other} both reach {unexpected}; share no formula between an "
        "oracle and the code it checks, or allow the name with its reason"
    )


def _names(entry, keys):
    """The keys an allow-list entry names: all of a module's, or one."""
    return [key for key in keys if key[0] == entry or key == _key(entry)]


def test_every_allowed_name_is_shared():
    overlaps = {pair: _overlap(side, other) for pair, (side, other, _) in PAIRS.items()}
    met = set().union(*overlaps.values())
    stale = [entry for entry in COMMON if not _names(entry, met)]
    stale += [f"{pair}: {entry}" for pair, (_, _, extra) in PAIRS.items()
              for entry in extra if not _names(entry, overlaps[pair])]
    assert not stale, f"allow-list entries that no pair shares: {stale}"


# the monomial index tables of clifford, which the dense oracles must not reach
_INDEX_TABLES = {"_GAMMA_PERM", "_GAMMA_COEFF", "_PAIRS", "_PAIR_LOWER", "_PAIR_PERM",
                 "_PAIR_COEFF"}


@pytest.mark.parametrize("module,oracle,table", [
    ("hydro", "squared_dirac_residual", "_GAMMA_PAIR"),
    ("clifford", "spin_tensor", "_GAMMA_COMMUTATOR"),
])
def test_dense_oracles_read_no_index_table(module, oracle, table):
    """The squared operator and the spin tensor check the index-table code.

    They keep their dense product tables, and nothing they reach reads an
    index table.
    """
    reached = _reach([(module, oracle)])
    assert ("clifford", table) in reached
    assert not {("clifford", name) for name in _INDEX_TABLES} & reached
