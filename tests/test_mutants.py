"""The mutant catalogue of ``tests/mutants.py`` still matches the sources.

Running the catalogue takes a pytest run per mutant, so it is not part of
the suite; this guard only checks that every mutant can still be applied
and that every test named to kill it exists.
"""

import ast

import pytest
from mutants import MUTANTS, ROOT, SOURCE

_IDS = [mutant.name for mutant in MUTANTS]


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_each_fragment_occurs_once_and_its_mutant_compiles(mutant):
    text = (SOURCE / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.fragment) == 1
    assert mutant.replacement != mutant.fragment
    compile(text.replace(mutant.fragment, mutant.replacement), mutant.path, "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_each_killer_test_function_exists(mutant):
    assert mutant.killers
    for node in mutant.killers:
        path, _, name = node.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        functions = {item.name for item in tree.body if isinstance(item, ast.FunctionDef)}
        assert name in functions, node
