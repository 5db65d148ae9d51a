"""What each module may reach into: the unchecked hand-over of a run's
amplitudes stays inside `simulator`, the module that makes them."""

import ast
import pathlib

from parityflow import simulator

# hand over or split what a run made without a check or a copy
UNCHECKED = frozenset({"_owned", "_run_checked", "split_outcomes"})


def referenced_names(tree):
    """Every name an import, a bare name or an attribute access in the tree
    reads, by its last component."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_the_simulator_reaches_the_unchecked_hand_over():
    assert hasattr(simulator.Statevector, "_owned") and hasattr(simulator, "_run_checked")
    package = pathlib.Path(simulator.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "simulator.py")
    assert modules
    found = {
        (path.name, name)
        for path in modules
        for name in referenced_names(ast.parse(path.read_text(), str(path)))
        if name in UNCHECKED
    }
    assert not found, sorted(found)
